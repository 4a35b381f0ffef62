import errno

import numpy as np
import pytest

from roughtaylor import grids
from roughtaylor.grids import _check_target, make_grid


class TestMakeGrid:
    def test_nodes(self):
        g = make_grid(1.0, 4)
        assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_step(self):
        assert np.array_equal(make_grid(1.0, 1).nodes, [0.0, 1.0])

    def test_step_size(self):
        assert make_grid(2.0, 8).h == 0.25

    @pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -2)])
    def test_rejects_bad_input(self, T, N):
        with pytest.raises(ValueError):
            make_grid(T, N)

    @pytest.mark.parametrize("T", [float("inf"), float("nan"), -float("inf")])
    def test_rejects_non_finite_horizon(self, T):
        with pytest.raises(ValueError, match="final time must be positive and finite"):
            make_grid(T, 4)


def test_check_target_names_an_ancestor_that_is_not_writable(tmp_path, monkeypatch):
    # os.access stands in for a read-only directory, which root could write anyway
    monkeypatch.setattr(grids.os, "access", lambda path, mode: False)
    with pytest.raises(OSError, match="Permission denied") as exc:
        _check_target(tmp_path / "new" / "table.csv")
    assert (exc.value.errno, exc.value.filename) == (errno.EACCES, str(tmp_path))
