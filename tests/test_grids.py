import numpy as np
import pytest

from roughtaylor.grids import make_grid


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
