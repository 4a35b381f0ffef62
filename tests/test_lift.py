from functools import reduce

import numpy as np
import pytest

from roughtaylor.fbm import SamplePath
from roughtaylor.grids import make_grid
from roughtaylor.lift import RoughLift, chen_compose, piecewise_linear_lift
from lift_checks import chen_defect, geometricity_defect


def random_lift(seed, m=None, N=None, include_level3=True):
    rng = np.random.default_rng(seed)
    m = m if m is not None else int(rng.integers(1, 4))
    N = N if N is not None else int(rng.integers(2, 17))
    values = np.vstack([np.zeros(m), np.cumsum(rng.standard_normal((N, m)), axis=0)])
    return piecewise_linear_lift(SamplePath(make_grid(1.0, N), values), include_level3)


class TestPiecewiseLinearLift:
    def test_single_interval_level2(self):
        p = SamplePath(make_grid(1.0, 1), np.array([[0.0, 0.0], [1.0, 2.0]]))
        L = piecewise_linear_lift(p)
        assert np.allclose(L.level2[0], [[0.5, 1.0], [1.0, 2.0]])

    def test_scalar_levels(self):
        p = SamplePath(make_grid(1.0, 1), np.array([0.0, 3.0]))
        L = piecewise_linear_lift(p)
        assert L.level2[0, 0, 0] == pytest.approx(4.5)
        assert L.level3[0, 0, 0, 0] == pytest.approx(4.5)

    def test_two_interval_composition(self):
        u = np.array([1.0, -0.5])
        w = np.array([0.3, 2.0])
        p = SamplePath(make_grid(1.0, 2), np.vstack([[0, 0], u, u + w]))
        L = piecewise_linear_lift(p)
        _, X2, _ = reduce(chen_compose, zip(L.increments, L.level2, L.level3))
        expected = 0.5 * np.outer(u, u) + 0.5 * np.outer(w, w) + np.outer(u, w)
        assert np.allclose(X2, expected)

    def test_scalar_geometric_identity(self):
        # m = 1 forces X2 = dx^2/2 and X3 = dx^3/6 exactly
        L = random_lift(11, m=1)
        dx = L.increments[:, 0]
        assert np.array_equal(L.level2[:, 0, 0], 0.5 * dx**2)
        assert np.allclose(L.level3[:, 0, 0, 0], dx**3 / 6.0, atol=1e-15)

    def test_without_level3(self):
        assert random_lift(3, include_level3=False).level3 is None


class TestRoughLiftShapes:
    """RoughLift names the first tensor whose shape does not fit N = 4, m = 2."""

    GOOD = dict(increments=np.zeros((4, 2)), level2=np.zeros((4, 2, 2)), level3=np.zeros((4, 2, 2, 2)))

    @pytest.mark.parametrize(
        "name, shape, message",
        [
            ("increments", (3, 2), r"increments must have shape \(N, m\), got \(3, 2\)"),
            ("increments", (4,), r"increments must have shape \(N, m\), got \(4,\)"),
            ("level2", (4, 2, 3), r"level2 must have shape \(N, m, m\), got \(4, 2, 3\)"),
            ("level3", (4, 2, 2), r"level3 must have shape \(N, m, m, m\), got \(4, 2, 2\)"),
        ],
    )
    def test_rejects_wrong_shape(self, name, shape, message):
        tensors = {**self.GOOD, name: np.zeros(shape)}
        with pytest.raises(ValueError, match=message):
            RoughLift(make_grid(1.0, 4), **tensors)


class TestChenCompose:
    def test_neutral_right_factor(self):
        L = random_lift(1, m=2, N=1)
        left = (L.increments[0], L.level2[0], L.level3[0])
        zero = (np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2, 2)))
        x, X2, X3 = chen_compose(left, zero)
        assert np.array_equal(x, left[0])
        assert np.array_equal(X2, left[1])
        assert np.array_equal(X3, left[2])

    @pytest.mark.parametrize("seed", range(4))
    def test_associativity(self, seed):
        L = random_lift(seed, N=3)

        def unit(r):
            return (L.increments[r], L.level2[r], L.level3[r])

        left_first = chen_compose(chen_compose(unit(0), unit(1)), unit(2))
        right_first = chen_compose(unit(0), chen_compose(unit(1), unit(2)))
        for a, b in zip(left_first, right_first):
            assert np.allclose(a, b, atol=1e-14)

    def test_scalar_example(self):
        one = (np.array([1.0]), np.array([[0.5]]), None)
        x, X2, X3 = chen_compose(one, one)
        assert x[0] == 2.0
        assert X2[0, 0] == pytest.approx(2.0)  # (u + w)^2 / 2
        assert X3 is None


class TestGeometricity:
    def test_piecewise_linear_is_geometric(self):
        for seed in range(5):
            assert geometricity_defect(random_lift(seed)) <= 1e-14

    def test_zero_level2_defect(self):
        x = np.array([[2.0, -1.0]])
        L = RoughLift(make_grid(1.0, 1), x, np.zeros((1, 2, 2)))
        assert geometricity_defect(L) == pytest.approx(0.5 * np.max(np.abs(np.outer(x[0], x[0]))))

    def test_scalar_geometric_lift(self):
        dx = np.array([[1.7]])
        L = RoughLift(make_grid(1.0, 1), dx, 0.5 * dx[:, :, None] * dx[:, None, :])
        assert geometricity_defect(L) == 0.0


class TestChenDefect:
    @pytest.mark.parametrize("seed", range(8))
    def test_piecewise_linear_residuals(self, seed):
        res2, res3 = chen_defect(random_lift(seed))
        assert res2 <= 1e-12
        assert res3 <= 1e-12

    def test_composed_tensors_match_riemann_quadrature(self):
        # independent oracle: iterated Riemann integrals of the piecewise
        # linear interpolant on a dense subdivision
        rng = np.random.default_rng(17)
        N, m = 3, 2
        values = np.vstack([np.zeros(m), np.cumsum(rng.standard_normal((N, m)), axis=0)])
        path = SamplePath(make_grid(1.0, N), values)
        lift = piecewise_linear_lift(path)
        x, X2, X3 = reduce(chen_compose, zip(lift.increments, lift.level2, lift.level3))

        K = 4000
        t = np.linspace(0.0, 1.0, K + 1)
        dense = np.empty((K + 1, m))
        for c in range(m):
            dense[:, c] = np.interp(t, path.grid.nodes, values[:, c])
        dx = np.diff(dense, axis=0)
        mid = 0.5 * (dense[:-1] + dense[1:]) - dense[0]
        I2 = np.einsum("ki,kj->ij", mid, dx)
        # level 3 via the running level-2 integral
        run2 = np.cumsum(np.einsum("ki,kj->kij", mid, dx), axis=0)
        run2_mid = run2 - 0.5 * np.einsum("ki,kj->kij", mid, dx)
        I3 = np.einsum("kij,kl->ijl", run2_mid, dx)

        assert np.allclose(X2, I2, atol=5e-3)
        assert np.allclose(X3, I3, atol=5e-3)
