import numpy as np
import pytest

from roughtaylor.fields import (
    DiffusionField,
    audit_one_sided_lipschitz,
    constant_diffusion,
    cosine_diffusion,
    cubic_radial_drift,
    double_well_drift,
    first_order_composition,
    geometric_diffusion,
    linear_drift,
    second_order_composition,
    validate_diffusion_derivatives,
    validate_drift_jacobian,
)


def sine_diffusion():
    # scalar sigma(y) = sin(y)
    return DiffusionField(
        1,
        1,
        lambda y: np.sin(y).reshape(1, 1),
        lambda y: np.cos(y).reshape(1, 1, 1),
        lambda y: -np.sin(y).reshape(1, 1, 1, 1),
    )


def square_diffusion():
    # scalar sigma(y) = y^2
    return DiffusionField(
        1,
        1,
        lambda y: (y**2).reshape(1, 1),
        lambda y: (2.0 * y).reshape(1, 1, 1),
        lambda y: 2.0 * np.ones((1, 1, 1, 1)),
    )


class TestFirstOrderComposition:
    def test_constant_sigma_vanishes(self):
        sig = constant_diffusion([[1.0, -2.0], [0.5, 3.0]])
        assert np.array_equal(first_order_composition(sig, np.ones(2)), np.zeros((2, 2, 2)))

    def test_linear_scalar(self):
        y = np.array([1.7])
        assert first_order_composition(geometric_diffusion(), y)[0, 0, 0] == pytest.approx(1.7)

    def test_sine_scalar(self):
        y = np.array([0.6])
        out = first_order_composition(sine_diffusion(), y)[0, 0, 0]
        assert out == pytest.approx(np.sin(0.6) * np.cos(0.6))

    def test_cross_check_finite_differences(self):
        sig = cosine_diffusion()
        rng = np.random.default_rng(0)
        eps = 1e-6
        for _ in range(5):
            y = rng.uniform(1.0, 4.0, size=2)
            E = first_order_composition(sig, y)
            S = sig.func(y)
            for i in range(2):
                for j in range(2):
                    fd = np.zeros(2)
                    for p in range(2):
                        e = np.zeros(2)
                        e[p] = eps
                        fd += S[p, i] * (sig.func(y + e)[:, j] - sig.func(y - e)[:, j]) / (2 * eps)
                    assert np.allclose(E[i, j], fd, atol=1e-7)

    def test_linear_in_leading_index(self):
        # the composition depends on sigma_i only through its value: replacing
        # the i-th value column by a combination combines the results, as long
        # as the other slots (which see derivatives) are left untouched
        base = cosine_diffusion()
        y = np.array([2.0, -1.0])

        def with_first_column(combiner):
            def func(z):
                S = base.func(z).copy()
                S[:, 0] = combiner(S)
                return S

            return DiffusionField(2, 2, func, base.dfunc, base.d2func)

        E = first_order_composition(base, y)
        E_sum = first_order_composition(with_first_column(lambda S: S[:, 0] + S[:, 1]), y)
        E_scaled = first_order_composition(with_first_column(lambda S: 3.0 * S[:, 0]), y)
        assert np.allclose(E_sum[0, 1], E[0, 1] + E[1, 1])
        assert np.allclose(E_scaled[0, 1], 3.0 * E[0, 1])

        F = second_order_composition(base, y)
        F_sum = second_order_composition(with_first_column(lambda S: S[:, 0] + S[:, 1]), y)
        assert np.allclose(F_sum[0, 1, 1], F[0, 1, 1] + F[1, 1, 1])


class TestSecondOrderComposition:
    def test_constant_sigma_vanishes(self):
        sig = constant_diffusion([[1.0, 2.0]])
        assert np.array_equal(second_order_composition(sig, np.zeros(1)), np.zeros((2, 2, 2, 1)))

    def test_linear_scalar(self):
        y = np.array([-0.8])
        assert second_order_composition(geometric_diffusion(), y)[0, 0, 0, 0] == pytest.approx(-0.8)

    def test_square_scalar(self):
        y = np.array([1.3])
        out = second_order_composition(square_diffusion(), y)[0, 0, 0, 0]
        assert out == pytest.approx(6.0 * 1.3**4)

    @pytest.mark.parametrize("sig_builder", [sine_diffusion, square_diffusion, cosine_diffusion])
    def test_stepwise_operator_consistency(self, sig_builder):
        # applying the first-order operator to the first-order composition by
        # finite differences must reproduce the closed two-term formula
        sig = sig_builder()
        rng = np.random.default_rng(42)
        eps = 1e-5
        d, m = sig.dim, sig.noise_dim
        for _ in range(3):
            y = rng.uniform(1.0, 3.0, size=d)
            F = second_order_composition(sig, y)
            S = sig.func(y)
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        fd = np.zeros(d)
                        for q in range(d):
                            e = np.zeros(d)
                            e[q] = eps
                            g_plus = first_order_composition(sig, y + e)[j, k]
                            g_minus = first_order_composition(sig, y - e)[j, k]
                            fd += S[q, i] * (g_plus - g_minus) / (2 * eps)
                        assert np.allclose(F[i, j, k], fd, atol=1e-5)


class TestCatalogue:
    def test_double_well_jacobian(self):
        drift = double_well_drift()
        assert validate_drift_jacobian(drift, [np.array([v]) for v in (-2.0, 0.3, 1.5)]) < 1e-6

    def test_cubic_radial_jacobian(self):
        drift = cubic_radial_drift(2)
        rng = np.random.default_rng(3)
        pts = [rng.uniform(-2, 2, size=2) for _ in range(4)]
        assert validate_drift_jacobian(drift, pts) < 1e-5

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_jacobians_equal_closed_forms_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        linear = linear_drift(-70.0, dim=dim)
        radial = cubic_radial_drift(dim)
        for _ in range(50):
            y = rng.normal(size=dim) * 10.0 ** rng.uniform(-6, 6)
            assert np.array_equal(linear.jacobian(y), -70.0 * np.eye(dim))
            want = (1.0 - y @ y) * np.eye(dim) - 2.0 * np.outer(y, y)
            assert np.array_equal(radial.jacobian(y), want)

    def test_linear_jacobian_is_shared_read_only(self):
        drift = linear_drift(3.0, dim=2)
        J = drift.jacobian(np.zeros(2))
        assert drift.jacobian(np.ones(2)) is J
        with pytest.raises(ValueError):
            J[0, 0] = 0.0

    @pytest.mark.parametrize(
        "drift",
        [double_well_drift(), linear_drift(-70.0), linear_drift(0.8, dim=3), cubic_radial_drift(2)],
    )
    def test_one_sided_lipschitz_not_falsified(self, drift):
        rng = np.random.default_rng(8)
        assert audit_one_sided_lipschitz(drift, rng, trials=500) <= 1e-10

    def test_cosine_diffusion_derivatives(self):
        rng = np.random.default_rng(1)
        pts = [rng.uniform(1.0, 5.0, size=2) for _ in range(6)]
        assert validate_diffusion_derivatives(cosine_diffusion(), pts, eps=1e-4) <= 1e-6

    def test_cosine_diffusion_values(self):
        y = np.array([10.0, -10.0])
        S = cosine_diffusion().func(y)
        assert S[0, 0] == pytest.approx(np.cos(-10.0))
        assert S[1, 0] == pytest.approx(-0.9 - 10.0 * np.cos(10.0))
        assert S[0, 1] == pytest.approx(np.cos(np.sqrt(200.0)))
        assert S[1, 1] == 0.0

    def test_radius_guard_near_origin(self):
        sig = cosine_diffusion()
        with pytest.raises(ValueError, match=r"\|y\|"):
            sig.dfunc(np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match=r"\|y\|"):
            sig.d2func(np.array([1e-13, 0.0]))
