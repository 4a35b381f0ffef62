import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughtaylor.fbm import SamplePath
from roughtaylor.fields import (
    _RADIUS_FLOOR,
    DiffusionField,
    DriftField,
    constant_diffusion,
    cosine_diffusion,
    cubic_radial_drift,
    double_well_drift,
    first_order_composition,
    geometric_diffusion,
    linear_drift,
    second_order_composition,
    zero_drift,
)
from roughtaylor.grids import make_grid
from roughtaylor.harness import run_scheme
from roughtaylor.schemes import Problem, boundedness_bound
from roughtaylor.solver import _on_floats, solve_step


def _first_at(sigma: DiffusionField, y) -> np.ndarray:
    """first_order_composition of sigma's value and first derivative at y."""
    return first_order_composition(sigma.func(y), sigma.dfunc(y))


def _second_at(sigma: DiffusionField, y) -> np.ndarray:
    """second_order_composition of sigma and its derivatives at y."""
    return second_order_composition(sigma.func(y), sigma.dfunc(y), sigma.d2func(y))


def _validate_diffusion_derivatives(sigma: DiffusionField, points, eps: float = 1e-4) -> float:
    """Max deviation of dfunc/d2func from central finite differences of
    func/dfunc over the given points."""
    worst = 0.0
    for y in points:
        y = np.asarray(y, dtype=float)
        D = np.asarray(sigma.dfunc(y), dtype=float)
        D2 = np.asarray(sigma.d2func(y), dtype=float)
        for p in range(sigma.dim):
            e = np.zeros(sigma.dim)
            e[p] = eps
            fd1 = (np.asarray(sigma.func(y + e)) - np.asarray(sigma.func(y - e))) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd1 - D[:, :, p]))))
            fd2 = (np.asarray(sigma.dfunc(y + e)) - np.asarray(sigma.dfunc(y - e))) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd2 - D2[:, :, :, p]))))
    return worst


def _validate_drift_jacobian(drift: DriftField, points, eps: float = 1e-6) -> float:
    """Max deviation of the declared drift Jacobian from central differences."""
    worst = 0.0
    for y in points:
        y = np.asarray(y, dtype=float)
        J = np.asarray(drift.jacobian(y), dtype=float)
        for p in range(drift.dim):
            e = np.zeros(drift.dim)
            e[p] = eps
            fd = (drift(y + e) - drift(y - e)) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd - J[:, p]))))
    return worst


def _audit_one_sided_lipschitz(drift: DriftField, rng, trials: int = 200, radius: float = 5.0) -> float:
    """Largest observed violation of the one-sided Lipschitz inequality on
    random pairs: max of <b(u)-b(v), u-v>/|u-v|^2 - C_b.  Nonpositive samples
    cannot certify the declared constant, but a positive value falsifies it."""
    worst = -np.inf
    for _ in range(trials):
        u = rng.uniform(-radius, radius, size=drift.dim)
        v = rng.uniform(-radius, radius, size=drift.dim)
        gap = u - v
        denom = float(gap @ gap)
        if denom < 1e-16:
            continue
        quot = float((drift(u) - drift(v)) @ gap) / denom
        worst = max(worst, quot - drift.one_sided_lipschitz)
    return worst


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
        assert np.array_equal(_first_at(sig, np.ones(2)), np.zeros((2, 2, 2)))

    def test_linear_scalar(self):
        y = np.array([1.7])
        assert _first_at(geometric_diffusion(), y)[0, 0, 0] == pytest.approx(1.7)

    def test_sine_scalar(self):
        y = np.array([0.6])
        out = _first_at(sine_diffusion(), y)[0, 0, 0]
        assert out == pytest.approx(np.sin(0.6) * np.cos(0.6))

    def test_cross_check_finite_differences(self):
        sig = cosine_diffusion()
        rng = np.random.default_rng(0)
        eps = 1e-6
        for _ in range(5):
            y = rng.uniform(1.0, 4.0, size=2)
            E = _first_at(sig, y)
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

        E = _first_at(base, y)
        E_sum = _first_at(with_first_column(lambda S: S[:, 0] + S[:, 1]), y)
        E_scaled = _first_at(with_first_column(lambda S: 3.0 * S[:, 0]), y)
        assert np.allclose(E_sum[0, 1], E[0, 1] + E[1, 1])
        assert np.allclose(E_scaled[0, 1], 3.0 * E[0, 1])

        F = _second_at(base, y)
        F_sum = _second_at(with_first_column(lambda S: S[:, 0] + S[:, 1]), y)
        assert np.allclose(F_sum[0, 1, 1], F[0, 1, 1] + F[1, 1, 1])


class TestSecondOrderComposition:
    def test_constant_sigma_vanishes(self):
        sig = constant_diffusion([[1.0, 2.0]])
        assert np.array_equal(_second_at(sig, np.zeros(1)), np.zeros((2, 2, 2, 1)))

    def test_linear_scalar(self):
        y = np.array([-0.8])
        assert _second_at(geometric_diffusion(), y)[0, 0, 0, 0] == pytest.approx(-0.8)

    def test_square_scalar(self):
        y = np.array([1.3])
        out = _second_at(square_diffusion(), y)[0, 0, 0, 0]
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
            F = _second_at(sig, y)
            S = sig.func(y)
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        fd = np.zeros(d)
                        for q in range(d):
                            e = np.zeros(d)
                            e[q] = eps
                            g_plus = _first_at(sig, y + e)[j, k]
                            g_minus = _first_at(sig, y - e)[j, k]
                            fd += S[q, i] * (g_plus - g_minus) / (2 * eps)
                        assert np.allclose(F[i, j, k], fd, atol=1e-5)


class TestCatalogue:
    def test_double_well_jacobian(self):
        drift = double_well_drift()
        assert _validate_drift_jacobian(drift, [np.array([v]) for v in (-2.0, 0.3, 1.5)]) < 1e-6

    def test_cubic_radial_jacobian(self):
        drift = cubic_radial_drift(2)
        rng = np.random.default_rng(3)
        pts = [rng.uniform(-2, 2, size=2) for _ in range(4)]
        assert _validate_drift_jacobian(drift, pts) < 1e-5

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_jacobians_equal_closed_forms_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        linear = linear_drift(-70.0, dim=dim)
        radial = cubic_radial_drift(dim)
        for _ in range(50):
            y = rng.normal(size=dim) * 10.0 ** rng.uniform(-6, 6)
            assert np.array_equal(linear.jacobian(y), -70.0 * np.eye(dim))
            want = (1.0 - squares(y)) * np.eye(dim) - 2.0 * np.outer(y, y)
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
        assert _audit_one_sided_lipschitz(drift, rng, trials=500) <= 1e-10

    def test_cosine_diffusion_derivatives(self):
        rng = np.random.default_rng(1)
        pts = [rng.uniform(1.0, 5.0, size=2) for _ in range(6)]
        assert _validate_diffusion_derivatives(cosine_diffusion(), pts, eps=1e-4) <= 1e-6

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


# The catalogue evaluators as they were first written, one numpy operation
# per term: the rewritten evaluators must give these bytes.  The drift's
# |y|^2 is the sum of squares left to right, as its float form computes it,
# where y @ y may fuse multiply-adds.


def squares(y) -> float:
    return functools.reduce(lambda s, a: s + a * a, np.asarray(y).tolist(), 0.0)


def _oracle_radius(y):
    # |y|^2 summed left to right: y @ y may fuse its multiply-add
    r = float(np.sqrt(squares(y)))
    if r <= _RADIUS_FLOOR:
        raise ValueError(f"derivatives of |y| are undefined at |y| = {r:.3g} <= {_RADIUS_FLOOR}")
    return r


def oracle_cosine_value(y):
    r = float(np.sqrt(squares(y)))
    return np.array([[np.cos(y[1]), np.cos(r)], [-0.9 - 10.0 * np.cos(y[0]), 0.0]])


def oracle_cosine_first(y):
    r = _oracle_radius(y)
    D = np.zeros((2, 2, 2))
    D[0, 0] = (0.0, -np.sin(y[1]))
    D[1, 0] = (10.0 * np.sin(y[0]), 0.0)
    D[0, 1] = -np.sin(r) * y / r
    return D


def oracle_cosine_second(y):
    # a numpy scalar power overflows to inf where a Python float power raises
    r = np.float64(_oracle_radius(y))
    D2 = np.zeros((2, 2, 2, 2))
    D2[0, 0, 1, 1] = -np.cos(y[1])
    D2[1, 0, 0, 0] = 10.0 * np.cos(y[0])
    outer = np.outer(y, y)
    D2[0, 1] = -np.cos(r) * outer / r**2 - np.sin(r) * (np.eye(2) * r**2 - outer) / r**3
    return D2


def oracle_cubic_radial(y):
    return y - squares(y) * y


def oracle_cubic_radial_jacobian(y):
    return (1.0 - squares(y)) * np.eye(y.size) - 2.0 * (y[:, None] * y)


def oracle_double_well_jacobian(y):
    return np.array([[1.0 - 3.0 * y[0] ** 2]])


def evaluation(f, y):
    """dtype, shape and bytes of f(y), or the type and message of its error
    (|y| below the radius floor)."""
    try:
        out = f(y)
    except ValueError as err:
        return type(err).__name__, str(err)
    return out.dtype, out.shape, out.tobytes()


def polar(radius, angle):
    return np.array([radius * np.cos(angle), radius * np.sin(angle)])


# coordinates of moderate size, signed zeros, |y| near 1e103 (|y|^3 past
# the largest double), near 1e150 (|y|^2 near it) and near the radius floor
COORDINATES = (
    st.floats(-1e3, 1e3)
    | st.sampled_from([0.0, -0.0])
    | st.floats(1e102, 1e104)
    | st.floats(-1e104, -1e102)
    | st.floats(1e149, 1e151)
    | st.floats(-1e151, -1e149)
    | st.floats(-3e-12, 3e-12)
)
POINTS = st.lists(COORDINATES, min_size=2, max_size=2).map(np.array) | st.builds(
    polar, st.floats(0.5 * _RADIUS_FLOOR, 2.0 * _RADIUS_FLOOR), st.floats(0.0, 7.0)
)


class TestCatalogueAgainstOracles:
    """The catalogue evaluators give bitwise what the oracles above give,
    raising the same error where the |y| derivatives are undefined."""

    @settings(max_examples=500, deadline=None)
    @given(y=POINTS)
    @example(y=np.array([_RADIUS_FLOOR, 0.0]))
    @example(y=np.array([np.nextafter(_RADIUS_FLOOR, 1.0), -0.0]))
    @example(y=np.array([-0.0, -0.0]))
    @example(y=np.array([1e103, -1e103]))
    @example(y=np.array([1e150, -1e150]))
    @example(y=np.array([1e155, 3.0]))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_planar_evaluators(self, y):
        sigma, radial = cosine_diffusion(), cubic_radial_drift(2)
        pairs = [
            (sigma.func, oracle_cosine_value),
            (sigma.dfunc, oracle_cosine_first),
            (sigma.d2func, oracle_cosine_second),
            (radial, oracle_cubic_radial),
            (radial.jacobian, oracle_cubic_radial_jacobian),
        ]
        for got, want in pairs:
            assert evaluation(got, y) == evaluation(want, y), want.__name__

    @settings(max_examples=300, deadline=None)
    @given(y=st.lists(COORDINATES, min_size=1, max_size=3).map(np.array))
    @example(y=np.array([-0.0]))
    @example(y=np.array([1e155, -0.0, 2.0]))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_drift_jacobians(self, y):
        radial = cubic_radial_drift(y.size)
        assert evaluation(radial.jacobian, y) == evaluation(oracle_cubic_radial_jacobian, y)
        assert evaluation(radial, y) == evaluation(oracle_cubic_radial, y)
        if y.size == 1:
            jacobian = double_well_drift().jacobian
            assert evaluation(jacobian, y) == evaluation(oracle_double_well_jacobian, y)


class TestDriftFieldCall:
    @pytest.mark.parametrize(
        "dim, func",
        [
            (2, lambda y: [y[0], -1.0]),
            (1, lambda y: 2.5),
            (1, lambda y: np.float64(-0.25)),
            (2, lambda y: np.array([1, -2])),
            (2, lambda y: np.array([0.1, 0.7], dtype=np.float32)),
            (2, lambda y: np.array([[0.5, 1.5]])),
        ],
    )
    def test_output_is_float64_of_shape_dim(self, dim, func):
        y = np.full(dim, 0.5)
        out = DriftField(dim, func, 0.0)(y)
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (dim,)
        assert np.array_equal(out, np.asarray(func(y), dtype=float).reshape(dim))

    def test_float64_output_of_shape_dim_is_returned_as_is(self):
        value = np.array([1.0, 2.0])
        assert DriftField(2, lambda y: value, 0.0)(np.zeros(2)) is value

    @pytest.mark.parametrize(
        "dim, output", [(1, [1.0, 2.0]), (1, []), (2, [1.0]), (2, np.zeros(3))]
    )
    @pytest.mark.parametrize(
        "form", ["call", "solve_step", "implicit_euler", "explicit_euler", "bound"]
    )
    def test_wrong_size_output_names_size_and_dim(self, dim, output, form):
        # d = 1 trajectories evaluate the drift on floats, d = 2 ones through
        # DriftField.__call__: both raise the one error
        drift = DriftField(dim, lambda y: output, 0.0)
        size = np.size(output)
        message = rf"drift returned {size} values for a state of dimension d = {dim}$"
        problem = Problem(drift, xi=np.ones(dim), T=1.0)
        path = SamplePath(make_grid(1.0, 4), np.zeros((5, dim)))
        runs = {
            "call": lambda: drift(np.ones(dim)),
            "solve_step": lambda: solve_step(drift, 0.1, np.ones(dim)),
            "implicit_euler": lambda: run_scheme("implicit_euler", problem, path),
            "explicit_euler": lambda: run_scheme("explicit_euler", problem, path),
            "bound": lambda: boundedness_bound(problem, path),
        }
        with pytest.raises(ValueError, match=message):
            runs[form]()


def scalar_catalogue(coeff):
    """The catalogue's d = 1 drifts, each evaluator of which has a float form."""
    return {
        "double_well": double_well_drift(),
        "linear": linear_drift(coeff),
        "zero": zero_drift(1),
    }


def float_bits(x):
    """The bytes of a float, every NaN as one value."""
    return "nan" if math.isnan(x) else np.float64(x).tobytes()


# signed zeros, subnormals, the extremes of the doubles, values whose square
# or cube overflow or underflow, infinities and NaN; and a y whose libm
# pow(y, 2) is not y*y and one whose AVX-512 array y**3 is not y*y*y
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
    1e-308, -1e-308, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-200, -1e-200, 1e103, -1e103, 1.4e154, -1.4e154, math.inf, -math.inf, math.nan,
    -1.4394943995478604, 1.8107117333462355,
]


def planar_catalogue(coeff):
    """The catalogue's d = 2 drifts, each evaluator of which has a float form."""
    return {
        "cubic_radial": cubic_radial_drift(2),
        "linear": linear_drift(coeff, dim=2),
        "zero": zero_drift(2),
    }


class TestFloatForms:
    """Each evaluator of a catalogue d = 1 or d = 2 drift has a float form,
    which the stepper of its dimension calls in place of it: it has the bits
    of the evaluator on a shape-(d,) array at every float (every pair of
    floats), and raises at none.  So has each evaluator of a catalogue
    d <= 2 diffusion, which the noise term calls, as a flat tuple; it raises
    where the array evaluator raises."""

    @staticmethod
    def check(coeff, y):
        for name, drift in scalar_catalogue(coeff).items():
            for evaluator in (drift.func, drift.jacobian):
                floats = _on_floats(evaluator)
                assert floats is evaluator._floats, name
                got = floats(y)
                assert type(got) is float, name
                with np.errstate(all="ignore"):
                    want = np.asarray(evaluator(np.array([y]))).item()
                assert float_bits(got) == float_bits(want), (name, coeff, y)

    @settings(max_examples=500, deadline=None)
    @given(coeff=st.floats(), y=st.floats())
    def test_property_float_form_is_array_form_bitwise(self, coeff, y):
        self.check(coeff, y)

    @pytest.mark.parametrize("y", EDGE_FLOATS)
    def test_edge_floats(self, y):
        for coeff in (-70.0, 30.0, 1.0, -0.0, 1e300, -math.inf, math.nan):
            self.check(coeff, y)

    @staticmethod
    def check_planar(coeff, y):
        with np.errstate(all="ignore"):  # an infinite coefficient times the identity's zeros
            catalogue = planar_catalogue(coeff)
        for name, drift in catalogue.items():
            for evaluator in (drift.func, drift.jacobian):
                floats = _on_floats(evaluator, 2)
                assert floats is evaluator._floats, name
                got = floats(list(y))
                assert all(type(v) is float for v in got), name
                with np.errstate(all="ignore"):
                    want = np.asarray(evaluator(np.array(y))).ravel().tolist()
                assert [float_bits(v) for v in got] == [float_bits(v) for v in want], (name, coeff, y)

    @settings(max_examples=500, deadline=None)
    @given(coeff=st.floats(), y=st.lists(st.floats(), min_size=2, max_size=2))
    def test_property_planar_float_form_is_array_form_bitwise(self, coeff, y):
        self.check_planar(coeff, y)

    @pytest.mark.parametrize("y1", EDGE_FLOATS)
    def test_planar_edge_floats(self, y1):
        for y2 in EDGE_FLOATS:
            for coeff in (-70.0, -0.0, 1e300, math.nan):
                self.check_planar(coeff, (y1, y2))

    @staticmethod
    def check_diffusions(sigmas, y):
        """Each evaluator's float form gives, at the float or pair y, the
        entries of the evaluator on np.array(y) in row-major order, bit for
        bit, as a tuple of floats, or raises the same error."""
        for sigma in sigmas:
            for evaluator in (sigma.func, sigma.dfunc, sigma.d2func):
                try:
                    got = evaluator._floats(y)
                except ValueError as err:
                    with pytest.raises(ValueError, match=re.escape(str(err))):
                        evaluator(np.array(y, ndmin=1))
                    continue
                assert type(got) is tuple and all(type(v) is float for v in got)
                want = np.asarray(evaluator(np.array(y, ndmin=1))).ravel().tolist()
                assert [float_bits(v) for v in got] == [float_bits(v) for v in want], (y, sigma)

    @settings(max_examples=500, deadline=None)
    @given(y=POINTS | st.lists(st.floats(), min_size=2, max_size=2).map(np.array))
    @example(y=np.array([1e155, 3.0]))
    @example(y=np.array([np.nextafter(_RADIUS_FLOOR, 1.0), -0.0]))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_planar_diffusion_float_forms_are_array_forms_bitwise(self, y):
        sigmas = [
            cosine_diffusion(),
            constant_diffusion([[1.0, -2.0], [0.5, 3.0]]),
            constant_diffusion([[1.0, 0.0, 2.0], [0.0, 1.0, 0.5]]),
        ]
        self.check_diffusions(sigmas, tuple(y.tolist()))

    @settings(max_examples=300, deadline=None)
    @given(y=st.floats())
    def test_scalar_diffusion_float_forms_are_array_forms_bitwise(self, y):
        sigmas = [geometric_diffusion(), constant_diffusion([[0.7]]), constant_diffusion([[0.7, -1.5]])]
        self.check_diffusions(sigmas, y)

    def test_user_fields_and_other_dimensions_keep_the_scratch_array(self):
        seen = []
        user = DriftField(1, lambda y: seen.append(y) or -y, -1.0)
        assert _on_floats(user.func)(2.0) == -2.0
        assert seen[0].shape == (1,) and not hasattr(user.func, "_floats")
        planar = DriftField(2, lambda y: seen.append(y) or -y, -1.0)
        assert _on_floats(planar.func, 2)((2.0, -3.0)) == [-2.0, 3.0]
        assert seen[1].shape == (2,) and not hasattr(planar.func, "_floats")
        for drift in (linear_drift(-70.0, dim=3), zero_drift(3), cubic_radial_drift(3), cubic_radial_drift(1)):
            assert not hasattr(drift.func, "_floats") and not hasattr(drift.jacobian, "_floats")
