import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgesv

from roughtaylor import schemes
from roughtaylor.fbm import FbmConfig, SamplePath, sample_fbm
from roughtaylor.fields import DriftField, cubic_radial_drift, double_well_drift, linear_drift, zero_drift
from roughtaylor.grids import make_grid
from roughtaylor.harness import (
    ADDITIVE_SCHEMES,
    MULTIPLICATIVE_SCHEMES,
    example_problem,
    run_scheme,
)
from roughtaylor.schemes import Problem, SchemeStepError
from roughtaylor.solver import (
    MAX_FALLBACK,
    MAX_NEWTON,
    ConvergenceError,
    SolveReport,
    StepSizeError,
    solve_step,
)


def bisection_root(f, lo, hi, tol=1e-14, max_iter=200):
    """Scalar bisection oracle on a sign-changing bracket."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0.0, "no bracket"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def cubic_equation_root(h, r):
    # y - h*(y - y^3) - r = 0 is strictly increasing in y for h < 1/3... but
    # already for h < 1 since 1 - h + 3*h*y^2 > 0; bracket generously
    f = lambda y: y - h * (y - y**3) - r
    lo, hi = -1.0, 1.0
    while f(lo) > 0:
        lo *= 2.0
    while f(hi) < 0:
        hi *= 2.0
    return bisection_root(f, lo, hi)


def reference_fd_jacobian(drift, y):
    eps = 1e-7 * max(1.0, float(np.linalg.norm(y)))
    d = y.size
    J = np.empty((d, d))
    for p in range(d):
        e = np.zeros(d)
        e[p] = eps
        J[:, p] = (drift(y + e) - drift(y - e)) / (2.0 * eps)
    return J


def reference_solve_step(drift, h, r, tol=1e-12, max_newton=MAX_NEWTON, max_fallback=MAX_FALLBACK):
    """Oracle: the solver as it was before its per-step overhead was cut, with
    np.linalg.solve, np.linalg.norm, a fresh identity per call and the
    residual of the returned iterate evaluated a second time."""
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    cb = drift.one_sided_lipschitz
    if cb * h >= 1.0:
        raise StepSizeError(f"C_b*h = {cb * h}")
    r = np.asarray(r, dtype=float).reshape(drift.dim)

    def residual_of(y):
        return y - h * drift(y) - r

    def finish(y, iters, method):
        res = float(np.linalg.norm(residual_of(y)))
        if res > tol:
            raise ConvergenceError("implicit step did not converge", res, iters)
        return SolveReport(y, iters, res, method)

    y = r.copy()
    F = residual_of(y)
    res = float(np.linalg.norm(F))
    iters = 0
    stall = 0
    eye = np.eye(drift.dim)
    while iters < max_newton:
        if res <= tol:
            return finish(y, iters, "newton")
        if drift.jacobian is not None:
            Jb = np.asarray(drift.jacobian(y), dtype=float)
        else:
            Jb = reference_fd_jacobian(drift, y)
        try:
            step = np.linalg.solve(eye - h * Jb, F)
        except np.linalg.LinAlgError:
            break
        y = y - step
        prev = res
        F = residual_of(y)
        res = float(np.linalg.norm(F))
        iters += 1
        if res >= prev:
            stall += 1
            if stall >= 5:
                break
        else:
            stall = 0
    if res <= tol:
        return finish(y, iters, "newton")
    for _ in range(max_fallback):
        y = 0.5 * (y + r + h * drift(y))
        iters += 1
        res = float(np.linalg.norm(residual_of(y)))
        if res <= tol:
            return finish(y, iters, "contraction")
    raise ConvergenceError("implicit step did not converge", res, iters)


# drifts of the equivalence property: (drift, smallest and largest log10 h)
EQUIVALENCE_DRIFTS = {
    "double_well": (double_well_drift(), -4.0, np.log10(0.99)),
    "linear_-70": (linear_drift(-70.0), -4.0, 3.0),
    "cubic_radial_2": (cubic_radial_drift(2), -4.0, np.log10(0.99)),
    "double_well_fd": (DriftField(1, lambda y: y - y**3, 1.0), -4.0, np.log10(0.99)),
    "cubic_radial_2_fd": (DriftField(2, lambda y: y - (y @ y) * y, 1.0), -4.0, np.log10(0.99)),
}


class TestAgainstReferenceSolver:
    """The solver gives bitwise the same reports and trajectories as the
    oracle; the one intended difference is that a non-finite residual raises
    at once, where the oracle raises only after its budgets are spent."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(EQUIVALENCE_DRIFTS)),
        h_frac=st.floats(0.0, 1.0),
        decade=st.floats(-6.0, 4.0),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    )
    def test_reports_equal_oracle(self, name, h_frac, decade, direction):
        drift, lo, hi = EQUIVALENCE_DRIFTS[name]
        h = 10.0 ** (lo + h_frac * (hi - lo))
        r = 10.0**decade * np.array(direction[: drift.dim])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                want = reference_solve_step(drift, h, r)
            except ConvergenceError:
                with pytest.raises(ConvergenceError):
                    solve_step(drift, h, r)
                return
            got = solve_step(drift, h, r)
        assert np.array_equal(got.solution, want.solution)
        assert got.iterations == want.iterations
        assert got.residual == want.residual
        assert got.method_used == want.method_used

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_DRIFTS))
    @pytest.mark.parametrize("max_newton", [0, 1])
    def test_fixed_point_equals_oracle(self, name, max_newton):
        # Newton starved, so the damped fixed point does the work
        drift = EQUIVALENCE_DRIFTS[name][0]
        for h in (0.002, 0.01):
            for r in (0.3, -1.7, 2.5):
                want = reference_solve_step(drift, h, np.full(drift.dim, r), max_newton=max_newton)
                got = solve_step(drift, h, np.full(drift.dim, r), max_newton=max_newton)
                assert np.array_equal(got.solution, want.solution)
                assert (got.iterations, got.residual) == (want.iterations, want.residual)
                assert got.method_used == want.method_used

    @pytest.mark.parametrize("example", ["example1", "example2", "example3"])
    def test_trajectories_equal_oracle(self, example, monkeypatch):
        problem, m, hursts = example_problem(example)
        names = ADDITIVE_SCHEMES if problem.additive else MULTIPLICATIVE_SCHEMES
        paths = [sample_fbm(FbmConfig(hursts[0], m, make_grid(1.0, 1024), seed)) for seed in range(3)]
        got = {(name, k): run_scheme(name, problem, path).states for name in names for k, path in enumerate(paths)}
        monkeypatch.setattr(schemes, "solve_step", reference_solve_step)
        for (name, k), states in got.items():
            assert np.array_equal(states, run_scheme(name, problem, paths[k]).states), (name, k)


# finite floats of magnitude up to 1e300, zero and subnormals included
MAGNITUDES = st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300)


def float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestOneByOneLapack:
    """For d = 1 the solver divides F / (1 - h*Jb) in place of calling dgesv.
    That is bitwise the same only because LAPACK solves a 1x1 system with
    one correctly rounded division, and signals a zero pivot and nothing
    else; a BLAS that breaks either fails here with that cause."""

    @settings(max_examples=1000, deadline=None)
    @given(a=MAGNITUDES, f=MAGNITUDES)
    @example(a=0.0, f=1.0)
    @example(a=-0.0, f=1.0)
    @example(a=5e-324, f=1e300)
    @example(a=-5e-324, f=-5e-324)
    @example(a=1e300, f=5e-324)
    @example(a=-1.0, f=0.0)
    def test_dgesv_is_one_division(self, a, f):
        x, info = dgesv(np.array([[a]]), np.array([f]))[2:]
        assert (info != 0) == (a == 0.0)
        if a != 0.0:
            assert float_bits(x[0]) == float_bits(f / a)

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_non_finite_pivot_is_not_singular(self, a):
        x, info = dgesv(np.array([[a]]), np.array([3.0]))[2:]
        assert info == 0
        want = 3.0 / a
        assert np.isnan(x[0]) if np.isnan(want) else float_bits(x[0]) == float_bits(want)


class TestSolveStep:
    def test_zero_drift_identity(self):
        rep = solve_step(zero_drift(2), 0.25, np.array([3.0, -1.0]))
        assert np.array_equal(rep.solution, [3.0, -1.0])
        assert rep.iterations <= 1

    def test_linear_closed_form(self):
        rep = solve_step(linear_drift(-70.0), 2**-5, np.array([1.0]))
        assert rep.solution[0] == pytest.approx(32.0 / 102.0, abs=1e-13)
        assert rep.method_used == "newton"

    def test_cubic_against_bisection(self):
        h = 2**-7
        rep = solve_step(double_well_drift(), h, np.array([-3.0]))
        assert rep.solution[0] == pytest.approx(cubic_equation_root(h, -3.0), abs=1e-10)

    def test_residual_contract(self):
        drift = double_well_drift()
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.uniform(-4, 4, size=1)
            h = rng.uniform(0.01, 0.4)
            rep = solve_step(drift, h, r, tol=1e-12)
            assert rep.residual <= 1e-12
            assert abs(rep.solution[0] - h * (rep.solution[0] - rep.solution[0] ** 3) - r[0]) <= 1e-12

    def test_fd_jacobian_fallback_path(self):
        # no analytic jacobian supplied
        drift = DriftField(1, lambda y: y - y**3, 1.0)
        rep = solve_step(drift, 2**-6, np.array([2.0]))
        assert rep.residual <= 1e-12

    def test_multidimensional(self):
        drift = cubic_radial_drift(2)
        rep = solve_step(drift, 2**-5, np.array([10.0, -10.0]))
        y = rep.solution
        assert np.linalg.norm(y - 2**-5 * (y - (y @ y) * y) - [10.0, -10.0]) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_lipschitz(self, seed):
        # |solve(r1) - solve(r2)| <= |r1 - r2| / (1 - C_b h)
        drift = double_well_drift()
        rng = np.random.default_rng(seed)
        h = float(rng.uniform(0.05, 0.45))
        for _ in range(25):
            r1 = rng.uniform(-5, 5, size=1)
            r2 = rng.uniform(-5, 5, size=1)
            y1 = solve_step(drift, h, r1).solution
            y2 = solve_step(drift, h, r2).solution
            bound = np.linalg.norm(r1 - r2) / (1.0 - drift.one_sided_lipschitz * h)
            assert np.linalg.norm(y1 - y2) <= bound + 1e-9

    def test_stiff_drift_has_no_step_limit(self):
        # negative one-sided Lipschitz constant: any h is admissible
        drift = linear_drift(-70.0)
        for h in (0.5, 1.0, 10.0, 1000.0):
            rep = solve_step(drift, h, np.array([2.7]))
            assert rep.solution[0] == pytest.approx(2.7 / (1.0 + 70.0 * h), rel=1e-12)

    def test_rejects_large_cb_h(self):
        with pytest.raises(StepSizeError):
            solve_step(double_well_drift(), 1.0, np.array([0.0]))
        with pytest.raises(StepSizeError):
            solve_step(linear_drift(2.0), 0.5, np.array([0.0]))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            solve_step(zero_drift(1), 0.1, np.array([0.0]), tol=0.0)

    def test_budget_exhaustion_reports_residual(self):
        drift = double_well_drift()
        with pytest.raises(ConvergenceError) as exc:
            solve_step(drift, 0.4, np.array([3.0]), tol=1e-12, max_newton=1, max_fallback=1)
        assert exc.value.residual > 0.0
        assert exc.value.iterations >= 1

    def test_fallback_label(self):
        # starve Newton so the damped fixed point finishes the job
        drift = linear_drift(-0.5)
        rep = solve_step(drift, 0.1, np.array([1.0]), tol=1e-12, max_newton=0, max_fallback=500)
        assert rep.method_used == "contraction"
        assert rep.solution[0] == pytest.approx(1.0 / 1.05, rel=1e-10)

    def test_singular_newton_matrix_falls_back(self):
        # the declared Jacobian [[1/h]] makes I - h*J singular, so Newton stops
        # at once and the damped fixed point solves y - 0.05 y = 1
        h = 0.1
        drift = DriftField(1, lambda y: 0.5 * y, 0.5, jacobian=lambda y: np.array([[1.0 / h]]))
        rep = solve_step(drift, h, np.array([1.0]))
        assert rep.method_used == "contraction"
        assert rep.residual <= 1e-12
        assert rep.solution[0] == pytest.approx(1.0 / 0.95, rel=1e-10)


def steep_cubic_drift():
    """b(y) = -1e3 y^3: monotone (C_b = 0), so every step is well posed, but
    Newton from r = 1e4 overshoots until the residual overflows."""
    return DriftField(1, lambda y: -1e3 * y**3, 0.0, jacobian=lambda y: np.array([[-3e3 * y[0] ** 2]]))


class TestNonFiniteResidual:
    @pytest.mark.parametrize("h", [0.01, 1.0])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_at_first_nonfinite_residual(self, h):
        with pytest.raises(ConvergenceError) as exc:
            solve_step(steep_cubic_drift(), h, np.array([1e4]))
        assert not np.isfinite(exc.value.residual)
        # the oracle spends both budgets (about 1030 iterations) before raising
        assert exc.value.iterations <= MAX_NEWTON

    def test_nan_drift_raises_before_iterating(self):
        drift = DriftField(1, lambda y: np.full(1, np.nan), 0.0)
        with pytest.raises(ConvergenceError) as exc:
            solve_step(drift, 0.1, np.array([1.0]))
        assert exc.value.iterations == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_trajectory_reports_the_failing_step(self):
        grid = make_grid(1.0, 100)  # h = 0.01
        values = np.zeros((101, 1))
        values[6:] = 1e4  # the increment of step 5 sends r to 1e4
        problem = Problem(steep_cubic_drift(), xi=[0.0], T=1.0)
        with pytest.raises(SchemeStepError) as exc:
            run_scheme("implicit_euler", problem, SamplePath(grid, values))
        assert exc.value.step == 5
        assert not np.isfinite(exc.value.residual)
