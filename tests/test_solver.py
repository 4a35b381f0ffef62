import warnings
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgesv

from roughtaylor import solver
from roughtaylor.fbm import FbmConfig, SamplePath, sample_fbm
from roughtaylor.fields import (
    DriftField,
    cubic_radial_drift,
    double_well_drift,
    first_order_composition,
    linear_drift,
    second_order_composition,
    zero_drift,
)
from roughtaylor.grids import make_grid
from roughtaylor.harness import (
    ADDITIVE_SCHEMES,
    MULTIPLICATIVE_SCHEMES,
    example_problem,
    run_scheme,
)
from roughtaylor.lift import piecewise_linear_lift
from roughtaylor.schemes import Problem, SchemeStepError
from roughtaylor.solver import (
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


# the tolerance floor per unit |r| and the Armijo constant of solve_step
ROUNDING_FLOOR = 16.0 * np.finfo(float).eps
ARMIJO = 0.25


def effective_tol(r):
    """solve_step's tolerance for the default tol = 1e-12."""
    return max(1e-12, ROUNDING_FLOOR * float(np.linalg.norm(r)))


def reference_solve_step(drift, h, r, tol=1e-12, max_newton=50, max_fallback=1000, residuals=None):
    """Oracle: the solver as it was before it was safeguarded and before its
    per-step overhead was cut.  Newton with an absolute tolerance, a stall
    counter and a damped fixed-point fallback, with np.linalg.solve,
    np.linalg.norm, a fresh identity per call and the residual of the
    returned iterate evaluated a second time.  ``residuals``, if given,
    collects the residual norm of the initial guess and of every Newton
    iterate."""
    if residuals is None:
        residuals = []
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
    residuals.append(res)
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
        residuals.append(res)
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


def full_newton_steps_kept(residuals, tol):
    """Whether solve_step keeps every full Newton step of an oracle run with
    these residual norms and stops where the oracle stops: each step passes
    the Armijo test, and no iterate before the last is within tolerance."""
    steps_kept = all(
        later <= max(tol, (1.0 - ARMIJO) * earlier) for earlier, later in pairwise(residuals)
    )
    return steps_kept and all(res > tol for res in residuals[:-1])


def true_residual_bound(drift, h, r, rep):
    """A bound on the exact residual |y - h*b(y) - r| of a report: its
    computed residual plus the rounding of the three terms."""
    y = rep.solution
    terms = np.linalg.norm(y) + h * np.linalg.norm(drift(y)) + np.linalg.norm(r)
    return rep.residual + ROUNDING_FLOOR * terms


def root_gap_bound(drift, h, r, *reports):
    """Inverse-Lipschitz bound on the distance between two roots of the same
    step: |y1 - y2| <= (|F1| + |F2|) / (1 - C_b*h), F the exact residuals."""
    excess = sum(true_residual_bound(drift, h, r, rep) for rep in reports)
    return excess / (1.0 - drift.one_sided_lipschitz * h)


class TestAgainstReferenceSolver:
    """Where every full Newton step of the oracle passes the Armijo test, the
    solver gives bitwise the oracle's report, and so bitwise the oracle's
    trajectories on the paper's examples.  Elsewhere it converges, to the
    oracle's root within the inverse-Lipschitz bound when the oracle
    converges too."""

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
        tol = effective_tol(r)
        residuals = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                want = reference_solve_step(drift, h, r, residuals=residuals)
            except ConvergenceError:
                want = None
            got = solve_step(drift, h, r)
        if want is not None and want.method_used == "newton" and full_newton_steps_kept(residuals, tol):
            assert np.array_equal(got.solution, want.solution)
            assert got.iterations == want.iterations
            assert got.residual == want.residual
            assert got.method_used == "newton"
            return
        assert got.residual <= tol
        if want is not None:
            gap = np.linalg.norm(got.solution - want.solution)
            assert gap <= root_gap_bound(drift, h, r, got, want)

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_DRIFTS))
    @pytest.mark.parametrize("max_newton", [0, 1])
    def test_fixed_point_equals_oracle(self, name, max_newton):
        # the oracle with Newton starved, so that its damped fixed point does
        # the work, and the solver reach the same root
        drift = EQUIVALENCE_DRIFTS[name][0]
        for h in (0.002, 0.01):
            for value in (0.3, -1.7, 2.5):
                r = np.full(drift.dim, value)
                want = reference_solve_step(drift, h, r, max_newton=max_newton)
                got = solve_step(drift, h, r)
                assert got.residual <= 1e-12
                gap = np.linalg.norm(got.solution - want.solution)
                assert gap <= root_gap_bound(drift, h, r, got, want)

    @pytest.mark.parametrize("example", ["example1", "example2", "example3"])
    def test_trajectories_equal_oracle(self, example):
        problem, m, hursts = example_problem(example)
        names = ADDITIVE_SCHEMES if problem.additive else MULTIPLICATIVE_SCHEMES
        for seed in range(3):
            path = sample_fbm(FbmConfig(hursts[0], m, make_grid(1.0, 1024), seed))
            for name in names:
                want = oracle_trajectory(name, problem, path)
                assert np.array_equal(run_scheme(name, problem, path).states, want), (name, seed)


# scheme name -> Taylor order of its noise term, or None for forward Euler
ORACLE_ORDERS = {
    "implicit_euler": 1,
    "explicit_euler": None,
    "semi_implicit_euler": 1,
    "semi_implicit_milstein": 2,
    "semi_implicit_milstein3": 3,
    "simplified_milstein": 2,
    "simplified_milstein3": 3,
}


def test_oracle_orders_cover_every_scheme():
    assert sorted(ORACLE_ORDERS) == sorted(set(ADDITIVE_SCHEMES + MULTIPLICATIVE_SCHEMES))


def oracle_trajectory(scheme, problem, path):
    """Reference oracle for the trajectory loop: each step on arrays, its
    noise term contracted from the piecewise-linear lift as the schemes do,
    and the implicit step solved by reference_solve_step.  Returns the
    states."""
    explicit = ORACLE_ORDERS[scheme] is None
    order = ORACLE_ORDERS[scheme] or 1
    h = path.grid.h
    lift = piecewise_linear_lift(path, include_level3=order == 3)
    sig = problem.diffusion
    y = problem.xi.copy()
    states = [y]
    for j, v in enumerate(lift.increments):
        if problem.additive:
            term = v
        else:
            S = sig.func(y)
            term = S @ v
            if order >= 2:
                D = sig.dfunc(y)
                term = term + np.einsum("ija,ij->a", first_order_composition(S, D), lift.level2[j])
            if order >= 3:
                F = second_order_composition(S, D, sig.d2func(y))
                term = term + np.einsum("ijka,ijk->a", F, lift.level3[j])
        if explicit:
            y = y + h * problem.drift(y) + term
        else:
            y = reference_solve_step(problem.drift, h, y + term).solution
        states.append(y)
    return np.array(states)


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

    def test_solver_binds_this_dgesv_once(self):
        # the d > 1 Newton step imports dgesv on first use; it is the same routine
        assert solver._dgesv() is dgesv
        assert solver._dgesv() is solver._dgesv()


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
            rep = solve_step(drift, h, r)
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
        # G(y) = y - h*b(y) is strongly monotone only for 0 <= h < inf with
        # C_b*h < 1; outside that the gate raises before any residual
        for drift, h in [
            (double_well_drift(), 1.0),
            (linear_drift(2.0), 0.5),
            (double_well_drift(), -0.5),
            (double_well_drift(), np.nan),
            (double_well_drift(), np.inf),
            (linear_drift(-70.0), -0.5),
            (linear_drift(-70.0), np.nan),
            (linear_drift(-70.0), np.inf),
            (zero_drift(2), np.inf),
        ]:
            with pytest.raises(StepSizeError):
                solve_step(drift, h, np.full(drift.dim, 3.0))
        for drift in (double_well_drift(), linear_drift(-70.0), cubic_radial_drift(2)):
            rep = solve_step(drift, 0.0, np.full(drift.dim, 3.0))
            assert np.array_equal(rep.solution, np.full(drift.dim, 3.0))
            assert rep.iterations == 0

    def test_budget_exhaustion_reports_residual(self, monkeypatch):
        drift = double_well_drift()
        monkeypatch.setattr(solver, "MAX_NEWTON", 1)
        with pytest.raises(ConvergenceError) as exc:
            solve_step(drift, 0.4, np.array([3.0]))
        assert exc.value.residual > 0.0
        assert exc.value.iterations >= 1

    def test_singular_newton_matrix_falls_back(self):
        # the declared Jacobian [[1/h]] makes I - h*J singular, so every pass
        # bisects the bracket of the root of y - 0.05 y = 1
        h = 0.1
        drift = DriftField(1, lambda y: 0.5 * y, 0.5, jacobian=lambda y: np.array([[1.0 / h]]))
        rep = solve_step(drift, h, np.array([1.0]))
        assert rep.method_used == "safeguarded"
        assert rep.residual <= 1e-12
        assert rep.solution[0] == pytest.approx(1.0 / 0.95, rel=1e-10)

    def test_singular_newton_matrix_in_two_dimensions(self):
        # I - h*J = 0, so every pass steps along the residual, y <- y - F
        h = 0.1
        drift = DriftField(2, lambda y: 0.5 * y, 0.5, jacobian=lambda y: np.eye(2) / h)
        r = np.array([1.0, -2.0])
        rep = solve_step(drift, h, r)
        assert rep.method_used == "safeguarded"
        assert rep.residual <= 1e-12
        assert np.allclose(rep.solution, r / 0.95, rtol=1e-10, atol=0.0)

    def test_backtracking_in_two_dimensions(self):
        # Newton on y + 1e3 arctan(y) from y = 1e3 overshoots to y < -500,
        # where the residual is larger, so the step is halved
        arctan = lambda y: -1e3 * np.arctan(y)
        drift = DriftField(2, arctan, 0.0, jacobian=lambda y: np.diag(-1e3 / (1.0 + y**2)))
        r = np.array([1e3, -20.0])
        rep = solve_step(drift, 1.0, r)
        assert rep.method_used == "safeguarded"
        assert rep.residual <= 1e-12
        # the components decouple, and each G' >= 1
        for k in range(2):
            root = scalar_root(DriftField(1, arctan, 0.0), 1.0, r[k])
            assert abs(rep.solution[k] - root) <= 1e-12 + 1e-14


def steep_cubic_drift():
    """b(y) = -1e3 y^3: monotone (C_b = 0), so every step is well posed; from
    r = 1e4 the residual's rounding (about eps*|r|) exceeds 1e-12."""
    return DriftField(1, lambda y: -1e3 * y**3, 0.0, jacobian=lambda y: np.array([[-3e3 * y[0] ** 2]]))


def sqrt_kink_drift():
    """b(y) = -sign(y) sqrt|y|, with no Jacobian: monotone (C_b = 0), but its
    slope is infinite at 0, so Newton oscillates about a root near 0."""
    return DriftField(1, lambda y: -np.sign(y) * np.sqrt(np.abs(y)), 0.0)


def half_line_sqrt_drift():
    """b(y) = -sqrt(y): decreasing (C_b = 0), but NaN for y < 0.  From a
    small r the first Newton point of the concave y + h sqrt(y) lands
    below 0, where the residual is NaN."""
    return DriftField(1, lambda y: -np.sqrt(y), 0.0, jacobian=lambda y: np.array([[-0.5 / np.sqrt(y[0])]]))


def scalar_root(drift, h, r):
    """Bisection oracle for the root of the increasing y - h*b(y) - r."""
    def f(y):
        return y - h * drift(np.array([y]))[0] - r

    lo, hi = -1.0, 1.0
    while f(lo) > 0.0:
        lo *= 2.0
    while f(hi) < 0.0:
        hi *= 2.0
    return bisection_root(f, lo, hi)


class TestSteepAndKinkedSteps:
    """Well-posed steps the Newton / fixed-point solver failed on: Newton
    stalled at the residual's rounding above 1e-12 and the fixed point then
    overflowed, or Newton oscillated about the kink of a square root."""

    @pytest.mark.parametrize("h", [0.01, 1.0])
    def test_steep_cubic(self, h):
        rep = solve_step(steep_cubic_drift(), h, np.array([1e4]))
        assert rep.residual <= effective_tol(1e4)
        root = bisection_root(lambda y: y + h * 1e3 * y**3 - 1e4, 0.0, 1e4)
        assert rep.solution[0] == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("h", [0.5, 0.1, 0.01])
    def test_double_well_far_out(self, h):
        rep = solve_step(double_well_drift(), h, np.array([1e6]))
        assert rep.residual <= effective_tol(1e6)
        assert rep.solution[0] == pytest.approx(cubic_equation_root(h, 1e6), rel=1e-12)

    def test_sqrt_kink_without_jacobian(self):
        drift, h = sqrt_kink_drift(), 0.1
        rep = solve_step(drift, h, np.array([1e-6]))
        assert rep.residual <= 1e-12
        assert rep.method_used == "safeguarded"
        # y + 0.1 sqrt(y) = 1e-6 has the root y = 9.998e-11, and G' >= 1
        assert abs(rep.solution[0] - scalar_root(drift, h, 1e-6)) <= 1e-12 + 1e-14


# monotone drifts of the convergence property: (drift, largest h)
MONOTONE_DRIFTS = {
    "double_well": (double_well_drift(), 0.99),
    "steep_cubic": (steep_cubic_drift(), 1e3),
    "sqrt_kink_fd": (sqrt_kink_drift(), 1e3),
    "linear_-1e6": (linear_drift(-1e6), 1e3),
    "cubic_radial_2": (cubic_radial_drift(2), 0.99),
    "cubic_radial_2_fd": (DriftField(2, lambda y: y - (y @ y) * y, 1.0), 0.99),
}


class TestMonotoneConvergence:
    """For C_b*h < 1 every step has one root, and the solver finds it at
    every magnitude of r: the residual is within the effective tolerance,
    and in d = 1 the root is the bisection oracle's within the
    inverse-Lipschitz bound."""

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(sorted(MONOTONE_DRIFTS)),
        h_frac=st.floats(0.0, 1.0),
        decade=st.floats(-6.0, 6.0),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    )
    def test_converges_over_twelve_decades(self, name, h_frac, decade, direction):
        drift, h_max = MONOTONE_DRIFTS[name]
        h = 10.0 ** (-4.0 + h_frac * (np.log10(h_max) + 4.0))
        r = 10.0**decade * np.array(direction[: drift.dim])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = solve_step(drift, h, r)
        y = rep.solution
        assert rep.residual <= effective_tol(r)
        assert np.linalg.norm(y - h * drift(y) - r) == rep.residual
        if drift.dim == 1:
            root = scalar_root(drift, h, r[0])
            bound = true_residual_bound(drift, h, r, rep) / (1.0 - drift.one_sided_lipschitz * h)
            assert abs(y[0] - root) <= bound + 1e-14 + 2.0 * np.spacing(abs(root))


class TestNonFiniteResidual:
    @pytest.mark.parametrize("h", [0.01, 1.0])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_at_first_nonfinite_residual(self, h):
        # r = 1e-6 < h^2/4, so the first Newton point is negative
        with pytest.raises(ConvergenceError) as exc:
            solve_step(half_line_sqrt_drift(), h, np.array([1e-6]))
        assert not np.isfinite(exc.value.residual)
        assert exc.value.iterations == 1

    def test_nan_drift_raises_before_iterating(self):
        drift = DriftField(1, lambda y: np.full(1, np.nan), 0.0)
        with pytest.raises(ConvergenceError) as exc:
            solve_step(drift, 0.1, np.array([1.0]))
        assert exc.value.iterations == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_trajectory_reports_the_failing_step(self):
        grid = make_grid(1.0, 100)  # h = 0.01
        values = np.zeros((101, 1))
        values[6:] = 1e-6  # the increment of step 5 sends r to 1e-6
        problem = Problem(half_line_sqrt_drift(), xi=[0.0], T=1.0)
        with pytest.raises(SchemeStepError) as exc:
            run_scheme("implicit_euler", problem, SamplePath(grid, values))
        assert exc.value.step == 5
        assert not np.isfinite(exc.value.residual)
