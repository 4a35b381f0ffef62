import math
import os
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgesv

from oracles import (
    ORACLE_ORDERS,
    ROUNDING_FLOOR,
    SUBNORMAL_SPACING,
    Solver,
    bisection_root,
    cubic_equation_root,
    effective_tol,
    fixed_point_root,
    half_line_sqrt_drift,
    lu2,
    newton_floor,
    reference_fd_jacobian,
    root_gap_bound,
    scalar_root,
    sqrt_kink_drift,
    trajectory,
    true_residual_bound,
    written_norm,
    written_solve,
)
from roughtaylor import solver
from roughtaylor.fbm import FbmConfig, SamplePath, sample_fbm
from roughtaylor.fields import (
    DriftField,
    cubic_radial_drift,
    double_well_drift,
    geometric_diffusion,
    linear_drift,
    zero_drift,
)
from roughtaylor.grids import make_grid
from roughtaylor.harness import (
    ADDITIVE_SCHEMES,
    MULTIPLICATIVE_SCHEMES,
    example_problem,
    run_scheme,
)
from roughtaylor.schemes import Problem, SchemeStepError
from roughtaylor.solver import (
    ConvergenceError,
    SolveReport,
    StepSizeError,
    solve_step,
)


def solver_tol(drift, h, r, y) -> float:
    """The residual bound solve_step's solution y meets: effective_tol(r, y),
    or the newton_floor of I - h*J(y), J the drift's Jacobian or central
    differences; effective_tol alone where I - h*J(y) is singular."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    J = drift.jacobian(y) if drift.jacobian is not None else reference_fd_jacobian(drift, y)
    A = np.eye(y.size) - h * np.asarray(J, dtype=float).reshape(y.size, y.size)
    try:
        written_solve(A, np.ones(y.size))
    except np.linalg.LinAlgError:
        A = None
    return max(effective_tol(r, y), newton_floor(A, y))


# drifts of the equivalence property: (drift, smallest and largest log10 h)
EQUIVALENCE_DRIFTS = {
    "double_well": (double_well_drift(), -4.0, np.log10(0.99)),
    "linear_-70": (linear_drift(-70.0), -4.0, 3.0),
    "cubic_radial_2": (cubic_radial_drift(2), -4.0, np.log10(0.99)),
    "double_well_fd": (DriftField(1, lambda y: y - y**3, 1.0), -4.0, np.log10(0.99)),
    "cubic_radial_2_fd": (DriftField(2, lambda y: y - (y @ y) * y, 1.0), -4.0, np.log10(0.99)),
    # d = 3 solves on arrays with dgesv
    "cubic_radial_3": (cubic_radial_drift(3), -4.0, np.log10(0.99)),
    "cubic_radial_3_fd": (DriftField(3, lambda y: y - (y @ y) * y, 1.0), -4.0, np.log10(0.99)),
}


def float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def value_bits(x: float):
    """The bytes of a float, every NaN as one value."""
    return "nan" if math.isnan(x) else float_bits(x)


def report_bits(rep: SolveReport):
    """A report with every float as its bytes."""
    return rep.solution.tobytes(), rep.iterations, float_bits(rep.residual), rep.method_used


def independent_root(drift, h, r):
    """The root of the step by another algorithm than the solver's, as a
    report with its residual: bisection for d = 1, the damped fixed point
    for d > 1; None where the fixed point does not converge."""
    if drift.dim == 1:
        y = np.array([scalar_root(drift, h, r[0])])
        return SolveReport(y, 0, written_norm(y - h * drift(y) - r), "bisection")
    try:
        return fixed_point_root(drift, h, r)
    except ConvergenceError:
        return None


class TestAgainstReferenceSolver:
    """The solver gives bitwise the solver oracle's report (``Solver``),
    and so bitwise the trajectory oracle's states on the paper's examples;
    its root is within the inverse-Lipschitz bound of one that bisection
    or a damped fixed point finds."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(EQUIVALENCE_DRIFTS)),
        h_frac=st.floats(0.0, 1.0),
        decade=st.floats(-6.0, 4.0),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    )
    def test_reports_equal_oracle(self, name, h_frac, decade, direction):
        drift, lo, hi = EQUIVALENCE_DRIFTS[name]
        h = 10.0 ** (lo + h_frac * (hi - lo))
        r = 10.0**decade * np.array(direction[: drift.dim])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, want = solve_step(drift, h, r), Solver(drift, h)(r)
            root = independent_root(drift, h, r)
        assert report_bits(got) == report_bits(want)
        assert got.residual <= effective_tol(r)
        if root is not None:
            gap = np.linalg.norm(got.solution - root.solution)
            assert gap <= root_gap_bound(drift, h, r, got, root)

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_DRIFTS))
    @pytest.mark.parametrize("max_newton", [0, 1])
    def test_fixed_point_equals_oracle(self, name, max_newton):
        # a root that at most one Newton step helped the damped fixed point
        # find, and the solver's, are the same root
        drift = EQUIVALENCE_DRIFTS[name][0]
        for h in (0.002, 0.01):
            for value in (0.3, -1.7, 2.5):
                r = np.full(drift.dim, value)
                want = fixed_point_root(drift, h, r, newton_steps=max_newton)
                got = solve_step(drift, h, r)
                assert got.residual <= 1e-12
                gap = np.linalg.norm(got.solution - want.solution)
                assert gap <= root_gap_bound(drift, h, r, got, want)

    @pytest.mark.parametrize(
        "example", ["example1", "example2", "example3", "scalar_geometric", "cubic_radial_3"]
    )
    def test_trajectories_equal_oracle(self, example):
        if example == "scalar_geometric":  # d = 1 multiplicative: float states through sigma
            problem = Problem(double_well_drift(), xi=[-3.0], T=1.0, diffusion=geometric_diffusion())
            m, hursts = 1, (0.5,)
        elif example == "cubic_radial_3":  # d = 3 additive: Newton on arrays with dgesv
            problem = Problem(cubic_radial_drift(3), xi=[2.0, -1.0, 0.5], T=1.0)
            m, hursts = 3, (0.5,)
        else:
            problem, m, hursts = example_problem(example)
        names = ADDITIVE_SCHEMES if problem.additive else MULTIPLICATIVE_SCHEMES
        for seed in range(3):
            path = sample_fbm(FbmConfig(hursts[0], m, make_grid(1.0, 1024), seed))
            for name in names:
                want = trajectory(problem, path, ORACLE_ORDERS[name])
                assert np.array_equal(run_scheme(name, problem, path).states, want), (name, seed)


def test_oracle_orders_cover_every_scheme():
    assert sorted(ORACLE_ORDERS) == sorted(set(ADDITIVE_SCHEMES + MULTIPLICATIVE_SCHEMES))


# finite floats of magnitude up to 1e300, zero and subnormals included
MAGNITUDES = st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300)


# the d >= 3 Newton solve: LAPACK dgesv through NumPy, None where dgesv fails
GESV = solver._gesv()


class TestOneByOneLapack:
    """For d = 1 the solver divides F / (1 - h*Jb) in place of calling the
    dgesv its d >= 3 steps call.  That is bitwise the same only because LAPACK
    solves a 1x1 system with one correctly rounded division, and signals a
    zero pivot and nothing else; a BLAS that breaks either fails here with
    that cause."""

    @settings(max_examples=1000, deadline=None)
    @given(a=MAGNITUDES, f=MAGNITUDES)
    @example(a=0.0, f=1.0)
    @example(a=-0.0, f=1.0)
    @example(a=5e-324, f=1e300)
    @example(a=-5e-324, f=-5e-324)
    @example(a=1e300, f=5e-324)
    @example(a=-1.0, f=0.0)
    def test_dgesv_is_one_division(self, a, f):
        x = GESV(np.array([[a]]), np.array([f]))
        assert (x is None) == (a == 0.0)
        if a != 0.0:
            assert float_bits(x[0]) == float_bits(f / a)

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_non_finite_pivot_is_not_singular(self, a):
        x = GESV(np.array([[a]]), np.array([3.0]))
        assert x is not None
        want = 3.0 / a
        assert np.isnan(x[0]) if np.isnan(want) else float_bits(x[0]) == float_bits(want)


# matrix entries: moderate, huge and tiny magnitudes, zeros, NaN and inf
ENTRIES = (
    st.floats(-1e3, 1e3)
    | MAGNITUDES
    | st.sampled_from([0.0, -0.0, 1.0, -2.0, np.nan, np.inf, -np.inf])
)


@st.composite
def linear_systems(draw, dims=st.integers(2, 5)):
    """(A, F) at d = 2..5 (or ``dims``); A is often exactly singular: a zero
    row or column, a repeated row, a column scaled by 2, or an integer outer
    product."""
    d = draw(dims)
    A = np.array(draw(st.lists(ENTRIES, min_size=d * d, max_size=d * d))).reshape(d, d)
    i, k = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    kind = draw(st.sampled_from(["any", "zero_row", "zero_col", "repeat_row", "scale_col", "outer"]))
    if kind == "zero_row":
        A[i] = 0.0
    elif kind == "zero_col":
        A[:, i] = 0.0
    elif kind == "repeat_row" and i != k:
        A[k] = A[i]
    elif kind == "scale_col" and i != k:
        A[:, k] = 2.0 * A[:, i]
    elif kind == "outer":
        u, v = (draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)) for _ in "uv")
        A = np.outer(u, v).astype(float)
    F = np.array(draw(st.lists(ENTRIES, min_size=d, max_size=d)))
    return A, F


class TestNumpyGesv:
    """The d >= 3 Newton system is solved by the dgesv NumPy ships, called
    through its gufunc: it must give SciPy's dgesv bytes, NaN where that one
    gives NaN (of either sign), and fail where that one reports info != 0,
    without a warning and under any errstate."""

    @settings(max_examples=500, deadline=None)
    @given(system=linear_systems())
    @example(system=(np.zeros((2, 2)), np.ones(2)))
    @example(system=(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2)))
    @example(system=(np.array([[0.1, 0.3], [0.2, 0.6]]), np.ones(2)))
    @example(system=(np.array([[0.1, 0.2], [0.3, 0.6]]), np.ones(2)))
    @example(system=(np.array([[np.nan, 1.0], [1.0, 1.0]]), np.ones(2)))
    @example(system=(np.array([[np.inf, 1.0], [1.0, np.inf]]), np.ones(2)))
    @example(system=(np.eye(3), np.array([np.inf, -np.inf, np.nan])))
    # a NaN pivot is no exact zero, so both solve; their all-NaN solutions
    # differ in the sign bits
    @example(system=(np.array([[0.0] * 5, [0.5, 2.0, 1.0, -np.inf, 0.0], [-1.0, 1.0, 2.0, -np.inf, 2.0],
                               [0.5, 0.5, 0.0, 0.5, 0.0], [1.0, np.nan, -1.0, 2.0, np.inf]]), np.zeros(5)))
    def test_equals_scipy_dgesv(self, system):
        A, F = system
        want, info = dgesv(A, F)[2:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = GESV(A, F)
        assert (got is None) == (info != 0)
        if got is not None:
            assert got.dtype == np.float64 and got.shape == F.shape
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_random_systems_equal_scipy_dgesv(self, d):
        rng = np.random.default_rng(d)
        for _ in range(2000):
            A, F = rng.standard_normal((d, d)), rng.standard_normal(d)
            assert GESV(A, F).tobytes() == dgesv(A, F)[2].tobytes()

    def test_caller_errstate_neither_applies_nor_changes(self):
        A, F = np.zeros((2, 2)), np.ones(2)
        before = np.geterr()
        gesv = solver._gesv()
        assert np.geterr() == before
        with np.errstate(all="raise"):
            # built before and inside the caller's errstate
            for solve in (gesv, solver._gesv()):
                assert solve(A, F) is None
                assert solve(np.array([[1e-300, 0.0], [0.0, 1.0]]), np.array([1e300, 0.0]))[0] == np.inf
            assert set(np.geterr().values()) == {"raise"}
        assert gesv(A, F) is None
        assert np.geterr() == before


# CI runs TestTwoByTwoKernel with OpenBLAS's Haswell kernels, whose dgesv
# rounds each operation of a 2x2 solve on its own, as the planar solve does
PLAIN_ROUNDING_BLAS = os.environ.get("OPENBLAS_CORETYPE") == "Haswell"
UNIT_ROUNDOFF = 2.0**-53
SMALLEST_NORMAL = sys.float_info.min


@st.composite
def planar_systems(draw):
    """(A, F) at d = 2: linear_systems' entries and exactly singular
    matrices, a first column of subnormals (a nonzero pivot below the
    smallest normal double, swapped or not), and Newton matrices I - h*J."""
    A, F = draw(linear_systems(dims=st.just(2)))
    kind = draw(st.sampled_from(["as_drawn", "subnormal_pivot", "newton"]))
    if kind == "subnormal_pivot":
        A[:, 0] = draw(st.lists(st.floats(-SMALLEST_NORMAL, SMALLEST_NORMAL), min_size=2, max_size=2))
    elif kind == "newton":
        h = draw(st.floats(1e-4, 1e3))
        J = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))).reshape(2, 2)
        A = np.eye(2) - h * J
    return A, F


def fused_gap(a, bc):
    """The most that a - b*c, rounded on its own, and a - b*c with one
    rounding (a fused multiply-add) can differ, from |a| and |b*c|."""
    return UNIT_ROUNDOFF * (2.0 * abs(a) + 4.0 * abs(bc)) + 2.0 * SUBNORMAL_SPACING


def fused_u22_near_zero(A, F):
    """Whether lu2's u22 = a22 - l*a12 lies within fused_gap of zero, so that
    one of it and a fused u22 can be zero and the other not."""
    a11, a12, a22, l, f1, f2 = lu2(A, F)
    return abs(a22 - l * a12) <= fused_gap(a22, l * a12)


def fused_solution_gap(A, F, x, other):
    """Componentwise bound on |x - other| for two solutions of the finite 2x2
    system A s = F, with a pivot of normal magnitude and u22 != 0, by lu2's
    elimination: x rounds every operation on its own, ``other`` fuses any
    of the multiply-adds u22 = a22 - l*a12, y2 = f2 - l*f1 and
    n1 = f1 - a12*x2.  Each of those differs by at most fused_gap; the
    quotients x2 = y2/u22 and x1 = n1/a11 carry that through (with the other
    side's solution as observed) and round once more each: relative to the
    result, and below the smallest normal double by up to one subnormal
    spacing, absolute."""
    a11, a12, a22, l, f1, f2 = lu2(A, F)
    u22 = a22 - l * a12
    gap_u22, gap_y2 = fused_gap(a22, l * a12), fused_gap(f2, l * f1)
    (x1, x2), (o1, o2) = x, other
    round_x2 = 2.0 * UNIT_ROUNDOFF * (abs(x2) + abs(o2)) + 2.0 * SUBNORMAL_SPACING
    gap_x2 = (gap_y2 + 2.0 * abs(o2) * gap_u22) / abs(u22) + round_x2
    gap_n1 = fused_gap(f1, a12 * x2) + 2.0 * abs(a12) * gap_x2
    gap_x1 = gap_n1 / abs(a11) + 2.0 * UNIT_ROUNDOFF * (abs(x1) + abs(o1)) + 2.0 * SUBNORMAL_SPACING
    return gap_x1, gap_x2


class TestTwoByTwoKernel:
    """The d = 2 Newton systems are solved on Python floats by
    ``solver._solve2`` in the order of OpenBLAS's dgesv.  Where the BLAS
    rounds each operation on its own (OPENBLAS_CORETYPE=Haswell, as CI runs
    this class), it gives the dgesv gufunc's bytes (NaN as one value) and
    None exactly where the gufunc fails, over finite, singular,
    subnormal-pivot and non-finite systems.  A kernel that fuses
    multiply-adds (SkylakeX) rounds u22, the forward and the back
    substitution once each; on any kernel, finite systems with a normal
    pivot stay within fused_solution_gap of the gufunc, and fail where it
    fails unless u22 lies within its own gap of zero."""

    @settings(max_examples=1000, deadline=None)
    @given(system=planar_systems())
    # a subnormal pivot is neither swapped nor divided out: [inf, -inf]
    @example(system=(np.array([[0.0, 0.0], [5e-324, 1.0]]), np.array([1.0, -3.0])))
    @example(system=(np.array([[1e-310, 1.0], [1e-311, 2.0]]), np.array([1.0, -3.0])))
    # an infinite pivot scales the column by 1/inf = 0 and writes zeros: singular
    @example(system=(np.array([[np.inf, 0.0], [np.nan, 0.0]]), np.array([1.0, -3.0])))
    # singular, though 3 * (1/3) rounds below 1, so a fused u22 is 2^-54
    @example(system=(np.array([[3.0, 3.0], [1.0, 1.0]]), np.array([1.0, 2.0])))
    @example(system=(np.array([[0.0, 1.0], [np.nan, 1.0]]), np.array([1.0, 2.0])))
    # a subnormal solution: each quotient's rounding is one subnormal spacing, not relative
    @example(
        system=(
            np.array(
                [[470275679.7648598, -466917343.5128534], [-2409.241119238253, -208978145.87749186]]
            ),
            np.array([4.060702110876439e-301, 4.060702110876439e-301]),
        )
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_equals_dgesv(self, system):
        A, F = system
        want = GESV(A, F)
        got = solver._solve2(A.ravel().tolist(), F.tolist())
        if PLAIN_ROUNDING_BLAS:
            assert (got is None) == (want is None)
            if got is not None:
                assert [value_bits(v) for v in got] == [value_bits(v) for v in want.tolist()]
            return
        finite = np.all(np.isfinite(A)) and np.all(np.isfinite(F))
        if not finite or max(abs(A[0, 0]), abs(A[1, 0])) < SMALLEST_NORMAL:
            return  # held to dgesv on the plain-rounding kernel alone
        if got is None or want is None:
            assert (got is None) == (want is None) or fused_u22_near_zero(A, F)
        elif np.all(np.isfinite(got)) and np.all(np.isfinite(want)):
            # the bound can be NaN (0 * inf) where the gap of x2 overflows; equal solutions pass
            bound = fused_solution_gap(A, F, got, want.tolist())
            assert np.all((np.subtract(got, want) == 0.0) | (np.abs(np.subtract(got, want)) <= bound))

    def test_solves_in_its_own_arithmetic(self):
        # no NumPy value enters or leaves it: Python floats in, floats out
        x = solver._solve2((2.0, 1.0, 1.0, 3.0), (3.0, 5.0))
        assert x == (0.8, 1.4) and all(type(v) is float for v in x)
        assert solver._solve2((1.0, 2.0, 2.0, 4.0), (1.0, 1.0)) is None
        assert solver._solve2((0.0, 0.0, 0.0, 1.0), (1.0, 1.0)) is None


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

    @pytest.mark.parametrize("y", [0.0, -0.0, 1e-300, 0.3, -2.0, 1e8, -7.5e150])
    def test_fd_jacobian_is_the_float_difference_in_one_dimension(self, y):
        # the one difference rule, on a shape-(1,) array, is bitwise the
        # central difference of the drift as a map of floats
        drift = sqrt_kink_drift()

        def b(x):
            return drift.func(np.array([x]))[0]

        eps = 1e-7 * max(1.0, abs(y))
        J = solver._fd_jacobian(drift, np.array([y]))
        assert J.shape == (1, 1)
        assert float_bits(J[0, 0]) == float_bits((b(y + eps) - b(y - eps)) / (2.0 * eps))

    def test_solution_does_not_alias_r(self):
        # a stepper may return r itself, so solve_step passes it a copy of the caller's array
        for r in (np.array([3.0]), np.array([3.0, -1.0])):
            rep = solve_step(zero_drift(r.size), 0.25, r)
            rep.solution[0] = 7.0
            assert r[0] == 3.0

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
        # I - h*J = 0, so every pass steps along the residual, y <- y - F,
        # and no pass warns of the singular system
        h = 0.1
        drift = DriftField(2, lambda y: 0.5 * y, 0.5, jacobian=lambda y: np.eye(2) / h)
        r = np.array([1.0, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_step(drift, h, r)
        assert rep.method_used == "safeguarded"
        assert rep.residual <= 1e-12
        assert np.allclose(rep.solution, r / 0.95, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "dim, shape", [(1, (3, 3)), (1, (2,)), (1, (0,)), (2, (3, 3)), (2, (2,)), (2, ()), (2, (1, 2, 2))]
    )
    def test_wrong_jacobian_shape_names_shape_and_dim(self, dim, shape):
        drift = DriftField(dim, lambda y: -y, -1.0, jacobian=lambda y: np.zeros(shape))
        want = f"drift Jacobian has shape {shape}, not ({dim}, {dim}), for d = {dim}"
        with pytest.raises(ValueError, match=re.escape(want)):
            solve_step(drift, 0.1, np.full(dim, 3.0))

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
        assert written_norm(y - h * drift(y) - r) == rep.residual
        if drift.dim == 1:
            root = scalar_root(drift, h, r[0])
            bound = true_residual_bound(drift, h, r, rep) / (1.0 - drift.one_sided_lipschitz * h)
            assert abs(y[0] - root) <= bound + 1e-14 + 2.0 * np.spacing(abs(root))


def affine_drift(s):
    """b(y) = s - y: contractive (C_b = -1, Jacobian -I), with the root
    (r + h*s)/(1 + h), about h*s/(1 + h) where |r| << |s|."""
    s = np.array(s, dtype=float).reshape(-1)
    eye = np.eye(s.size)
    return DriftField(s.size, lambda y: s - y, -1.0, lambda y: -eye)


def assert_solves_to_root(drift, h, r, root, matrix_floor=False):
    """solve_step converges on (drift, h, r) within the tolerance at its
    solution (or, with ``matrix_floor``, within solver_tol, which admits the
    Newton-matrix floor), and to ``root`` (exact Fractions, one per
    component) within the inverse-Lipschitz bound, compared in exact
    arithmetic: for a linear drift |y - y*| = |F|/m holds with equality, so
    a rounded gap or quotient decides nothing."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    rep = solve_step(drift, h, r)
    tol = solver_tol if matrix_floor else lambda drift, h, r, y: effective_tol(r, y)
    assert rep.residual <= tol(drift, h, r, rep.solution)
    gap_squared = sum((Fraction(y) - y_exact) ** 2 for y, y_exact in zip(rep.solution, root))
    # 1 - C_b*h exactly, as its rounding is large against it where C_b*h is near 1
    m = 1 - Fraction(drift.one_sided_lipschitz) * Fraction(h)
    assert gap_squared <= (Fraction(true_residual_bound(drift, h, r, rep)) / m) ** 2
    return rep


def linear_root(c, h, r):
    return [Fraction(x) / (1 - Fraction(c) * Fraction(h)) for x in np.atleast_1d(r)]


def affine_root(s, h, r):
    s, r = np.atleast_1d(s), np.atleast_1d(r)
    return [(Fraction(x) + Fraction(h) * Fraction(o)) / (1 + Fraction(h)) for x, o in zip(r, s)]


class TestRootsLargerThanR:
    """Well-posed steps whose root is much larger than r: the residual
    rounds at about eps*|y|, above the floor 16*eps*|r|, so the tolerance
    follows max(|r|, |y|) at the iterate."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("c", [0.99999, 0.9999999])
    def test_linear_drift_near_the_step_limit(self, c, dim):
        # C_b*h = c at h = 1: the root r/(1 - c) is 1e5 to 1e7 times r
        drift = linear_drift(c, dim)
        for r in np.random.default_rng(3).uniform(-3.0, 3.0, (60, dim)):
            assert_solves_to_root(drift, 1.0, r, linear_root(c, 1.0, r))

    @pytest.mark.parametrize("h", [0.01, 1.0])
    @pytest.mark.parametrize("s", [1e3, 1e5, 1e7])
    def test_contractive_affine_drift(self, s, h):
        drift = affine_drift(s)
        for r in np.random.default_rng(4).uniform(-3.0, 3.0, 50):
            assert_solves_to_root(drift, h, r, affine_root(s, h, r))

    @pytest.mark.parametrize("s", [1e3, 1e5, 1e7])
    def test_affine_drift_rounds_at_its_newton_matrix(self, s):
        # h = 100: y - h*b(y) rounds at about eps*h*|s|, above 16*eps*|y| but
        # within 16*eps*|y|*(1 + h); 80 of these 150 steps spent the budget
        # of 100 iterations while the stop looked at |r| and |y| alone
        drift, h = affine_drift(s), 100.0
        for r in np.random.default_rng(0).uniform(-3.0, 3.0, 50):
            rep = assert_solves_to_root(drift, h, r, affine_root(s, h, r), matrix_floor=True)
            assert rep.iterations <= 3

    @pytest.mark.parametrize(
        "s, r", [(1e6, 0.1), ((1e6, -1e6), (0.1, 0.3))], ids=["d=1", "d=2"]
    )
    def test_affine_root_near_half_a_million(self, s, r):
        assert_solves_to_root(affine_drift(s), 1.0, r, affine_root(s, 1.0, r))

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 2),
        ch=st.floats(0.99, 1.0, exclude_min=True, exclude_max=True),
        h=st.floats(1e-2, 1.0),
        r=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
    )
    # the root 128*r near 1e-153: the residual's square is subnormal
    @example(dim=1, ch=0.9921875, h=1.0, r=[5.333612755615782e-156, 0.0])
    def test_linear_drift_with_ch_near_one(self, dim, ch, h, r):
        c = ch / h
        assume(c * h < 1.0)
        assert_solves_to_root(linear_drift(c, dim), h, r[:dim], linear_root(c, h, r[:dim]))

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.lists(st.floats(-1e7, 1e7), min_size=2, max_size=2),
        h=st.floats(1e-4, 1.0),
        r=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        dim=st.integers(1, 2),
    )
    def test_affine_offsets_up_to_1e7(self, s, h, r, dim):
        s, r = s[:dim], r[:dim]
        assert_solves_to_root(affine_drift(s), h, r, affine_root(s, h, r))


def constant_drift(s, dim):
    """b(y) = s in every component: C_b = 0 and a zero Jacobian, so the root
    of y - h*s = r is r + h*s."""
    return DriftField(dim, lambda y: np.full(y.size, s), 0.0, lambda y: np.zeros((y.size, y.size)))


class TestFloorWhereSquaresOverflow:
    """Where |r|^2 overflows the tolerance floor 16*eps*|r| is taken from a
    rescaled norm, so it stays finite: a step whose start has a finite
    residual is solved, not returned at its start as converged."""

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 3),
        s=st.floats(-1e150, 1e150),
        h=st.floats(1e-3, 1.0),
        r=st.lists(st.floats(-1e165, 1e165), min_size=3, max_size=3),
    )
    # the floor overflowed to inf here, and the start y = r was returned after 0 iterations
    @example(dim=1, s=-1e150, h=1.0, r=[1e160] * 3)
    @example(dim=2, s=-1e150, h=1.0, r=[1e160] * 3)
    @example(dim=3, s=-1e150, h=1.0, r=[1e160] * 3)
    def test_constant_drift_solved_at_large_r(self, dim, s, h, r):
        r = np.array(r[:dim])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # and an overflowing square does not warn
            rep = solve_step(constant_drift(s, dim), h, r)
        y = rep.solution
        size = max(math.hypot(*r), math.hypot(*y))
        tol = max(1e-12, ROUNDING_FLOOR * size * (1.0 + 4.0 * UNIT_ROUNDOFF))
        assert rep.residual <= tol
        # |y - y*| is the exact residual: the computed one plus the rounding of its three terms
        gap = math.hypot(*(float(Fraction(a) - Fraction(b) - Fraction(h) * Fraction(s)) for a, b in zip(y, r)))
        assert gap <= tol + 8.0 * UNIT_ROUNDOFF * (2.0 * size + math.sqrt(dim) * abs(h * s))


class TestNonFiniteNewtonStep:
    """A Newton step with a non-finite entry is taken as one from a singular
    matrix: along the residual for d > 1, by bisection for d = 1.  The
    Jacobians are wrong for b(y) = 0.5*y on purpose: singular with a
    subnormal pivot, [[1/h, 0], [-1e-310/h, 0]] in the leading block, whose
    dgesv step (and _solve2's) is not finite, and a NaN at d = 1.  The
    report is bitwise the solver oracle's."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_converges_with_no_warning(self, d):
        h, m = 0.1, 0.95  # C_b = 0.5, so G is strongly monotone with m = 1 - 0.5*h
        J = np.zeros((d, d))
        if d == 1:
            J[0, 0] = np.nan
        else:
            J[0, 0], J[1, 0] = 1.0 / h, -1e-310 / h
        drift = DriftField(d, lambda y: 0.5 * y, 0.5, jacobian=lambda y: J)
        r = np.arange(1.0, d + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_step(drift, h, r)
        assert rep.method_used == "safeguarded" and rep.residual <= solver.DEFAULT_TOL
        root = r / m
        assert np.linalg.norm(rep.solution - root) <= rep.residual / m + 4e-16 * np.linalg.norm(root)
        assert report_bits(rep) == report_bits(Solver(drift, h)(r))


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
