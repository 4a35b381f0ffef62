import math
import os
import re
import sys
import warnings
from fractions import Fraction
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgesv

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
from roughtaylor.lift import piecewise_linear_lift
from roughtaylor.schemes import BLOWUP_NORM, BlowupError, Problem, SchemeStepError
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


def lu2(A, F):
    """The elimination of a 2x2 system A s = F written out on Python floats,
    each operation rounded on its own: rows swapped only where |a21| > |a11|,
    the multiplier l = a21 * (1/a11).  Returns (a11, a12, a22, l, f1, f2)
    after the swap, so that u22 = a22 - l*a12; LinAlgError at a zero pivot."""
    (a11, a12), (a21, a22) = np.asarray(A, dtype=float).tolist()
    f1, f2 = np.asarray(F, dtype=float).tolist()
    if abs(a21) > abs(a11):
        a11, a12, a21, a22, f1, f2 = a21, a22, a11, a12, f2, f1
    if a11 == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return a11, a12, a22, a21 * (1.0 / a11), f1, f2


def written_solve(A, F):
    """np.linalg.solve(A, F), written out for d = 2, where the solver solves
    on floats: lu2, forward substitution f2 - l*f1, then back substitution
    by division.  Holds for the normal pivots of these oracles' systems
    (TestTwoByTwoKernel holds the solver to dgesv on any)."""
    if np.size(F) != 2:
        return np.linalg.solve(A, F)
    a11, a12, a22, l, f1, f2 = lu2(A, F)
    u22 = a22 - l * a12
    if u22 == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    x2 = (f2 - l * f1) / u22
    return np.array([(f1 - a12 * x2) / a11, x2])


def written_norm(v) -> float:
    """np.linalg.norm(v), written out for d = 2 as sqrt(v1*v1 + v2*v2),
    where np.linalg.norm's dot product may fuse its multiply-add."""
    if np.size(v) != 2:
        return float(np.linalg.norm(v))
    v1, v2 = np.asarray(v, dtype=float).tolist()
    return math.sqrt(v1 * v1 + v2 * v2)


# the tolerance floor per unit |r| and the Armijo constant of solve_step
ROUNDING_FLOOR = 16.0 * np.finfo(float).eps
ARMIJO = 0.25


def effective_tol(r, y=0.0):
    """solve_step's tolerance for the default tol = 1e-12 at the iterate y:
    max(1e-12, 16*eps*max(|r|, |y|)), today's bound where |y| <= |r|."""
    return max(1e-12, ROUNDING_FLOOR * max(written_norm(r), written_norm(y)))


def newton_floor(A, y) -> float:
    """solve_step's second stop at the iterate y: 16*eps*|y| times the
    largest absolute row sum of the Newton matrix A at y; 0 where A is
    singular or that product is not finite."""
    A, y = np.atleast_2d(np.asarray(A, dtype=float)), np.atleast_1d(y)
    try:
        written_solve(A, np.ones(y.size))
    except np.linalg.LinAlgError:
        return 0.0
    floor = ROUNDING_FLOOR * written_norm(y) * float(np.abs(A).sum(axis=1).max())
    return floor if floor < math.inf else 0.0


def solver_tol(drift, h, r, y) -> float:
    """The residual bound solve_step's solution y meets: effective_tol(r, y),
    or the newton_floor of I - h*J(y), J the drift's Jacobian or central
    differences."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    J = drift.jacobian(y) if drift.jacobian is not None else reference_fd_jacobian(drift, y)
    return max(effective_tol(r, y), newton_floor(np.eye(y.size) - h * np.asarray(J, dtype=float), y))


def reference_solve_step(
    drift, h, r, tol=1e-12, max_newton=50, max_fallback=1000, residuals=None,
    start=None, jacobians=None,
):
    """Oracle: the solver as it was before it was safeguarded and before its
    per-step overhead was cut.  Newton with a stall counter and a damped
    fixed-point fallback, with np.linalg.solve and np.linalg.norm (written
    out for d = 2: written_solve, written_norm), a fresh identity per call
    and the residual of the returned iterate evaluated a second time.  It
    stops where the solver does: within max(tol, 16*eps*max(|r|, |y|)) at
    the iterate y, or at y within the newton_floor of its Newton matrix
    where the Newton step from y fails the Armijo test.  Newton starts at
    ``start``, r if none is given.  ``residuals``, if given, collects the
    residual norm of the initial guess and of every Newton iterate, and
    ``jacobians`` every drift Jacobian evaluated."""
    if residuals is None:
        residuals = []
    if jacobians is None:
        jacobians = []
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    cb = drift.one_sided_lipschitz
    if cb * h >= 1.0:
        raise StepSizeError(f"C_b*h = {cb * h}")
    r = np.asarray(r, dtype=float).reshape(drift.dim)

    def residual_of(y):
        return y - h * drift(y) - r

    def finish(y, iters, method, floor=0.0):
        res = written_norm(residual_of(y))
        if res > max(tol, effective_tol(r, y), floor):
            raise ConvergenceError("implicit step did not converge", res, iters)
        return SolveReport(y, iters, res, method)

    y = r.copy() if start is None else np.array(start, dtype=float).reshape(drift.dim)
    F = residual_of(y)
    res = written_norm(F)
    residuals.append(res)
    iters = 0
    stall = 0
    eye = np.eye(drift.dim)
    while iters < max_newton:
        if res <= max(tol, effective_tol(r, y)):
            return finish(y, iters, "newton")
        if drift.jacobian is not None:
            Jb = np.asarray(drift.jacobian(y), dtype=float)
        else:
            Jb = reference_fd_jacobian(drift, y)
        jacobians.append(Jb)
        floor = newton_floor(eye - h * Jb, y)
        try:
            step = written_solve(eye - h * Jb, F)
        except np.linalg.LinAlgError:
            break
        y, y_last = y - step, y
        prev = res
        F = residual_of(y)
        res = written_norm(F)
        residuals.append(res)
        iters += 1
        if res > effective_tol(r) and res > (1.0 - ARMIJO) * prev and prev <= floor:
            # the solver rejects this step, and stops at its start within newton_floor
            return finish(y_last, iters, "safeguarded", floor)
        if res >= prev:
            stall += 1
            if stall >= 5:
                break
        else:
            stall = 0
    if res <= max(tol, effective_tol(r, y)):
        return finish(y, iters, "newton")
    for _ in range(max_fallback):
        y = 0.5 * (y + r + h * drift(y))
        iters += 1
        res = written_norm(residual_of(y))
        if res <= max(tol, effective_tol(r, y)):
            return finish(y, iters, "contraction")
    raise ConvergenceError("implicit step did not converge", res, iters)


class DocumentedStart:
    """Oracle of where a trajectory's stepper starts each solve, on arrays:
    r_j on the first solve, while no Newton matrix has been formed, where
    the last one, A = I - h*Jb, is singular, and where the residual at the
    guess is not finite; else the guess y_j + A^{-1}(r_j - r_{j-1} - F_j),
    with y_j the last solution, r_{j-1} its right-hand side and F_j its
    residual.  Jb is the last entry of ``jacobians``, where the oracle's
    solver appends every Jacobian it evaluates; ``solved`` records each
    solution."""

    def __init__(self, drift, h):
        self.drift, self.h = drift, h
        self.jacobians = []
        self.last = None

    def __call__(self, r):
        if self.last is None or not self.jacobians:
            return r
        r_last, y_last, F_last = self.last
        A = np.eye(r.size) - self.h * self.jacobians[-1]
        try:
            guess = y_last + written_solve(A, (r - r_last) - F_last)
        except np.linalg.LinAlgError:
            return r
        with np.errstate(all="ignore"):
            F = guess - self.h * self.drift(guess) - r
        return guess if np.isfinite(written_norm(F)) else r

    def solved(self, r, y):
        self.last = r, y, y - self.h * self.drift(y) - r


def documented_solve_step(drift, h, r, start, jacobians):
    """Oracle of one solve of a trajectory's stepper, on arrays: the
    iteration solve_step documents, from ``start``, with np.linalg.solve and
    np.linalg.norm (written out for d = 2) and, for d = 1, the bracket on
    1-element arrays.  Every
    Jacobian evaluated (the drift's own, or central differences) is
    appended to ``jacobians``.  Returns the solution; raises
    ConvergenceError where and with the residual the solver does."""
    tol = effective_tol(r)
    m = min(1.0, 1.0 - drift.one_sided_lipschitz * h)
    jacobian = drift.jacobian or (lambda y: reference_fd_jacobian(drift, y))
    eye = np.eye(drift.dim)

    def residual(y, iters, last):
        if iters > solver.MAX_NEWTON:
            raise ConvergenceError("implicit step did not converge", last, iters - 1)
        F = y - h * drift(y) - r
        res = written_norm(F)
        if not np.isfinite(res):
            raise ConvergenceError("implicit step residual is not finite", res, iters)
        return F, res

    y = start
    F, res = residual(y, 0, None)
    iters, lo, hi = 0, None, None
    while res > effective_tol(r, y):
        jacobians.append(np.array(jacobian(y), dtype=float))
        floor = newton_floor(eye - h * jacobians[-1], y)
        try:
            step = written_solve(eye - h * jacobians[-1], F)
        except np.linalg.LinAlgError:
            step = None
        if drift.dim > 1:
            # full Newton step, halved until the Armijo test passes;
            # along the residual where the Newton matrix is singular; a
            # rejected full step from y within newton_floor stops at y
            step = F if step is None else step
            shrink = 1.0
            while True:
                iters += 1
                F_trial, res_trial = residual(y - step, iters, res)
                if res_trial <= tol or res_trial <= (1.0 - ARMIJO * shrink) * res:
                    break
                if shrink == 1.0 and res <= floor:
                    return y
                step, shrink = 0.5 * step, 0.5 * shrink
            y, F, res = y - step, F_trial, res_trial
            continue
        # d = 1: the Newton point if it lies in the bracket and passes the
        # Armijo test, else (or stop at y within newton_floor) the midpoint
        # of the bracket narrowed by it
        tried = step is not None and (lo is None or lo < y - step < hi)
        if tried:
            iters += 1
            F_trial, res_trial = residual(y - step, iters, res)
            if res_trial <= tol or res_trial <= (1.0 - ARMIJO) * res:
                y, F, res = y - step, F_trial, res_trial
                continue
        if res <= floor:
            break
        if lo is None:
            width = 2.0 * res / m
            lo, hi = y - width, y + width
        for point, value in [(y, F), (y - step, F_trial)] if tried else [(y, F)]:
            if value < 0.0:
                lo = max(lo, point)
            else:
                hi = min(hi, point)
        y = 0.5 * (lo + hi)
        iters += 1
        F, res = residual(y, iters, res)
    return y


def documented_start_solver(drift, h):
    """r -> the solution of y - h*b(y) = r on arrays, for the steps of one
    trajectory in order: each step is solved by documented_solve_step from
    the DocumentedStart."""
    start = DocumentedStart(drift, h)

    def solve(r):
        y = documented_solve_step(drift, h, r, start(r), start.jacobians)
        start.solved(r, y)
        return y

    return solve


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


def full_newton_steps_kept(residuals, tol):
    """Whether solve_step keeps every full Newton step of an oracle run with
    these residual norms and stops where the oracle stops: each step passes
    the Armijo test, and no iterate before the last is within tolerance."""
    steps_kept = all(
        later <= max(tol, (1.0 - ARMIJO) * earlier) for earlier, later in pairwise(residuals)
    )
    return steps_kept and all(res > tol for res in residuals[:-1])


# the spacing of the subnormal doubles: a square that underflows below the
# smallest normal double is rounded by half of it at most
SUBNORMAL_SPACING = 2.0**-1074


def true_residual_bound(drift, h, r, rep):
    """A bound on the exact residual |y - h*b(y) - r| of a report: its
    computed residual plus the rounding of the three terms and of the norm.
    The norm sqrt(F.F) of a residual below about 1e-154 squares into the
    subnormals, where each square is off by less than 2^-1074 absolutely,
    so it is off by less than d*2^-1074/|F| (and than sqrt(d*2^-1074))."""
    y = rep.solution
    terms = np.linalg.norm(y) + h * np.linalg.norm(drift(y)) + np.linalg.norm(r)
    underflow = y.size * SUBNORMAL_SPACING
    return rep.residual + ROUNDING_FLOOR * terms + underflow / max(rep.residual, math.sqrt(underflow))


def root_gap_bound(drift, h, r, *reports):
    """Inverse-Lipschitz bound on the distance between two roots of the same
    step: |y1 - y2| <= (|F1| + |F2|) / (1 - C_b*h), F the exact residuals."""
    excess = sum(true_residual_bound(drift, h, r, rep) for rep in reports)
    return excess / (1.0 - drift.one_sided_lipschitz * h)


class TestAgainstReferenceSolver:
    """Where every full Newton step of the oracle passes the Armijo test, the
    solver gives bitwise the oracle's report, and so, each solve started
    where DocumentedStart says, bitwise the oracle's trajectories on the
    paper's examples.  Elsewhere it converges, to the oracle's root within
    the inverse-Lipschitz bound when the oracle converges too."""

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


def written_sum(products) -> float:
    """A sum over one index of a matrix product, left to right."""
    total = products[0]
    for p in products[1:]:
        total = total + p
    return total


def written_row(row, v) -> float:
    """One entry of a matrix-vector product as OpenBLAS sums it where it
    rounds every operation on its own: the even-indexed products left to
    right, plus the odd-indexed ones."""
    products = [a * b for a, b in zip(row, v)]
    if len(products) == 1:
        return products[0]
    return written_sum(products[0::2]) + written_sum(products[1::2])


def written_term(S, D, D2, v, X2, X3):
    """The noise term the schemes contract from sigma, dsigma and d2sigma at
    y (shapes (d, m), (d, m, d), (d, m, d, d)) and one step's lift, written
    out on Python floats, where S.dot(v) may fuse multiply-adds:
    sum_{i,k,p} S[p, i] D[a, k, p] X2[i, k] = sum_{k,p} D[a, k, p] W[k, p] with
    W[k, p] = sum_i X2[i, k] S[p, i], and level 3 as
    sum_{k,p} D[a, k, p] V[k, p] + sum_{k,p,q} D2[a, k, p, q] (S P)[k, p, q]
    with P[k, l, q] = sum_i X3[i, l, k] S[q, i] and
    V[k, p] = sum_{l,q} D[p, l, q] P[k, l, q].  Each sum over one index is
    left to right, each matrix-vector row written_row."""
    d, m = S.shape
    S, D, v = S.tolist(), D.reshape(d, m * d).tolist(), v.tolist()
    term = [written_row(S[a], v) for a in range(d)]
    if X2 is None:
        return np.array(term)
    X2 = X2.tolist()
    W = [[written_sum([X2[i][k] * S[p][i] for i in range(m)]) for p in range(d)] for k in range(m)]
    if X3 is not None:
        X3 = X3.tolist()
        P = [
            [[written_sum([X3[i][l][k] * S[q][i] for i in range(m)]) for q in range(d)] for l in range(m)]
            for k in range(m)
        ]
        flat_P = [[P[k][l][q] for l in range(m) for q in range(d)] for k in range(m)]
        V = [[written_sum([a * b for a, b in zip(flat_P[k], D[p])]) for p in range(d)] for k in range(m)]
        W = [[W[k][p] + V[k][p] for p in range(d)] for k in range(m)]
        SP = [
            written_sum([S[a][l] * P[k][l][q] for l in range(m)])
            for k in range(m) for a in range(d) for q in range(d)
        ]
        rows = D2.reshape(d, m * d * d).tolist()
        term = [t + written_row(rows[a], SP) for a, t in enumerate(term)]
    flat_W = [w for row in W for w in row]
    return np.array([t + written_row(D[a], flat_W) for a, t in enumerate(term)])


def oracle_trajectory(scheme, problem, path, kept=None):
    """Reference oracle for the trajectory loop: each step on arrays, its
    noise term contracted from the piecewise-linear lift by the products
    the schemes use (written_term), and the implicit step solved by
    reference_solve_step from the DocumentedStart.  Returns the states; a
    state of norm above BLOWUP_NORM (or NaN) raises BlowupError and a failed
    solve SchemeStepError, each with its step index.  ``kept``, if given,
    collects for each solve whether it kept every full Newton step, where
    the solver's iteration is bitwise the reference's."""
    explicit = ORACLE_ORDERS[scheme] is None
    order = ORACLE_ORDERS[scheme] or 1
    h = path.grid.h
    lift = piecewise_linear_lift(path, include_level3=order == 3)
    sig = problem.diffusion
    start = DocumentedStart(problem.drift, h)
    y = problem.xi.copy()
    states = [y]
    for j, v in enumerate(lift.increments):
        if problem.additive:
            term = v
        else:
            term = written_term(
                sig.func(y), sig.dfunc(y), sig.d2func(y), v,
                lift.level2[j] if order >= 2 else None, lift.level3[j] if order >= 3 else None,
            )
        if explicit:
            y = y + h * problem.drift(y) + term
        else:
            r, residuals = y + term, []
            try:
                report = reference_solve_step(
                    problem.drift, h, r, start=start(r), jacobians=start.jacobians,
                    residuals=residuals,
                )
            except ConvergenceError as err:
                raise SchemeStepError(j, err) from err
            y = report.solution
            start.solved(r, y)
            if kept is not None:
                kept.append(
                    report.method_used == "newton"
                    and full_newton_steps_kept(residuals, effective_tol(r))
                )
        n = written_norm(y)
        if not n <= BLOWUP_NORM:
            raise BlowupError(j, n)
        states.append(y)
    return np.array(states)


# finite floats of magnitude up to 1e300, zero and subnormals included
MAGNITUDES = st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300)


def float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def value_bits(x: float):
    """The bytes of a float, every NaN as one value."""
    return "nan" if math.isnan(x) else float_bits(x)


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
    side's solution as observed) and round once more each."""
    a11, a12, a22, l, f1, f2 = lu2(A, F)
    u22 = a22 - l * a12
    gap_u22, gap_y2 = fused_gap(a22, l * a12), fused_gap(f2, l * f1)
    (x1, x2), (o1, o2) = x, other
    gap_x2 = (gap_y2 + 2.0 * abs(o2) * gap_u22) / abs(u22) + 2.0 * UNIT_ROUNDOFF * (abs(x2) + abs(o2))
    gap_n1 = fused_gap(f1, a12 * x2) + 2.0 * abs(a12) * gap_x2
    gap_x1 = gap_n1 / abs(a11) + 2.0 * UNIT_ROUNDOFF * (abs(x1) + abs(o1))
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
