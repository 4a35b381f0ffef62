"""References for the tests: one solver oracle (``Solver``), one trajectory
oracle (``trajectory``), the arithmetic they are written in, the drifts
several test modules share, and roots found by other algorithms than the
solver's (bisection, closed forms, a damped fixed point), against which
``root_gap_bound`` holds a solution."""

import math

import numpy as np

from roughtaylor import solver
from roughtaylor.fields import DriftField, first_order_composition, second_order_composition
from roughtaylor.schemes import BLOWUP_NORM, BlowupError, SchemeStepError
from roughtaylor.solver import ConvergenceError, SolveReport, StepSizeError

# the solver's default tolerance (a literal, so that a change to the solver's
# fails the comparisons with the oracle), the tolerance floor per unit |r|
# or |y|, and the Armijo constant of the solver
TOL = 1e-12
ROUNDING_FLOOR = 16.0 * np.finfo(float).eps
ARMIJO = 0.25
# the spacing of the subnormal doubles: a square that underflows below the
# smallest normal double is rounded by half of it at most
SUBNORMAL_SPACING = 2.0**-1074

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


def sqrt_kink_drift():
    """b(y) = -sign(y) sqrt|y|, with no Jacobian: monotone (C_b = 0), but its
    slope is infinite at 0, so Newton oscillates about a root near 0."""
    return DriftField(1, lambda y: -np.sign(y) * np.sqrt(np.abs(y)), 0.0)


def half_line_sqrt_drift():
    """b(y) = -sqrt(y): decreasing (C_b = 0), but NaN for y < 0.  From a
    small r the first Newton point of the concave y + h sqrt(y) lands
    below 0, where the residual is NaN."""
    return DriftField(1, lambda y: -np.sqrt(y), 0.0, jacobian=lambda y: np.array([[-0.5 / np.sqrt(y[0])]]))


# ---------------------------------------------------------------------------
# arithmetic of the oracles


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
    by division.  Holds for normal pivots (TestTwoByTwoKernel holds the
    solver to dgesv on any)."""
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


def floor_norm(v) -> float:
    """|v| in the solver's tolerance floors: written_norm, or where its
    squares overflow max|v_i| times |v / max|v_i||, summed left to right;
    inf if v is not finite."""
    n = written_norm(v)
    if n < math.inf:
        return n
    v = np.atleast_1d(v).tolist()
    big = max(map(abs, v))
    if not big < math.inf:
        return math.inf
    return big * math.sqrt(sum((a / big) * (a / big) for a in v))


def effective_tol(r, y=0.0):
    """The solver's tolerance at the iterate y: max(1e-12, 16*eps*max(|r|, |y|))."""
    return max(TOL, ROUNDING_FLOOR * max(floor_norm(r), floor_norm(y)))


def newton_floor(A, y) -> float:
    """The solver's stop after a rejected step from the iterate y: 16*eps*|y|
    times the largest absolute row sum of the Newton matrix A at y; 0 where
    A is None (singular) or that product is not finite."""
    if A is None:
        return 0.0
    floor = ROUNDING_FLOOR * floor_norm(y) * np.abs(A).sum(axis=1).max()
    return floor if floor < math.inf else 0.0


def reference_fd_jacobian(drift, y):
    """Central differences, column by column, step 1e-7*max(1, |y|)."""
    eps = 1e-7 * max(1.0, float(np.linalg.norm(y)))
    return np.column_stack([(drift(y + e) - drift(y - e)) / (2.0 * eps) for e in eps * np.eye(y.size)])


# ---------------------------------------------------------------------------
# the solver oracle


class Solver:
    """The solver oracle: the iteration of ``solver._implicit_step`` on
    arrays (np.linalg.solve and np.linalg.norm, written out for d = 2),
    for the implicit steps of one trajectory in order.  Called with a
    right-hand side r it returns the SolveReport of its solve of
    y - h*b(y) = r, or raises ConvergenceError where and with the residual
    the solver does; a fresh Solver called once is ``solve_step``.

    - Start: the Newton point y + A^{-1}(r - r' - F) from the last
      solution y, r' and F the last right-hand side and accepted residual,
      A the last Newton matrix; r where there is no A, or where the
      residual at the Newton point is not finite.
    - Iteration, while the residual is above max(1e-12, 16*eps*|r|) and
      16*eps*|y| at the iterate y: the full Newton step, with
      A = I - h*J at y, kept if it cuts the residual to 3/4 or to the
      first bound.  A singular A, or a step with an entry that is not
      finite, leaves no A and no step (d > 1: the step is F).
    - After a rejection: stop at y within newton_floor(A, y); else halve
      the step until a step of length t cuts the residual by 1 - t/4
      (d > 1), or bisect a bracket y -+ 2|F|/min(1, 1 - C_b*h) from the
      first rejection, narrowed by the residual's sign at y and at the
      Newton point, which is tried only inside it (d = 1).
    - Every residual after the start's is an iteration; the one after
      MAX_NEWTON raises, as does one that is not finite."""

    def __init__(self, drift, h):
        cb = drift.one_sided_lipschitz
        if not (0.0 <= h < math.inf and cb * h < 1.0):
            raise StepSizeError(f"C_b*h = {cb * h}")
        self.drift, self.h, self.m = drift, float(h), min(1.0, 1.0 - cb * h)
        self.jacobian = drift.jacobian or (lambda y: reference_fd_jacobian(drift, y))
        self.A = None  # the last Newton matrix formed, None where it was singular
        self.last = None  # (y, r, F) of the last solve

    def residual(self, y, r, iters, last):
        if iters > solver.MAX_NEWTON:
            raise ConvergenceError("implicit step did not converge", last, iters - 1)
        F = y - self.h * self.drift(y) - r
        res = written_norm(F)
        if not math.isfinite(res):
            raise ConvergenceError("implicit step residual is not finite", res, iters)
        return F, res

    def newton(self, y, F):
        """(A, A^{-1} F) at y, or (None, None) where A is singular or the
        step is not finite."""
        d = y.size
        A = np.eye(d) - self.h * np.asarray(self.jacobian(y), dtype=float).reshape(d, d)
        try:
            step = written_solve(A, F)
        except np.linalg.LinAlgError:
            return None, None
        return (A, step) if np.all(np.isfinite(step)) else (None, None)

    @np.errstate(all="ignore")
    def __call__(self, r) -> SolveReport:
        h, d = self.h, self.drift.dim
        y = r = np.array(r, dtype=float).reshape(d)
        if self.A is not None:
            y_last, r_last, F_last = self.last
            y = y_last + written_solve(self.A, (r - r_last) - F_last)
        F = y - h * self.drift(y) - r
        res = written_norm(F)
        if not math.isfinite(res):
            y = r
            F, res = self.residual(y, r, 0, None)
        tol = max(TOL, ROUNDING_FLOOR * floor_norm(r))
        iters, method, lo, hi = 0, "newton", None, None
        while res > tol and res > ROUNDING_FLOOR * floor_norm(y):
            A, step = self.newton(y, F)
            self.A = A
            if step is None and d > 1:
                step, method = F, "safeguarded"
            tried = step is not None and (lo is None or lo < y - step < hi)
            if tried:
                iters += 1
                F_trial, res_trial = self.residual(y - step, r, iters, res)
                if res_trial <= tol or res_trial <= (1.0 - ARMIJO) * res:
                    y, F, res = y - step, F_trial, res_trial
                    continue
            method = "safeguarded"
            if res <= newton_floor(A, y):
                break
            if d > 1:
                shrink = 1.0
                while res_trial > tol and res_trial > (1.0 - ARMIJO * shrink) * res:
                    step, shrink = 0.5 * step, 0.5 * shrink
                    iters += 1
                    F_trial, res_trial = self.residual(y - step, r, iters, res)
                y, F, res = y - step, F_trial, res_trial
                continue
            if lo is None:
                width = 2.0 * res / self.m
                lo, hi = y - width, y + width
            for point, value in [(y, F), (y - step, F_trial)] if tried else [(y, F)]:
                lo, hi = (max(lo, point), hi) if value < 0.0 else (lo, min(hi, point))
            y = 0.5 * (lo + hi)
            iters += 1
            F, res = self.residual(y, r, iters, res)
        self.last = y, r, F
        return SolveReport(y, iters, res, method)


# ---------------------------------------------------------------------------
# the noise term and the trajectory oracle


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


def composition_term(S, D, D2, v, X2, X3):
    """The noise term by the composition tensors of ``fields``: sigma v plus
    each composition contracted against its level with ``einsum``."""
    out = S @ v
    if X2 is not None:
        out = out + np.einsum("ija,ij->a", first_order_composition(S, D), X2)
    if X3 is not None:
        out = out + np.einsum("ijka,ijk->a", second_order_composition(S, D, D2), X3)
    return out


def trajectory(problem, path, order=1, compositions=False):
    """The trajectory oracle: one loop on arrays, y_{j+1} = solve(y_j + t_j),
    or y_j + h*b(y_j) + t_j for forward Euler (``order`` None), from
    y_0 = xi; returns the states.  A state of norm above BLOWUP_NORM (or
    NaN) raises BlowupError and a failed solve SchemeStepError, each with
    its step index.

    The noise term t_j is the increment v of the path for additive
    problems; else sigma's value and derivatives at y_j contracted with v
    and, up to ``order`` (1 for forward Euler), the increment products
    v⊗v/2 and v⊗v⊗v/6 of the piecewise-linear lift, by written_term's BLAS
    order, or with ``compositions`` by composition_term's einsum.  The
    steps are solved by one Solver, from the documented start."""
    h, drift, sigma = path.grid.h, problem.drift, problem.diffusion
    term = composition_term if compositions else written_term
    solve = Solver(drift, h)
    y = problem.xi.copy()
    states = [y]
    for j, v in enumerate(np.diff(path.values, axis=0)):
        t = v
        if not problem.additive:
            X2 = 0.5 * np.multiply.outer(v, v) if order in (2, 3) else None
            X3 = np.multiply.outer(np.multiply.outer(v, v), v) / 6.0 if order == 3 else None
            t = term(sigma.func(y), sigma.dfunc(y), sigma.d2func(y), v, X2, X3)
        if order is None:
            y = y + h * drift(y) + t
        else:
            try:
                y = solve(y + t).solution
            except ConvergenceError as err:
                raise SchemeStepError(j, err) from err
        n = written_norm(y)
        if not n <= BLOWUP_NORM:
            raise BlowupError(j, n)
        states.append(y)
    return np.array(states)


# ---------------------------------------------------------------------------
# roots by other algorithms than the solver's


def bisection_root(f, lo, hi, tol=1e-14, max_iter=200):
    """Scalar bisection on a sign-changing bracket."""
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


def bracketed_root(f):
    """bisection_root of the increasing f, from a bracket doubled out of [-1, 1]."""
    lo, hi = -1.0, 1.0
    while f(lo) > 0.0:
        lo *= 2.0
    while f(hi) < 0.0:
        hi *= 2.0
    return bisection_root(f, lo, hi)


def cubic_equation_root(h, r):
    # y - h*(y - y^3) - r = 0 is strictly increasing in y for h < 1, since
    # 1 - h + 3*h*y^2 > 0
    return bracketed_root(lambda y: y - h * (y - y**3) - r)


def scalar_root(drift, h, r):
    """Bisection for the root of the increasing y - h*b(y) - r."""
    return bracketed_root(lambda y: y - h * drift(np.array([y]))[0] - r)


def fixed_point_root(drift, h, r, newton_steps=0, budget=1000):
    """The root of y - h*b(y) = r by plain Newton steps from r, at most
    ``newton_steps`` of them, and then the damped fixed point
    y <- (y + r + h*b(y))/2, each stopping within effective_tol; a
    SolveReport, or ConvergenceError where the budget is spent."""
    r = np.asarray(r, dtype=float).reshape(drift.dim)
    jacobian = drift.jacobian or (lambda y: reference_fd_jacobian(drift, y))
    y = r.copy()
    for iters in range(newton_steps + budget + 1):
        F = y - h * drift(y) - r
        res = written_norm(F)
        if res <= effective_tol(r, y):
            return SolveReport(y, iters, res, "contraction")
        if not math.isfinite(res):
            break
        if iters < newton_steps:
            y = y - written_solve(np.eye(r.size) - h * np.asarray(jacobian(y), dtype=float), F)
        else:
            y = 0.5 * (y + r + h * drift(y))
    raise ConvergenceError("fixed point did not converge", res, iters)


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
