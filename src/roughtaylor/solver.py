"""Per-step nonlinear solver for the drift-implicit update.

Each implicit step requires the unique y with y - h*b(y) = r.  Under the
one-sided Lipschitz condition with C_b*h < 1 the map G(y) = y - h*b(y) is
strongly monotone with constant 1 - C_b*h, so G is invertible with
1/(1 - C_b*h)-Lipschitz inverse and the equation is well posed.
"""

from __future__ import annotations

import contextvars
import functools
import math
import sys
from dataclasses import dataclass
from math import inf, isfinite, sqrt  # by name: the per-step kernels call them

import numpy as np

from .fields import DriftField, _size_error

__all__ = [
    "DEFAULT_TOL",
    "SolveReport",
    "StepSizeError",
    "ConvergenceError",
    "solve_step",
]

DEFAULT_TOL = 1e-12
MAX_NEWTON = 100
_FD_STEP = 1e-7
_ROUNDING = 16.0 * sys.float_info.epsilon  # residual rounding floor per unit |r| or |y|
_ARMIJO = 0.25  # sufficient decrease of the residual norm per unit step
_TINY = sys.float_info.min  # OpenBLAS's dgetf2 moves and scales a pivot only from here up


class StepSizeError(ValueError):
    """h outside [0, inf) or C_b*h >= 1: the implicit step is not provably
    well posed."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted or residual not finite; carries the last residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    residual: float
    method_used: str  # "newton" | "safeguarded"


def _norm(v) -> float:
    """Euclidean norm of a Python float, a pair of them or a 1-d float array:
    sqrt(v*v), sqrt(v1*v1 + v2*v2), or computed the way np.linalg.norm
    computes a 1-d norm (the square root of the dot product), so the two
    agree bitwise without its call overhead."""
    if type(v) is float:
        return sqrt(v * v)
    if type(v) is tuple:
        v1, v2 = v
        return sqrt(v1 * v1 + v2 * v2)
    return sqrt(v.dot(v))


def _rescaled_norm(v) -> float:
    """|v| of a sequence of floats whose squares overflow: max|v_i| times
    |v / max|v_i||, whose squares are at most 1 each; inf if v is not finite.
    The tolerance floor takes it where the plain norm is inf, so wherever
    that norm is finite the floor keeps its bits."""
    big = max(map(abs, v))
    if not big < inf:
        return inf
    s = 0.0
    for a in v:
        a /= big
        s += a * a
    return big * sqrt(s)


def _lapack_context() -> contextvars.Context:
    """A context whose NumPy errstate raises on the invalid flag alone,
    whatever the caller's errstate."""
    ctx = contextvars.copy_context()
    ctx.run(np.errstate(all="ignore", invalid="raise").__enter__)
    return ctx


def _gesv(ctx=None):
    """(A, F) -> the solution of A s = F by the dgesv gufunc behind
    np.linalg.solve, without that wrapper's fivefold cost per call, or None
    where the gufunc sets the invalid flag: exactly where dgesv fails (info > 0).
    It runs in ``ctx``, by default a fresh ``_lapack_context()``, so no call
    warns or sees the caller's errstate."""
    from numpy.linalg._umath_linalg import solve1

    ctx = _lapack_context() if ctx is None else ctx

    def solve(A, F):
        try:
            return ctx.run(solve1, A, F)
        except FloatingPointError:
            return None

    return solve


def _solve2(A, F):
    """A^{-1} F for a 2x2 A, four floats in row-major order, and two floats
    F, by the operations of OpenBLAS's dgesv in its order, each rounded on
    its own; or None exactly where that dgesv reports a zero pivot (info > 0).

    The pivot is the first entry of largest magnitude in the first column
    (idamax), the multiplier a21 * (1/a11) (dscal, which writes 0.0 for a
    zero scale), then u22 = a22 - l*a12, forward substitution and back
    substitution by division.  OpenBLAS's dgetf2 swaps and scales the first
    column only where |pivot| is at least the smallest normal double: a
    subnormal or NaN pivot stays where it is, unscaled, while the second
    column and F are still swapped, so the last division can be by zero,
    which gives the IEEE quotient here as in dgesv."""
    a11, a12, a21, a22 = A
    f1, f2 = F
    swap = abs(a21) > abs(a11)
    pivot = a21 if swap else a11
    if pivot == 0.0:
        return None
    if abs(pivot) >= _TINY:
        if swap:
            a11, a12, a21, a22, f1, f2 = a21, a22, a11, a12, f2, f1
        scale = 1.0 / a11
        l = a21 * scale if scale else 0.0
    else:  # the first column stays as it is
        if swap:
            a12, a22, f1, f2 = a22, a12, f2, f1
        l = a21
    u22 = a22 - l * a12
    if u22 == 0.0:
        return None
    x2 = (f2 - l * f1) / u22
    x1 = f1 - a12 * x2
    return (x1 / a11 if a11 else x1 * math.copysign(math.inf, a11)), x2


def _fd_jacobian(b, y: np.ndarray) -> np.ndarray:
    # column-wise central differences on fresh arrays, step scaled by the state magnitude
    eps = _FD_STEP * max(1.0, _norm(y))
    J = np.empty((y.size, y.size))
    for p, e in enumerate(eps * np.eye(y.size)):
        J[:, p] = (b(y + e) - b(y - e)) / (2.0 * eps)
    return J


def _jacobian_shape_error(J: np.ndarray, d: int) -> ValueError:
    return ValueError(f"drift Jacobian has shape {J.shape}, not {(d, d)}, for d = {d}")


def _on_floats(func, d=1, jacobian=False):
    """A d = 1 or d = 2 drift's ``func``, or its Jacobian, on Python floats:
    its float form if it has one, else ``func`` on one shape-(d,) scratch
    array holding y.  For d = 1 the output is read as one float64 value, for
    d = 2 as a list of them in row-major order; an output of the wrong size
    (for a d = 2 Jacobian, any shape but (2, 2)) raises the error that names
    it and d."""
    floats = getattr(func, "_floats", None)
    if floats is not None:
        return floats
    buf = np.empty(d)
    error = _jacobian_shape_error if jacobian else _size_error

    if d == 1:

        def on_floats(y):
            buf[0] = y
            out = np.asarray(func(buf), dtype=float)
            try:
                return out.item()
            except ValueError:  # not exactly one value
                raise error(out, 1) from None

    else:

        def on_floats(y):
            buf[0], buf[1] = y
            out = np.asarray(func(buf), dtype=float)
            if out.shape != (2, 2) if jacobian else out.size != 2:
                raise error(out, 2)
            return out.ravel().tolist()

    return on_floats


def _check_step(drift: DriftField, h: float) -> None:
    """Raise StepSizeError unless 0 <= h < inf and C_b*h < 1."""
    cb = drift.one_sided_lipschitz
    if not (0.0 <= h < math.inf and cb * h < 1.0):
        raise StepSizeError(
            f"implicit step needs 0 <= h < inf and C_b*h < 1, "
            f"got C_b={cb} and h={h} (C_b*h={cb * h})"
        )


def _scalar_kernels(b, jac, h):
    """The d = 1 arithmetic of ``_implicit_step`` on Python floats: the same
    IEEE operations in the same order as on 1-element arrays, without their
    overhead.  The norm is |v|, which is sqrt(v*v) wherever v*v neither
    overflows nor leaves the normal range (radix 2 rounds the square root of
    a rounded square back to |v|), and below that range the floor is under
    DEFAULT_TOL either way."""

    def residual_norm(y, r):
        F = y - h * b(y) - r
        return F, sqrt(F * F)

    def newton(y, F):
        a = 1.0 - h * jac(y)
        if a == 0.0:  # dgesv's singular (info != 0) exit for a 1x1 system
            return None, None, None
        step = F / a  # bitwise the one division dgesv performs on a 1x1 system
        return a, step, y - step

    return residual_norm, newton, None, None, None, abs


def _planar_kernels(b, jac, h):
    """The d = 2 arithmetic of ``_implicit_step`` on Python floats: vectors
    are pairs, Newton matrices four floats in row-major order, solved by
    ``_solve2``; the norm is sqrt(v1*v1 + v2*v2)."""

    def norm(v):
        v1, v2 = v
        n = sqrt(v1 * v1 + v2 * v2)
        return n if n != inf else _rescaled_norm(v)

    def residual_norm(y, r):
        b1, b2 = b(y)
        F1 = y[0] - h * b1 - r[0]
        F2 = y[1] - h * b2 - r[1]
        return (F1, F2), sqrt(F1 * F1 + F2 * F2)

    def newton(y, F):
        j11, j12, j21, j22 = jac(y)
        A = 1.0 - h * j11, 0.0 - h * j12, 0.0 - h * j21, 1.0 - h * j22
        step = _solve2(A, F)
        if step is None:
            return None, None, None
        return A, step, (y[0] - step[0], y[1] - step[1])

    def newton_point(A, y, r, r_last, F_last):
        s1, s2 = _solve2(A, ((r[0] - r_last[0]) - F_last[0], (r[1] - r_last[1]) - F_last[1]))
        return y[0] + s1, y[1] + s2

    def along(y, step, t):
        s1, s2 = t * step[0], t * step[1]
        return (s1, s2), (y[0] - s1, y[1] - s2)

    def add(y, t):
        return y[0] + t[0], y[1] + t[1]

    return residual_norm, newton, newton_point, along, add, norm


def _array_kernels(drift, jacobian, h):
    """The d >= 3 arithmetic of ``_implicit_step`` on shape-(d,) arrays, the
    Newton systems solved by LAPACK dgesv.  The norm of the tolerance is
    _norm, taken in dgesv's context, where an overflowing square does not
    warn, and rescaled where it overflows."""
    d, eye, context = drift.dim, np.eye(drift.dim), _lapack_context()
    gesv = _gesv(context)

    def norm(v):
        n = sqrt(context.run(v.dot, v))
        return n if n != inf else _rescaled_norm(v.tolist())

    def residual_norm(y, r):
        F = y - h * drift(y) - r
        return F, _norm(F)

    def newton(y, F):
        Jb = np.asarray(jacobian(y), dtype=float)
        if Jb.shape != (d, d):
            raise _jacobian_shape_error(Jb, d)
        A = eye - h * Jb
        step = gesv(A, F)
        return (None, None, None) if step is None else (A, step, y - step)

    def newton_point(A, y, r, r_last, F_last):
        return y + gesv(A, (r - r_last) - F_last)

    def along(y, step, t):
        step = t * step
        return step, y - step

    return residual_norm, newton, newton_point, along, np.add, norm


def _implicit_step(drift: DriftField, h: float):
    """The stepper of one (drift, h): checks the gate and sets up the drift's
    evaluators once, and returns run(states, term, n, bound), which runs a
    trajectory's implicit recursion in one frame.  From y_0 = states[-1] it
    appends, for j < n, the root y_{j+1} of y - h*b(y) = y_j + term(j, y_j),
    and returns (iterations, residual, method_used) of ``solve_step``'s
    iteration: summed over the solves, of the last one, and "safeguarded"
    if any solve was.  It stops after appending the first state whose norm
    is not within ``bound``; a failed solve raises ConvergenceError, the
    states before it appended.  States and terms are Python floats for
    d = 1, pairs of them for d = 2, else shape-(d,) arrays.

    One loop serves every d.  For d = 1 it writes the right-hand side, the
    Newton point and the residual at a step's start on floats itself; the
    rest of its vector arithmetic is bound here, by the dimension, as a few
    small kernels: the residual with its norm, the Newton matrix with its
    step, the Newton point, a scaled step, the sum of a state and a term,
    and the norm.  For d <= 2 they run on Python floats, for d >= 3 on
    arrays with LAPACK dgesv.

    Every Newton matrix is A = I - h*J at the iterate.  A solve starts at
    the Newton point g = y_j + A^{-1}(r_j - r_{j-1} - F_j), with A the last
    Newton matrix formed and F_j the accepted residual of step j - 1, with
    no drift or Jacobian call (for a linear drift the root to rounding), or
    at r_j while no A is formed (so a zero drift always starts at r_j) and
    where the last A was singular.  Where the residual at g is not finite,
    the solve starts again from r_j, so a g where the drift is not finite
    costs one drift call and is not itself a failure."""
    _check_step(drift, h)
    cb, d, h = drift.one_sided_lipschitz, drift.dim, float(h)
    jacobian = drift.jacobian or functools.partial(_fd_jacobian, drift)
    scalar = d == 1
    if d > 2:
        kernels = _array_kernels(drift, jacobian, h)
    else:
        b, jac = _on_floats(drift.func, d), _on_floats(jacobian, d, jacobian=True)
        kernels = (_scalar_kernels if scalar else _planar_kernels)(b, jac, h)
    residual_norm, newton, newton_point, along, add, norm = kernels
    m = min(1.0, 1.0 - cb * h)  # strong monotonicity constant, capped at 1

    def residual(y, r, iters, res):
        # F = y - h*b(y) - r and |F| as residual `iters`; a spent budget reports `res`
        if iters > MAX_NEWTON:
            raise ConvergenceError("implicit step did not converge", res, iters - 1)
        F, norm_F = residual_norm(y, r)
        if not isfinite(norm_F):
            raise ConvergenceError("implicit step residual is not finite", norm_F, iters)
        return F, norm_F

    def run(states, term, n, bound):
        y = states[-1]
        A = r_last = F_last = None  # the last Newton matrix formed; r and F of the last step
        iterations, method = 0, "newton"
        for j in range(n):
            if scalar:
                r = y + term(j, y)
                y = r if A is None else y + ((r - r_last) - F_last) / A
                F = y - h * b(y) - r
                res = sqrt(F * F)
            else:
                r = add(y, term(j, y))
                y = r if A is None else newton_point(A, y, r, r_last, F_last)
                F, res = residual_norm(y, r)
            if not isfinite(res):  # start again from r, or raise there
                y = r
                F, res = residual(y, r, 0, None)
            tol = _ROUNDING * norm(r)
            tol = tol if tol > DEFAULT_TOL else DEFAULT_TOL
            iters = 0  # the residual of the start is iteration 0
            lo = hi = None  # d = 1: the bracket, built at the first rejected step
            while res > tol and res > (floor := _ROUNDING * norm(y)):
                A, step, trial = newton(y, F)
                if step is None and not scalar:  # along the residual, a descent direction too
                    (step, trial), method = along(y, F, 1.0), "safeguarded"
                tried = trial is not None and (lo is None or lo < trial < hi)
                if tried:  # the full step, kept if it cuts the residual to 3/4
                    iters += 1
                    F_trial, res_trial = residual(trial, r, iters, res)
                    if res_trial <= tol or res_trial <= (1.0 - _ARMIJO) * res:
                        y, F, res = trial, F_trial, res_trial
                        continue
                method = "safeguarded"
                # y within rounding scaled by ||A||, the largest absolute row sum of A
                if A is not None and res <= floor * np.abs(np.reshape(A, (d, d))).sum(axis=1).max() < inf:
                    break
                if not scalar:  # Armijo halving, continued from the rejected full step
                    shrink = 1.0
                    while res_trial > tol and res_trial > (1.0 - _ARMIJO * shrink) * res:
                        (step, trial), shrink = along(y, step, 0.5), 0.5 * shrink
                        iters += 1
                        F_trial, res_trial = residual(trial, r, iters, res)
                    y, F, res = trial, F_trial, res_trial
                    continue
                if lo is None:
                    width = 2.0 * res / m
                    lo, hi = y - width, y + width
                for point, value in [(y, F), (trial, F_trial)] if tried else [(y, F)]:
                    lo, hi = (max(lo, point), hi) if value < 0.0 else (lo, min(hi, point))
                y = 0.5 * (lo + hi)
                iters += 1
                F, res = residual(y, r, iters, res)
            iterations += iters
            states.append(y)
            if not norm(y) <= bound:
                break
            r_last, F_last = r, F
        return iterations, res, method

    return run


def solve_step(drift: DriftField, h: float, r) -> SolveReport:
    """Solve y - h*b(y) = r for the unique root.

    Safeguarded Newton iteration from the initial guess r (Jacobian analytic
    when the drift supplies one, otherwise central finite differences; the
    linear system is solved as LAPACK ``dgesv`` solves it).  Each iteration tries the
    full Newton step, kept if it cuts the residual norm |y - h*b(y) - r| to
    3/4 or to the tolerance; after a rejection, Armijo halving (d > 1) or
    the bracket midpoint (d = 1).  The halving continues from the rejected
    step until a step of length t cuts by 1 - t/4; a singular Newton matrix
    steps along the residual, a descent direction too, as G(y) = y - h*b(y)
    is strongly monotone with constant m = 1 - C_b*h.  The root lies within
    |F|/m of an iterate with residual F, so the bracket, built at the first
    rejection as y -+ 2|F|/min(1, m), holds it; each rejection narrows it by
    the residual's sign at the iterate and at the Newton point.  A Newton
    point outside it is not tried; a zero Newton divisor bisects too.

    The tolerance is max(DEFAULT_TOL, 16*eps*max(|r|, |y|)) at the iterate
    y, as below that the residual is the rounding of y - h*b(y) - r; where
    the squares in |r| or |y| overflow, the norm is taken from v / max|v_i|
    (``_rescaled_norm``), so the floor stays finite for every finite r.  A
    rejected full step from y also stops the solve at y where its residual
    is within 16*eps*|y|*||A||, A the Newton matrix at y (finite, not
    singular) and ||A|| its largest absolute row sum: one unit in the last
    place of y moves y - h*b(y) by up to ||A|| of them, so a drift whose
    evaluation cancels (b(y) = s - y at h = 100) rounds above the first
    floor.  Every residual after the first counts as an iteration, and at
    most MAX_NEWTON are taken.  The solution is the iterate whose residual
    was found within tolerance, reported with it; ``method_used`` is
    "newton" if every full Newton step was kept, else "safeguarded".

    For d = 1 the iteration runs on Python floats: the norm is sqrt(F*F) and
    the Newton system is solved as F / (1 - h*Jb), the one correctly rounded
    division dgesv performs on a 1x1 system, so the report is bitwise the
    array arithmetic's.  For d = 2 it runs on pairs of Python floats: the
    norm is sqrt(F1*F1 + F2*F2), and the 2x2 system is solved by OpenBLAS
    dgesv's operations in its order, each rounded on its own (``_solve2``):
    bitwise what dgesv gives on a BLAS kernel without fused multiply-adds,
    and the same on every kernel.  For d >= 3 the iteration runs on arrays
    and calls dgesv itself.  The solution reported here is a shape-(d,)
    array in every case.

    It is a one-step run of a fresh stepper of the kind a trajectory builds
    once per (drift, h), from y_0 = r with the term -0.0 (so r_0 is r,
    bitwise) and no blow-up bound: it starts at r, where a trajectory's
    later steps start at the Newton point from the last solution.

    Raises
    ------
    StepSizeError
        Unless 0 <= h < inf and C_b*h < 1, where G is strongly monotone.
    ConvergenceError
        If the iteration budget is exhausted, or at the first NaN or
        infinite residual.
    """
    run = _implicit_step(drift, h)
    r = np.array(r, dtype=float).reshape(drift.dim)
    states = [r.item() if r.size == 1 else tuple(r.tolist()) if r.size == 2 else r]
    zero = (-0.0, -0.0) if r.size == 2 else -0.0  # y + -0.0 is y, -0.0 included
    report = run(states, lambda j, y: zero, 1, inf)
    return SolveReport(np.reshape(states[-1], r.shape), *report)
