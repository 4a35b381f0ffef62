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
    """Euclidean norm of a Python float or a 1-d float array, computed the way
    np.linalg.norm computes a 1-d norm (the square root of the dot product),
    so the two agree bitwise without its call overhead."""
    return math.sqrt(v * v if type(v) is float else v.dot(v))


def _gesv():
    """(A, F) -> the solution of A s = F by the dgesv gufunc behind
    np.linalg.solve, without that wrapper's fivefold cost per call, or None
    where the gufunc sets the invalid flag: exactly where dgesv fails (info > 0).
    Its own context raises on that flag alone, so no call warns or sees the
    caller's errstate."""
    from numpy.linalg._umath_linalg import solve1

    ctx = contextvars.copy_context()
    ctx.run(np.errstate(all="ignore", invalid="raise").__enter__)

    def solve(A, F):
        try:
            return ctx.run(solve1, A, F)
        except FloatingPointError:
            return None

    return solve


def _fd_jacobian(b, y: np.ndarray) -> np.ndarray:
    # column-wise central differences on fresh arrays, step scaled by the state magnitude
    eps = _FD_STEP * max(1.0, _norm(y))
    J = np.empty((y.size, y.size))
    for p, e in enumerate(eps * np.eye(y.size)):
        J[:, p] = (b(y + e) - b(y - e)) / (2.0 * eps)
    return J


def _jacobian_shape_error(J: np.ndarray, d: int) -> ValueError:
    return ValueError(f"drift Jacobian has shape {J.shape}, not {(d, d)}, for d = {d}")


def _on_floats(func, size_error=_size_error):
    """A d = 1 drift's ``func`` or Jacobian on Python floats: its float form if
    it has one, else ``func`` on one shape-(1,) scratch array holding y, its
    output read as one float64 value, else ``size_error(output, 1)`` raised."""
    floats = getattr(func, "_floats", None)
    if floats is not None:
        return floats
    buf = np.empty(1)

    def on_floats(y):
        buf[0] = y
        out = np.asarray(func(buf), dtype=float)
        try:
            return out.item()
        except ValueError:  # not exactly one value
            raise size_error(out, 1) from None

    return on_floats


def _check_step(drift: DriftField, h: float) -> None:
    """Raise StepSizeError unless 0 <= h < inf and C_b*h < 1."""
    cb = drift.one_sided_lipschitz
    if not (0.0 <= h < math.inf and cb * h < 1.0):
        raise StepSizeError(
            f"implicit step needs 0 <= h < inf and C_b*h < 1, "
            f"got C_b={cb} and h={h} (C_b*h={cb * h})"
        )


def _implicit_step(drift: DriftField, h: float):
    """The stepper of one (drift, h): checks the gate and sets up the drift's
    evaluators once, and returns the function r -> (solution, iterations,
    residual, method_used) of ``solve_step``'s iteration.  For d = 1, r and
    the solution are Python floats, else shape-(d,) float arrays.

    Every Newton matrix is A = eye - h*jac(y): 1.0 less a float Jacobian for
    d = 1, the identity less the checked (d, d) Jacobian for d > 1.  Only
    ``solve`` writes the state: the last A formed and the right-hand side
    r_{j-1}, solution y_j and accepted residual F_j of the last solve.  A
    solve starts at the Newton point g = y_j + A^{-1}(r_j - r_{j-1} - F_j),
    with no drift or Jacobian call (for a linear drift the root to rounding),
    or at r_j on its first solve, while no A is formed (so a zero drift always
    starts at r_j) and where A is singular.  Where the residual at g is not
    finite, the solve starts again from r_j, so a g where the drift is not
    finite costs one drift call and is not itself a failure."""
    _check_step(drift, h)
    cb, d = drift.one_sided_lipschitz, drift.dim
    jacobian = drift.jacobian or functools.partial(_fd_jacobian, drift)
    scalar = d == 1
    if scalar:
        # scalar problems iterate on Python floats: the same IEEE operations
        # in the same order as on 1-element arrays, without their overhead
        h = float(h)
        b, jac = _on_floats(drift.func), _on_floats(jacobian, _jacobian_shape_error)
        eye, size = 1.0, abs

        def linear_solve(a, F):
            # F / a is bitwise what dgesv returns for a 1x1 system,
            # and a zero divisor is its singular (info != 0) exit
            return None if a == 0.0 else F / a

    else:
        # A^{-1} F by LAPACK dgesv, or None if A is singular
        b, eye, size, linear_solve = drift, np.eye(d), _norm, _gesv()

        def jac(y):
            Jb = np.asarray(jacobian(y), dtype=float)
            if Jb.shape != (d, d):
                raise _jacobian_shape_error(Jb, d)
            return Jb

    m = min(1.0, 1.0 - cb * h)  # strong monotonicity constant, capped at 1
    A = last = None  # the last Newton matrix formed; (r, y, F) of the last solve

    def residual(y, r, iters, res):
        # F = y - h*b(y) - r and |F| as residual `iters`; a spent budget reports `res`
        if iters > MAX_NEWTON:
            raise ConvergenceError("implicit step did not converge", res, iters - 1)
        F = y - h * b(y) - r
        norm = _norm(F)
        if not math.isfinite(norm):
            raise ConvergenceError("implicit step residual is not finite", norm, iters)
        return F, norm

    def solve(r):
        nonlocal A, last
        y = r
        if last is not None and A is not None:  # the Newton point from the last solution
            r_last, y_last, F_last = last
            step = linear_solve(A, (r - r_last) - F_last)
            y = r if step is None else y_last + step
        F = y - h * b(y) - r
        res = _norm(F)
        if not math.isfinite(res):  # start again from r, or raise there
            y = r
            F, res = residual(y, r, 0, None)
        floor = _ROUNDING * _norm(r)
        tol = floor if floor > DEFAULT_TOL else DEFAULT_TOL
        iters = 0  # the residual of the start is iteration 0
        lo = hi = None  # d = 1: the bracket, built at the first rejected step
        method = "newton"
        while res > tol and res > _ROUNDING * size(y):
            A = eye - h * jac(y)
            step = linear_solve(A, F)
            if step is None and not scalar:
                step, method = F, "safeguarded"
            trial = None if step is None else y - step
            tried = trial is not None and (lo is None or lo < trial < hi)
            if tried:  # the full step, kept if it cuts the residual to 3/4
                iters += 1
                F_trial, res_trial = residual(trial, r, iters, res)
                if res_trial <= tol or res_trial <= (1.0 - _ARMIJO) * res:
                    y, F, res = trial, F_trial, res_trial
                    continue
            method = "safeguarded"
            if not scalar:  # Armijo halving, continued from the rejected full step
                shrink = 1.0
                while res_trial > tol and res_trial > (1.0 - _ARMIJO * shrink) * res:
                    step, shrink = 0.5 * step, 0.5 * shrink
                    trial = y - step
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
        last = r, y, F
        return y, iters, res, method

    return solve


def solve_step(drift: DriftField, h: float, r) -> SolveReport:
    """Solve y - h*b(y) = r for the unique root.

    Safeguarded Newton iteration from the initial guess r (Jacobian analytic
    when the drift supplies one, otherwise central finite differences; the
    linear system is solved by LAPACK ``dgesv``).  Each iteration tries the
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
    y, as below that the residual is the rounding of y - h*b(y) - r.  Every
    residual after the first counts as an iteration, and at most MAX_NEWTON
    are taken.  The
    solution is the iterate whose residual was found within tolerance,
    reported with it; ``method_used`` is "newton" if every full Newton step
    was kept, else "safeguarded".

    For d = 1 the iteration runs on Python floats: the norm is sqrt(F*F) and
    the Newton system is solved as F / (1 - h*Jb), the one correctly rounded
    division dgesv performs on a 1x1 system, so the report is bitwise the
    array arithmetic's.  The solution is a shape-(d,) array in either case.

    It is the first solve of a fresh stepper of the kind a trajectory
    builds once per (drift, h), so it starts at r, where a trajectory's
    later steps start at the Newton point from the last solution.

    Raises
    ------
    StepSizeError
        Unless 0 <= h < inf and C_b*h < 1, where G is strongly monotone.
    ConvergenceError
        If the iteration budget is exhausted, or at the first NaN or
        infinite residual.
    """
    solve = _implicit_step(drift, h)
    r = np.array(r, dtype=float).reshape(drift.dim)
    y, *report = solve(r if r.size > 1 else r.item())
    return SolveReport(np.reshape(y, r.shape), *report)
