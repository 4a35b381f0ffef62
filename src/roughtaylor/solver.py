"""Per-step nonlinear solver for the drift-implicit update.

Each implicit step requires the unique y with y - h*b(y) = r.  Under the
one-sided Lipschitz condition with C_b*h < 1 the map G(y) = y - h*b(y) is
strongly monotone with constant 1 - C_b*h, so G is invertible with
1/(1 - C_b*h)-Lipschitz inverse and the equation is well posed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache

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
_ROUNDING = 16.0 * sys.float_info.epsilon  # residual rounding floor per unit |r|
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


@cache
def _dgesv():
    """LAPACK dgesv, bound on the first d > 1 Newton step: scalar problems
    never load SciPy."""
    from scipy.linalg.lapack import dgesv

    return dgesv


@cache
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _fd_jacobian(b, y: np.ndarray) -> np.ndarray:
    # column-wise central differences, step scaled by the state magnitude
    eps = _FD_STEP * max(1.0, _norm(y))
    d = y.size
    J = np.empty((d, d))
    for p in range(d):
        e = np.zeros(d)
        e[p] = eps
        J[:, p] = (b(y + e) - b(y - e)) / (2.0 * eps)
    return J


def _float_drift(drift: DriftField):
    """The drift of a d = 1 problem as a map of Python floats.  Each call hands
    ``drift.func`` this map's one shape-(1,) scratch array, holding y, and reads
    the output (float64, exactly one value, as DriftField.__call__ checks)."""
    func, buf = drift.func, np.empty(1)

    def b(y):
        buf[0] = y
        out = np.asarray(func(buf), dtype=float)
        try:
            return out.item()
        except ValueError:  # not exactly one value
            raise _size_error(out, 1) from None

    return b


def _implicit_step(drift: DriftField, h: float):
    """The stepper of one (drift, h): checks the gate and sets up the drift's
    evaluators once, and returns the function r -> (solution, iterations,
    residual, method_used) of ``solve_step``'s iteration.  For d = 1, r and
    the solution are Python floats, else shape-(d,) float arrays."""
    cb = drift.one_sided_lipschitz
    if not (0.0 <= h < math.inf and cb * h < 1.0):
        raise StepSizeError(
            f"implicit step needs 0 <= h < inf and C_b*h < 1, "
            f"got C_b={cb} and h={h} (C_b*h={cb * h})"
        )
    jacobian, d = drift.jacobian, drift.dim
    scalar = d == 1
    if scalar:
        # scalar problems iterate on Python floats: the same IEEE operations
        # in the same order as on 1-element arrays, without their overhead
        h = float(h)
        b, buf = _float_drift(drift), np.empty(1)

        def newton_step(y, F):
            # F / (1 - h*Jb) is bitwise what dgesv returns for a 1x1 system,
            # and a zero divisor is its singular (info != 0) exit
            if jacobian is not None:
                buf[0] = y
                Jb = np.asarray(jacobian(buf), dtype=float).item()
            else:
                eps = _FD_STEP * max(1.0, _norm(y))
                Jb = (b(y + eps) - b(y - eps)) / (2.0 * eps)
            a = 1.0 - h * Jb
            return None if a == 0.0 else F / a

    else:
        b, eye = drift, _identity(d)

        def newton_step(y, F):
            # (I - h*Jb)^{-1} F by LAPACK dgesv, or None if I - h*Jb is singular
            if jacobian is not None:
                Jb = np.asarray(jacobian(y), dtype=float)
            else:
                Jb = _fd_jacobian(b, y)
            step, info = _dgesv()(eye - h * Jb, F)[2:]
            return None if info != 0 else step

    m = min(1.0, 1.0 - cb * h)  # strong monotonicity constant, capped at 1

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
        y = r if scalar else r.copy()
        floor = _ROUNDING * _norm(r)
        tol = floor if floor > DEFAULT_TOL else DEFAULT_TOL
        iters = 0  # the residual of the initial guess is iteration 0
        F, res = residual(y, r, iters, None)
        lo = hi = None  # d = 1: the bracket, built at the first rejected step
        method = "newton"
        while res > tol:
            step = newton_step(y, F)
            if not scalar:
                if step is None:
                    step, method = F, "safeguarded"
                shrink, trial = 1.0, y - step
                iters += 1
                F_trial, res_trial = residual(trial, r, iters, res)
                while res_trial > tol and res_trial > (1.0 - _ARMIJO * shrink) * res:
                    step, shrink, method = 0.5 * step, 0.5 * shrink, "safeguarded"
                    trial = y - step
                    iters += 1
                    F_trial, res_trial = residual(trial, r, iters, res)
                y, F, res = trial, F_trial, res_trial
                continue
            tried = step is not None and (lo is None or lo < y - step < hi)
            if tried:
                iters += 1
                F_trial, res_trial = residual(y - step, r, iters, res)
                if res_trial <= tol or res_trial <= (1.0 - _ARMIJO) * res:
                    y, F, res = y - step, F_trial, res_trial
                    continue
            if lo is None:
                width = 2.0 * res / m
                lo, hi = y - width, y + width
            for point, value in [(y, F), (y - step, F_trial)] if tried else [(y, F)]:
                lo, hi = (max(lo, point), hi) if value < 0.0 else (lo, min(hi, point))
            y = 0.5 * (lo + hi)
            iters += 1
            F, res = residual(y, r, iters, res)
            method = "safeguarded"
        return y, iters, res, method

    return solve


def solve_step(drift: DriftField, h: float, r) -> SolveReport:
    """Solve y - h*b(y) = r for the unique root.

    Safeguarded Newton iteration from the initial guess r (Jacobian analytic
    when the drift supplies one, otherwise central finite differences; the
    linear system is solved by LAPACK ``dgesv``).  A pass keeps the full
    Newton step if it cuts the residual norm |y - h*b(y) - r| to 3/4 or to
    the tolerance.  Otherwise, for d > 1, the step is halved until it cuts
    by 1 - t/4 at length t (Armijo backtracking); a singular Newton matrix
    steps along the residual, a descent direction too, as G(y) = y - h*b(y)
    is strongly monotone with constant m = 1 - C_b*h.  For d = 1 the iterate
    moves to the midpoint of a bracket of the root, which lies within |F|/m
    of an iterate with residual F: built at the first rejected step as
    y -+ 2|F|/min(1, m), the bracket is narrowed at each rejected step by
    the residual's sign at the iterate and at the Newton point.  A Newton
    point outside it is not tried; a zero Newton divisor bisects too.

    The tolerance is max(DEFAULT_TOL, 16*eps*|r|), as below that the
    residual is the rounding of y - h*b(y) - r.  Every residual after the
    first counts as an iteration, and at most MAX_NEWTON are taken.  The
    solution is the iterate whose residual was found within tolerance,
    reported with it; ``method_used`` is "newton" if every full Newton step
    was kept, else "safeguarded".

    For d = 1 the iteration runs on Python floats: the norm is sqrt(F*F) and
    the Newton system is solved as F / (1 - h*Jb), the one correctly rounded
    division dgesv performs on a 1x1 system, so the report is bitwise the
    array arithmetic's.  The solution is a shape-(d,) array in either case.

    It is one step of the stepper a trajectory builds once per (drift, h).

    Raises
    ------
    StepSizeError
        Unless 0 <= h < inf and C_b*h < 1, where G is strongly monotone.
    ConvergenceError
        If the iteration budget is exhausted, or at the first NaN or
        infinite residual.
    """
    solve = _implicit_step(drift, h)
    r = np.asarray(r, dtype=float).reshape(drift.dim)
    if drift.dim > 1:
        return SolveReport(*solve(r))
    y, *report = solve(r.item())
    return SolveReport(np.array([y]), *report)
