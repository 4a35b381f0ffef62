"""Per-step nonlinear solver for the drift-implicit update.

Each implicit step requires the unique y with y - h*b(y) = r.  Under the
one-sided Lipschitz condition with C_b*h < 1 the map G(y) = y - h*b(y) is
strongly monotone with constant 1 - C_b*h, so G is invertible with
1/(1 - C_b*h)-Lipschitz inverse and the equation is well posed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg.lapack import dgesv

from .fields import DriftField

__all__ = [
    "DEFAULT_TOL",
    "SolveReport",
    "StepSizeError",
    "ConvergenceError",
    "solve_step",
]

DEFAULT_TOL = 1e-12
MAX_NEWTON = 50
MAX_FALLBACK = 1000
_STALL_LIMIT = 5
_FD_STEP = 1e-7


class StepSizeError(ValueError):
    """C_b*h >= 1: the implicit step is not provably well posed."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    residual: float
    method_used: str  # "newton" | "contraction"


def _norm(v) -> float:
    """Euclidean norm of a Python float or a 1-d float array, computed the way
    np.linalg.norm computes a 1-d norm (the square root of the dot product),
    so the two agree bitwise without its call overhead."""
    return math.sqrt(v * v if type(v) is float else v.dot(v))


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


def _newton_step(drift: DriftField, b, h: float, y: np.ndarray, F: np.ndarray):
    """The Newton correction (I - h*Jb)^{-1} F by LAPACK dgesv, or None if
    I - h*Jb is singular; Jb is the drift's Jacobian, or central differences
    of b where the drift has none."""
    if drift.jacobian is not None:
        Jb = np.asarray(drift.jacobian(y), dtype=float)
    else:
        Jb = _fd_jacobian(b, y)
    step, info = dgesv(_identity(drift.dim) - h * Jb, F)[2:]
    return None if info != 0 else step


def _scalar_newton_step(drift: DriftField, b, h: float, y: float, F: float):
    """_newton_step on floats: F / (1 - h*Jb) is bitwise what dgesv returns
    for a 1x1 system, and a zero divisor is its singular (info != 0) exit."""
    if drift.jacobian is not None:
        Jb = np.asarray(drift.jacobian(np.array([y])), dtype=float).item()
    else:
        eps = _FD_STEP * max(1.0, _norm(y))
        Jb = (b(y + eps) - b(y - eps)) / (2.0 * eps)
    a = 1.0 - h * Jb
    return None if a == 0.0 else F / a


def solve_step(
    drift: DriftField,
    h: float,
    r,
    tol: float = DEFAULT_TOL,
    max_newton: int = MAX_NEWTON,
    max_fallback: int = MAX_FALLBACK,
) -> SolveReport:
    """Solve y - h*b(y) = r for the unique root.

    Newton iteration from the initial guess r (Jacobian analytic when the
    drift supplies one, otherwise central finite differences; the linear
    system is solved by LAPACK ``dgesv``); if the Newton residual fails to
    decrease for five consecutive iterations, or the Newton matrix is
    singular, the solver falls back to the damped fixed-point iteration
    y <- (y + r + h*b(y))/2.  The residual |y - h*b(y) - r| is evaluated
    once per iterate; the returned solution is the iterate whose residual
    was found <= tol, and that residual is the one reported.

    For d = 1 the same iteration runs on Python floats: the norm is
    sqrt(F*F) and the Newton system is solved as F / (1 - h*Jb), the one
    correctly rounded division that dgesv performs on a 1x1 system, so the
    report is bitwise the one the array arithmetic gives.  The solution is
    a shape-(d,) array in either case.

    Raises
    ------
    StepSizeError
        If C_b*h >= 1.
    ConvergenceError
        If both iteration budgets are exhausted, or at the first NaN or
        infinite residual instead of spending the budgets on non-finite
        iterates.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    cb = drift.one_sided_lipschitz
    if cb * h >= 1.0:
        raise StepSizeError(
            f"implicit step needs C_b*h < 1, got C_b={cb} and h={h} (C_b*h={cb * h})"
        )
    if drift.dim == 1:
        # scalar problems iterate on Python floats: the same IEEE operations
        # in the same order as on 1-element arrays, without their overhead
        h = float(h)
        if type(r) is not float:
            r = np.asarray(r, dtype=float).reshape(1).item()
        y = r
        func = drift.func

        def b(y):
            # the drift still sees a fresh shape-(1,) array; its output is
            # normalised as DriftField.__call__ does (float64, exactly one value)
            return np.asarray(func(np.array([y])), dtype=float).item()

        newton_step = _scalar_newton_step
    else:
        r = np.asarray(r, dtype=float).reshape(drift.dim)
        y = r.copy()
        b = drift
        newton_step = _newton_step

    def residual_of(y):
        return y - h * b(y) - r

    def norm_of(F, iters):
        res = _norm(F)
        if not math.isfinite(res):
            raise ConvergenceError("implicit step residual is not finite", res, iters)
        return res

    def report(y, iters, res, method):
        solution = np.array([y]) if drift.dim == 1 else y
        return SolveReport(solution, iters, res, method)

    F = residual_of(y)
    iters = 0
    res = norm_of(F, iters)
    stall = 0
    while iters < max_newton:
        if res <= tol:
            return report(y, iters, res, "newton")
        step = newton_step(drift, b, h, y, F)
        if step is None:
            break
        y = y - step
        prev = res
        F = residual_of(y)
        iters += 1
        res = norm_of(F, iters)
        if res >= prev:
            stall += 1
            if stall >= _STALL_LIMIT:
                break
        else:
            stall = 0
    if res <= tol:
        return report(y, iters, res, "newton")
    # damped fixed point; convergent near the solution for moderate h*Lip(b),
    # budget-limited with a clear error otherwise
    for _ in range(max_fallback):
        y = 0.5 * (y + r + h * b(y))
        iters += 1
        res = norm_of(residual_of(y), iters)
        if res <= tol:
            return report(y, iters, res, "contraction")
    raise ConvergenceError("implicit step did not converge", res, iters)
