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


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-d float array, computed the way np.linalg.norm
    computes it (the square root of the dot product), so the two agree
    bitwise without its call overhead."""
    return math.sqrt(v.dot(v))


@cache
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _fd_jacobian(drift: DriftField, y: np.ndarray) -> np.ndarray:
    # column-wise central differences, step scaled by the state magnitude
    eps = _FD_STEP * max(1.0, _norm(y))
    d = y.size
    J = np.empty((d, d))
    for p in range(d):
        e = np.zeros(d)
        e[p] = eps
        J[:, p] = (drift(y + e) - drift(y - e)) / (2.0 * eps)
    return J


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
    r = np.asarray(r, dtype=float).reshape(drift.dim)

    def residual_of(y):
        return y - h * drift(y) - r

    def norm_of(F, iters):
        res = _norm(F)
        if not math.isfinite(res):
            raise ConvergenceError("implicit step residual is not finite", res, iters)
        return res

    y = r.copy()
    F = residual_of(y)
    iters = 0
    res = norm_of(F, iters)
    stall = 0
    eye = _identity(drift.dim)
    while iters < max_newton:
        if res <= tol:
            return SolveReport(y, iters, res, "newton")
        if drift.jacobian is not None:
            Jb = np.asarray(drift.jacobian(y), dtype=float)
        else:
            Jb = _fd_jacobian(drift, y)
        step, info = dgesv(eye - h * Jb, F)[2:]
        if info != 0:
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
        return SolveReport(y, iters, res, "newton")
    # damped fixed point; convergent near the solution for moderate h*Lip(b),
    # budget-limited with a clear error otherwise
    for _ in range(max_fallback):
        y = 0.5 * (y + r + h * drift(y))
        iters += 1
        res = norm_of(residual_of(y), iters)
        if res <= tol:
            return SolveReport(y, iters, res, "contraction")
    raise ConvergenceError("implicit step did not converge", res, iters)
