"""One-step schemes and full-trajectory drivers.

Every implicit scheme is the semi-implicit Taylor recursion of order 1, 2
or 3 (``semi_implicit_taylor``): the drift is evaluated at the new state and
resolved by the nonlinear solver, every noise term is evaluated at the old
state and enters the solver's right-hand side, whose well-posedness gate
raises StepSizeError unless C_b*h < 1.  Forward Euler (``explicit_euler``)
has no solve; it runs through the same trajectory loop with its own step map.

Trajectory blow-up (state norm above 1e12, or non-finite) is a reportable
runtime event, raised as BlowupError with the offending step index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import SamplePath
from .fields import (
    DiffusionField,
    DriftField,
    first_order_composition,
    second_order_composition,
)
from .grids import Grid, _write_node_csv
from .lift import RoughLift
from .solver import ConvergenceError, _float_drift, _implicit_step, _norm
from .solver import solve_step  # noqa: F401  (perfbench/spans.py wraps schemes.solve_step)

__all__ = [
    "BLOWUP_NORM",
    "Problem",
    "Trajectory",
    "BlowupError",
    "SchemeStepError",
    "semi_implicit_taylor",
    "explicit_euler",
    "boundedness_bound",
    "dump_trajectory_csv",
]

BLOWUP_NORM = 1e12


class BlowupError(RuntimeError):
    """Numerical trajectory left the trust region (overflow/divergence)."""

    def __init__(self, step: int, value_norm: float):
        super().__init__(f"trajectory blew up at step {step} (|y| = {value_norm:.3e})")
        self.step = step
        self.value_norm = value_norm


class SchemeStepError(RuntimeError):
    """Implicit solve failed inside a trajectory; carries the step index."""

    def __init__(self, step: int, cause: ConvergenceError):
        super().__init__(f"implicit solve failed at step {step}: {cause}")
        self.step = step
        self.residual = cause.residual


@dataclass(frozen=True)
class Problem:
    """Coefficients, initial condition and horizon of one equation."""

    drift: DriftField
    xi: np.ndarray
    T: float
    diffusion: DiffusionField | None = None

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float).reshape(-1)
        if xi.size != self.drift.dim:
            raise ValueError(f"initial condition has dim {xi.size}, drift has {self.drift.dim}")
        if self.diffusion is not None and self.diffusion.dim != self.drift.dim:
            raise ValueError(
                f"diffusion state dim {self.diffusion.dim} != drift dim {self.drift.dim}"
            )
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"final time must be positive and finite, got T={self.T}")
        object.__setattr__(self, "xi", xi)

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def additive(self) -> bool:
        return self.diffusion is None

    @property
    def noise_dim(self) -> int:
        """Components of the driver: one per state component for additive
        noise, else the diffusion's noise dimension."""
        return self.dim if self.additive else self.diffusion.noise_dim


@dataclass(frozen=True)
class Trajectory:
    grid: Grid
    states: np.ndarray  # (N + 1, d)


def _check_driver(problem: Problem, grid: Grid, m: int) -> None:
    """A driver of m components on ``grid`` must have the problem's noise
    dimension and horizon."""
    if m != problem.noise_dim:
        raise ValueError(f"driver has {m} components, the problem expects {problem.noise_dim}")
    if abs(grid.T - problem.T) > 1e-12 * max(1.0, problem.T):
        raise ValueError(f"driver lives on [0, {grid.T}] but the problem horizon is {problem.T}")


def _guard(y, step: int) -> None:
    n = _norm(y)
    if not math.isfinite(n) or n > BLOWUP_NORM:
        raise BlowupError(step, n)


def _trajectory(problem: Problem, grid: Grid, step) -> Trajectory:
    """y_0 = xi and y_{j+1} = step(j, y_j) for j < N.  Every d = 1 state is a
    Python float (the same IEEE operations as on 1-element arrays, without
    their overhead), every other state a shape-(d,) array."""
    y = problem.xi.item() if problem.dim == 1 else problem.xi.copy()
    states = [y]
    for j in range(grid.N):
        try:
            y = step(j, y)
        except ConvergenceError as err:
            raise SchemeStepError(j, err) from err
        _guard(y, j)
        states.append(y)
    return Trajectory(grid, np.array(states).reshape(grid.N + 1, problem.dim))


def _taylor_term(problem: Problem, dx: np.ndarray, X2=None, X3=None):
    """The noise term of step j as a function of (j, y_j): sigma(y_j) dx[j],
    plus the first- and second-order compositions contracted against X2[j]
    and X3[j] when those are given.  For additive problems sigma is the
    identity, so it is the increment with no matrix product.  For d = 1 it
    is a Python float, as the state is, and sigma sees one scratch array."""
    scalar = problem.dim == 1
    if problem.additive:
        if scalar:
            dx = dx[:, 0].tolist()
        return lambda j, y: dx[j]
    sig, buf = problem.diffusion, np.empty(1)

    def term(j, y):
        if scalar:
            buf[0] = y
            y = buf
        S = sig.func(y)
        out = S.dot(dx[j])
        if X2 is not None:
            D = sig.dfunc(y)
            out = out + np.einsum("ija,ij->a", first_order_composition(S, D), X2[j])
        if X3 is not None:
            F = second_order_composition(S, D, sig.d2func(y))
            out = out + np.einsum("ijka,ijk->a", F, X3[j])
        return out.item() if scalar else out

    return term


def semi_implicit_taylor(problem: Problem, lift: RoughLift, order: int) -> Trajectory:
    """Semi-implicit Taylor scheme of order 1 (Euler), 2 (Milstein) or 3:
    y_{j+1} = y_j + h*b(y_{j+1}) + sum_{k <= order} C_k(y_j) : X^k_{j,j+1},
    with C_1 = sigma and C_2, C_3 its first- and second-order compositions
    contracted against the level-k tensors X^k of the lift.  For additive
    problems sigma is the identity and every order is drift-implicit Euler."""
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order!r}")
    if order == 3 and not lift.has_level3:
        raise ValueError("third-order scheme needs a lift with level-3 tensors")
    _check_driver(problem, lift.grid, lift.m)
    solve = _implicit_step(problem.drift, lift.grid.h)
    term = _taylor_term(problem, lift.increments, *(lift.level2, lift.level3)[: order - 1])
    return _trajectory(problem, lift.grid, lambda j, y: solve(y + term(j, y))[0])


def explicit_euler(problem: Problem, path: SamplePath) -> Trajectory:
    """Forward Euler: y_{j+1} = y_j + h*b(y_j) + noise increment, with the
    noise increment x_{j+1} - x_j for additive problems and
    sigma(y_j) (x_{j+1} - x_j) for multiplicative ones."""
    _check_driver(problem, path.grid, path.m)
    h = path.grid.h
    b = _float_drift(problem.drift) if problem.dim == 1 else problem.drift
    term = _taylor_term(problem, np.diff(path.values, axis=0))
    return _trajectory(problem, path.grid, lambda j, y: y + h * b(y) + term(j, y))


def boundedness_bound(problem: Problem, path: SamplePath) -> float:
    """A-priori uniform bound for the drift-implicit additive recursion,
    valid whenever 2*C_b*h <= 1:

    exp(2*C_b*T) * (|xi| + T * max_{n>=1} |b(x_n)|) + max_n |x_n|.
    """
    if not problem.additive:
        raise ValueError("the boundedness bound holds for additive problems only")
    _check_driver(problem, path.grid, path.m)
    cb = problem.drift.one_sided_lipschitz
    T = path.grid.T
    b = _float_drift(problem.drift) if problem.dim == 1 else problem.drift
    values = path.values[1:, 0].tolist() if problem.dim == 1 else path.values[1:]
    b_max = max(_norm(b(x)) for x in values)
    x_max = float(np.max(np.linalg.norm(path.values, axis=1)))
    xi_norm = _norm(problem.xi)
    return float(np.exp(2.0 * cb * T) * (xi_norm + b_max * T) + x_max)


def dump_trajectory_csv(trajectory: Trajectory, target) -> None:
    """Write one row per node with columns t, y1..yd (17 significant digits)."""
    _write_node_csv(trajectory.grid, trajectory.states, "y", target)
