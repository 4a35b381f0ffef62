"""One-step schemes and full-trajectory drivers.

Every implicit scheme is the semi-implicit Taylor recursion of order 1, 2
or 3 (``semi_implicit_taylor``): the drift is evaluated at the new state and
resolved by the nonlinear solver, every noise term is evaluated at the old
state and enters the solver's right-hand side, whose well-posedness gate
raises StepSizeError unless C_b*h < 1.  Forward Euler (``explicit_euler``)
has no solve and keeps its own loop.

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
from .solver import ConvergenceError, _implicit_step, _norm
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
        if not self.T > 0.0:
            raise ValueError(f"horizon must be positive, got T={self.T}")
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


def _check_grid(problem: Problem, grid: Grid) -> None:
    if abs(grid.T - problem.T) > 1e-12 * max(1.0, problem.T):
        raise ValueError(f"driver lives on [0, {grid.T}] but the problem horizon is {problem.T}")


def _check_noise_dim(problem: Problem, m: int) -> None:
    if m != problem.noise_dim:
        raise ValueError(f"driver has {m} components, the problem expects {problem.noise_dim}")


def _guard(y, step: int) -> None:
    n = _norm(y)
    if not math.isfinite(n) or n > BLOWUP_NORM:
        raise BlowupError(step, n)


def _on_floats(problem: Problem) -> bool:
    """Additive scalar problems carry the state as a Python float and their
    increments as a list of floats; the solver runs d = 1 on floats too, with
    the same IEEE operations as on 1-element arrays."""
    return problem.additive and problem.dim == 1


def _implicit_trajectory(problem, grid, explicit_term) -> Trajectory:
    _check_grid(problem, grid)
    solve = _implicit_step(problem.drift, grid.h)
    on_floats = _on_floats(problem)
    if problem.dim == 1 and not on_floats:  # one-element state arrays, float stepper
        solve = lambda r, scalar=solve: (np.array([scalar(r.item())[0]]),)
    y = problem.xi.item() if on_floats else problem.xi.copy()
    states = [y]
    for j in range(grid.N):
        r = y + explicit_term(j, y)
        try:
            y = solve(r)[0]
        except ConvergenceError as err:
            raise SchemeStepError(j, err) from err
        _guard(y, j)
        states.append(y)
    return Trajectory(grid, np.array(states).reshape(grid.N + 1, problem.dim))


def _taylor_term(problem: Problem, lift: RoughLift, order: int):
    """The noise term of step j as a function of (j, y_j); for additive noise
    sigma is the identity, so it is the increment with no matrix product."""
    dx = lift.increments
    if problem.additive:
        if _on_floats(problem):
            dx = dx[:, 0].tolist()
        return lambda j, y: dx[j]
    sig = problem.diffusion
    X2 = lift.level2
    X3 = lift.level3

    def term(j, y):
        S = sig.func(y)
        out = S @ dx[j]
        if order >= 2:
            D = sig.dfunc(y)
            out = out + np.einsum("ija,ij->a", first_order_composition(S, D), X2[j])
        if order >= 3:
            F = second_order_composition(S, D, sig.d2func(y))
            out = out + np.einsum("ijka,ijk->a", F, X3[j])
        return out

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
    _check_noise_dim(problem, lift.m)
    return _implicit_trajectory(problem, lift.grid, _taylor_term(problem, lift, order))


def explicit_euler(problem: Problem, path: SamplePath) -> Trajectory:
    """Forward Euler: y_{j+1} = y_j + h*b(y_j) + noise increment, with the
    noise increment x_{j+1} - x_j for additive problems and
    sigma(y_j) (x_{j+1} - x_j) for multiplicative ones."""
    _check_noise_dim(problem, path.m)
    _check_grid(problem, path.grid)
    grid = path.grid
    dx = np.diff(path.values, axis=0)
    states = np.empty((grid.N + 1, problem.dim))
    states[0] = problem.xi
    y = problem.xi.copy()
    for j in range(grid.N):
        noise = dx[j] if problem.additive else problem.diffusion.func(y) @ dx[j]
        y = y + grid.h * problem.drift(y) + noise
        _guard(y, j)
        states[j + 1] = y
    return Trajectory(grid, states)


def boundedness_bound(problem: Problem, path: SamplePath) -> float:
    """A-priori uniform bound for the drift-implicit additive recursion,
    valid whenever 2*C_b*h <= 1:

    exp(2*C_b*T) * (|xi| + T * max_{n>=1} |b(x_n)|) + max_n |x_n|.
    """
    if not problem.additive:
        raise ValueError("the boundedness bound holds for additive problems only")
    _check_noise_dim(problem, path.m)
    cb = problem.drift.one_sided_lipschitz
    T = path.grid.T
    b_max = max(_norm(problem.drift(x)) for x in path.values[1:])
    x_max = float(np.max(np.linalg.norm(path.values, axis=1)))
    xi_norm = _norm(problem.xi)
    return float(np.exp(2.0 * cb * T) * (xi_norm + b_max * T) + x_max)


def dump_trajectory_csv(trajectory: Trajectory, target) -> None:
    """Write one row per node with columns t, y1..yd (17 significant digits)."""
    _write_node_csv(trajectory.grid, trajectory.states, "y", target)
