"""One-step schemes and full-trajectory drivers.

Every implicit scheme is the semi-implicit Taylor recursion of order 1, 2
or 3 (``semi_implicit_taylor``): the drift is evaluated at the new state and
resolved by the nonlinear solver, every noise term is evaluated at the old
state and enters the solver's right-hand side, whose well-posedness gate
raises StepSizeError unless C_b*h < 1.  The solver's stepper runs the
whole recursion of a trajectory in one frame (``solver._implicit_step``).
Forward Euler (``explicit_euler``) has no solve and runs its own loop; both
loops go through one trajectory driver (``_trajectory``).

Trajectory blow-up (state norm above 1e12, or non-finite) is a reportable
runtime event, raised as BlowupError with the offending step index; a
failed solve is raised as SchemeStepError with its step index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import SamplePath
from .fields import DiffusionField, DriftField
from .fields import first_order_composition, second_order_composition  # noqa: F401  (perfbench/spans.py wraps them)
from .grids import Grid, _write_node_csv
from .lift import RoughLift
from .solver import ConvergenceError, _implicit_step, _norm, _on_floats
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
        if not np.all(np.isfinite(xi)):
            raise ValueError(f"initial condition xi must be finite, got {xi}")
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
    """The only code that raises BlowupError: at |y| not within BLOWUP_NORM."""
    n = _norm(y)
    if not math.isfinite(n) or n > BLOWUP_NORM:
        raise BlowupError(step, n)


def _trajectory(problem: Problem, grid: Grid, run, term) -> Trajectory:
    """y_0 = xi, then run(states, term, N, BLOWUP_NORM) appends y_1 .. y_N to
    states.  A run stops after the first state y with ``not |y| <= bound``,
    exactly the state _guard raises at (by _norm, or in a solve by the
    stepper's norm, which gives _norm's verdict against the bound); only
    _guard raises BlowupError.  Every d = 1 state is a Python float and every d = 2
    state a pair of them (the same IEEE operations as on arrays, without
    their overhead), every other state a shape-(d,) array; the states become
    one array at the end."""
    d = problem.dim
    states = [problem.xi.item() if d == 1 else tuple(problem.xi.tolist()) if d == 2 else problem.xi.copy()]
    try:
        run(states, term, grid.N, BLOWUP_NORM)
    except ConvergenceError as err:
        raise SchemeStepError(len(states) - 1, err) from err
    _guard(states[-1], len(states) - 2)
    return Trajectory(grid, np.array(states).reshape(grid.N + 1, d))


def _checked(func, shape: tuple):
    """A diffusion evaluator whose output is read as a float array of the
    given shape; an output of another size raises the error that names it."""
    size = math.prod(shape)

    def checked(y):
        out = np.asarray(func(y), dtype=float)
        if out.size != size:
            raise ValueError(
                f"diffusion evaluator returned {out.size} values, not {size} of shape {shape}"
            )
        return out.reshape(shape)

    return checked


def _flat_floats(func, shape: tuple):
    """A d = 2 diffusion evaluator of the given output shape on Python
    floats: its float form if it has one, else ``_checked(func, shape)`` on
    one shape-(2,) scratch array holding the pair y, read as a flat list."""
    floats = getattr(func, "_floats", None)
    if floats is not None:
        return floats
    buf, checked = np.empty(shape[0]), _checked(func, shape)

    def flat(y):
        buf[:] = y
        return checked(buf).ravel().tolist()

    return flat


def _array_term(sigma: DiffusionField, dx, X2, X3):
    """The noise term on arrays: with S, D, D2 = sigma, dsigma, d2sigma at
    y_j (layouts in ``fields``, each read through ``_checked``), S dx[j];
    level 2 adds sum_{k,p} D[a, k, p] W[k, p] with W = X2[j]^T S^T.  Level 3
    adds sum_{l,q} D[p, l, q] P[k, l, q] to W, with
    P[k, l, q] = sum_i X3[j][i, l, k] S[q, i], and adds
    sum_{k,p,q} D2[a, k, p, q] (S P)[k, p, q], before the level-2 sum."""
    d, m = sigma.dim, sigma.noise_dim
    value = _checked(sigma.func, (d, m))
    first, second = _checked(sigma.dfunc, (d, m, d)), _checked(sigma.d2func, (d, m, d, d))

    def term(j, y):
        S = value(y)
        out = S.dot(dx[j])
        if X2 is not None:
            D = first(y).reshape(d, m * d)
            W = X2[j].T.dot(S.T)
            if X3 is not None:
                P = X3[j].transpose(2, 1, 0) @ S.T
                W = W + P.reshape(m, m * d).dot(D.T)
                out = out + second(y).reshape(d, m * d * d).dot((S @ P).ravel())
            out = out + D.dot(W.ravel())
        return out

    return term


def _planar_term(sigma: DiffusionField, dx, X2, X3):
    """``_array_term`` for d = m = 2 on Python floats, written out: S, D and
    D2 are flat tuples in row-major order, the term a pair.  Each product
    sums in the order of OpenBLAS's kernels that round every operation on
    its own: a sum over two indices as the two products' sum, the 4-term
    sum of V = P D^T left to right, and a matrix-vector row of 4 or 8 terms
    as its even-indexed terms left to right plus its odd-indexed ones.  Each
    component of the term is 0.0 plus its sum, +0.0 where that is zero, as
    BLAS writes a zero result; the sign of an intermediate zero changes no
    other value."""
    value, dx = _flat_floats(sigma.func, (2, 2)), dx.tolist()
    if X2 is None:

        def term(j, y):
            s11, s12, s21, s22 = value(y)
            v1, v2 = dx[j]
            return 0.0 + (s11 * v1 + s12 * v2), 0.0 + (s21 * v1 + s22 * v2)

        return term
    first, X2 = _flat_floats(sigma.dfunc, (2, 2, 2)), X2.reshape(len(X2), 4).tolist()
    if X3 is None:

        def term(j, y):
            s11, s12, s21, s22 = value(y)
            a1, a2, a3, a4, b1, b2, b3, b4 = first(y)
            v1, v2 = dx[j]
            x11, x12, x21, x22 = X2[j]
            # W[k, p] = X2[0, k] S[p, 0] + X2[1, k] S[p, 1], row-major as w1..w4
            w1, w2 = x11 * s11 + x21 * s12, x11 * s21 + x21 * s22
            w3, w4 = x12 * s11 + x22 * s12, x12 * s21 + x22 * s22
            return (
                0.0 + ((s11 * v1 + s12 * v2) + ((a1 * w1 + a3 * w3) + (a2 * w2 + a4 * w4))),
                0.0 + ((s21 * v1 + s22 * v2) + ((b1 * w1 + b3 * w3) + (b2 * w2 + b4 * w4))),
            )

        return term
    second, X3 = _flat_floats(sigma.d2func, (2, 2, 2, 2)), X3.reshape(len(X3), 8).tolist()

    def term(j, y):
        s11, s12, s21, s22 = value(y)
        a1, a2, a3, a4, b1, b2, b3, b4 = first(y)
        c1, c2, c3, c4, c5, c6, c7, c8, e1, e2, e3, e4, e5, e6, e7, e8 = second(y)
        v1, v2 = dx[j]
        x11, x12, x21, x22 = X2[j]
        t111, t112, t121, t122, t211, t212, t221, t222 = X3[j]
        # P[k, l, q] = X3[0, l, k] S[q, 0] + X3[1, l, k] S[q, 1], as p<k><l><q>
        p111, p112 = t111 * s11 + t211 * s12, t111 * s21 + t211 * s22
        p121, p122 = t121 * s11 + t221 * s12, t121 * s21 + t221 * s22
        p211, p212 = t112 * s11 + t212 * s12, t112 * s21 + t212 * s22
        p221, p222 = t122 * s11 + t222 * s12, t122 * s21 + t222 * s22
        # W + V, V[k, p] = sum_{l,q} P[k, l, q] D[p, l, q]
        w1 = (x11 * s11 + x21 * s12) + (((p111 * a1 + p112 * a2) + p121 * a3) + p122 * a4)
        w2 = (x11 * s21 + x21 * s22) + (((p111 * b1 + p112 * b2) + p121 * b3) + p122 * b4)
        w3 = (x12 * s11 + x22 * s12) + (((p211 * a1 + p212 * a2) + p221 * a3) + p222 * a4)
        w4 = (x12 * s21 + x22 * s22) + (((p211 * b1 + p212 * b2) + p221 * b3) + p222 * b4)
        # (S P)[k, a, q] = S[a, 0] P[k, 0, q] + S[a, 1] P[k, 1, q], as q<k><a><q>
        q111, q112 = s11 * p111 + s12 * p121, s11 * p112 + s12 * p122
        q121, q122 = s21 * p111 + s22 * p121, s21 * p112 + s22 * p122
        q211, q212 = s11 * p211 + s12 * p221, s11 * p212 + s12 * p222
        q221, q222 = s21 * p211 + s22 * p221, s21 * p212 + s22 * p222
        # D2 (S P) and D vec(W), each row as its even-indexed terms plus its odd-indexed ones
        even1 = ((c1 * q111 + c3 * q121) + c5 * q211) + c7 * q221
        odd1 = ((c2 * q112 + c4 * q122) + c6 * q212) + c8 * q222
        even2 = ((e1 * q111 + e3 * q121) + e5 * q211) + e7 * q221
        odd2 = ((e2 * q112 + e4 * q122) + e6 * q212) + e8 * q222
        return (
            0.0 + (((s11 * v1 + s12 * v2) + (even1 + odd1)) + ((a1 * w1 + a3 * w3) + (a2 * w2 + a4 * w4))),
            0.0 + (((s21 * v1 + s22 * v2) + (even2 + odd2)) + ((b1 * w1 + b3 * w3) + (b2 * w2 + b4 * w4))),
        )

    return term


def _taylor_term(problem: Problem, dx: np.ndarray, X2=None, X3=None):
    """The noise term of step j as a function of (j, y_j): sigma(y_j) dx[j],
    plus the first- and second-order compositions contracted against X2[j]
    and X3[j] when those are given, in the state's type.  For additive
    problems sigma is the identity, so it is the increment with no matrix
    product.

    The compositions are not formed; each level is a few small matrix
    products (``_array_term``), equal to the compositions' contraction to
    rounding.  For d = m = 2 (example3) they run on Python floats
    (``_planar_term``), sigma and its derivatives through their float forms
    or one scratch array each, the lift read once with ``tolist()``; so the
    term makes no BLAS call and its bits do not depend on the BLAS kernel.
    Every other problem contracts on arrays, a d <= 2 one on an array of its
    state.  For d = m = 1 each product is a single multiplication, which no
    BLAS kernel can fuse or reorder, so its bits do not depend on the kernel
    either."""
    d, m = problem.dim, problem.noise_dim
    if problem.additive:
        if d <= 2:
            dx = dx[:, 0].tolist() if d == 1 else dx.tolist()
        return lambda j, y: dx[j]
    if d == m == 2:
        return _planar_term(problem.diffusion, dx, X2, X3)
    term = _array_term(problem.diffusion, dx, X2, X3)
    if d > 2:
        return term
    if d == 1:
        return lambda j, y: term(j, np.array([y])).item()
    return lambda j, y: tuple(term(j, np.array(y)).tolist())


def semi_implicit_taylor(problem: Problem, lift: RoughLift, order: int) -> Trajectory:
    """Semi-implicit Taylor scheme of order 1 (Euler), 2 (Milstein) or 3:
    y_{j+1} = y_j + h*b(y_{j+1}) + sum_{k <= order} C_k(y_j) : X^k_{j,j+1},
    with C_1 = sigma and C_2, C_3 its first- and second-order compositions
    contracted against the level-k tensors X^k of the lift.  For additive
    problems sigma is the identity and every order is drift-implicit Euler.

    One stepper call solves every step.  Step j + 1 starts its Newton
    iteration at the Newton point from y_j, built from the last Newton
    matrix of step j, not at its right-hand side (see
    ``solver._implicit_step``).  So every state solves its step to the
    solver's tolerance, and it can differ from a solve started at the
    right-hand side by as much as that tolerance allows."""
    if type(order) is not int or order not in (1, 2, 3):  # not 2.0, not True
        raise ValueError(f"order must be 1, 2 or 3, got {order!r}")
    if order == 3 and not lift.has_level3:
        raise ValueError("third-order scheme needs a lift with level-3 tensors")
    _check_driver(problem, lift.grid, lift.m)
    run = _implicit_step(problem.drift, lift.grid.h)
    term = _taylor_term(problem, lift.increments, *(lift.level2, lift.level3)[: order - 1])
    return _trajectory(problem, lift.grid, run, term)


def explicit_euler(problem: Problem, path: SamplePath) -> Trajectory:
    """Forward Euler: y_{j+1} = y_j + h*b(y_j) + noise increment, with the
    noise increment x_{j+1} - x_j for additive problems and
    sigma(y_j) (x_{j+1} - x_j) for multiplicative ones."""
    _check_driver(problem, path.grid, path.m)
    h, d = path.grid.h, problem.dim
    b = _on_floats(problem.drift.func, d) if d <= 2 else problem.drift
    if d == 2:
        def step(j, y, term):
            (b1, b2), (t1, t2) = b(y), term(j, y)
            return y[0] + h * b1 + t1, y[1] + h * b2 + t2
    else:
        def step(j, y, term):
            return y + h * b(y) + term(j, y)

    def run(states, term, n, bound):
        y = states[-1]
        for j in range(n):
            y = step(j, y, term)
            states.append(y)
            if not _norm(y) <= bound:
                break

    return _trajectory(problem, path.grid, run, _taylor_term(problem, np.diff(path.values, axis=0)))


def boundedness_bound(problem: Problem, path: SamplePath) -> float:
    """A-priori uniform bound for the drift-implicit additive recursion,
    valid whenever 2*C_b*h <= 1 (``ValueError`` otherwise):

    exp(2*max(C_b, 0)*T) * (|xi| + T * max_{n>=1} |b(x_n)|) + max_n |x_n|.

    A contractive drift (C_b < 0) satisfies the one-sided condition with 0.
    """
    if not problem.additive:
        raise ValueError("the boundedness bound holds for additive problems only")
    _check_driver(problem, path.grid, path.m)
    cb = problem.drift.one_sided_lipschitz
    if 2.0 * cb * path.grid.h > 1.0:
        raise ValueError(f"boundedness bound needs 2*C_b*h <= 1, got {2.0 * cb * path.grid.h:g}")
    return _bound(problem, path.grid.T, *_node_norms(problem, path.values))


def _node_norms(problem: Problem, values: np.ndarray) -> tuple[list[float], np.ndarray]:
    """|b(x_n)| at the nodes n >= 1 and |x_n| at every node of a driver path's
    ``values``, the terms of ``boundedness_bound``; a level whose nodes are
    every f-th of these takes its terms as every f-th entry."""
    b = _on_floats(problem.drift.func) if problem.dim == 1 else problem.drift
    xs = values[1:, 0].tolist() if problem.dim == 1 else values[1:]
    return [_norm(b(x)) for x in xs], np.linalg.norm(values, axis=1)


def _bound(problem: Problem, T: float, b_norms, x_norms) -> float:
    """``boundedness_bound`` on [0, T] from the terms ``_node_norms`` gives."""
    cb = problem.drift.one_sided_lipschitz
    b_max, x_max = max(b_norms), float(np.max(x_norms))
    return float(np.exp(2.0 * max(cb, 0.0) * T) * (_norm(problem.xi) + b_max * T) + x_max)


def dump_trajectory_csv(trajectory: Trajectory, target) -> None:
    """Write one row per node with columns t, y1..yd (17 significant digits)."""
    _write_node_csv(trajectory.grid, trajectory.states, "y", target)
