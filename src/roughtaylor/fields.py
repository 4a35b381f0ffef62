"""Drift and diffusion vector fields.

DriftField carries the evaluator together with a declared one-sided Lipschitz
constant (the constant gates the implicit steps and cannot be certified from
point samples, only falsified).  DiffusionField carries sigma with analytic
first and second derivatives in the layout the schemes contract against:

    func(y)[a, i]        = sigma_i^a(y)          shape (d, m)
    dfunc(y)[a, i, p]    = d_p sigma_i^a(y)      shape (d, m, d)
    d2func(y)[a, i, p, q] = d_p d_q sigma_i^a(y)  shape (d, m, d, d)

The module also provides the first/second order differential-operator
compositions used as coefficients of the level-2/3 tensors, finite-difference
validators for user-supplied derivatives, and the built-in example
coefficients used by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DriftField",
    "DiffusionField",
    "first_order_composition",
    "second_order_composition",
    "validate_diffusion_derivatives",
    "validate_drift_jacobian",
    "audit_one_sided_lipschitz",
    "double_well_drift",
    "linear_drift",
    "cubic_radial_drift",
    "cosine_diffusion",
    "geometric_diffusion",
    "constant_diffusion",
    "zero_drift",
]


@dataclass(frozen=True)
class DriftField:
    """Drift b: R^d -> R^d with declared one-sided Lipschitz constant.

    ``one_sided_lipschitz`` may be negative (contractive drift).  ``jacobian``
    is optional; the implicit solver falls back to finite differences without
    it.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    one_sided_lipschitz: float
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, y) -> np.ndarray:
        return np.asarray(self.func(np.asarray(y, dtype=float)), dtype=float).reshape(self.dim)


@dataclass(frozen=True)
class DiffusionField:
    """sigma: R^d -> R^(d x m) as columns sigma_1..sigma_m, with analytic
    first and second derivatives (layouts in the module docstring)."""

    dim: int
    noise_dim: int
    func: Callable[[np.ndarray], np.ndarray]
    dfunc: Callable[[np.ndarray], np.ndarray]
    d2func: Callable[[np.ndarray], np.ndarray]


def first_order_composition(sigma: DiffusionField, xi) -> np.ndarray:
    """Coefficient of the level-2 tensor entry (i, j):
    out[i, j] = sum_p sigma_i^p(xi) d_p sigma_j(xi), a d-vector."""
    y = np.asarray(xi, dtype=float)
    S = np.asarray(sigma.func(y), dtype=float)
    D = np.asarray(sigma.dfunc(y), dtype=float)
    return np.einsum("pi,ajp->ija", S, D)


def second_order_composition(sigma: DiffusionField, xi) -> np.ndarray:
    """Coefficient of the level-3 tensor entry (i, j, k):
    out[i, j, k] = sum_{p,q} sigma_i^q d_q sigma_j^p d_p sigma_k
                 + sigma_i^q sigma_j^p d_q d_p sigma_k."""
    y = np.asarray(xi, dtype=float)
    S = np.asarray(sigma.func(y), dtype=float)
    D = np.asarray(sigma.dfunc(y), dtype=float)
    D2 = np.asarray(sigma.d2func(y), dtype=float)
    chained = np.einsum("qi,pjq,akp->ijka", S, D, D)
    curved = np.einsum("qi,pj,akpq->ijka", S, S, D2)
    return chained + curved


def validate_diffusion_derivatives(sigma: DiffusionField, points, eps: float = 1e-4) -> float:
    """Max deviation of dfunc/d2func from central finite differences of
    func/dfunc over the given points.  Diagnostic only; never used inside
    the schemes."""
    worst = 0.0
    for y in points:
        y = np.asarray(y, dtype=float)
        D = np.asarray(sigma.dfunc(y), dtype=float)
        D2 = np.asarray(sigma.d2func(y), dtype=float)
        for p in range(sigma.dim):
            e = np.zeros(sigma.dim)
            e[p] = eps
            fd1 = (np.asarray(sigma.func(y + e)) - np.asarray(sigma.func(y - e))) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd1 - D[:, :, p]))))
            fd2 = (np.asarray(sigma.dfunc(y + e)) - np.asarray(sigma.dfunc(y - e))) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd2 - D2[:, :, :, p]))))
    return worst


def validate_drift_jacobian(drift: DriftField, points, eps: float = 1e-6) -> float:
    """Max deviation of the declared drift Jacobian from central differences."""
    if drift.jacobian is None:
        raise ValueError("drift has no analytic jacobian to validate")
    worst = 0.0
    for y in points:
        y = np.asarray(y, dtype=float)
        J = np.asarray(drift.jacobian(y), dtype=float)
        for p in range(drift.dim):
            e = np.zeros(drift.dim)
            e[p] = eps
            fd = (drift(y + e) - drift(y - e)) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd - J[:, p]))))
    return worst


def audit_one_sided_lipschitz(drift: DriftField, rng, trials: int = 200, radius: float = 5.0) -> float:
    """Largest observed violation of the one-sided Lipschitz inequality on
    random pairs: max of <b(u)-b(v), u-v>/|u-v|^2 - C_b.  Nonpositive samples
    cannot certify the declared constant, but a positive value falsifies it."""
    worst = -np.inf
    for _ in range(trials):
        u = rng.uniform(-radius, radius, size=drift.dim)
        v = rng.uniform(-radius, radius, size=drift.dim)
        gap = u - v
        denom = float(gap @ gap)
        if denom < 1e-16:
            continue
        quot = float((drift(u) - drift(v)) @ gap) / denom
        worst = max(worst, quot - drift.one_sided_lipschitz)
    return worst


# ---------------------------------------------------------------------------
# built-in coefficient catalogue (used by the experiment harness)


def zero_drift(dim: int = 1) -> DriftField:
    return DriftField(
        dim,
        lambda y: np.zeros(dim),
        0.0,
        jacobian=lambda y: np.zeros((dim, dim)),
    )


def double_well_drift() -> DriftField:
    """Scalar b(y) = y - y^3; one-sided Lipschitz constant 1."""

    def b(y):
        return y - y**3

    def jac(y):
        return np.array([[1.0 - 3.0 * y[0] ** 2]])

    return DriftField(1, b, 1.0, jacobian=jac)


def linear_drift(coeff: float, dim: int = 1) -> DriftField:
    """b(y) = coeff * y; one-sided Lipschitz constant coeff (negative coeff
    gives a stiff contractive drift with no implicit step-size restriction)."""
    coeff = float(coeff)
    J = coeff * np.eye(dim)
    J.flags.writeable = False
    return DriftField(dim, lambda y: coeff * y, coeff, jacobian=lambda y: J)


def cubic_radial_drift(dim: int = 2) -> DriftField:
    """b(y) = y - |y|^2 y; one-sided Lipschitz constant 1 in any dimension."""

    eye = np.eye(dim)

    def b(y):
        return y - (y @ y) * y

    def jac(y):
        return (1.0 - y @ y) * eye - 2.0 * (y[:, None] * y)

    return DriftField(dim, b, 1.0, jacobian=jac)


def constant_diffusion(matrix) -> DiffusionField:
    """State-independent sigma; both derivative tensors vanish."""
    S = np.atleast_2d(np.asarray(matrix, dtype=float))
    d, m = S.shape
    return DiffusionField(
        d,
        m,
        lambda y: S,
        lambda y: np.zeros((d, m, d)),
        lambda y: np.zeros((d, m, d, d)),
    )


def geometric_diffusion() -> DiffusionField:
    """Scalar sigma(y) = y (d = m = 1)."""
    return DiffusionField(
        1,
        1,
        lambda y: y.reshape(1, 1),
        lambda y: np.ones((1, 1, 1)),
        lambda y: np.zeros((1, 1, 1, 1)),
    )


_RADIUS_FLOOR = 1e-12


def _radius(y):
    r = float(np.sqrt(y @ y))
    if r <= _RADIUS_FLOOR:
        raise ValueError(f"derivatives of |y| are undefined at |y| = {r:.3g} <= {_RADIUS_FLOOR}")
    return r


def cosine_diffusion() -> DiffusionField:
    """Two-dimensional, two-component diffusion
    sigma_1(y) = (cos y2, -0.9 - 10 cos y1), sigma_2(y) = (cos |y|, 0)
    with analytic derivatives.  The |y| derivative is rejected near the
    origin where it is undefined; trajectories of interest stay far from 0."""

    def value(y):
        r = float(np.sqrt(y @ y))
        return np.array(
            [
                [np.cos(y[1]), np.cos(r)],
                [-0.9 - 10.0 * np.cos(y[0]), 0.0],
            ]
        )

    def first(y):
        r = _radius(y)
        D = np.zeros((2, 2, 2))
        D[0, 0] = (0.0, -np.sin(y[1]))
        D[1, 0] = (10.0 * np.sin(y[0]), 0.0)
        D[0, 1] = -np.sin(r) * y / r
        return D

    def second(y):
        r = _radius(y)
        D2 = np.zeros((2, 2, 2, 2))
        D2[0, 0, 1, 1] = -np.cos(y[1])
        D2[1, 0, 0, 0] = 10.0 * np.cos(y[0])
        outer = np.outer(y, y)
        D2[0, 1] = -np.cos(r) * outer / r**2 - np.sin(r) * (np.eye(2) * r**2 - outer) / r**3
        return D2

    return DiffusionField(2, 2, value, first, second)
