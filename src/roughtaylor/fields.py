"""Drift and diffusion vector fields.

DriftField carries the evaluator together with a declared one-sided Lipschitz
constant (the constant gates the implicit steps and cannot be certified from
point samples, only falsified).  DiffusionField carries sigma with analytic
first and second derivatives in the layout the schemes contract against:

    func(y)[a, i]        = sigma_i^a(y)          shape (d, m)
    dfunc(y)[a, i, p]    = d_p sigma_i^a(y)      shape (d, m, d)
    d2func(y)[a, i, p, q] = d_p d_q sigma_i^a(y)  shape (d, m, d, d)

The module also provides the first/second order differential-operator
compositions used as coefficients of the level-2/3 tensors and the built-in
example coefficients used by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DriftField",
    "DiffusionField",
    "first_order_composition",
    "second_order_composition",
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
        out = self.func(np.asarray(y, dtype=float))
        if type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (self.dim,):
            return out
        out = np.asarray(out, dtype=float)
        if out.size != self.dim:
            raise _size_error(out, self.dim)
        return out.reshape(self.dim)


def _size_error(out: np.ndarray, dim: int) -> ValueError:
    return ValueError(f"drift returned {out.size} values for a state of dimension d = {dim}")


@dataclass(frozen=True)
class DiffusionField:
    """sigma: R^d -> R^(d x m) as columns sigma_1..sigma_m, with analytic
    first and second derivatives (layouts in the module docstring)."""

    dim: int
    noise_dim: int
    func: Callable[[np.ndarray], np.ndarray]
    dfunc: Callable[[np.ndarray], np.ndarray]
    d2func: Callable[[np.ndarray], np.ndarray]


def first_order_composition(S: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Coefficient of the level-2 tensor entry (i, j) from S = sigma(xi) and
    D = dsigma(xi): out[i, j] = sum_p sigma_i^p(xi) d_p sigma_j(xi), a d-vector."""
    return np.einsum("pi,ajp->ija", S, D)


def second_order_composition(S: np.ndarray, D: np.ndarray, D2: np.ndarray) -> np.ndarray:
    """Coefficient of the level-3 tensor entry (i, j, k) from S = sigma(xi),
    D = dsigma(xi) and D2 = d2sigma(xi):
    out[i, j, k] = sum_{p,q} sigma_i^q d_q sigma_j^p d_p sigma_k
                 + sigma_i^q sigma_j^p d_q d_p sigma_k."""
    chained = np.einsum("qi,pjq,akp->ijka", S, D, D)
    curved = np.einsum("qi,pj,akpq->ijka", S, S, D2)
    return chained + curved


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
        return np.array(1.0 - 3.0 * y[0] ** 2, ndmin=2)

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

    def b(y):
        return y - y.dot(y) * y

    def jac(y):
        # (1 - |y|^2) I - 2 y y^T by entries; c * (p == q) is c * I[p, q], signed zeros and NaN too
        c, v = 1.0 - float(y.dot(y)), y.tolist()
        rows = [[c * (p == q) - 2.0 * (a * w) for q, w in enumerate(v)] for p, a in enumerate(v)]
        return np.array(rows)

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
    r = math.sqrt(y.dot(y))
    if r <= _RADIUS_FLOOR:
        raise ValueError(f"derivatives of |y| are undefined at |y| = {r:.3g} <= {_RADIUS_FLOOR}")
    return r


def cosine_diffusion() -> DiffusionField:
    """Two-dimensional, two-component diffusion
    sigma_1(y) = (cos y2, -0.9 - 10 cos y1), sigma_2(y) = (cos |y|, 0)
    with analytic derivatives.  The |y| derivative is rejected near the
    origin where it is undefined; trajectories of interest stay far from 0."""

    def value(y):
        y1, y2 = y.tolist()
        r = math.sqrt(y.dot(y))
        return np.array([[np.cos(y2), np.cos(r)], [-0.9 - 10.0 * np.cos(y1), 0.0]])

    def first(y):
        r = _radius(y)
        y1, y2 = y.tolist()
        s = -np.sin(r)
        row0 = [[0.0, -np.sin(y2)], [s * y1 / r, s * y2 / r]]
        return np.array([row0, [[10.0 * np.sin(y1), 0.0], [0.0, 0.0]]])

    def second(y):
        r = _radius(y)
        D2 = np.zeros((2, 2, 2, 2))
        D2[0, 0, 1, 1] = -np.cos(y[1])
        D2[1, 0, 0, 0] = 10.0 * np.cos(y[0])
        outer = np.outer(y, y)
        D2[0, 1] = -np.cos(r) * outer / r**2 - np.sin(r) * (np.eye(2) * r**2 - outer) / r**3
        return D2

    return DiffusionField(2, 2, value, first, second)
