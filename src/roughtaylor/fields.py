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


# DriftField.__call__ compares every output's dtype with this dtype, not with
# the type np.float64, which NumPy would convert to a dtype at each comparison
_FLOAT64 = np.dtype(np.float64)


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
        if type(out) is np.ndarray and out.dtype == _FLOAT64 and out.ndim == 1 and out.size == self.dim:
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


def _on_floats_form(func, float_func):
    """Give ``func`` the float form ``float_func``: the IEEE operations that
    ``func`` does on a shape-(d,) array, on Python floats (solver._on_floats,
    schemes._flat_floats).  A drift's maps a float to a float for d = 1 and
    a pair of floats to a pair, or a Jacobian's four entries in row-major
    order, for d = 2; a d = m = 2 diffusion evaluator's maps a pair to its
    entries as a flat tuple in row-major order.  Only the fields of the
    built-in examples carry one (``double_well_drift``, ``linear_drift``
    with dim=1, ``cubic_radial_drift(2)``, ``cosine_diffusion``): the
    studies evaluate no other.  Every other d <= 2 field is read through a
    scratch array, in the same bits, only more slowly."""
    func._floats = float_func
    return func


def _sum_of_squares(v) -> float:
    """|v|^2 of a sequence of floats, summed left to right: ndarray.dot may
    fuse multiply-adds, so its sum depends on the BLAS kernel."""
    s = 0.0
    for a in v:
        s += a * a
    return s


def zero_drift(dim: int = 1) -> DriftField:
    return DriftField(dim, lambda y: np.zeros(dim), 0.0, jacobian=lambda y: np.zeros((dim, dim)))


def double_well_drift() -> DriftField:
    """Scalar b(y) = y - y^3, as y - y*y*y; one-sided Lipschitz constant 1."""

    def b(y):
        return y - y * y * y

    def db(y):  # y a float or a float64 scalar
        try:  # libm pow, as for a float64 scalar; pow(y, 2) is not always y*y
            return 1.0 - 3.0 * y**2
        except OverflowError:  # where a float64 scalar gives inf
            return -math.inf

    jac = _on_floats_form(lambda y: np.array(db(y[0]), ndmin=2), db)
    return DriftField(1, _on_floats_form(b, b), 1.0, jacobian=jac)


def linear_drift(coeff: float, dim: int = 1) -> DriftField:
    """b(y) = coeff * y; one-sided Lipschitz constant coeff (negative coeff
    gives a stiff contractive drift with no implicit step-size restriction)."""
    coeff = float(coeff)
    J = coeff * np.eye(dim)
    J.flags.writeable = False
    b, jac = (lambda y: coeff * y), (lambda y: J)
    if dim == 1:
        b, jac = _on_floats_form(b, b), _on_floats_form(jac, lambda y: coeff)
    return DriftField(dim, b, coeff, jacobian=jac)


def cubic_radial_drift(dim: int = 2) -> DriftField:
    """b(y) = y - |y|^2 y; one-sided Lipschitz constant 1 in any dimension.
    |y|^2 is summed left to right, on arrays and floats alike."""

    def b(y):
        return y - _sum_of_squares(y.tolist()) * y

    def jac(y):
        # (1 - |y|^2) I - 2 y y^T, row-major; c * (p == q) is c * I[p, q], signed zeros and NaN too
        v = y.tolist()
        c = 1.0 - _sum_of_squares(v)
        flat = [c * (p == q) - 2.0 * (a * w) for p, a in enumerate(v) for q, w in enumerate(v)]
        return np.array(flat).reshape(dim, dim)

    if dim == 2:

        def b_floats(y):
            y1, y2 = y
            s = y1 * y1 + y2 * y2
            return y1 - s * y1, y2 - s * y2

        def jac_floats(y):
            y1, y2 = y
            c = 1.0 - (y1 * y1 + y2 * y2)
            z = c * 0.0  # c * I[p, q] off the diagonal
            return c - 2.0 * (y1 * y1), z - 2.0 * (y1 * y2), z - 2.0 * (y2 * y1), c - 2.0 * (y2 * y2)

        b, jac = _on_floats_form(b, b_floats), _on_floats_form(jac, jac_floats)
    return DriftField(dim, b, 1.0, jacobian=jac)


def constant_diffusion(matrix) -> DiffusionField:
    """State-independent sigma, a copy of ``matrix``; both derivative
    tensors vanish."""
    S = np.array(matrix, dtype=float, ndmin=2)
    d, m = S.shape
    return DiffusionField(
        d, m, lambda y: S, lambda y: np.zeros((d, m, d)), lambda y: np.zeros((d, m, d, d))
    )


def geometric_diffusion() -> DiffusionField:
    """Scalar sigma(y) = y (d = m = 1); both derivatives are shared read-only
    constants."""
    D, D2 = np.ones((1, 1, 1)), np.zeros((1, 1, 1, 1))
    D.flags.writeable = D2.flags.writeable = False
    return DiffusionField(1, 1, lambda y: y.reshape(1, 1), lambda y: D, lambda y: D2)


_RADIUS_FLOOR = 1e-12


def _radius(y1: float, y2: float) -> float:
    r = math.sqrt(y1 * y1 + y2 * y2)
    if r <= _RADIUS_FLOOR:
        raise ValueError(f"derivatives of |y| are undefined at |y| = {r:.3g} <= {_RADIUS_FLOOR}")
    return r


def _numpy_at_inf(f):
    """``f``, math.cos or math.sin, on a Python float, and NumPy's NaN at
    x = +-inf, where f raises.  At finite x, libm gave NumPy's float64 f bit
    for bit wherever tested (tests/test_fields.py holds the evaluators to it)."""

    def at(x: float) -> float:
        try:
            return f(x)
        except ValueError:
            return x - x

    return at


_cos, _sin = _numpy_at_inf(math.cos), _numpy_at_inf(math.sin)


def cosine_diffusion() -> DiffusionField:
    """Two-dimensional, two-component diffusion
    sigma_1(y) = (cos y2, -0.9 - 10 cos y1), sigma_2(y) = (cos |y|, 0)
    with analytic derivatives.  The |y| derivative is rejected near the
    origin where it is undefined; trajectories of interest stay far from 0.
    Each evaluator is written on a pair of Python floats, its float form,
    which returns the entries as a flat tuple in row-major order; the array
    evaluator packs that tuple, so the two have the same bits.  |y| is
    sqrt(y1*y1 + y2*y2), each operation rounded on its own."""

    def value(y):
        y1, y2 = y
        r = math.sqrt(y1 * y1 + y2 * y2)
        return _cos(y2), _cos(r), -0.9 - 10.0 * _cos(y1), 0.0

    def first(y):
        y1, y2 = y
        r = _radius(y1, y2)
        s = -_sin(r)
        return 0.0, -_sin(y2), s * y1 / r, s * y2 / r, 10.0 * _sin(y1), 0.0, 0.0, 0.0

    def second(y):
        y1, y2 = y
        r = _radius(y1, y2)
        r2 = r**2
        try:
            r3 = r**3
        except OverflowError:  # r above about 5.6e102; r**2 stays finite
            r3 = math.inf
        c, s = -_cos(r), _sin(r)
        # d_p d_q cos|y| = -cos(r) y_p y_q / r^2 - sin(r) (I_pq r^2 - y_p y_q) / r^3, with
        # I_pq r^2 as 0.0 * r^2 off the diagonal (NaN at an infinite r)
        y11, y12, y22, off = y1 * y1, y1 * y2, y2 * y2, 0.0 * r2
        return (
            0.0, 0.0, 0.0, -_cos(y2),
            c * y11 / r2 - s * (r2 - y11) / r3, c * y12 / r2 - s * (off - y12) / r3,
            c * y12 / r2 - s * (off - y12) / r3, c * y22 / r2 - s * (r2 - y22) / r3,
            10.0 * _cos(y1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )

    def on_arrays(floats, *shape):
        return _on_floats_form(lambda y: np.array(floats(y.tolist())).reshape(shape), floats)

    return DiffusionField(
        2, 2, on_arrays(value, 2, 2), on_arrays(first, 2, 2, 2), on_arrays(second, 2, 2, 2, 2)
    )
