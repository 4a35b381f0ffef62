"""Rough-path lifts of discrete paths.

A lift stores the per-interval increments together with the level-2 (and
optionally level-3) iterated-integral tensors; tensors over longer spans are
obtained through the Chen composition law, so storage stays O(N).

Tensor layout: level2[r, i, j] multiplies noise pair (i, j) on interval r,
level3[r, i, j, k] the triple (i, j, k), with the first index the earliest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fbm import SamplePath
from .grids import Grid

__all__ = [
    "RoughLift",
    "piecewise_linear_lift",
    "chen_compose",
    "interval_tensors",
    "tensors_over",
    "geometricity_defect",
    "chen_defect",
]


@dataclass(frozen=True)
class RoughLift:
    grid: Grid
    increments: np.ndarray  # (N, m)
    level2: np.ndarray  # (N, m, m)
    level3: np.ndarray | None = None  # (N, m, m, m)

    def __post_init__(self):
        x = np.asarray(self.increments, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.grid.N:
            raise ValueError(f"increments must have shape (N, m), got {x.shape}")
        m = x.shape[1]
        X2 = np.asarray(self.level2, dtype=float)
        if X2.shape != (self.grid.N, m, m):
            raise ValueError(f"level2 must have shape (N, m, m), got {X2.shape}")
        object.__setattr__(self, "increments", x)
        object.__setattr__(self, "level2", X2)
        if self.level3 is not None:
            X3 = np.asarray(self.level3, dtype=float)
            if X3.shape != (self.grid.N, m, m, m):
                raise ValueError(f"level3 must have shape (N, m, m, m), got {X3.shape}")
            object.__setattr__(self, "level3", X3)

    @property
    def m(self) -> int:
        return self.increments.shape[1]

    @property
    def has_level3(self) -> bool:
        return self.level3 is not None


def piecewise_linear_lift(path: SamplePath, include_level3: bool = True) -> RoughLift:
    """Canonical lift of the piecewise-linear interpolant of a discrete path.

    On an interval with increment v the iterated integrals of the linear
    segment are v⊗v/2 and v⊗v⊗v/6.
    """
    v = np.diff(path.values, axis=0)
    level2 = 0.5 * np.einsum("ni,nj->nij", v, v)
    level3 = np.einsum("ni,nj,nk->nijk", v, v, v) / 6.0 if include_level3 else None
    return RoughLift(path.grid, v, level2, level3)


def chen_compose(left, right):
    """Compose lift data over adjacent intervals [s,u] and [u,t] into [s,t].

    Each argument is a tuple (x, X2, X3) where X3 may be None; the result
    satisfies the level-2 and level-3 Chen identities exactly (to rounding).
    """
    xl, X2l, X3l = left
    xr, X2r, X3r = right
    x = xl + xr
    X2 = X2l + X2r + np.multiply.outer(xl, xr)
    X3 = None
    if X3l is not None and X3r is not None:
        X3 = X3l + X3r + np.multiply.outer(X2l, xr) + np.multiply.outer(xl, X2r)
    return x, X2, X3


def interval_tensors(lift: RoughLift, r: int):
    """Lift data of the r-th grid interval as a (x, X2, X3) tuple."""
    X3 = lift.level3[r] if lift.has_level3 else None
    return lift.increments[r], lift.level2[r], X3


def tensors_over(lift: RoughLift, i: int, j: int):
    """Lift data over [t_i, t_j], folded with chen_compose."""
    if not 0 <= i < j <= lift.grid.N:
        raise ValueError(f"need 0 <= i < j <= N, got i={i}, j={j}")
    acc = interval_tensors(lift, i)
    for r in range(i + 1, j):
        acc = chen_compose(acc, interval_tensors(lift, r))
    return acc


def geometricity_defect(lift: RoughLift) -> float:
    """Max entrywise deviation of Sym(X2) from x⊗x/2 over all intervals;
    zero for lifts of piecewise-linear (or any smooth) paths."""
    v = lift.increments
    sym = 0.5 * (lift.level2 + np.transpose(lift.level2, (0, 2, 1)))
    target = 0.5 * np.einsum("ni,nj->nij", v, v)
    return float(np.max(np.abs(sym - target)))


def _pair_tables(lift: RoughLift):
    """Tensors over every node pair, T1[i,j] etc., built by row-wise folds.

    Quadratic memory; intended for validation at modest N.
    """
    n = lift.grid.N + 1
    m = lift.m
    T1 = np.zeros((n, n, m))
    T2 = np.zeros((n, n, m, m))
    T3 = np.zeros((n, n, m, m, m)) if lift.has_level3 else None
    for i in range(n - 1):
        acc = interval_tensors(lift, i)
        T1[i, i + 1], T2[i, i + 1] = acc[0], acc[1]
        if T3 is not None:
            T3[i, i + 1] = acc[2]
        for j in range(i + 2, n):
            acc = chen_compose(acc, interval_tensors(lift, j - 1))
            T1[i, j], T2[i, j] = acc[0], acc[1]
            if T3 is not None:
                T3[i, j] = acc[2]
    return T1, T2, T3


def chen_defect(lift: RoughLift) -> tuple[float, float]:
    """Max residuals of the level-2 and level-3 Chen identities over all grid
    triples s < u < t (level-3 residual is 0.0 when the lift has no level3)."""
    n = lift.grid.N + 1
    if n > 256:
        raise ValueError("chen_defect tabulates all node pairs; use N <= 255")
    T1, T2, T3 = _pair_tables(lift)
    # residual[s, u, t] = X_{s,t} - X_{s,u} - X_{u,t} - (cross terms)
    R2 = (
        T2[:, None, :, :, :]
        - T2[:, :, None, :, :]
        - T2[None, :, :, :, :]
        - T1[:, :, None, :, None] * T1[None, :, :, None, :]
    )
    s_idx, u_idx, t_idx = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    valid = (s_idx < u_idx) & (u_idx < t_idx)
    res2 = float(np.max(np.abs(R2[valid]))) if valid.any() else 0.0
    res3 = 0.0
    if T3 is not None:
        R3 = (
            T3[:, None, :, :, :, :]
            - T3[:, :, None, :, :, :]
            - T3[None, :, :, :, :, :]
            - T2[:, :, None, :, :, None] * T1[None, :, :, None, None, :]
            - T1[:, :, None, :, None, None] * T2[None, :, :, None, :, :]
        )
        res3 = float(np.max(np.abs(R3[valid]))) if valid.any() else 0.0
    return res2, res3
