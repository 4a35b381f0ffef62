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
