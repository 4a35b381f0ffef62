"""Uniform time grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "make_grid",
]


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, T] with nodes t_j = j*T/N."""

    T: float
    N: int

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def nodes(self) -> np.ndarray:
        t = np.arange(self.N + 1) * (self.T / self.N)
        t[-1] = self.T
        return t


def make_grid(T: float, N: int) -> Grid:
    """Build the uniform grid on [0, T] with N steps of size h = T/N."""
    if not 0.0 < T < np.inf:
        raise ValueError(f"final time must be positive and finite, got T={T}")
    if int(N) != N or N < 1:
        raise ValueError(f"number of steps must be a positive integer, got N={N}")
    return Grid(float(T), int(N))
