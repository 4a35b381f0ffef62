"""Uniform time grids."""

from __future__ import annotations

import errno
import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path

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
    """Build the uniform grid on [0, T] with N steps of size h = T/N; N may
    not exceed the largest float, so that h and the nodes exist."""
    if not 0.0 < T < np.inf:
        raise ValueError(f"final time must be positive and finite, got T={T}")
    if not (isinstance(N, numbers.Real) and 1 <= N < math.inf and N % 1 == 0):
        raise ValueError(f"number of steps must be a positive integer, got N={N}")
    if N > sys.float_info.max:  # as 2^x, since N may run to many digits
        raise ValueError(
            f"number of steps N=2^{math.log2(N):.10g} is past float range, so h = T/N has no value"
        )
    return Grid(float(T), int(N))


# The longest file or directory name common file systems take, in bytes
# (NAME_MAX on Linux and macOS).
_NAME_MAX = 255


def _check_target(target, directory: bool = False) -> None:
    """Raise the OSError, naming the path, that writing the file ``target``
    (or, with ``directory``, files into the directory ``target``) would
    meet: something of the other kind at ``target``, a nearest existing
    ancestor that is not a directory, or one that is not writable, or a
    name longer than _NAME_MAX bytes.  Creates nothing, so a command can
    check its output before any work."""
    path = Path(target)
    if any(len(os.fsencode(part)) > _NAME_MAX for part in path.parts):
        raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), str(path))
    if path.exists():
        if path.is_dir() != directory:
            code = errno.ENOTDIR if directory else errno.EISDIR
            raise OSError(code, os.strerror(code), str(path))
        writable = path
    else:
        writable = next(p for p in path.parents if p.exists())
        if not writable.is_dir():
            raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(writable))
    if not os.access(writable, os.W_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(writable))


def _write_csv(target, header, rows, digits: int) -> None:
    r"""Write a CSV table with "\n" line ends, creating the missing parent
    directories of ``target``.  Numbers get ``digits`` significant digits,
    None an empty cell; strings are written as they are."""
    spec = f".{digits}g"

    def cell(v) -> str:
        if v is None:
            return ""
        return v if isinstance(v, str) else format(v, spec)

    Path(target).parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(cell, row)) + "\n" for row in rows)


def _write_node_csv(grid: Grid, values: np.ndarray, column: str, target) -> None:
    """Write one row per node with columns t, <column>1..<column>k (17
    significant digits), k the number of columns of ``values``."""
    header = ["t", *(f"{column}{i + 1}" for i in range(values.shape[1]))]
    _write_csv(target, header, ((t, *row) for t, row in zip(grid.nodes, values)), 17)
