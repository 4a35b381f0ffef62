"""Fractional Brownian motion driver.

Paths are sampled exactly on a fine reference grid as L @ V, with V
standard normal and L the Cholesky factor of the fBm covariance at the grid
nodes, then restricted to coarser grids for convergence studies.  Sampling
is deterministic per (config, seed) and bitwise reproducible.

The increments of fBm on a uniform grid (fractional Gaussian noise) are
stationary, so their covariance is a symmetric positive definite Toeplitz
matrix.  Its Cholesky factor comes from the Schur algorithm in O(N^2) time
without forming the N x N matrix, and the cumulative sum of its rows is the
Cholesky factor of the path covariance.  The dense ``covariance_matrix`` and
``cholesky`` stay as the public API and as the reference the fast factor is
tested against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .grids import Grid

__all__ = [
    "DENSE_GRID_LIMIT",
    "FbmConfig",
    "SamplePath",
    "NotPositiveDefiniteError",
    "covariance_matrix",
    "cholesky",
    "sample_fbm",
    "restrict",
    "dump_path_csv",
]

# The factor is a dense N x N array: 8*N^2 bytes per cached factor (128 MB at
# N = 4096), built in O(N^2) time.  Grids beyond this need an explicit opt-in
# through FbmConfig.max_dense_n.
DENSE_GRID_LIMIT = 4096


class NotPositiveDefiniteError(ValueError):
    """Cholesky pivot failure; ``index`` is the 1-based failing leading minor."""

    def __init__(self, index: int):
        super().__init__(f"matrix is not positive definite (failing pivot {index})")
        self.index = index


@dataclass(frozen=True)
class SamplePath:
    """Discrete m-dimensional path on a grid, one row of ``values`` per node."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.N + 1:
            raise ValueError(
                f"values must have one row per node ({self.grid.N + 1}), got shape {v.shape}"
            )
        object.__setattr__(self, "values", np.ascontiguousarray(v))

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FbmConfig:
    """Sampling configuration: Hurst parameter per component, number of
    components, reference grid and base seed."""

    hurst: tuple[float, ...]
    m: int
    grid: Grid
    seed: int
    max_dense_n: int = DENSE_GRID_LIMIT

    def __post_init__(self):
        hs = self.hurst
        if np.isscalar(hs):
            hs = (float(hs),) * self.m
        else:
            hs = tuple(float(H) for H in hs)
        object.__setattr__(self, "hurst", hs)
        if self.m < 1:
            raise ValueError(f"need at least one component, got m={self.m}")
        if len(hs) != self.m:
            raise ValueError(f"{self.m} components but {len(hs)} Hurst parameters")
        for H in hs:
            if not 0.0 < H < 1.0:
                raise ValueError(f"Hurst parameter must lie in (0, 1), got {H}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")


def covariance_matrix(H: float, grid: Grid) -> np.ndarray:
    """fBm covariance 0.5*(|s|^2H + |t|^2H - |t-s|^2H) at the strictly
    positive grid nodes t_1..t_N (the path is pinned to 0 at t_0)."""
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {H}")
    t = grid.nodes[1:]
    two_h = 2.0 * H
    return 0.5 * (
        t[:, None] ** two_h + t[None, :] ** two_h - np.abs(t[:, None] - t[None, :]) ** two_h
    )


def cholesky(M) -> np.ndarray:
    """Lower-triangular L with L @ L.T == M for symmetric positive definite M."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"square matrix required, got shape {M.shape}")
    if not np.allclose(M, M.T, rtol=1e-12, atol=1e-12):
        raise ValueError("symmetric matrix required")
    c, info = lapack.dpotrf(M, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to dpotrf")
    return c


def _fgn_autocovariance(H: float, grid: Grid) -> np.ndarray:
    """Autocovariance gamma(k) = E[dB_0 dB_k] of the fBm increments on ``grid``,
    0.5*h^2H*(|k+1|^2H - 2|k|^2H + |k-1|^2H) for lags k = 0..N-1."""
    k = np.arange(grid.N, dtype=float)
    two_h = 2.0 * H
    return 0.5 * grid.h**two_h * (
        (k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h
    )


def _toeplitz_cholesky(c) -> np.ndarray:
    """Upper-triangular C-ordered R with R.T @ R == toeplitz(c), by the Schur
    algorithm on the generators of the displacement T - Z T Z.T = u u.T - v v.T.

    Row j of R is the generator u after j hyperbolic rotations, applied in the
    mixed form (Bojanczyk, Brent, de Hoog & Sweet 1995), which is backward
    stable for positive definite Toeplitz matrices.  Raises
    ``NotPositiveDefiniteError`` with the same 1-based index as ``cholesky``.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if not c[0] > 0.0:
        raise NotPositiveDefiniteError(1)
    R = np.zeros((n, n))
    R[0] = c / np.sqrt(c[0])
    v = R[0].copy()
    v[0] = 0.0
    for j in range(1, n):
        # The generator u shifted down by one is row j-1 read from column j-1.
        u = R[j - 1, j - 1 : n - 1]
        w = v[j:]
        rho = w[0] / u[0]
        if not abs(rho) < 1.0:
            raise NotPositiveDefiniteError(j + 1)
        s = np.sqrt((1.0 - rho) * (1.0 + rho))
        R[j, j:] = (u - rho * w) / s
        w *= s
        w -= rho * R[j, j:]
    return R


# Factor cache: the Cholesky of the covariance is reused across Monte Carlo
# seeds.  Reads are lock-free on the returned (read-only) arrays; writes are
# serialized.
_CHOLESKY_CACHE_SIZE = 2
_chol_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
_chol_lock = threading.Lock()


def _cholesky_factor(H: float, grid: Grid) -> np.ndarray:
    """Lower-triangular Cholesky factor of ``covariance_matrix(H, grid)``,
    cached and read-only.

    The path is the cumulative sum of its increments, X = C dX with C the
    lower-triangular matrix of ones, and C @ L_inc is lower triangular with
    the diagonal of L_inc, so it is the Cholesky factor of C Gamma C.T.  The
    cumsum along the rows of R = L_inc.T gives its transpose in place.
    """
    key = (float(H), float(grid.T), int(grid.N))
    with _chol_lock:
        if key in _chol_cache:
            _chol_cache.move_to_end(key)
            return _chol_cache[key]
    R = _toeplitz_cholesky(_fgn_autocovariance(H, grid))
    np.cumsum(R, axis=1, out=R)
    R.setflags(write=False)
    L = R.T  # F-ordered, the layout dpotrf returns
    with _chol_lock:
        _chol_cache[key] = L
        while len(_chol_cache) > _CHOLESKY_CACHE_SIZE:
            _chol_cache.popitem(last=False)
    return L


def sample_fbm(config: FbmConfig, seed: int | None = None) -> SamplePath:
    """Draw one m-dimensional fBm path on ``config.grid``.

    Component i equals L_i @ V where L_i is the Cholesky factor of its
    covariance and V is standard normal from a PCG64 stream keyed by
    (seed, i); the value at t_0 is 0.  Components are independent.

    Parameters
    ----------
    config : FbmConfig
    seed : int, optional
        Overrides ``config.seed``.
    """
    grid = config.grid
    if grid.N > config.max_dense_n:
        raise ValueError(
            f"grid has N={grid.N} > max_dense_n={config.max_dense_n}; the cached dense "
            f"factor would take {8 * grid.N**2 / 2**20:.0f} MiB, raise "
            "FbmConfig.max_dense_n to allow it"
        )
    s = config.seed if seed is None else seed
    if int(s) != s or s < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {s}")
    values = np.zeros((grid.N + 1, config.m))
    for comp in range(config.m):
        L = _cholesky_factor(config.hurst[comp], grid)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(s), comp))))
        values[1:, comp] = L @ rng.standard_normal(grid.N)
    return SamplePath(grid, values)


def restrict(path: SamplePath, factor: int) -> SamplePath:
    """Subsample to the coarser grid keeping every factor-th node."""
    if int(factor) != factor or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    if path.grid.N % factor != 0:
        raise ValueError(f"factor {factor} does not divide N={path.grid.N}")
    coarse = Grid(path.grid.T, path.grid.N // factor)
    return SamplePath(coarse, path.values[::factor].copy())


def dump_path_csv(path: SamplePath, target) -> None:
    """Write one row per node with columns t, x1..xm (17 significant digits)."""
    header = "t," + ",".join(f"x{i + 1}" for i in range(path.m))
    lines = [header]
    for t, row in zip(path.grid.nodes, path.values):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
    with open(target, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
