"""Fractional Brownian motion driver.

Paths are sampled exactly on a fine reference grid as L @ V, with V
standard normal and L the Cholesky factor of the fBm covariance at the grid
nodes, then restricted to coarser grids for convergence studies.  Sampling
is deterministic per (config, seed) and bitwise reproducible.

The increments of fBm on a uniform grid (fractional Gaussian noise) are
stationary, so their covariance is a symmetric positive definite Toeplitz
matrix.  The Schur algorithm gives its Cholesky factor one row at a time in
O(N^2) time without forming the N x N matrix, and the cumulative sum of each
row is a column of the Cholesky factor of the path covariance.  Only the
nonzero half of that factor is kept, as row bands ``L[a:b, :b]``.  The dense
``covariance_matrix`` and ``cholesky`` stay as the public API and as the
reference the fast factor is tested against.
"""

from __future__ import annotations

import math
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

# The factor is kept as row bands L[a:b, :b] of _BAND rows: 4*N*(N + _BAND)
# bytes per cached factor (68 MiB at N = 4096), built in O(N^2) time.  Grids
# beyond this need an explicit opt-in through FbmConfig.max_dense_n.
DENSE_GRID_LIMIT = 4096
_BAND = 256


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


def _schur_bands(c) -> tuple[np.ndarray, ...]:
    """Row bands ``L[a:b, :b]`` of the lower-triangular L with
    L @ L.T == C toeplitz(c) C.T, C the lower-triangular matrix of ones.

    The Schur algorithm on the generators of the displacement
    T - Z T Z.T = u u.T - v v.T gives the Cholesky factor R.T of toeplitz(c)
    one row of R at a time: row j is the generator u after j hyperbolic
    rotations, applied in the mixed form (Bojanczyk, Brent, de Hoog & Sweet
    1995), which is backward stable for positive definite Toeplitz matrices.
    The path is the cumulative sum of its increments, so C @ R.T is lower
    triangular with the diagonal of R and column j of L is the cumulative
    sum of row j of R.  Each band is built transposed and handed out
    F-ordered like the dense factor, so its products round as the dense
    product did.  Raises ``NotPositiveDefiniteError`` with the same 1-based index as
    ``cholesky``.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if not c[0] > 0.0:
        raise NotPositiveDefiniteError(1)
    edges = [*range(0, n, _BAND), n]
    if len(edges) > 2 and n - edges[-2] < 8:
        del edges[-2]  # a tail of fewer than 8 rows joins the band above
    spans = list(zip(edges, edges[1:]))
    bands = [np.zeros((b, b - a)) for a, b in spans]
    r = c / np.sqrt(c[0])  # R[j, j:]
    v = r.copy()
    v[0] = 0.0
    for i, (a, b) in enumerate(spans):
        # Columns a..b-1 of L, rows a..n-1, then one block copy per band.
        block = np.zeros((b - a, n - a))
        for j in range(a, b):
            if j:
                # The generator u shifted down by one is R[j-1, j-1:n-1].
                w = v[j:]
                rho = w.item(0) / r.item(0)
                if not abs(rho) < 1.0:
                    raise NotPositiveDefiniteError(j + 1)
                s = math.sqrt((1.0 - rho) * (1.0 + rho))
                r = (r[:-1] - rho * w) / s
                w *= s
                w -= rho * r
            np.add.accumulate(r, out=block[j - a, j - a :])  # cumsum
        for (lo, hi), band in zip(spans[i:], bands[i:]):
            band[a:b] = block[:, lo - a : hi - a]
        del block  # keeps one block alive at a time, not two
    for band in bands:
        band.setflags(write=False)
    return tuple(band.T for band in bands)


# Factor cache: the Cholesky of the covariance is reused across Monte Carlo
# seeds.  Reads are lock-free on the returned (read-only) arrays; writes are
# serialized.
_CHOLESKY_CACHE_SIZE = 2
_chol_cache: OrderedDict[tuple, tuple[np.ndarray, ...]] = OrderedDict()
_chol_lock = threading.Lock()


def _cholesky_factor(H: float, grid: Grid) -> tuple[np.ndarray, ...]:
    """Row bands ``L[a:b, :b]`` of the lower-triangular Cholesky factor L of
    ``covariance_matrix(H, grid)``, cached and read-only."""
    key = (float(H), float(grid.T), int(grid.N))
    with _chol_lock:
        if key in _chol_cache:
            _chol_cache.move_to_end(key)
            return _chol_cache[key]
    bands = _schur_bands(_fgn_autocovariance(H, grid))
    with _chol_lock:
        _chol_cache[key] = bands
        while len(_chol_cache) > _CHOLESKY_CACHE_SIZE:
            _chol_cache.popitem(last=False)
    return bands


def sample_fbm(config: FbmConfig, seed: int | None = None) -> SamplePath:
    """Draw one m-dimensional fBm path on ``config.grid``.

    Component i equals L_i @ V where L_i is the Cholesky factor of its
    covariance and V is standard normal from a PCG64 stream keyed by
    (seed, i); the value at t_0 is 0.  Components are independent.  Band
    [a, b) of the path is ``L_i[a:b, :b] @ V[:b]``.

    Parameters
    ----------
    config : FbmConfig
    seed : int, optional
        Overrides ``config.seed``.
    """
    grid = config.grid
    if grid.N > config.max_dense_n:
        raise ValueError(
            f"grid has N={grid.N} > max_dense_n={config.max_dense_n}; the cached banded "
            f"factor would take {4 * grid.N * (grid.N + _BAND) / 2**20:.0f} MiB, raise "
            "FbmConfig.max_dense_n to allow it"
        )
    s = config.seed if seed is None else seed
    if int(s) != s or s < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {s}")
    values = np.zeros((grid.N + 1, config.m))
    for comp in range(config.m):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(s), comp))))
        z = rng.standard_normal(grid.N)
        for L in _cholesky_factor(config.hurst[comp], grid):
            rows, b = L.shape
            values[1 + b - rows : 1 + b, comp] = L @ z[:b]
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
