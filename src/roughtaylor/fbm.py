"""Fractional Brownian motion driver.

Paths are sampled exactly on a fine reference grid as the cumulative sum
of the increments R.T @ V, with V standard normal and R.T the Cholesky
factor of the covariance of the fBm increments, then restricted to coarser
grids for convergence studies.  Sampling is deterministic per (config, seed)
and bitwise reproducible for a given BLAS thread count and NumPy SIMD dispatch:
the autocovariance's array ``**`` follows it, so disabling AVX-512 moves paths.

The increments of fBm on a uniform grid (fractional Gaussian noise) are
stationary, so their covariance is a symmetric positive definite Toeplitz
matrix.  The Schur algorithm gives its Cholesky factor R.T one row of R at a
time in O(N^2) time without forming the N x N matrix.  Only the nonzero half
of R.T is kept, as row bands ``R.T[a:b, :b]``.  The dense
``covariance_matrix`` and ``cholesky`` stay as the public API and as the
reference the fast factor is tested against: C @ R.T, C the lower-triangular
matrix of ones, is the Cholesky factor of the path covariance.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .grids import Grid, _write_node_csv

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

# The factor is kept as row bands R.T[a:b, :b] of _BAND rows: 4*N*(N + _BAND)
# bytes per cached factor (68 MiB at N = 4096), built in O(N^2) time.  The
# paper's reference grids have at most 2^12 steps, so sample_fbm refuses any
# larger grid rather than build a factor that grows as N^2.
DENSE_GRID_LIMIT = 4096
_LOG2_LIMIT = math.log2(DENSE_GRID_LIMIT)
_BAND = 256
_SUB = 32  # rows of the build's one scratch block; band edges are multiples of it


class NotPositiveDefiniteError(ValueError):
    """Cholesky pivot failure; ``index`` is the 1-based failing leading minor."""

    def __init__(self, index: int, what: str = "matrix"):
        super().__init__(f"{what} is not positive definite (failing pivot {index})")
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
        h = self.grid.h
        for H in hs:
            if not 0.0 < H < 1.0:
                raise ValueError(f"Hurst parameter must lie in (0, 1), got {H}")
            try:  # the variance of one increment, the factor's first pivot
                variance = h ** (2.0 * H)
            except OverflowError:
                variance = math.inf
            if not 0.0 < variance < math.inf:
                raise ValueError(
                    f"increment variance h^2H = {variance} for h={h} and H={H} "
                    "is not positive and finite"
                )
        _check_seed(self.seed)


def _check_seed(seed) -> int:
    """The seed as an int; ValueError unless it is a nonnegative integer
    (a bool or an integral float is one)."""
    if not (isinstance(seed, numbers.Real) and 0 <= seed < math.inf and seed % 1 == 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return int(seed)


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
    L = np.zeros(M.shape, order="F")
    for j in range(M.shape[0]):  # column sweep: Golub & Van Loan, Matrix Computations, ch. 4
        pivot = M[j, j] - L[j, :j] @ L[j, :j]
        if not pivot > 0.0:  # NaN included
            raise NotPositiveDefiniteError(j + 1)
        L[j, j] = math.sqrt(pivot)
        L[j + 1 :, j] = (M[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def _fgn_autocovariance(H: float, grid: Grid) -> np.ndarray:
    """Autocovariance gamma(k) = E[dB_0 dB_k] of the fBm increments on ``grid``,
    0.5*h^2H*(|k+1|^2H - 2|k|^2H + |k-1|^2H) for lags k = 0..N-1."""
    k = np.arange(grid.N, dtype=float)
    two_h = 2.0 * H
    return 0.5 * grid.h**two_h * (
        (k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h
    )


def _schur_bands(c) -> tuple[np.ndarray, ...]:
    """Row bands ``R.T[a:b, :b]`` of the lower-triangular Cholesky factor
    R.T of toeplitz(c), R.T @ R == toeplitz(c).

    The Schur algorithm on the generators of the displacement
    T - Z T Z.T = u u.T - v v.T gives R one row at a time: row j is the
    generator u after j hyperbolic rotations, applied in the mixed form
    (Bojanczyk, Brent, de Hoog & Sweet 1995), which is backward stable for
    positive definite Toeplitz matrices.  Each row is written straight into
    its row of a scratch block, and each band is built transposed and handed
    out F-ordered like the dense factor, so its products round as the dense
    product did.  Raises ``NotPositiveDefiniteError`` with the same 1-based
    index as ``cholesky``.
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
    scratch = np.zeros((_SUB, n))  # row t is written from column t on: its first t stay 0
    r = np.divide(c, np.sqrt(c[0]), out=scratch[0])  # R[j, j:]
    v = r.copy()
    v[0] = 0.0
    for a in range(0, n, _SUB):
        # Rows a..b-1 of R, columns a..n-1, then one block copy per band.
        b = min(a + _SUB, n)
        block = scratch[: b - a, : n - a]
        for j in range(a, b):
            if j:
                # The generator u shifted down by one is R[j-1, j-1:n-1].
                w = v[j:]
                rho = w.item(0) / r.item(0)
                if not abs(rho) < 1.0:
                    raise NotPositiveDefiniteError(j + 1)
                s = math.sqrt((1.0 - rho) * (1.0 + rho))
                r = np.divide(r[:-1] - rho * w, s, out=block[j - a, j - a :])
                w *= s
                w -= rho * r
        for (lo, hi), band in zip(spans, bands):
            if hi > a:
                band[a:b, max(a - lo, 0) :] = block[:, max(lo - a, 0) : hi - a]
    for band in bands:
        band.setflags(write=False)
    return tuple(band.T for band in bands)


# Factor cache, reused across Monte Carlo seeds.  A miss builds under the
# lock, so concurrent misses build one at a time, each key once.
_CHOLESKY_CACHE_SIZE = 2
_chol_cache: OrderedDict[tuple, tuple[np.ndarray, ...]] = OrderedDict()
_chol_lock = threading.Lock()


def _cholesky_factor(H: float, grid: Grid) -> tuple[np.ndarray, ...]:
    """Row bands ``R.T[a:b, :b]`` of the lower-triangular Cholesky factor R.T
    of the covariance of the increments of fBm on ``grid``, cached and
    read-only.  Its cumulative sum down each column is the Cholesky factor of
    ``covariance_matrix(H, grid)``."""
    key = (float(H), float(grid.T), int(grid.N))
    with _chol_lock:
        if key in _chol_cache:
            _chol_cache.move_to_end(key)
            return _chol_cache[key]
        # free the slot before the build, so the factor being built is one
        # of the _CHOLESKY_CACHE_SIZE alive, not one more
        while len(_chol_cache) >= _CHOLESKY_CACHE_SIZE:
            _chol_cache.popitem(last=False)
        try:
            bands = _chol_cache[key] = _schur_bands(_fgn_autocovariance(H, grid))
        except NotPositiveDefiniteError as err:
            what = f"the fBm increment covariance for H={H} on N={grid.N} steps"
            raise NotPositiveDefiniteError(err.index, what) from None
        return bands


def _check_grid_size(log2_n: float) -> None:
    """Raise ValueError if a grid of 2**log2_n steps is above DENSE_GRID_LIMIT.

    The size comes as its base-2 logarithm, so that a study checks its
    reference grid of 2**k steps before it builds 2**k, and the message is
    built from floats.  Up to 2**40 steps, where 2**log2_n rounds back to N,
    it gives N in full; above, N and the factor's size as powers of two, so
    no size overflows it.  An int log2_n, which may be past float range, is
    written out in full."""
    if not log2_n > _LOG2_LIMIT:
        return
    if log2_n <= 40.0:
        n = round(2.0**log2_n)
        size = f"N={n} steps", f"{4.0 * n * (n + _BAND) / 2**20:.0f} MiB"
    else:
        spec = "d" if isinstance(log2_n, int) else ".10g"
        size = f"N=2^{log2_n:{spec}} steps", f"2^{2 * log2_n - 18:{spec}} MiB"
    raise ValueError(
        f"grid has {size[0]}, above the sampler's limit of {DENSE_GRID_LIMIT}; "
        f"its banded factor would take {size[1]}"
    )


def sample_fbm(config: FbmConfig) -> SamplePath:
    """Draw one m-dimensional fBm path on ``config.grid``.

    The increments of component i are R_i.T @ V, where R_i.T is the
    Cholesky factor of their covariance and V is standard normal from a PCG64
    stream keyed by (config.seed, i); the path is their cumulative sum, and
    its value at t_0 is 0.  Components are independent.  Band [a, b) of the
    increments is ``R_i.T[a:b, :b] @ V[:b]``.  Grids of more than
    ``DENSE_GRID_LIMIT`` steps raise ``ValueError`` before any factor is built.
    Every factor is built before any normal is drawn; a failing one names H and N.
    """
    grid = config.grid
    _check_grid_size(math.log2(grid.N))
    factors = [_cholesky_factor(H, grid) for H in config.hurst]
    values = np.zeros((grid.N + 1, config.m))
    for comp, bands in enumerate(factors):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(config.seed), comp))))
        z = rng.standard_normal(grid.N)
        x = values[1:, comp]
        for R_T in bands:
            rows, b = R_T.shape
            x[b - rows : b] = R_T @ z[:b]  # increments
        np.add.accumulate(x, out=x)  # cumsum
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
    _write_node_csv(path.grid, path.values, "x", target)
