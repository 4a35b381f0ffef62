import contextlib
import ctypes
import dataclasses
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from roughtaylor import fbm
from roughtaylor.fbm import (
    FbmConfig,
    NotPositiveDefiniteError,
    SamplePath,
    cholesky,
    covariance_matrix,
    dump_path_csv,
    restrict,
    sample_fbm,
)
from roughtaylor.grids import make_grid


class TestCovariance:
    def test_brownian_entry(self):
        # H = 1/2 reduces to min(s, t)
        C = covariance_matrix(0.5, make_grid(1.0, 4))
        assert C[0, 1] == pytest.approx(0.25)
        assert np.allclose(C, np.minimum.outer([0.25, 0.5, 0.75, 1.0], [0.25, 0.5, 0.75, 1.0]))

    def test_diagonal(self):
        C = covariance_matrix(0.75, make_grid(1.0, 2))
        assert C[0, 0] == pytest.approx(0.5**1.5)
        assert C[1, 1] == pytest.approx(1.0)

    def test_full_brownian_matrix(self):
        C = covariance_matrix(0.5, make_grid(1.0, 2))
        assert np.allclose(C, [[0.5, 0.5], [0.5, 1.0]])

    @pytest.mark.parametrize("H", [0.1, 0.33, 0.5, 0.9])
    def test_symmetric_with_power_diagonal(self, H):
        g = make_grid(1.0, 16)
        C = covariance_matrix(H, g)
        assert np.array_equal(C, C.T)
        assert np.allclose(np.diag(C), g.nodes[1:] ** (2 * H))

    @pytest.mark.parametrize("H", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_hurst(self, H):
        with pytest.raises(ValueError):
            covariance_matrix(H, make_grid(1.0, 4))


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        L = cholesky([[4.0, 2.0], [2.0, 5.0]])
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])
        assert np.allclose(L @ L.T, [[4.0, 2.0], [2.0, 5.0]])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((40, 40))
        M = A @ A.T + 40 * np.eye(40)
        L = cholesky(M)
        assert np.max(np.abs(L @ L.T - M)) <= 1e-8 * np.max(np.abs(M))

    def test_indefinite_reports_index(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky([[1.0, 0.0], [0.0, -1.0]])
        assert exc.value.index == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"square matrix required, got shape {shape}")):
            cholesky(np.ones(shape))


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _dense(bands):
    """The N x N factor the bands ``R.T[a:b, :b]`` are cut from, F-ordered as
    ``cholesky`` returns it: the dense layout whose products the bands reproduce."""
    N = bands[-1].shape[1]
    L = np.zeros((N, N), order="F")
    for band in bands:
        rows, b = band.shape
        L[b - rows : b, :b] = band
    return L


def _cold_factor(H, grid):
    """The path factor C @ R.T, C the lower-triangular matrix of ones, from a
    freshly built increment factor R.T."""
    fbm._chol_cache.clear()
    return np.cumsum(_dense(fbm._cholesky_factor(H, grid)), axis=0)


def _extended_schur_factor(H, N):
    """The path factor on the unit grid by the plain (not mixed) Schur
    recursion in extended precision: an independent reference accurate far
    beyond float64 rounding."""
    ld = np.longdouble
    two_h = 2 * ld(H)
    k = np.arange(N, dtype=ld)
    c = (ld(1) / N) ** two_h / 2 * ((k + 1) ** two_h - 2 * k**two_h + np.abs(k - 1) ** two_h)
    u = c / np.sqrt(c[0])
    v = u.copy()
    v[0] = 0
    R = np.zeros((N, N), dtype=ld)
    R[0] = u
    for j in range(1, N):
        u = np.concatenate(([ld(0)], u[:-1]))
        rho = v[j] / u[j]
        s = np.sqrt((1 - rho) * (1 + rho))
        u, v = (u - rho * v) / s, (v - rho * u) / s
        R[j, j:] = u[j:]
    return np.cumsum(R, axis=1).T


HURSTS = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]

# Tolerance against the dense oracle: at H = 0.99, N = 1024 the column sweep's
# own factor is off by 1.5e-10 relative (measured against
# _extended_schur_factor), while the Schur factor is within 1.6e-12 of it.
DENSE_ORACLE_RTOL = 1e-9


def _assert_matches_dense(H, N, T):
    grid = make_grid(T, N)
    L = _cold_factor(H, grid)
    C = covariance_matrix(H, grid)
    assert _max_rel(L, cholesky(C)) <= DENSE_ORACLE_RTOL
    assert np.max(np.abs(L @ L.T - C)) <= 1e-12 * np.max(np.abs(C))


class TestSchurFactor:
    @pytest.mark.parametrize("T", [1.0, 0.37])
    @pytest.mark.parametrize("N", [1, 2, 3, 17, 256, 1024])
    @pytest.mark.parametrize("H", HURSTS)
    def test_matches_dense_cholesky(self, H, N, T):
        _assert_matches_dense(H, N, T)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="long double has no extra precision here"
    )
    @pytest.mark.parametrize("H", HURSTS)
    def test_matches_extended_precision(self, H):
        N = 512
        L = _cold_factor(H, make_grid(1.0, N))
        ref = _extended_schur_factor(H, N)
        assert float(_max_rel(L, ref)) <= 1e-11

    @settings(max_examples=30, deadline=None)
    @given(H=st.floats(0.01, 0.99), N=st.integers(1, 512), T=st.floats(0.1, 10.0))
    def test_property_matches_dense_cholesky(self, H, N, T):
        _assert_matches_dense(H, N, T)

    @pytest.mark.parametrize("H", HURSTS)
    def test_increment_factor_reproduces_toeplitz(self, H):
        # the cached factor is R.T, the Cholesky factor of the increments'
        # Toeplitz covariance, not of the path covariance
        c = fbm._fgn_autocovariance(H, make_grid(1.0, 1024))
        R_T = _dense(fbm._schur_bands(c))
        T = scipy.linalg.toeplitz(c)
        assert np.array_equal(R_T, np.tril(R_T))
        assert np.max(np.abs(R_T @ R_T.T - T)) <= 1e-12 * np.max(np.abs(T))

    def test_autocovariance_is_increment_covariance(self):
        grid = make_grid(0.37, 9)
        C = covariance_matrix(0.3, grid)
        D = np.diff(np.vstack([np.zeros(9), C]), axis=0)
        Gamma = np.diff(np.hstack([np.zeros((9, 1)), D]), axis=1)
        c = fbm._fgn_autocovariance(0.3, grid)
        assert np.allclose(scipy.linalg.toeplitz(c), Gamma, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "c", [[1.0, 1.5], [0.0], [-1.0, 0.5], [1.0, 0.9, 0.1], [1.0, 0.5, -0.9, 0.3]]
    )
    def test_not_positive_definite_index(self, c):
        with pytest.raises(NotPositiveDefiniteError) as dense:
            cholesky(scipy.linalg.toeplitz(c))
        with pytest.raises(NotPositiveDefiniteError) as schur:
            _dense(fbm._schur_bands(c))
        assert schur.value.index == dense.value.index

    @pytest.mark.parametrize("T", [1.0, 0.37])
    @pytest.mark.parametrize("H", [0.1, 0.25, 5 / 12, 0.5, 0.75])
    def test_paths_match_dense_oracle(self, H, T):
        # The Hurst values of the built-in studies.  Above them the dense
        # oracle's own path error exceeds this bound (1.9e-10 at H = 0.9).
        grid = make_grid(T, 1024)
        fbm._chol_cache.clear()
        x = sample_fbm(FbmConfig((H,), 1, grid, seed=11)).values[1:, 0]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((11, 0))))
        expected = cholesky(covariance_matrix(H, grid)) @ rng.standard_normal(grid.N)
        assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))


class TestFactorCache:
    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        fbm._chol_cache.clear()
        yield
        fbm._chol_cache.clear()

    def test_second_call_returns_same_object(self):
        grid = make_grid(1.0, 16)
        assert fbm._cholesky_factor(0.3, grid) is fbm._cholesky_factor(0.3, grid)

    def test_factor_is_read_only(self):
        for band in fbm._cholesky_factor(0.3, make_grid(1.0, 600)):
            assert not band.flags.writeable
            with pytest.raises(ValueError):
                band[0, 0] = 1.0

    def test_key_separates_horizon_and_size(self):
        a = fbm._cholesky_factor(0.3, make_grid(1.0, 16))
        b = fbm._cholesky_factor(0.3, make_grid(0.5, 16))
        c = fbm._cholesky_factor(0.3, make_grid(1.0, 8))
        assert a is not b and not np.array_equal(_dense(a), _dense(b))
        assert _dense(c).shape == (8, 8)
        assert len(fbm._chol_cache) == 2

    def test_two_slots_least_recently_used_evicted(self):
        ga, gb, gc = make_grid(1.0, 16), make_grid(1.0, 32), make_grid(1.0, 64)
        a = fbm._cholesky_factor(0.3, ga)
        b = fbm._cholesky_factor(0.3, gb)
        assert fbm._cholesky_factor(0.3, ga) is a  # a is now the most recent
        fbm._cholesky_factor(0.3, gc)  # evicts b
        assert list(fbm._chol_cache) == [(0.3, 1.0, 16), (0.3, 1.0, 64)]
        assert fbm._cholesky_factor(0.3, ga) is a
        assert fbm._cholesky_factor(0.3, gb) is not b

    def test_miss_frees_a_slot_before_the_build(self, monkeypatch):
        cached_at_build = []
        build = fbm._schur_bands

        def recording(c):
            cached_at_build.append(len(fbm._chol_cache))
            return build(c)

        monkeypatch.setattr(fbm, "_schur_bands", recording)
        grid = make_grid(1.0, 16)
        for H in (0.3, 0.4, 0.5):
            fbm._cholesky_factor(H, grid)
        assert cached_at_build == [0, 1, 1]
        assert list(fbm._chol_cache) == [(0.4, 1.0, 16), (0.5, 1.0, 16)]

    def test_miss_holds_at_most_two_factors(self):
        # the factors are built under tracemalloc, so the peak of the third
        # miss counts the cached factors still alive as well as the new one
        n = 1024
        grid = make_grid(1.0, n)
        tracemalloc.start()
        try:
            fbm._cholesky_factor(0.3, grid)
            fbm._cholesky_factor(0.4, grid)
            factor = sum(band.nbytes for band in next(iter(fbm._chol_cache.values())))
            tracemalloc.reset_peak()
            fbm._cholesky_factor(0.5, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * fbm._BAND * n  # the widest block of the Schur sweep
        assert peak < 2 * factor + block + factor // 4

    def test_failed_build_leaves_no_entry(self, monkeypatch):
        grid = make_grid(1.0, 16)
        fbm._cholesky_factor(0.3, grid)

        def failing(c):
            raise NotPositiveDefiniteError(3)

        monkeypatch.setattr(fbm, "_schur_bands", failing)
        with pytest.raises(NotPositiveDefiniteError):
            fbm._cholesky_factor(0.4, grid)
        assert list(fbm._chol_cache) == [(0.3, 1.0, 16)]

    @pytest.mark.parametrize("hs", [(0.3, 0.4, 0.5), (0.3, 0.4, 0.3, 0.4)])
    def test_concurrent_misses_build_each_key_once(self, hs, monkeypatch):
        # threads released together build one at a time under the cache lock:
        # no key is built twice, and at most two factors are alive at once
        n = 1024
        grid = make_grid(1.0, n)
        built, build = [], fbm._schur_bands

        def recording(c):
            built.append(len(c))
            return build(c)

        monkeypatch.setattr(fbm, "_schur_bands", recording)
        barrier = threading.Barrier(len(hs))

        def worker(H):
            barrier.wait()
            fbm._cholesky_factor(H, grid)

        threads = [threading.Thread(target=worker, args=(H,)) for H in hs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        tracemalloc.start()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == len(set(hs))
        factor = sum(band.nbytes for band in next(iter(fbm._chol_cache.values())))
        block = 8 * fbm._BAND * n  # the widest block of the Schur sweep
        assert peak < 2 * factor + block + factor // 4

    def test_racing_misses_keep_two_correct_entries(self):
        grid = make_grid(1.0, 16)
        hs = (0.3, 0.4, 0.5, 0.6)
        want = {H: fbm._schur_bands(fbm._fgn_autocovariance(H, grid)) for H in hs}
        wrong = []

        def worker(k):
            for i in range(200):
                H = hs[(i * (k + 1)) % len(hs)]
                got = fbm._cholesky_factor(H, grid)
                if not all(np.array_equal(g, w) for g, w in zip(got, want[H])):
                    wrong.append(H)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(fbm._chol_cache) <= 2


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread.

    A threaded OpenBLAS GEMV splits the rows of the matrix between threads,
    and the last rows of each share take a scalar loop that rounds
    differently.  So the dense product L @ z itself changes with the thread
    count when the split does not fall on a multiple of 4 rows (N = 1027 on
    2 threads, for one).  The oracle below is the dense product on one
    thread; where OpenBLAS cannot be found, the ambient count is used.
    """
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"))
    blas = ctypes.CDLL(str(libs[0])) if libs else None
    get = getattr(blas, "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(blas, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None:
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _dense_paths(config, seed):
    """The path as the cumulative sum of the increments drawn from the dense
    N x N increment factor, one BLAS thread."""
    values = np.zeros((config.grid.N + 1, config.m))
    for comp, H in enumerate(config.hurst):
        R_T = _dense(fbm._cholesky_factor(H, config.grid))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, comp))))
        with _one_blas_thread():
            values[1:, comp] = np.cumsum(R_T @ rng.standard_normal(config.grid.N))
    return values


BAND_SIZES = [1, 2, 3, 5, 8, 17, 255, 256, 257, 258, 259, 263, 511, 513, 1000, 1024, 1027, 2048]


def oracle_schur_bands(c):
    """``fbm._schur_bands`` as first written: one fresh (b - a) x (n - a)
    block per band of columns of R.T, copied into every band below it."""
    n = c.shape[0]
    edges = [*range(0, n, fbm._BAND), n]
    if len(edges) > 2 and n - edges[-2] < 8:
        del edges[-2]
    spans = list(zip(edges, edges[1:]))
    bands = [np.zeros((b, b - a)) for a, b in spans]
    r = c / np.sqrt(c[0])
    v = r.copy()
    v[0] = 0.0
    for i, (a, b) in enumerate(spans):
        block = np.zeros((b - a, n - a))
        for j in range(a, b):
            if j:
                w = v[j:]
                rho = w.item(0) / r.item(0)
                s = np.sqrt((1.0 - rho) * (1.0 + rho))
                r = (r[:-1] - rho * w) / s
                w *= s
                w -= rho * r
            block[j - a, j - a :] = r
        for (lo, hi), band in zip(spans[i:], bands[i:]):
            band[a:b] = block[:, lo - a : hi - a]
    return tuple(band.T for band in bands)


class TestBands:
    """The factor is kept as its row bands L[a:b, :b]; paths must be the
    dense factor's paths byte for byte, and no N x N array may come back."""

    @pytest.mark.parametrize("hurst", [(0.75,), (5 / 12, 5 / 12), (0.5, 0.25)])
    @pytest.mark.parametrize("N", BAND_SIZES)
    def test_paths_equal_dense_product(self, N, hurst):
        config = FbmConfig(hurst, len(hurst), make_grid(1.0, N), seed=3)
        fbm._chol_cache.clear()
        assert sample_fbm(config).values.tobytes() == _dense_paths(config, 3).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        N=st.integers(1, 1100),
        H=st.sampled_from([0.1, 0.25, 5 / 12, 0.5, 0.75]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_paths_equal_dense_product(self, N, H, seed):
        config = FbmConfig((H,), 1, make_grid(1.0, N), seed=seed)
        assert sample_fbm(config).values.tobytes() == _dense_paths(config, seed).tobytes()

    @pytest.mark.parametrize("hurst", [(0.75,), (0.1, 5 / 12)])
    @pytest.mark.parametrize("N", [1, 17, 257, 1027])
    def test_path_increments_are_banded_product(self, N, hurst):
        # the path is the cumulative sum of R.T @ z, so its differences give
        # the banded product back up to the rounding of that sum
        config = FbmConfig(hurst, len(hurst), make_grid(1.0, N), seed=5)
        values = sample_fbm(config).values
        for comp, H in enumerate(hurst):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, comp))))
            z = rng.standard_normal(N)
            increments = np.zeros(N)
            for band in fbm._cholesky_factor(H, config.grid):
                rows, b = band.shape
                increments[b - rows : b] = band @ z[:b]
            got = np.diff(values[:, comp])
            eps = np.finfo(float).eps
            assert np.max(np.abs(got - increments)) <= 4 * eps * np.max(np.abs(values[:, comp]))

    @pytest.mark.parametrize("N", [1, 7, 8, 255, 256, 257, 263, 264, 1000, 2048, 4096])
    def test_band_shapes_and_bytes(self, N):
        fbm._chol_cache.clear()
        bands = fbm._cholesky_factor(0.5, make_grid(1.0, N))
        heights = [band.shape[0] for band in bands]
        assert sum(heights) == N
        assert all(h == 256 for h in heights[:-1])
        assert heights[-1] == N or 8 <= heights[-1] <= 263
        assert [band.shape[1] for band in bands] == list(np.cumsum(heights))
        assert sum(band.nbytes for band in bands) <= 4 * N * (N + 263)

    @staticmethod
    def assert_equals_oracle(bands, H, N):
        want = oracle_schur_bands(fbm._fgn_autocovariance(H, make_grid(1.0, N)))
        assert [(g.shape, g.strides) for g in bands] == [(w.shape, w.strides) for w in want]
        assert all(g.tobytes("A") == w.tobytes("A") for g, w in zip(bands, want))
        # one read-only buffer holds every band of the factor
        assert len({id(band.base) for band in bands}) == 1
        assert not bands[0].base.flags.writeable
        assert not any(band.flags.writeable for band in bands)

    # 259, 263 and 2051 end in a merged tail band of 259, 263 and 259 rows
    @pytest.mark.parametrize("N", [7, 259, 263, 300, 2048, 2051, 4096])
    def test_bands_equal_block_per_band_build(self, N):
        for H in (0.1, 0.25, 0.5, 0.75):
            self.assert_equals_oracle(fbm._schur_bands(fbm._fgn_autocovariance(H, make_grid(1.0, N))), H, N)

    @pytest.mark.parametrize("N", [263, 2048])
    def test_build_into_memory_an_evicted_factor_freed(self, N):
        # the second build's buffer may be the first one's memory, which holds
        # its bands; every cell the build does not compute must still read 0
        grid = make_grid(1.0, N)
        fbm._chol_cache.clear()
        fbm._cholesky_factor(0.1, grid)
        fbm._chol_cache.clear()
        self.assert_equals_oracle(fbm._cholesky_factor(0.75, grid), 0.75, N)

    def test_build_needs_few_rows_beside_the_bands(self):
        # the Schur sweep fills the bands through one scratch block of
        # fbm._SUB rows, not a block of fbm._BAND rows per band
        N = 2048
        c = fbm._fgn_autocovariance(0.75, make_grid(1.0, N))
        tracemalloc.start()
        try:
            bands = fbm._schur_bands(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(band.nbytes for band in bands) <= 64 * 8 * N

    def test_cold_sample_allocates_under_dense_size(self):
        N = 2048
        config = FbmConfig((0.75,), 1, make_grid(1.0, N), seed=0)
        fbm._chol_cache.clear()
        tracemalloc.start()
        try:
            sample_fbm(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.7 * 8 * N**2


class TestSampling:
    def test_starts_at_zero(self):
        cfg = FbmConfig((0.4,), 1, make_grid(1.0, 32), seed=5)
        assert sample_fbm(cfg).values[0, 0] == 0.0

    def test_seed_determinism(self):
        cfg = FbmConfig((0.3, 0.7), 2, make_grid(1.0, 64), seed=9)
        a = sample_fbm(cfg)
        b = sample_fbm(cfg)
        assert np.array_equal(a.values, b.values)

    def test_seed_override_changes_path(self):
        cfg = FbmConfig((0.5,), 1, make_grid(1.0, 32), seed=0)
        other = dataclasses.replace(cfg, seed=1)
        assert not np.array_equal(sample_fbm(cfg).values, sample_fbm(other).values)

    @pytest.mark.parametrize("seed", [-1, 1.5, float("inf"), float("nan"), None])
    def test_config_rejects_bad_seed(self, seed):
        # FbmConfig checks the seed itself, replace() included
        cfg = FbmConfig((0.5,), 1, make_grid(1.0, 8), seed=0)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            FbmConfig((0.5,), 1, make_grid(1.0, 8), seed=seed)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            dataclasses.replace(cfg, seed=seed)

    @pytest.mark.parametrize("T, H", [(1e308, 0.75), (1e300, 0.99), (5e-324, 0.5), (1e-300, 0.75)])
    def test_config_rejects_increment_variance_out_of_range(self, T, H):
        # h^2H overflows or underflows: no factor exists, so the config is refused
        with pytest.raises(ValueError, match=r"increment variance h\^2H = (inf|0\.0) for h="):
            FbmConfig((0.5, H), 2, make_grid(T, 64), seed=0)

    def test_every_factor_before_any_draw(self, monkeypatch):
        events = []
        factor, generator = fbm._cholesky_factor, np.random.Generator
        monkeypatch.setattr(fbm, "_cholesky_factor", lambda H, g: events.append(H) or factor(H, g))
        monkeypatch.setattr(np.random, "Generator", lambda b: events.append("draw") or generator(b))
        sample_fbm(FbmConfig((0.3, 0.7), 2, make_grid(1.0, 32), seed=0))
        assert events == [0.3, 0.7, "draw", "draw"]

    def test_failing_factor_names_hurst_and_size_before_any_draw(self, monkeypatch):
        # H this close to 1 makes the increment covariance numerically singular
        def no_draw(bits):
            raise AssertionError("a normal drawn before every factor exists")

        monkeypatch.setattr(np.random, "Generator", no_draw)
        cfg = FbmConfig((0.5, 0.9999999999999999), 2, make_grid(1.0, 64), seed=0)
        message = (
            r"^the fBm increment covariance for H=0\.9999999999999999 on N=64 steps "
            r"is not positive definite \(failing pivot \d+\)$"
        )
        with pytest.raises(NotPositiveDefiniteError, match=message) as err:
            sample_fbm(cfg)
        assert err.value.index > 1

    def test_config_rejects_no_components(self):
        with pytest.raises(ValueError, match="need at least one component, got m=0"):
            FbmConfig((), 0, make_grid(1.0, 8), seed=0)

    @pytest.mark.parametrize("shape", [(8,), (10, 1), (9, 1, 1)])
    def test_path_rejects_rows_other_than_nodes(self, shape):
        # N = 8 steps: 9 nodes, so 9 rows
        with pytest.raises(ValueError, match=r"values must have one row per node \(9\), got shape"):
            SamplePath(make_grid(1.0, 8), np.zeros(shape))

    def test_scalar_hurst_broadcast(self):
        cfg = FbmConfig(0.5, 3, make_grid(1.0, 8), seed=0)
        assert cfg.hurst == (0.5, 0.5, 0.5)
        assert sample_fbm(cfg).values.shape == (9, 3)

    def test_dense_cap(self):
        cfg = FbmConfig((0.5,), 1, make_grid(1.0, 4097), seed=0)
        fbm._chol_cache.clear()
        with pytest.raises(ValueError, match=r"N=4097 steps, above the sampler's limit of 4096"):
            sample_fbm(cfg)
        assert not fbm._chol_cache

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_stationary_increment_variance(self, H):
        # E|B(t)-B(s)|^2 = |t-s|^(2H), Monte Carlo with ~2% standard error
        grid = make_grid(1.0, 64)
        cfg = FbmConfig((H,), 1, grid, seed=0)
        n = 4000
        pairs = [(0, 32), (16, 48), (8, 40), (0, 64)]
        acc = np.zeros(len(pairs))
        for s in range(n):
            v = sample_fbm(dataclasses.replace(cfg, seed=s)).values[:, 0]
            for k, (i, j) in enumerate(pairs):
                acc[k] += (v[j] - v[i]) ** 2
        for k, (i, j) in enumerate(pairs):
            expected = (grid.nodes[j] - grid.nodes[i]) ** (2 * H)
            assert acc[k] / n == pytest.approx(expected, rel=0.10)

    def test_components_uncorrelated(self):
        cfg = FbmConfig((0.5, 0.5), 2, make_grid(1.0, 32), seed=0)
        n = 4000
        ends = np.array([sample_fbm(dataclasses.replace(cfg, seed=s)).values[-1] for s in range(n)])
        corr = np.corrcoef(ends.T)[0, 1]
        assert abs(corr) < 0.05


class TestRestrict:
    def _path(self, N=8):
        g = make_grid(1.0, N)
        return SamplePath(g, np.arange(N + 1, dtype=float) ** 2)

    def test_identity(self):
        p = self._path()
        q = restrict(p, 1)
        assert np.array_equal(p.values, q.values) and q.grid == p.grid

    def test_indices(self):
        q = restrict(self._path(8), 4)
        assert q.grid.N == 2
        assert np.array_equal(q.values[:, 0], [0.0, 16.0, 64.0])

    def test_composition(self):
        p = self._path(8)
        a = restrict(restrict(p, 2), 2)
        b = restrict(p, 4)
        assert a.grid == b.grid and np.array_equal(a.values, b.values)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            restrict(self._path(8), 3)

    @pytest.mark.parametrize("factor", [2.5, 0, -2])
    def test_rejects_factor_that_is_not_a_positive_integer(self, factor):
        with pytest.raises(ValueError, match=f"factor must be a positive integer, got {factor}"):
            restrict(self._path(8), factor)


def test_dump_path_csv(tmp_path):
    cfg = FbmConfig((0.5,), 1, make_grid(1.0, 4), seed=2)
    p = sample_fbm(cfg)
    target = tmp_path / "missing" / "dir" / "path.csv"
    dump_path_csv(p, target)
    assert b"\r" not in target.read_bytes()
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == 6
    t0, x0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(x0) == 0.0
