import contextlib
import ctypes
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


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _dense(bands):
    """The N x N factor the bands ``L[a:b, :b]`` are cut from, F-ordered as
    dpotrf returns it: the dense layout whose products the bands reproduce."""
    N = bands[-1].shape[1]
    L = np.zeros((N, N), order="F")
    for band in bands:
        rows, b = band.shape
        L[b - rows : b, :b] = band
    return L


def _cold_factor(H, grid):
    fbm._chol_cache.clear()
    return _dense(fbm._cholesky_factor(H, grid))


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

# Tolerance against the dense oracle: at H = 0.99, N = 1024 dpotrf's own factor
# is off by 1.7e-10 relative (measured against _extended_schur_factor), while
# the Schur factor is within 1.6e-12 of it.
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
        # oracle's own path error exceeds this bound (1.3e-10 at H = 0.9).
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
    """The path as sampled from the dense N x N factor, one BLAS thread."""
    values = np.zeros((config.grid.N + 1, config.m))
    for comp, H in enumerate(config.hurst):
        L = _dense(fbm._cholesky_factor(H, config.grid))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, comp))))
        with _one_blas_thread():
            values[1:, comp] = L @ rng.standard_normal(config.grid.N)
    return values


BAND_SIZES = [1, 2, 3, 5, 8, 17, 255, 256, 257, 258, 259, 263, 511, 513, 1000, 1024, 1027, 2048]


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
        assert not np.array_equal(sample_fbm(cfg).values, sample_fbm(cfg, seed=1).values)

    def test_scalar_hurst_broadcast(self):
        cfg = FbmConfig(0.5, 3, make_grid(1.0, 8), seed=0)
        assert cfg.hurst == (0.5, 0.5, 0.5)
        assert sample_fbm(cfg).values.shape == (9, 3)

    def test_dense_cap(self):
        cfg = FbmConfig((0.5,), 1, make_grid(1.0, 64), seed=0, max_dense_n=32)
        with pytest.raises(ValueError, match="max_dense_n"):
            sample_fbm(cfg)

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_stationary_increment_variance(self, H):
        # E|B(t)-B(s)|^2 = |t-s|^(2H), Monte Carlo with ~2% standard error
        grid = make_grid(1.0, 64)
        cfg = FbmConfig((H,), 1, grid, seed=0)
        n = 4000
        pairs = [(0, 32), (16, 48), (8, 40), (0, 64)]
        acc = np.zeros(len(pairs))
        for s in range(n):
            v = sample_fbm(cfg, seed=s).values[:, 0]
            for k, (i, j) in enumerate(pairs):
                acc[k] += (v[j] - v[i]) ** 2
        for k, (i, j) in enumerate(pairs):
            expected = (grid.nodes[j] - grid.nodes[i]) ** (2 * H)
            assert acc[k] / n == pytest.approx(expected, rel=0.10)

    def test_components_uncorrelated(self):
        cfg = FbmConfig((0.5, 0.5), 2, make_grid(1.0, 32), seed=0)
        n = 4000
        ends = np.array([sample_fbm(cfg, seed=s).values[-1] for s in range(n)])
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


def test_dump_path_csv(tmp_path):
    cfg = FbmConfig((0.5,), 1, make_grid(1.0, 4), seed=2)
    p = sample_fbm(cfg)
    target = tmp_path / "path.csv"
    dump_path_csv(p, target)
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == 6
    t0, x0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(x0) == 0.0
