import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fracpath.grids import GridError
from fracpath import fbm, norms
from oracles import fgn_davies_harte, lambda_alpha


class TestPathGeneration:
    def test_starts_at_zero(self):
        for seed in range(5):
            assert fbm.fbm_path(0.75, 64, seed).values[0] == 0.0

    def test_deterministic(self):
        p1 = fbm.fbm_path(0.6, 256, 42)
        p2 = fbm.fbm_path(0.6, 256, 42)
        assert np.array_equal(p1.values, p2.values)
        assert not np.array_equal(p1.values, fbm.fbm_path(0.6, 256, 43).values)

    def test_stream_splitting_changes_path(self):
        p0 = fbm.fbm_path(0.75, 64, 7, (0,))
        p1 = fbm.fbm_path(0.75, 64, 7, (1,))
        assert not np.array_equal(p0.values, p1.values)

    def test_rejects_bad_hurst(self):
        with pytest.raises(GridError):
            fbm.fbm_path(1.2, 64, 0)

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64, 257, 1024, 4096])
    def test_circulant_embedding_nonnegative(self, n):
        # the embedding check raises on a negative eigenvalue; no H reaches it
        rng = np.random.default_rng(0)
        for hurst in np.arange(1, 100) / 100:
            c = fbm.increment_covariance(hurst, np.arange(n + 1))
            assert np.isfinite(fgn_davies_harte(c, n, rng)).all()

    def test_negative_embedding_raises(self):
        c = np.array([1.0, 2.0, 0.0, 0.0, 0.0])  # not a covariance sequence
        with pytest.raises(RuntimeError):
            fgn_davies_harte(c, 4, np.random.default_rng(0))


class TestCovarianceLaw:
    def test_variance_law_h075(self):
        rep = fbm.covariance_validator(0.75, 3000, seed=5, n=64)
        assert rep.passed, max(rep.entries, key=lambda e: abs(e["z"]))

    def test_brownian_case_disjoint_increments(self):
        rep = fbm.covariance_validator(0.5, 3000, seed=9, n=64)
        assert rep.passed
        entry = [e for e in rep.entries if e["kind"] == "disjoint_increments"][0]
        assert entry["expected"] == 0.0
        assert abs(entry["z"]) <= 4.0

    def test_covariance_h06(self):
        rep = fbm.covariance_validator(0.6, 3000, seed=2, n=64)
        assert rep.max_abs_z <= 4.0

    def test_rejects_small_sample_count(self):
        with pytest.raises(GridError):
            fbm.covariance_validator(0.7, 100, seed=1)

    def test_self_similarity(self):
        # increments at lag k on an n-grid and lag 2k on a 2n-grid share the
        # law after scaling by 2^H; compare empirical variances
        H, S = 0.75, 4000
        v1 = np.array([fbm.fbm_path(H, 64, 3, (s,)).values[8] for s in range(S)])
        v2 = np.array([fbm.fbm_path(H, 128, 4, (s,)).values[16] for s in range(S)])
        # same physical increment on both grids: variances must agree
        z = (v1.var(ddof=1) - v2.var(ddof=1)) / (v1.var(ddof=1) * math.sqrt(4.0 / S))
        assert abs(z) <= 4.0

    def test_stationary_increments(self):
        H, S, n = 0.7, 4000, 64
        paths = np.array([fbm.fbm_path(H, n, 17, (s,)).values for s in range(S)])
        lag = 8
        sigma2 = (lag / n) ** (2 * H)
        for off in (0, 16, 40):
            var = (paths[:, off + lag] - paths[:, off]).var(ddof=1)
            z = (var - sigma2) / (sigma2 * math.sqrt(2.0 / (S - 1)))
            assert abs(z) <= 3.5, (off, z)


class TestDrivingField:
    def test_frozen_slices_identical(self):
        df = fbm.field_from_path(fbm.fbm_path(0.75, 64, 3), 0.3)
        for j in range(1, 7):
            assert np.array_equal(df.time_slice(0).rise, df.time_slice(j).rise)

    def test_frozen_driver_refuses_a_non_finite_slice(self):
        # inf * xi is NaN at xi = 0 and inf elsewhere
        with np.errstate(invalid="ignore"), pytest.raises(GridError, match="non-finite"):
            fbm.stub_driving_field("linear", 8, 0.3, scale=np.inf)

    def test_linear_stub_lambda_closed_form(self):
        st = fbm.stub_driving_field("linear", 128, 0.3)
        exact = 1.0 / (math.gamma(0.7) * math.gamma(1.3))
        assert st.lambda_value == pytest.approx(exact, rel=1e-12)

    def test_spatial_origin_pinned_to_zero(self):
        for kind in ("zero", "linear", "quadratic", "sine"):
            st = fbm.stub_driving_field(kind, 32, 0.3)
            assert all(op.rise[0] == 0.0 for op in st.slices)

    @pytest.mark.parametrize("seed", range(0, 100, 7))
    def test_lambda_finite_for_fbm(self, seed):
        df = fbm.field_from_path(fbm.fbm_path(0.75, 96, seed), 0.3)
        assert np.isfinite(df.lambda_value) and df.lambda_value > 0
        assert np.isfinite(df.holder_norm)

    def test_lambda_matches_norms_module(self):
        df = fbm.field_from_path(fbm.fbm_path(0.75, 64, 12), 0.3)
        assert df.lambda_value == pytest.approx(
            lambda_alpha([op.rise for op in df.slices], 0.3), rel=1e-12)

    def test_sheet_rejects_large_time_grid(self):
        with pytest.raises(GridError):
            fbm.FbmConfig(hurst=0.75, n=32, m=65, T=1.0, seed=0)

    def test_config_rejects_negative_seed(self):
        # one rule, where a seed becomes a generator: a path and a sheet,
        # whose path k draws from the stream (k,)
        sheet = fbm.FbmConfig(hurst=0.75, n=32, m=2, T=1.0, seed=-1)
        for build in (lambda: fbm.fbm_path(0.75, 32, -1),
                      lambda: fbm.driving_field(sheet, 0.3)):
            with pytest.raises(GridError, match=r"^seeds must be >= 0, got \(-1,"):
                build()

    def test_config_rejects_negative_stream_entry(self):
        sheet = fbm.FbmConfig(hurst=0.75, n=32, m=2, T=1.0, seed=3, stream=(0, -2))
        for build in (lambda: fbm.fbm_path(0.75, 32, 3, (0, -2)),
                      lambda: fbm.driving_field(sheet, 0.3)):
            with pytest.raises(GridError, match=r"^seeds must be >= 0, got \(3, 0, -2"):
                build()

    @pytest.mark.parametrize("hurst_t", [1.0, 1.5])
    def test_config_rejects_temporal_hurst_at_least_one(self, hurst_t):
        with pytest.raises(GridError):
            fbm.FbmConfig(hurst=0.75, n=32, m=2, T=1.0, seed=0, hurst_t=hurst_t)

    def test_sheet_model(self):
        cfg = fbm.FbmConfig(hurst=0.75, n=32, m=12, T=1.0, seed=5)
        df = fbm.driving_field(cfg, 0.3)
        values = np.stack([op.rise for op in df.slices])
        assert values.shape == (13, 33) and df.T == 1.0
        assert np.all(values[:, 0] == 0.0)
        assert np.all(values[0] == 0.0)  # sheet vanishes at t = 0
        assert not df.time_constant
        df2 = fbm.driving_field(cfg, 0.3)
        assert np.array_equal(values, np.stack([op.rise for op in df2.slices]))

    def test_pair_matrices_built_once(self):
        frozen = fbm.field_from_path(fbm.fbm_path(0.75, 32, 8), 0.3)
        sheet = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=32, m=5, T=1.0, seed=8), 0.3)
        assert len(frozen.slices) == 1 and len(sheet.slices) == 6
        assert frozen.slices[0].rise.tobytes() == fbm.fbm_path(0.75, 32, 8).values.tobytes()
        for drv in (frozen, sheet):
            for j in range(6):
                op = drv.time_slice(j)
                # g(t, 0) = 0, so the rise g - g(0) is the slice g itself
                g, D = op.rise, op.pair_matrix
                assert g[0] == 0.0
                assert not D.flags.writeable
                assert np.array_equal(D, norms.right_derivative_pair_matrix(g, 0.3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            frozen.lambda_value = 0.0

    def test_sheet_slices_keep_no_pair_matrix_from_the_fft_size(self):
        # nine n = 1024 pair matrices would hold 9 x 8.4 MB
        sheet = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=1024, m=8, T=0.1, seed=8), 0.3)
        assert len(sheet.slices) == 9
        held = sum(v.nbytes for op in sheet.slices for v in vars(op).values()
                   if isinstance(v, np.ndarray))
        assert held < 2 ** 20

    def test_time_slice_returns_the_stored_operator(self):
        frozen = fbm.stub_driving_field("sine", 32, 0.3)
        sheet = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=32, m=5, T=1.0, seed=8), 0.3)
        # a time-constant driver answers every index with its one operator
        assert all(frozen.time_slice(j) is frozen.slices[0] for j in range(6))
        assert all(sheet.time_slice(j) is sheet.slices[j] for j in range(6))

    # (driver, holder_norm, lambda_value) as float.hex, recorded before the
    # driver functionals were reorganized; they must not move by one bit
    RECORDED = [
        (lambda: fbm.field_from_path(fbm.fbm_path(0.75, 256, 7), 0.3),
         "0x1.6125861fa9549p+3", "0x1.1017e2a76f082p+1"),
        (lambda: fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=64, m=4, T=0.1, seed=7), 0.3),
         "0x1.0c44e1bc0366ep+0", "0x1.909fcb9d4e6c7p-3"),
        (lambda: fbm.stub_driving_field("sine", 96, 0.25),
         "0x1.7a0afdc656da2p+3", "0x1.0afa12f5321d8p+1"),
        (lambda: fbm.field_from_path(fbm.fbm_path(0.6, 1024, 3), 0.45),
         "0x1.28e9519692c91p+4", "0x1.c6cfc9794aedap+1"),
    ]

    @pytest.mark.parametrize("case", range(len(RECORDED)))
    def test_functionals_match_recorded_bits(self, case):
        make, holder, lam = self.RECORDED[case]
        drv = make()
        assert drv.holder_norm == float.fromhex(holder)
        assert drv.lambda_value == float.fromhex(lam)

    def test_sheet_field_independent_of_blas_threads(self):
        code = ("import hashlib; from fracpath import fbm; "
                "d = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=256, m=64, T=0.1, "
                "seed=7), 0.3); "
                "print(hashlib.sha256(b''.join(op.rise.tobytes() for op in d.slices))"
                ".hexdigest())")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, env=env)
            assert r.returncode == 0, r.stderr
            digests.append(r.stdout)
        assert digests[0] == digests[1]
