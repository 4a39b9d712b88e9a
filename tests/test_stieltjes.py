import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fracpath.frac_calc import _FFT_MIN_N, weyl_derivative_left
from fracpath.grids import GridError, GridFunction
from fracpath import coefficients as co, fbm, norms, solver, stieltjes
from fracpath.sampling import random_trig_grid
from oracles import calibrate_pairing_sign


def grid(fn, n=1024):
    x = np.linspace(0, 1, n + 1)
    return GridFunction(0, 1, fn(x))


def rs_midpoint(ffn, gfn, subdivisions=10 ** 5, a=0.0, b=1.0):
    """Midpoint Riemann-Stieltjes sums: the classical oracle."""
    xs = np.linspace(a, b, subdivisions + 1)
    mid = 0.5 * (xs[:-1] + xs[1:])
    return float(np.sum(ffn(mid) * (gfn(xs[1:]) - gfn(xs[:-1]))))


class TestPairingSign:
    def test_calibration_matches_module_constant(self):
        assert calibrate_pairing_sign() == stieltjes.PAIRING_SIGN
        assert calibrate_pairing_sign(n=512, alpha=0.25) == stieltjes.PAIRING_SIGN


class TestStieltjesIntegral:
    def test_constant_integrand_gives_increment(self):
        f = grid(lambda x: np.ones_like(x))
        g = grid(lambda x: np.sin(3 * x) + x ** 2)
        got = stieltjes.stieltjes_integral(f, g, 0.3, 0.25, 0.75)
        exact = g.values[768] - g.values[256]
        assert got == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    def test_x_dx_is_one_half(self, alpha):
        f = grid(lambda x: x)
        assert stieltjes.stieltjes_integral(f, f, alpha) == pytest.approx(0.5, abs=1e-4)

    def test_smooth_pair_against_midpoint_sums(self):
        ref = rs_midpoint(np.sin, lambda t: t ** 2)
        f, g = grid(np.sin, 2048), grid(lambda x: x ** 2, 2048)
        got = stieltjes.stieltjes_integral(f, g, 0.3)
        assert got == pytest.approx(ref, rel=1e-3)

    def test_bilinearity(self):
        rng = np.random.default_rng(5)
        f1, f2 = random_trig_grid(256, rng), random_trig_grid(256, rng)
        g1, g2 = random_trig_grid(256, rng), random_trig_grid(256, rng)
        a = 0.3
        lhs = stieltjes.stieltjes_integral(
            GridFunction(0, 1, 2 * f1.values - 3 * f2.values), g1, a)
        rhs = 2 * stieltjes.stieltjes_integral(f1, g1, a) \
            - 3 * stieltjes.stieltjes_integral(f2, g1, a)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        lhs_g = stieltjes.stieltjes_integral(
            f1, GridFunction(0, 1, g1.values + 0.5 * g2.values), a)
        rhs_g = stieltjes.stieltjes_integral(f1, g1, a) \
            + 0.5 * stieltjes.stieltjes_integral(f1, g2, a)
        assert lhs_g == pytest.approx(rhs_g, abs=1e-10)

    def test_interval_additivity_improves_under_refinement(self):
        gaps = []
        for n in (512, 1024, 2048):
            f, g = grid(np.cos, n), grid(lambda x: x ** 2 + np.sin(2 * x), n)
            full = stieltjes.stieltjes_integral(f, g, 0.3)
            split = stieltjes.stieltjes_integral(f, g, 0.3, 0.0, 0.5) \
                + stieltjes.stieltjes_integral(f, g, 0.3, 0.5, 1.0)
            gaps.append(abs(full - split) / abs(full))
        assert gaps[-1] < 1e-2
        assert gaps[0] > gaps[-1]

    def test_classical_consistency_with_derivative_quadrature(self):
        # for smooth g, int f dg = int f g' dx
        import mpmath
        ref = float(mpmath.quad(lambda t: math.exp(-t) * math.cos(3 * t), [0, 1]))
        f = grid(lambda x: np.exp(-x), 2048)
        g = grid(lambda x: np.sin(3 * x) / 3, 2048)
        assert stieltjes.stieltjes_integral(f, g, 0.25) == pytest.approx(ref, rel=1e-3)

    def test_rejects_misaligned_interval(self):
        f = grid(lambda x: x, 64)
        with pytest.raises(GridError):
            stieltjes.stieltjes_integral(f, f, 0.3, 0.1234567, 0.75)

    def test_rejects_nonfinite_values(self):
        # the constructor refuses a NaN at node 0, so no integrand holds one
        with pytest.raises(GridError, match="non-finite"):
            GridFunction(0, 1, np.where(np.arange(65) == 0, np.nan, 1.0))


class TestIndicatorConsistency:
    def test_full_interval_gap_exactly_zero(self):
        f = grid(lambda x: np.sin(x) + 1, 256)
        g = grid(lambda x: x ** 2, 256)
        rep = stieltjes.stieltjes_indicator_consistency(f, g, 0.25, 0.0, 1.0)
        assert rep.gap == 0.0

    def test_interior_window_small_gap(self):
        f = grid(lambda x: np.sin(x) + 1, 2048)
        g = grid(lambda x: np.sin(2 * x) + x ** 2, 2048)
        rep = stieltjes.stieltjes_indicator_consistency(f, g, 0.25, 0.25, 0.75)
        assert rep.gap <= 1e-2

    def test_constant_integrand_both_sides(self):
        f = grid(lambda x: np.ones_like(x), 1024)
        g = grid(lambda x: np.cos(2 * x), 1024)
        rep = stieltjes.stieltjes_indicator_consistency(f, g, 0.3, 0.25, 0.75)
        exact = g.values[768] - g.values[256]
        assert rep.direct == pytest.approx(exact, abs=1e-12)
        assert rep.embedded == pytest.approx(exact, abs=0.05)


class TestBound357:
    def test_zero_integrand(self):
        f = grid(lambda x: np.zeros_like(x), 256)
        g = grid(lambda x: x, 256)
        rep = stieltjes.bound_357_check(f, g, 0.3)
        assert rep.lhs == 0.0 and rep.holds

    def test_closed_form_case(self):
        # f = 1, g = x, alpha = 1/2: lhs = 1, rhs = (2/pi) / (1/2) = 4/pi
        f = grid(lambda x: np.ones_like(x), 512)
        g = grid(lambda x: x, 512)
        rep = stieltjes.bound_357_check(f, g, 0.5)
        assert rep.lhs == pytest.approx(1.0, rel=1e-10)
        assert rep.rhs == pytest.approx(4 / math.pi, rel=1e-3)
        assert rep.holds

    @pytest.mark.parametrize("seed", range(0, 100, 4))
    def test_randomized_sweep(self, seed):
        rng = np.random.default_rng(seed)
        f = random_trig_grid(256, rng)
        g = fbm.fbm_path(0.75, 256, 1000 + seed)
        rep = stieltjes.bound_357_check(f, g, 0.3)
        assert rep.holds, rep.to_dict()

    def test_rejects_integrator_on_other_grid(self):
        f = grid(lambda x: np.ones_like(x), 256)
        for g in (grid(lambda x: x, 128), GridFunction(0, 2, np.linspace(0, 2, 257))):
            with pytest.raises(GridError):
                stieltjes.bound_357_check(f, g, 0.3)


class TestPathwiseBound:
    def test_zero(self):
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=128, m=1, T=1.0,
                                              seed=4), 0.3)
        u = grid(lambda x: np.zeros_like(x), 128)
        assert stieltjes.pathwise_integral_bound_check(u, drv).holds

    def test_unit_integrand_boundary_identity(self):
        # u = 1: integral is B(1) - B(0); bound G/(1-alpha)
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=128, m=1, T=1.0,
                                              seed=4), 0.3)
        u = grid(lambda x: np.ones_like(x), 128)
        rep = stieltjes.pathwise_integral_bound_check(u, drv)
        path = drv.field.values[0]
        assert rep.lhs >= abs(path[-1] - path[0]) - 1e-12
        assert rep.rhs == pytest.approx(drv.lambda_value / 0.7, rel=1e-9)
        assert rep.holds

    @pytest.mark.parametrize("seed", range(0, 40, 3))
    def test_sweep(self, seed):
        rng = np.random.default_rng(seed)
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=128, m=1, T=1.0,
                                              seed=seed), 0.3)
        u = random_trig_grid(128, rng)
        assert stieltjes.pathwise_integral_bound_check(u, drv).holds

    def test_rejects_integrand_on_other_grid(self):
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=128, m=1, T=1.0,
                                              seed=4), 0.3)
        with pytest.raises(GridError):
            stieltjes.pathwise_integral_bound_check(grid(np.ones_like, 64), drv)

    def test_sheet_driver_checks_every_slice(self):
        # slice 0 of a sheet is identically zero; the check must see the others
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=64, m=6, T=0.5, seed=4,
                                              time_model="sheet"), 0.3)
        u = random_trig_grid(64, np.random.default_rng(2))
        rep = stieltjes.pathwise_integral_bound_check(u, drv)
        per_slice = [stieltjes.bound_357_check(u, GridFunction(0, 1, row), 0.3)
                     for row in drv.field.values]
        assert rep.lhs > 0.0
        assert rep.lhs == max(r.lhs for r in per_slice)
        assert rep.lam == drv.lambda_value == max(r.lam for r in per_slice)
        assert rep.holds

    def test_sheet_driver_left_derivative_computed_once(self, monkeypatch):
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=64, m=8, T=0.5, seed=4,
                                              time_model="sheet"), 0.3)
        u = random_trig_grid(64, np.random.default_rng(5))
        # one sweep per slice, each computing its own left derivative of u
        sups = [float(np.abs(stieltjes.stieltjes_all_upper_limits(
                    u.values, stieltjes.slice_operator(row, drv.alpha))).max())
                for row in drv.field.values]
        assert len(sups) == 9 and len(set(sups)) == 9
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return weyl_derivative_left(*args, **kwargs)

        monkeypatch.setattr(stieltjes, "weyl_derivative_left", counted)
        rep = stieltjes.pathwise_integral_bound_check(u, drv)
        assert len(calls) == 1
        assert rep.lhs == max(sups)


def dense_sweep(u, g_values, pair_matrix, h, alpha):
    """Reference: the dense (n+1)^2 product of the pair matrix with the
    left-derivative row, its row sums and the trapezoid end corrections."""
    Du = weyl_derivative_left(GridFunction(0.0, 1.0, u), alpha).values
    P = pair_matrix * Du[None, :]
    first = P[:, 1]
    last = np.concatenate([[0.0], np.diagonal(P, offset=-1)])
    trap = P.sum(axis=1) - 0.5 * (first + last) \
        + first / (2.0 - alpha) + last / (1.0 + alpha)
    trap[:2] = 0.0
    return stieltjes.PAIRING_SIGN * h * trap + u[0] * (g_values - g_values[0])


def full_square_sweep(U, g_values, pair_matrix, h, alpha):
    """Reference: the stacked sweep with one ``np.einsum`` over the whole
    (n+1)^2 pair matrix, zeros above the diagonal included."""
    Du = np.stack([weyl_derivative_left(GridFunction(0.0, 1.0, u), alpha).values for u in U])
    rowsum = np.einsum("sj,ij->si", Du, pair_matrix)
    first = pair_matrix[:, 1] * Du[:, 1:2]
    last = np.zeros_like(rowsum)
    last[:, 1:] = np.diagonal(pair_matrix, -1) * Du[:, :-1]
    trap = rowsum - 0.5 * (first + last) + first / (2.0 - alpha) + last / (1.0 + alpha)
    trap[:, :2] = 0.0
    out = stieltjes.PAIRING_SIGN * h * trap + U[:, :1] * (g_values - g_values[0])
    # the modulus sum of the contraction, the scale its rounding acts on
    scale = h * np.einsum("sj,ij->si", np.abs(Du), np.abs(pair_matrix))
    return out, scale


def assert_fft_sweep_matches_full_square(U, g, P, alpha):
    """The convolved sweep regroups every sum, so it is held to a row-wise
    bound: a few eps of the row's largest modulus sum."""
    n = g.size - 1
    op = stieltjes.slice_operator(g, alpha)
    assert op.pair_matrix is None
    got = stieltjes.stieltjes_all_upper_limits(U, op)
    ref, scale = full_square_sweep(U, g, P, 1.0 / n, alpha)
    eps = np.finfo(float).eps
    assert (np.abs(got - ref) <= 64 * eps * (scale + np.abs(ref)).max(axis=1, keepdims=True)).all()


def sweep_inputs(n, alpha, k, seed=0):
    rng = np.random.default_rng(seed)
    g = fbm.fbm_path(0.75, n, 100 + n).values
    P = norms.right_derivative_pair_matrix(g, 1.0 / n, alpha)
    return rng.standard_normal((k, n + 1)), g, P


class TestAllUpperLimits:
    @pytest.mark.parametrize("n", [2, 3, 64, 257, 1024])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_matches_dense_formula(self, n, alpha):
        U, g, P = sweep_inputs(n, alpha, 3)
        got = stieltjes.stieltjes_all_upper_limits(U, stieltjes.slice_operator(g, alpha))
        for row, out in zip(U, got):
            ref = dense_sweep(row, g, P, 1.0 / n, alpha)
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [2, 3, 64, 257])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    @pytest.mark.parametrize("k", [1, 51])
    def test_banded_sweep_matches_full_square(self, n, alpha, k):
        # the bands drop only the zero pairs j >= i, so the two sweeps sum
        # the same terms and differ by rounding of the re-grouped sums alone
        U, g, P = sweep_inputs(n, alpha, k, seed=k)
        got = stieltjes.stieltjes_all_upper_limits(U, stieltjes.slice_operator(g, alpha))
        ref, scale = full_square_sweep(U, g, P, 1.0 / n, alpha)
        eps = np.finfo(float).eps
        assert (np.abs(got - ref) <= 2 * eps * (scale + np.abs(ref))).all()

    @pytest.mark.parametrize("n", [512, 1024, 2049, 4096])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    @pytest.mark.parametrize("k", [1, 51])
    def test_fft_sweep_matches_full_square(self, n, alpha, k):
        U, g, P = sweep_inputs(n, alpha, k, seed=k)
        assert_fft_sweep_matches_full_square(U, g, P, alpha)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_fft_sweep_on_offset_driver(self, alpha):
        # |g| far above its increments cancels in the two convolutions of
        # each difference unless the slice is centered first
        n = 4096
        U, g, _ = sweep_inputs(n, alpha, 3)
        g = g + 100.0
        P = norms.right_derivative_pair_matrix(g, 1.0 / n, alpha)
        assert_fft_sweep_matches_full_square(U, g, P, alpha)

    def test_fft_sweep_matches_streamed_oracle_at_n16384(self):
        # the oracle and the operator's two vectors come from the pair
        # matrix streamed band by band, so no (n+1)^2 array is held
        n, alpha = 16384, 0.3
        U, g, _ = sweep_inputs(n, alpha, 2)
        Du = np.stack([weyl_derivative_left(GridFunction(0.0, 1.0, u), alpha).values for u in U])
        rowsum = np.zeros_like(Du)
        column, subdiagonal = np.zeros(n + 1), np.zeros(n)
        inv_gamma = 1.0 / math.gamma(alpha)
        for i0, i1, X in norms._right_bands(g, 1.0 / n, alpha,
                                            (1.0 - alpha) * n ** (1.0 - alpha), False):
            X = X * inv_gamma
            rowsum[:, i0:i1] = np.einsum("sj,ij->si", Du[:, :i1 - 1], X)
            column[max(i0, 2):i1] = X[max(i0, 2) - i0:, 1]
            subdiagonal[i0 - 1:i1 - 1] = X[np.arange(i1 - i0), np.arange(i0 - 1, i1 - 1)]
        op = stieltjes.SliceOperator(g, 1.0 / n, alpha, math.nan, column, subdiagonal, None)
        first = column * Du[:, 1:2]
        last = np.zeros_like(rowsum)
        last[:, 1:] = subdiagonal * Du[:, :-1]
        trap = rowsum - 0.5 * (first + last) + first / (2.0 - alpha) + last / (1.0 + alpha)
        trap[:, :2] = 0.0
        ref = stieltjes.PAIRING_SIGN * trap / n + U[:, :1] * (g - g[0])
        got = stieltjes.stieltjes_all_upper_limits(U, op)
        assert (np.abs(got - ref).max(axis=1) <= 1e-12 * np.abs(ref).max(axis=1)).all()

    @pytest.mark.parametrize("n, k", [(2, 4), (64, 1), (64, 9), (1024, 51)])
    def test_stacked_rows_equal_one_slice_calls(self, n, k):
        U, g, P = sweep_inputs(n, 0.3, k, seed=k)
        op = stieltjes.slice_operator(g, 0.3)
        stacked = stieltjes.stieltjes_all_upper_limits(U, op)
        assert stacked.shape == U.shape
        for row, out in zip(U, stacked):
            one = stieltjes.stieltjes_all_upper_limits(row, op)
            assert one.shape == row.shape
            assert np.array_equal(one, out)

    @pytest.mark.parametrize("n, k", [(64, 1), (64, 9), (1024, 5)])
    def test_one_left_derivative_call_per_sweep(self, n, k, monkeypatch):
        U, g, _ = sweep_inputs(n, 0.3, k, seed=k)
        op = stieltjes.slice_operator(g, 0.3)
        want = [stieltjes.stieltjes_all_upper_limits(row, op) for row in U]
        calls = []

        def counted(f, *args, **kwargs):
            calls.append(f.values.shape)
            return weyl_derivative_left(f, *args, **kwargs)

        monkeypatch.setattr(stieltjes, "weyl_derivative_left", counted)
        got = stieltjes.stieltjes_all_upper_limits(U, op)
        # the whole stack in one call (one row goes as one slice)
        assert calls == [U.shape if k > 1 else (n + 1,)]
        assert all(out.tobytes() == one.tobytes() for out, one in zip(got, want))
        # the stack is held without a copy, but the caller's array stays writable
        assert U.flags.writeable

    def test_no_square_temporary(self):
        n = 2048
        U, g, P = sweep_inputs(n, 0.3, 3)
        op = stieltjes.slice_operator(g, 0.3)
        stieltjes.stieltjes_all_upper_limits(U, op)  # warm caches
        tracemalloc.start()
        stieltjes.stieltjes_all_upper_limits(U, op)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < P.nbytes / 8

    def test_blas_thread_count_does_not_change_n1024_solve(self, tmp_path):
        cfg = {"hurst": 0.75, "alpha": 0.3,
               "grid": {"m": 8, "n": 1024, "T": 0.02},
               "driver": {"model": "frozen", "seed": 7},
               "phi": {"kind": "sine", "params": {"k": 1, "amplitude": 0.5}},
               "A": {"kind": "tanh", "params": {"scale": 1.0}}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            r = subprocess.run([sys.executable, "-m", "fracpath.cli", "--out",
                                str(tmp_path / threads), "solve",
                                str(tmp_path / "cfg.json")],
                               capture_output=True, text=True, env=env)
            assert r.returncode == 0, r.stderr
        for name in ("solution.csv", "report.json"):
            assert (tmp_path / "1" / name).read_bytes() \
                == (tmp_path / "2" / name).read_bytes()


def young_sums(u, g):
    """Oracle: the Riemann-Stieltjes (Young) integral of u against g up to
    every node by the cumulative trapezoid sum, which for H > 1/2 the
    generalized Stieltjes integral equals (Zaehle 1998)."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (u[1:] + u[:-1]) * np.diff(g))))


def test_all_upper_limits_converge_to_young_sums_on_an_fbm_path():
    # one path at n = 4096, restricted by stride: seed 7 erred by 5.7e-3,
    # 3.0e-3 and 1.5e-3 at n = 256, 1024 and 4096, about n^(-1/2)
    path = fbm.fbm_path(0.75, 4096, 7).values
    errors = []
    for n in (256, 1024, 4096):
        g = path[::4096 // n]
        u = np.cos(g)
        engine = stieltjes.stieltjes_all_upper_limits(u, stieltjes.slice_operator(g, 0.3))
        errors.append(np.abs(engine - young_sums(u, g)).max())
    steps = [e0 / e1 for e0, e1 in zip(errors, errors[1:])]
    assert all(1.5 <= r <= 2.7 for r in steps), errors   # per 4x: 4^0.29 .. 4^0.72
    assert 0.4 <= math.log(errors[0] / errors[-1]) / math.log(16) <= 0.6, errors
    assert errors[-1] < 2e-3


class TestSliceOperator:
    def test_holds_read_only_copies(self):
        g = fbm.fbm_path(0.75, 64, 3).values.copy()
        op = stieltjes.slice_operator(g, 0.3)
        before = op.values.copy()
        for arr in (op.values, op.column, op.subdiagonal, op.pair_matrix):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 0.0
        g[1:] = 7.0   # the caller's array, mutated after the build
        assert np.array_equal(op.values, before)

    @pytest.mark.parametrize("n", [2, 64, 257])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_matrix_and_lambda_are_the_norms_kernels(self, n, alpha):
        g = fbm.fbm_path(0.75, n, 100 + n).values
        op = stieltjes.slice_operator(g, alpha)
        D = norms.right_derivative_pair_matrix(g, 1.0 / n, alpha)
        assert op.pair_matrix.tobytes() == D.tobytes()
        assert op.lam.hex() == norms.lambda_from_pair_matrix(D, alpha).hex()
        assert (op.h, op.alpha) == (1.0 / n, alpha)

    @pytest.mark.parametrize("n", [_FFT_MIN_N - 1, _FFT_MIN_N, 2048])
    def test_keeps_the_pair_matrix_below_the_fft_size_only(self, n):
        g = fbm.fbm_path(0.75, n, 100 + n).values
        op = stieltjes.slice_operator(g, 0.3)
        D = norms.right_derivative_pair_matrix(g, 1.0 / n, 0.3)
        assert np.array_equal(op.column, D[:, 1])
        assert np.array_equal(op.subdiagonal, np.diagonal(D, -1))
        arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
        if n < _FFT_MIN_N:
            assert np.array_equal(op.pair_matrix, D)
        else:
            assert op.pair_matrix is None
            assert max(arr.size for arr in arrays) == n + 1

    @pytest.mark.parametrize("n_u", [32, 128])
    def test_integrand_on_another_grid_rejected(self, n_u):
        op = stieltjes.slice_operator(fbm.fbm_path(0.75, 64, 3).values, 0.3)
        U = np.ones((2, n_u + 1))
        with pytest.raises(GridError):
            stieltjes.stieltjes_all_upper_limits(U[0], op)
        with pytest.raises(GridError):
            stieltjes.stieltjes_all_upper_limits(U, op)


def window_setup(model="frozen", n=64, m=6, T=0.05):
    phi = GridFunction(0, 1, 0.5 * np.sin(np.pi * np.linspace(0, 1, n + 1)))
    cfg = solver.SolverConfig(alpha=0.3, hurst=0.75, m=m, n=n, T=T, phi=phi,
                              coeff=co.tanh_coefficient(1.0))
    drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=m, T=T, seed=7,
                                          time_model=model), 0.3)
    return cfg, drv


class TestWindowSweep:
    def test_nonfinite_coefficient_names_space_node(self):
        cfg, drv = window_setup()
        # NaN wherever y exceeds 10: only row 2, space node 37, does
        coeff = co.CoefficientFunction(
            "nan-above-10", lambda x: np.where(np.asarray(x) > 10.0, np.nan, x),
            lambda x: np.ones_like(x), 1.0, 1.0, lambda N: 0.0)
        Y = np.tile(cfg.phi.values, (cfg.m + 1, 1))
        Y[2, 37] = 11.0
        with pytest.raises(GridError, match=r"non-finite value at node 37$"):
            solver._apply_window(Y, cfg.phi.values, coeff, drv, 0, cfg.dt)

    @pytest.mark.parametrize("model", ["frozen", "sheet"])
    def test_cached_row_zero_matches_recomputing_it(self, model, monkeypatch):
        cfg, drv = window_setup(model)
        cached = solver.solve(cfg, drv, verify=False)
        apply_window = solver._apply_window

        def recompute_row_zero(*args):
            return apply_window(*args[:6])   # drop the cached row-0 integral

        monkeypatch.setattr(solver, "_apply_window", recompute_row_zero)
        fresh = solver.solve(cfg, drv, verify=False)
        assert np.array_equal(cached.solution.values, fresh.solution.values)
        assert [w.residual_history for w in cached.windows] \
            == [w.residual_history for w in fresh.windows]

    @pytest.mark.parametrize("model, policy", [("frozen", "paper-constants"),
                                               ("frozen", "adaptive"),
                                               ("sheet", "adaptive")])
    def test_first_iterate_from_row_zero_matches_sweeping_it(self, model, policy,
                                                             monkeypatch):
        # adaptive windows grow to 16 cells, so whole stacks are reused
        cfg, drv = window_setup(model, m=40, T=0.2)
        cfg = dataclasses.replace(cfg, window_policy=policy)
        reused = solver.solve(cfg, drv, verify=False)
        apply_window = solver._apply_window

        def sweep_first_iterate(*args):
            return apply_window(*args[:6])   # sweep every row, row 0 included

        monkeypatch.setattr(solver, "_first_iterate", sweep_first_iterate)
        swept = solver.solve(cfg, drv, verify=False)
        if policy == "adaptive":
            assert max(w.cells for w in swept.windows) > 1
        assert np.array_equal(reused.solution.values, swept.solution.values)
        assert [w.residual_history for w in reused.windows] \
            == [w.residual_history for w in swept.windows]

    @pytest.mark.parametrize("model", ["frozen", "sheet"])
    @pytest.mark.parametrize("policy", ["paper-constants", "adaptive"])
    def test_sweep_calls_per_window(self, model, policy, monkeypatch):
        cfg, drv = window_setup(model, m=40, T=0.2)
        cfg = dataclasses.replace(cfg, window_policy=policy)
        calls = []
        sweep = solver.stieltjes_all_upper_limits

        def counted(*args):
            calls.append(np.shape(args[0]))
            return sweep(*args)

        monkeypatch.setattr(solver, "stieltjes_all_upper_limits", counted)
        windows = solver.solve(cfg, drv, verify=False).windows
        if model == "frozen":
            # row 0 once per window, then one stacked call per later iteration
            expected = len(windows) + sum(w.iterations - 1 for w in windows)
        else:
            # row 0 once per window, then one call per row and iteration
            expected = sum(1 + w.cells * w.iterations for w in windows)
        assert len(calls) == expected
