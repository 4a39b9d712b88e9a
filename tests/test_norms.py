import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracpath.frac_calc import (_hat_moments, _lower_toeplitz, _tail_bands,
                                marchaud_difference_abs, weyl_derivative_right)
from fracpath.grids import GridError, GridFunction
from fracpath import fbm, norms
from oracles import lambda_alpha


def constant_field(c, m=3, n=64):
    return np.full((m + 1, n + 1), float(c))


def ramp_field(m=3, n=256):
    return np.tile(np.linspace(0, 1, n + 1), (m + 1, 1))


def random_field(seed, m=3, n=48):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, m + 1)[:, None]
    xi = np.linspace(0, 1, n + 1)[None, :]
    vals = sum((rng.standard_normal() + rng.standard_normal() * t)
               * np.sin(k * np.pi * xi) / k ** 2 for k in range(1, 5))
    return vals + rng.standard_normal()


def field_holder_norm(f, alpha):
    """``norm_1malpha_infty0`` of a field: the max over its slices."""
    return max(norms.norm_1malpha_infty0(row, alpha) for row in f)


class TestNormAlphaInfty:
    def test_zero(self):
        assert norms.max_slice_norm(constant_field(0.0), 0.3) == 0.0

    def test_constant(self):
        assert norms.max_slice_norm(constant_field(-2.5), 0.3) == pytest.approx(2.5)

    def test_ramp_closed_form(self):
        # 1 + sup_xi int_0^xi (xi-eta)^(-1/2) deta = 1 + 2
        val = norms.max_slice_norm(ramp_field(), 0.5)
        assert val == pytest.approx(3.0, rel=1e-12)


class TestNorm1mAlphaInfty0:
    def test_constant_vanishes(self):
        assert field_holder_norm(constant_field(4.0), 0.25) == 0.0

    def test_ramp_closed_form(self):
        # Hoelder quotient sup = 1, tail sup = 1/alpha = 4; attained together
        val = field_holder_norm(ramp_field(), 0.25)
        assert val == pytest.approx(5.0, rel=1e-12)

    @given(c=st.floats(-8, 8))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, c):
        f = random_field(5)
        scaled = c * f
        assert field_holder_norm(scaled, 0.3) == pytest.approx(
            abs(c) * field_holder_norm(f, 0.3), rel=1e-12, abs=1e-12)

    def test_slice_equals_field_form(self):
        f = random_field(8)
        for row in f:
            one_row = np.tile(row, (2, 1))
            assert norms.norm_1malpha_infty0(row, 0.3) == field_holder_norm(one_row, 0.3)
        assert field_holder_norm(f, 0.3) == max(
            norms.norm_1malpha_infty0(row, 0.3) for row in f)
        # the norm takes one slice; a field's rows are maxed by the caller
        with pytest.raises(GridError):
            norms.norm_1malpha_infty0(f, 0.3)


class TestNormAlpha1:
    def test_zero(self):
        assert norms.norm_alpha_1(GridFunction(np.zeros(65)), 0.3) == 0.0

    def test_constant_closed_form(self):
        # second term vanishes; first is 1/(1-alpha)
        f = GridFunction(np.ones(129))
        assert norms.norm_alpha_1(f, 0.25) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_ramp_closed_form(self):
        # 1/(2-a) + 1/((1-a)(2-a)) = 2 at a = 1/2
        f = GridFunction(np.linspace(0, 1, 1025))
        assert norms.norm_alpha_1(f, 0.5) == pytest.approx(2.0, abs=1e-4)


class TestLambdaAlpha:
    def test_constant_vanishes(self):
        assert lambda_alpha(constant_field(3.0), 0.3) == 0.0

    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5])
    def test_ramp_closed_form(self, alpha):
        val = lambda_alpha(ramp_field(), alpha)
        exact = 1.0 / (math.gamma(1 - alpha) * math.gamma(1 + alpha))
        assert val == pytest.approx(exact, rel=1e-12)

    def test_ramp_at_half_is_two_over_pi(self):
        assert lambda_alpha(ramp_field(), 0.5) == pytest.approx(2 / math.pi)

    @pytest.mark.parametrize("seed", range(8))
    def test_bounded_by_holder_norm(self, seed):
        # Lambda_a(g) <= ||g||_{1-a,inf,0} / (Gamma(1-a) Gamma(a))
        f = random_field(seed)
        a = 0.3
        lam = lambda_alpha(f, a)
        bound = field_holder_norm(f, a) / (math.gamma(1 - a) * math.gamma(a))
        assert lam <= bound * (1 + 1e-6)


class TestPairMatrix:
    @pytest.mark.parametrize("n", [16, 257, 1024])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_rows_match_right_weyl_derivative(self, n, alpha):
        # row i (prefix sums over columns) against the right Weyl derivative
        # of g on [0, xi_i] (reflect, then convolve): two independent paths;
        # g on [0, xi_i] is its sub-slice on [0, 1], whose derivative of
        # order 1 - alpha scales by xi_i^(alpha-1) under x = xi_i s
        g = fbm.fbm_path(0.75, n, 100 + n).values
        xi = np.linspace(0, 1, n + 1)
        D = norms.right_derivative_pair_matrix(g, alpha)
        for i in (2, n // 2, n):
            ref = xi[i] ** (alpha - 1) * weyl_derivative_right(g[:i + 1], 1 - alpha)
            assert np.abs(D[i, :i + 1] - ref).max() <= 1e-12 * np.abs(ref).max()
            assert not D[i, i + 1:].any()


    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_lambda_is_the_sup_of_the_interpolant(self, n, alpha):
        # the engine integrates the piecewise-linear interpolant of the
        # nodes; nodes inserted on it leave Lambda_alpha where it was (seed
        # 7: at most 2.5e-15 relative), so the grid Lambda_alpha is the sup
        # over the continuum for that driver
        g = fbm.fbm_path(0.75, n, 7).values
        lam = norms.lambda_from_pair_matrix(norms.right_derivative_pair_matrix(
            g, alpha), alpha)
        for r in (2, 4):
            fine = np.interp(np.linspace(0.0, 1.0, r * n + 1), np.linspace(0.0, 1.0, n + 1), g)
            refined = norms.lambda_from_pair_matrix(norms.right_derivative_pair_matrix(
                fine, alpha), alpha)
            assert abs(refined - lam) <= 1e-14 * lam


def reference_columns(v, h, a, scale, absolute):
    """The per-column sweep the banded kernel replaced: for j = 0..n-1 the
    column c with c[i - j - 1] = d/dist + scale * S for every node i > j."""
    n = v.size - 1
    A, B = _hat_moments(a - 1.0, n)
    C = A + B
    dist = (np.arange(1, n + 1) * h) ** (1.0 - a)
    for j in range(n):
        u = v[j] - v[j + 1:]
        if absolute:
            u = np.abs(u)
        L = u.size
        S = B[1:L + 1] * u
        if L > 1:
            S[1:] += np.cumsum(C[1:L] * u[:-1])
        yield u / dist[:L] + scale * S


def reference_pair_matrix(v, h, a):
    D = np.zeros((v.size, v.size))
    cols = reference_columns(v, h, a, (1.0 - a) * h ** (a - 1.0), False)
    for j, col in enumerate(cols):
        D[j + 1:, j] = (1.0 / math.gamma(a)) * col
    return D


def reference_holder_norm(v, a):
    h = 1.0 / (v.size - 1)
    return max((float(col.max()) for col in reference_columns(v, h, a, h ** (a - 1.0), True)),
               default=0.0)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBandedSweep:
    # n = 1024 and 2049 span many 32-row bands, 2049 with a short last band
    @pytest.mark.parametrize("n", [2, 3, 64, 257, 1024, 2049])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_bitwise_equal_to_column_sweep(self, n, alpha):
        g = fbm.fbm_path(0.75, n, 300 + n).values
        D = norms.right_derivative_pair_matrix(g, alpha)
        assert D.tobytes() == reference_pair_matrix(g, 1.0 / n, alpha).tobytes()
        assert norms.norm_1malpha_infty0(g, alpha) == reference_holder_norm(g, alpha)

    def test_traced_peaks_at_n2048(self):
        n, a = 2048, 0.3
        g = fbm.fbm_path(0.75, n, 9).values
        matrix = (n + 1) ** 2 * 8
        assert traced_peak(norms.right_derivative_pair_matrix, g, a) < matrix + 4e6
        assert traced_peak(norms.norm_1malpha_infty0, g, a) < 4e6
        D = norms.right_derivative_pair_matrix(g, a)
        assert traced_peak(norms.lambda_from_pair_matrix, D, a) < 1e6


def one_band_sweep(v, h, a, scale, absolute):
    """Oracle: the pair sweep of ``norms._right_bands`` as one band, rows
    1..n against columns 0..n-1, with the column sums of C d as one cumsum
    from a zero row."""
    n = v.size - 1
    A, B = _hat_moments(a - 1.0, n)
    Bt = _lower_toeplitz(B[1:], 0.0)[1:, :n]
    Ct = _lower_toeplitz((A + B)[1:], 0.0)[1:, :n]
    dist = _lower_toeplitz((np.arange(1, n + 1) * h) ** (1.0 - a), np.inf)[1:, :n]
    X = v[None, :n] - v[1:, None]
    if absolute:
        X = np.abs(X)
    P = np.cumsum(np.concatenate((np.zeros((1, n)), Ct * X)), axis=0)
    S = Bt * X
    S += P[:-1]
    S *= scale
    return X / dist + S


class TestFixedRowBands:
    # band edges at 32-row multiples: one short band, exact multiples, one row over
    @pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 64, 96, 256, 511, 512, 1024])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_bitwise_the_one_band_sweep(self, n, alpha):
        g = fbm.fbm_path(0.75, n, 500 + n).values
        h = 1.0 / n
        ref = np.zeros((n + 1, n + 1))
        ref[1:, :n] = one_band_sweep(g, h, alpha, (1.0 - alpha) * h ** (alpha - 1.0), False)
        ref[1:, :n] *= 1.0 / math.gamma(alpha)
        D = norms.right_derivative_pair_matrix(g, alpha)
        assert D.tobytes() == ref.tobytes()
        holder = max(0.0, float(one_band_sweep(g, h, alpha, h ** (alpha - 1.0), True).max()))
        assert norms.norm_1malpha_infty0(g, alpha) == holder

    def test_scratch_is_a_few_bands_at_n256(self):
        # beside D the sweep holds two buffers of at most (rows + 1) n values
        # (the Hoelder norm three) and the temporaries of one band: 0.27 MB
        # traced, about 4.0 such buffers (5.2 with three); one band of the
        # whole square traced 1.7 MB
        n, a = 256, 0.3
        g = fbm.fbm_path(0.75, n, 11).values
        norms.right_derivative_pair_matrix(g, a)   # fill the weight caches
        band = (norms._SWEEP_ROWS + 1) * n * 8
        matrix = (n + 1) ** 2 * 8
        assert traced_peak(norms.right_derivative_pair_matrix, g, a) < matrix + 8 * band
        assert traced_peak(norms.norm_1malpha_infty0, g, a) < 8 * band

    def test_pair_matrix_bands_are_built_in_place_at_n1024(self):
        # the d/dist term waits in D's own band, so beside D the build holds
        # two band buffers and numpy's ufunc buffers (64 KB per strided
        # operand): 2.5 bands traced; with a third band buffer it was 3.7
        n, a = 1024, 0.3
        g = fbm.fbm_path(0.75, n, 11).values
        norms.right_derivative_pair_matrix(g, a)   # fill the weight caches
        band = (norms._SWEEP_ROWS + 1) * n * 8
        matrix = (n + 1) ** 2 * 8
        assert traced_peak(norms.right_derivative_pair_matrix, g, a) < matrix + 3 * band


def pruning_rows(n, seed):
    """Slices that stress the band bound of the slice norm."""
    rng = np.random.default_rng(seed)
    walk = rng.standard_normal(n + 1).cumsum()
    x = np.linspace(0.0, 1.0, n + 1)
    spike = np.zeros(n + 1)
    spike[n // 3] = 1.0
    return {"walk": walk, "offset": 1e8 + 1e-6 * walk, "spike": spike,
            "alternating": np.where(np.arange(n + 1) % 2, -1.0, 1.0),
            "constant": np.full(n + 1, -2.5), "zero": np.zeros(n + 1),
            "linear": 3.0 * x - 1.0, "tiny": 1e-300 * walk,
            "step": np.where(x < 0.6, 0.0, 1.0), "smooth": np.sin(3.0 * x) + x ** 2}


def full_kernel_max(rows, alpha):
    """Oracle: the max over nodes of |f| plus the tail summed over every band."""
    return (marchaud_difference_abs(rows, alpha) + np.abs(rows)).max(axis=1)


class TestPrunedSliceNorm:
    SIZES = [361, 362, 363, 512, 1024, 2048, 4096]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_bitwise_the_full_kernel_max(self, n, alpha):
        rows = pruning_rows(n, n)
        for name, row in rows.items():
            got = norms.slice_norms_alpha_infty(row[None, :], alpha)
            assert got.tobytes() == full_kernel_max(row[None, :], alpha).tobytes(), name
        stack = np.stack([rows[k] for k in ("walk", "spike", "zero", "smooth", "step")])
        got = norms.slice_norms_alpha_infty(stack, alpha)
        assert got.tobytes() == full_kernel_max(stack, alpha).tobytes()

    @pytest.mark.parametrize("n", [64] + SIZES)
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_stacked_max_is_bitwise_the_max_of_slice_norms(self, n, alpha):
        rows = pruning_rows(n, n)
        walk = rows["walk"]
        stacks = [np.stack(list(rows.values())),
                  np.stack([rows[k] for k in ("smooth", "step", "walk", "spike")]),
                  np.stack([c * walk for c in (0.5, 2.0, 1.0, -2.0)]),   # ties in the max
                  rows["spike"][None, :]]
        for stack in stacks:
            got = norms.max_slice_norm(stack, alpha)
            want = norms.slice_norms_alpha_infty(stack, alpha).max()
            assert np.float64(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [256, 1024])
    def test_stacked_max_starts_at_the_floor(self, n):
        walk = pruning_rows(n, 4)["walk"]
        stack = np.stack([0.5 * walk, walk])
        full = norms.slice_norms_alpha_infty(stack, 0.3).max()
        for floor in (0.0, 0.5 * full, full, 2.0 * full):
            got = norms.max_slice_norm(stack, 0.3, floor)
            assert np.float64(got).tobytes() == np.float64(max(floor, full)).tobytes()
        assert np.isnan(norms.max_slice_norm(stack, 0.3, np.nan))

    @pytest.mark.parametrize("n", [363, 1024, 4096])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_bound_dominates_every_node(self, n, alpha):
        rows = list(pruning_rows(n, n + 1).values())
        # each row again at 2 and 3 times its size once the ten are used up
        rows = np.stack([rows[i % 10] * (1 + i // 10) for i in range(25)])
        exact = marchaud_difference_abs(rows, alpha) + np.abs(rows)
        for k in (1, 5, 25):
            for i in range(0, 25, k):
                bound = norms._tail_bound(rows[i:i + k], alpha)
                assert (bound >= exact[i:i + k]).all(), (k, i)

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_gives_nan(self, n, bad):
        stack = np.stack([pruning_rows(n, 3)["walk"]] * 2)
        stack[1, n // 2] = bad
        with np.errstate(invalid="ignore"):   # inf - inf in the kernel
            got = norms.slice_norms_alpha_infty(stack, 0.3)
            assert got.tobytes() == full_kernel_max(stack, 0.3).tobytes()
            assert np.isnan(norms.max_slice_norm(stack, 0.3))
        assert np.isnan(got[1]) and np.isfinite(got[0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_grids(self, n):
        stack = np.random.default_rng(n).standard_normal((3, n + 1))
        got = norms.slice_norms_alpha_infty(stack, 0.3)
        assert got.tobytes() == full_kernel_max(stack, 0.3).tobytes()

    @staticmethod
    def band_spy(monkeypatch):
        """Count the kernel bands that the slice norm sums."""
        summed = []

        def spy(values, alpha, bands=None):
            n = np.shape(values)[-1] - 1
            summed.append(len(_tail_bands(n) if bands is None else bands))
            return marchaud_difference_abs(values, alpha, bands=bands)
        monkeypatch.setattr(norms, "marchaud_difference_abs", spy)
        return summed

    def test_smooth_row_skips_bands(self, monkeypatch):
        n = 1024
        summed = self.band_spy(monkeypatch)
        row = pruning_rows(n, 0)["smooth"]
        norms.slice_norm_alpha_infty(row, 0.3)
        assert 0 < sum(summed) < len(_tail_bands(n))

    @pytest.mark.parametrize("n", [2, 64, 361, 362])
    def test_no_bound_with_one_band(self, monkeypatch, n):
        # below 363 cells the tail is one full kernel call: one band up to
        # n = 182, and all of its few bands from 183 on
        summed = self.band_spy(monkeypatch)
        monkeypatch.setattr(norms, "_tail_bound", None)   # a call would raise
        stack = np.stack([pruning_rows(n, 1)["walk"]] * 3)
        norms.slice_norms_alpha_infty(stack, 0.3)
        norms.max_slice_norm(stack, 0.3)
        assert summed == [len(_tail_bands(n))] * 2

    def test_stacked_max_skips_rows_below_the_floor(self, monkeypatch):
        n = 1024
        summed = self.band_spy(monkeypatch)
        walk = pruning_rows(n, 2)["walk"]
        stack = np.stack([c * walk for c in (0.25, 1.0, 0.5)])
        norms.max_slice_norm(stack, 0.3)
        one_row = list(summed)
        summed.clear()
        norms.slice_norm_alpha_infty(walk, 0.3)
        # only the row of the largest norm is summed; the others end below its floor
        assert one_row == summed


class TestSharedProperties:
    @given(c=st.floats(-10, 10))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity_all_norms(self, c):
        f = random_field(11)
        scaled = c * f
        g = GridFunction(f[0])
        gs = GridFunction(c * f[0])
        assert norms.max_slice_norm(scaled, 0.3) == pytest.approx(
            abs(c) * norms.max_slice_norm(f, 0.3), rel=1e-12, abs=1e-12)
        assert norms.norm_alpha_1(gs, 0.3) == pytest.approx(
            abs(c) * norms.norm_alpha_1(g, 0.3), rel=1e-12, abs=1e-12)
        assert lambda_alpha(scaled, 0.3) == pytest.approx(
            abs(c) * lambda_alpha(f, 0.3), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_triangle_inequality(self, seed):
        f, g = random_field(seed), random_field(seed + 100)
        fg = f + g
        for norm in (norms.max_slice_norm, field_holder_norm):
            assert norm(fg, 0.3) <= norm(f, 0.3) + norm(g, 0.3) + 1e-12

    def test_refinement_stability_for_holder_function(self):
        # |x - 1/2|^0.7 is 0.7-Hoelder with a grid-aligned kink; the
        # discretized norms must converge under refinement
        vals = []
        for n in (128, 256, 512, 1024):
            x = np.linspace(0, 1, n + 1)
            f = np.tile(np.abs(x - 0.5) ** 0.7, (2, 1))
            vals.append(norms.max_slice_norm(f, 0.3))
        diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert diffs[0] > diffs[1] > diffs[2]
