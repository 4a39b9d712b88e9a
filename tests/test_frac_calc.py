import bisect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracpath.grids import GridError, GridFunction
from fracpath.frac_calc import (
    _BAND_PAIRS,
    _BLOCK_ELEMENTS,
    _FFT_MIN_N,
    _SWEEP_ROWS,
    _convolve,
    _difference_kernel,
    _difference_weights,
    _fft_length,
    _hat_moments,
    _tail_bands,
    _tail_weights,
    _weyl_coefficients,
    beta_b1,
    marchaud_difference_abs,
    weyl_derivative_left,
    weyl_derivative_right,
)
import oracles
from oracles import rl_integral_left, rl_integral_right


def power_grid(n, beta, a=0.0, b=1.0):
    """The nodes x of [a, b] and the values (x - a)^beta, as plain arrays."""
    x = np.linspace(a, b, n + 1)
    return x, (x - a) ** beta


def gamma_ratio_integral(alpha, beta, x):
    """Closed form I^alpha (x-a)^beta = G(b+1)/G(a+b+1) (x-a)^(a+b)."""
    return math.gamma(beta + 1) / math.gamma(alpha + beta + 1) * x ** (alpha + beta)


def gamma_ratio_derivative(alpha, beta, x):
    """Closed form D^alpha (x-a)^beta = G(b+1)/G(b+1-a) (x-a)^(b-a)."""
    return math.gamma(beta + 1) / math.gamma(beta + 1 - alpha) * x ** (beta - alpha)


def rel_err_interior(approx, exact, nodes, margin=0.05):
    sel = (nodes - nodes[0] >= margin * (nodes[-1] - nodes[0])) \
        & (nodes[-1] - nodes >= margin * (nodes[-1] - nodes[0]))
    scale = np.maximum(np.abs(exact[sel]), 1e-30)
    return float(np.max(np.abs(approx[sel] - exact[sel]) / scale))


class TestRiemannLiouvilleLeft:
    def test_zero_input(self):
        assert np.array_equal(rl_integral_left(np.zeros(65), 0.3), np.zeros(65))

    def test_constant_closed_form_at_right_endpoint(self):
        # I^0.5 1 at x=1 is 1/Gamma(1.5); product integration is exact here
        out = rl_integral_left(np.ones(257), 0.5)
        assert out[-1] == pytest.approx(1.0 / math.gamma(1.5), rel=1e-12)

    def test_linear_closed_form_at_right_endpoint(self):
        _, f = power_grid(256, 1)
        out = rl_integral_left(f, 0.5)
        assert out[-1] == pytest.approx(math.gamma(2) / math.gamma(2.5), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("beta", [0, 1, 2])
    def test_power_oracle(self, alpha, beta):
        x, f = power_grid(512, beta)
        out = rl_integral_left(f, alpha)
        exact = gamma_ratio_integral(alpha, beta, x)
        assert rel_err_interior(out, exact, x) < 1e-2

    def test_shifted_domain(self):
        x, f = power_grid(256, 1, a=2.0, b=4.0)
        out = rl_integral_left(f, 0.3, 2.0, 4.0)
        exact = gamma_ratio_integral(0.3, 1, x - 2.0)
        assert rel_err_interior(out, exact, x) < 1e-3

    def test_positivity(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(0.0, 2.0, 129)
        assert (rl_integral_left(f, 0.35) >= 0).all()

    def test_rejects_bad_order(self):
        f = np.ones(17)
        with pytest.raises(GridError):
            rl_integral_left(f, 1.5)
        with pytest.raises(GridError):
            rl_integral_left(f, 0.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(GridError):
            GridFunction(np.ones(2))


class TestRiemannLiouvilleRight:
    def test_zero_input(self):
        assert np.array_equal(rl_integral_right(np.zeros(33), 0.4), np.zeros(33))

    def test_constant_value_at_left_endpoint(self):
        out = rl_integral_right(np.ones(257), 0.5)
        assert out[0] == pytest.approx(1.0 / math.gamma(1.5), rel=1e-12)

    def test_symmetric_input_reflects_left_result(self):
        x = np.linspace(0, 1, 129)
        f = np.sin(np.pi * x)  # symmetric about 1/2
        left = rl_integral_left(f, 0.3)
        right = rl_integral_right(f, 0.3)
        np.testing.assert_allclose(right, left[::-1], atol=1e-14)


class TestWeylLeft:
    def test_constant_input_is_pure_boundary_term(self):
        # f - f(0) of a constant is 0: both the boundary term and the
        # Marchaud term vanish, exactly, at every node
        out = weyl_derivative_left(np.full(129, -1.7), 0.3)
        assert np.array_equal(out, np.zeros(129))

    def test_linear_closed_form(self):
        # D^0.5 (x-a) = 2 sqrt(x-a)/sqrt(pi); exact for piecewise-linear data
        x, f = power_grid(128, 1)
        out = weyl_derivative_left(f, 0.5)
        np.testing.assert_allclose(
            out, 2.0 * np.sqrt(x) / math.sqrt(math.pi), atol=1e-12)
        assert out[0] == 0.0

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("beta", [1, 2])
    def test_power_oracle(self, alpha, beta):
        x, f = power_grid(512, beta)
        out = weyl_derivative_left(f, alpha)
        exact = gamma_ratio_derivative(alpha, beta, x)
        assert rel_err_interior(out, exact, x) < 1e-2

    def test_recovers_smooth_function_from_its_integral(self):
        errs = []
        for n in (256, 512, 1024):
            x = np.linspace(0, 1, n + 1)
            f = np.sin(2 * x) + 1.0
            D = weyl_derivative_left(rl_integral_left(f, 0.3), 0.3)
            sel = (x >= 0.05) & (x <= 0.95)
            errs.append(np.max(np.abs(D[sel] - f[sel])))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("n", [2048, 48, 257, 64])
    @pytest.mark.parametrize("offset", [True, False])
    def test_bitwise_the_node_formula_on_the_unit_grid(self, n, offset):
        # the node factors d_i come from a cache; they must be the bits of
        # the formula on f.nodes, the unit grid of a whole slice or of the
        # sub-slice a Stieltjes integral on [c, d] pairs, and the derivative
        # the bits of d w - e (C * w); the data start at f(0) != 0 with
        # ``offset`` and at f(0) = 0 without it
        alpha = 0.3
        x = np.linspace(0, 1, n + 1)
        v = np.sin(3.0 * x) + x
        f = GridFunction(v + 1.0 if offset else v - v[0])
        assert (f.values[0] != 0.0) == offset
        C, _, rowsum = _difference_weights(n, alpha)
        scale = alpha * (1.0 / n) ** (-alpha)
        gamma = math.gamma(1.0 - alpha)
        node = (f.nodes[1:] ** (-alpha) + scale * rowsum[1:]) / gamma
        w = f.values - f.values[0]
        if n >= _FFT_MIN_N:
            conv = _convolve(w, _difference_kernel, alpha)[0]
        else:
            conv = np.convolve(C, w)[:n + 1]
        ref = node * w[1:] - conv[1:] * (scale / gamma)
        for _ in range(2):   # the second call reads the cached factors
            factors, e = _weyl_coefficients(n, alpha)
            assert factors[0] == 0.0 and factors[1:].tobytes() == node.tobytes()
            assert e == scale / gamma
            out = weyl_derivative_left(f.values, alpha)
            assert out[0] == 0.0 and out[1:].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 64, 256, 511, 512, 1024, 2048])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49, 0.7])
    def test_matches_the_centred_oracle(self, n, alpha):
        # d w - e (C * w) regroups the Marchaud form, and from _FFT_MIN_N
        # cells on convolves by rfft; against the centred route convolved
        # directly it is held to a few eps of the row's largest modulus sum
        eps = np.finfo(float).eps
        for v in difference_rows(n):
            got = weyl_derivative_left(v, alpha)
            ref = oracles.weyl_derivative_left(v, alpha)
            scale = modulus_sum(v, 1.0 / n, alpha)
            assert np.abs(got - ref).max() <= 16 * eps * scale.max()


class TestWeylRight:
    def test_zero_input(self):
        out = weyl_derivative_right(np.zeros(65), 0.25)
        assert np.array_equal(out, np.zeros(65))

    @pytest.mark.parametrize("alpha", [0.25, 0.4])
    def test_linear_integrator_closed_form(self, alpha):
        # order 1-alpha applied to x - x(end): magnitude (b-x)^alpha/Gamma(1+alpha)
        x, f = power_grid(128, 1)
        out = weyl_derivative_right(f, 1 - alpha)
        exact = -(1.0 - x) ** alpha / math.gamma(1 + alpha)
        np.testing.assert_allclose(out, exact, atol=1e-11)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(65)
        left = weyl_derivative_left(v, 0.3)
        right = weyl_derivative_right(v[::-1], 0.3)
        np.testing.assert_allclose(right, left[::-1], atol=1e-13)


class TestBetaConstant:
    def test_worked_value(self):
        expected = math.gamma(0.5) * math.gamma(0.75) / math.gamma(1.25)
        assert beta_b1(0.25) == pytest.approx(expected, rel=1e-14)
        assert beta_b1(0.25) == pytest.approx(2.39628, abs=5e-6)

    def test_against_quadrature_of_the_integrand(self):
        # int_0^inf (1+x)^(-a-1) x^(-a) dx under u = 1/(1+x), which maps it
        # exactly to int_0^1 u^(2a-1) (1-u)^(-a) du (finite domain, so the
        # quadrature converges to full precision)
        import mpmath

        with mpmath.workdps(30):
            for a in (0.15, 0.25, 0.35):
                ref = float(mpmath.quad(
                    lambda u: u ** (2 * a - 1) * (1 - u) ** (-a),
                    [0, mpmath.mpf("0.5"), 1]))
                assert beta_b1(a) == pytest.approx(ref, rel=1e-10)

    def test_beta_symmetry(self):
        # B(2a, 1-a) = B(1-a, 2a)
        for a in (0.1, 0.2, 0.3, 0.45):
            direct = beta_b1(a)
            swapped = math.gamma(1 - a) * math.gamma(2 * a) / math.gamma(1 + a)
            assert direct == pytest.approx(swapped, rel=1e-14)

    def test_guards(self):
        with pytest.raises(GridError):
            beta_b1(0.5)
        with pytest.raises(GridError):
            beta_b1(1e-7)


class TestOperatorProperties:
    @given(c1=st.floats(-5, 5), c2=st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, c1, c2):
        rng = np.random.default_rng(7)
        v1 = rng.standard_normal(65)
        v2 = rng.standard_normal(65)
        combo = c1 * v1 + c2 * v2
        for op in (lambda f: rl_integral_left(f, 0.3),
                   lambda f: rl_integral_right(f, 0.3),
                   lambda f: weyl_derivative_left(f, 0.3),
                   lambda f: weyl_derivative_right(f, 0.3)):
            np.testing.assert_allclose(
                op(combo), c1 * op(v1) + c2 * op(v2), atol=1e-9)

    def test_semigroup_under_refinement(self):
        a, b = 0.3, 0.4
        errs = []
        for n in (512, 1024, 2048):
            x = np.linspace(0, 1, n + 1)
            f = np.sin(x)
            two_step = rl_integral_left(rl_integral_left(f, a), b)
            one_step = rl_integral_left(f, a + b)
            errs.append(np.max(np.abs(two_step - one_step)))
        assert errs[-1] < 1e-2
        assert errs[0] > errs[1] > errs[2]

    def test_inversion_error_decreases_monotonically(self):
        errs = []
        for n in (128, 256, 512, 1024):
            x = np.linspace(0, 1, n + 1)
            f = np.abs(x - 1 / math.pi)  # Lipschitz with an off-grid kink
            D = weyl_derivative_left(rl_integral_left(f, 0.25), 0.25)
            sel = (x >= 0.05) & (x <= 0.95)
            errs.append(np.max(np.abs(D[sel] - f[sel])))
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))


def difference_rows(n):
    """A walk, an offset smooth row and white noise on n + 1 nodes."""
    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 1.0, n + 1)
    return [rng.standard_normal(n + 1).cumsum() / math.sqrt(n),
            np.sin(3.0 * x) + 100.0, rng.standard_normal(n + 1)]


def modulus_sum(v, h, alpha):
    """h^(-alpha) (|w| rowsum + C * |w|) for w = v - v[0]: the scale the
    rounding of the Weyl derivative of v acts on."""
    n = v.size - 1
    C, _, rowsum = _difference_weights(n, alpha)
    w = np.abs(v - v[0])
    return (w * rowsum + np.convolve(C, w)[:n + 1]) * h ** (-alpha)


class TestWeylConvolution:
    @pytest.mark.parametrize("n", [_FFT_MIN_N, 2048, 4096])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49, 0.7])
    def test_fft_difference_matches_direct_formula(self, n, alpha):
        # the convolution C * w of the Weyl derivative, w = v - v[0], by
        # rfft against np.convolve, within a few eps of C * |w|
        eps = np.finfo(float).eps
        C = _difference_weights(n, alpha)[0]
        for v in difference_rows(n):
            w = v - v[0]
            got = _convolve(w, _difference_kernel, alpha)[0]
            ref = np.convolve(C, w)[:n + 1]
            assert np.abs(got - ref).max() <= 16 * eps * np.convolve(C, np.abs(w))[:n + 1].max()

    @pytest.mark.parametrize("n", [256, 511, 1024])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49, 0.7])
    def test_derivative_ignores_an_offset(self, n, alpha):
        # the derivative acts on f - f(0), so an offset of 100 enters only
        # through the rounding of f + 100
        x = np.linspace(0.0, 1.0, n + 1)
        base = weyl_derivative_left(np.sin(3.0 * x), alpha)
        shifted = weyl_derivative_left(np.sin(3.0 * x) + 100.0, alpha)
        assert np.abs(shifted - base).max() <= 1e-12 * np.abs(base).max()

    def test_fft_length_is_the_smallest_5_smooth_above_2n(self):
        # reference: the exhaustive search over every exponent triple
        e = range(19)
        smooth = sorted({2 ** i * 3 ** j * 5 ** k for i in e for j in e for k in e})
        for n in [*range(2, 5001), 2 ** 14, 2 ** 16]:
            assert _fft_length.__wrapped__(n) == smooth[bisect.bisect_right(smooth, 2 * n)], n

    def test_stacked_rows_equal_one_row_calls(self):
        n = 1024
        x = np.random.default_rng(1).standard_normal((7, 2, n + 1))
        stacked = _convolve(x, _difference_kernel, 0.3)
        for i, j in np.ndindex(7, 2):
            one = _convolve(x[i, j], _difference_kernel, 0.3)
            assert np.array_equal(stacked[:, i, j], one)


def stack_rows(n):
    """The rows of ``difference_rows``, with f(0) != 0, and two with
    f(0) = 0: the walk less its first value and sin(5x)."""
    walk, offset, noise = difference_rows(n)
    x = np.linspace(0.0, 1.0, n + 1)
    return np.stack([walk, walk - walk[0], offset, np.sin(5.0 * x), noise])


class TestStackedCalls:
    @pytest.mark.parametrize("n", [2, 3, 64, 511, 512, 1024, 2049])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_rows_are_bitwise_one_row_calls(self, n, alpha):
        rows = stack_rows(n)
        assert [row[0] == 0.0 for row in rows] == [False, True, False, True, False]
        out = weyl_derivative_left(rows, alpha)
        assert out.shape == rows.shape and not out.flags.writeable
        # 0 at x = 0 in every row, whether f(0) = 0 or not
        assert (out[:, 0] == 0.0).all()
        for got, row in zip(out, rows):
            one = weyl_derivative_left(row, alpha)
            assert got.tobytes() == one.tobytes()

    @pytest.mark.parametrize("n", [3, 64, 512])
    def test_right_rows_are_bitwise_one_row_calls(self, n):
        rows = stack_rows(n)
        out = weyl_derivative_right(rows, 0.3)
        assert out.shape == rows.shape and not out.flags.writeable
        # 0 at x = 1 in every row
        assert (out[:, -1] == 0.0).all()
        for got, row in zip(out, rows):
            assert got.tobytes() == weyl_derivative_right(row, 0.3).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", [(65,), (3, 65)])
    def test_refuses_a_non_finite_value(self, bad, shape):
        v = np.zeros(shape)
        v.flat[-7] = bad
        for derivative in (weyl_derivative_left, weyl_derivative_right):
            with pytest.raises(GridError, match="non-finite"):
                derivative(v, 0.3)

    def test_a_stack_of_rows_with_f_a_zero_is_not_flagged(self):
        # rows that already start at 0 come out 0 at x = 0 and finite
        # everywhere, bit for bit as one-row calls give them
        x = np.linspace(0.0, 1.0, 65)
        rows = np.stack([np.sin(3.0 * x), x ** 2])
        out = weyl_derivative_left(rows, 0.3)
        assert (out[:, 0] == 0.0).all() and np.isfinite(out).all()
        for got, row in zip(out, rows):
            one = weyl_derivative_left(row, 0.3)
            assert got.tobytes() == one.tobytes()


def holder_tail_double_loop(v, h, alpha):
    """Reference Hoelder tail: for every pair j < i the weight from the hat
    moments of u^(-alpha-1) (B[i] on column 0, A[i-j] + B[i-j] elsewhere)
    times |v_i - v_j|, summed exactly per row."""
    n = v.size - 1
    A, B = _hat_moments(-alpha, n)
    out = np.zeros(n + 1)
    for i in range(1, n + 1):
        j = np.arange(1, i)
        pairs = (A[i - j] + B[i - j]) * np.abs(v[i] - v[j])
        out[i] = math.fsum([B[i] * abs(v[i] - v[0]), *pairs])
    return out * h ** (-alpha)


def block_band_rows(n):
    """Rows per band of the Hoelder tail when every band filled one block of
    ``_BLOCK_ELEMENTS`` pairs, before bands of ``_SWEEP_ROWS`` rows."""
    return min(n - 1, max(1, _BLOCK_ELEMENTS // (n + 1)))


def holder_tail_out_of_place(values, h, alpha, step=None):
    """Reference: the blocked Hoelder tail with each block of differences
    formed by one out-of-place broadcast subtraction, in bands of ``step``
    rows (default the kernel's own, ``_tail_bands``)."""
    rows = np.asarray(values, dtype=float).reshape(-1, np.shape(values)[-1])
    k, n = rows.shape[0], rows.shape[1] - 1
    _, B = _hat_moments(-alpha, n)
    out = np.abs(rows - rows[:, :1]) * B
    if n >= 2:
        toeplitz = _tail_weights(n, alpha)
        step = _tail_bands(n).step if step is None else step
        group = max(1, min(k, _BLOCK_ELEMENTS // (n * n)))
        for s0 in range(0, k, group):
            s1 = min(s0 + group, k)
            for r0 in range(2, n + 1, step):
                r1 = min(r0 + step, n + 1)
                D = np.abs(rows[s0:s1, r0:r1, None] - rows[s0:s1, None, 1:r1 - 1])
                out[s0:s1, r0:r1] += np.einsum("sij,ij->si", D,
                                               toeplitz[r0 - 1:r1 - 1, :r1 - 2])
    out *= h ** (-alpha)
    return out.reshape(np.shape(values))


class TestHolderTailKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 256, 511, 1024])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_matches_double_loop_oracle(self, n, alpha):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n + 1).cumsum()
        out = marchaud_difference_abs(v, alpha)
        np.testing.assert_allclose(out, holder_tail_double_loop(v, 1.0 / n, alpha),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (3, 1), (7, 1), (256, 1),
                                      (511, 1), (1024, 1), (64, 40)])
    def test_in_place_differences_match_out_of_place_bitwise(self, n, k):
        rng = np.random.default_rng(n + k)
        stack = rng.standard_normal((k, n + 1)).cumsum(axis=1)
        values = stack[0] if k == 1 else stack
        out = marchaud_difference_abs(values, 0.37)
        assert np.array_equal(out, holder_tail_out_of_place(values, 1.0 / n, 0.37))

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_linear_data_closed_form(self, alpha):
        # product integration is exact on piecewise-linear data:
        # int_0^x |c| (x - y)^(-alpha) dy = |c| x^(1-alpha) / (1-alpha)
        n, c = 256, -2.5
        x = np.linspace(0.0, 1.0, n + 1)
        out = marchaud_difference_abs(c * x, alpha)
        assert out[0] == 0.0
        np.testing.assert_allclose(out[1:], abs(c) * x[1:] ** (1 - alpha) / (1 - alpha),
                                   rtol=1e-13, atol=0.0)

    # k = 40 slices of n = 64 span two blocks of whole slices; n >= 183
    # splits each slice into bands of rows
    @pytest.mark.parametrize("n, k", [(2, 4), (7, 4), (64, 40), (256, 4), (362, 3),
                                      (1024, 3), (4096, 2)])
    def test_stacked_rows_equal_one_slice_calls(self, n, k):
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((k, n + 1)).cumsum(axis=1)
        stack[1] = 0.0
        out = marchaud_difference_abs(stack, 0.3)
        assert out.shape == stack.shape
        for row, tail in zip(stack, out):
            one = marchaud_difference_abs(row, 0.3)
            assert one.shape == row.shape
            assert np.array_equal(tail, one)

    @pytest.mark.parametrize("n", [1, 2, 3, 361, 362, 363, 1024, 4096])
    def test_bands_cover_rows_two_to_n(self, n):
        starts = _tail_bands(n)
        rows = [r for r0 in starts for r in range(r0, min(r0 + starts.step, n + 1))]
        assert rows == list(range(2, n + 1))
        assert starts.step * (n + 1) <= max(_BLOCK_ELEMENTS, n + 1)

    # rows per band: the whole square up to n = 182, the fewest equal bands
    # of <= 2^15 pairs up to n = 362, block-sized bands of <= 32 rows from 4095 on
    LAYOUT = {1: 1, 2: 1, 3: 2, 64: 63, 256: 128, 361: 90, 362: 73,
              4095: 32, 4096: 31, 8192: 15}

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 256, 361, 362, 4095, 4096, 8192])
    def test_layout_kept_where_a_band_fills_a_block(self, n):
        assert _tail_bands(n) == range(2, n + 1, self.LAYOUT[n])
        if n >= 4095:
            assert self.LAYOUT[n] == block_band_rows(n)

    def test_bands_below_363_cells_are_the_fewest_of_at_most_2_15_pairs(self):
        for n in range(2, 363):
            starts = _tail_bands(n)
            width, count = n - 1, len(starts)
            assert starts.step * width <= _BAND_PAIRS, n
            assert starts.step == -(-width // count), n            # equal heights
            assert count == 1 or -(-width // (count - 1)) * width > _BAND_PAIRS, n
            assert (count == 1) == (width * width <= _BAND_PAIRS), n

    @pytest.mark.parametrize("n", [363, 1024, 2048])
    def test_bands_of_sweep_rows_in_between(self, n):
        assert _tail_bands(n).step == _SWEEP_ROWS < block_band_rows(n)

    @pytest.mark.parametrize("n", [400, 512, 700, 1024, 1500, 2049])
    def test_sweep_row_bands_agree_with_block_bands(self, n):
        # only the einsum's summation order changes with the band height
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n + 1).cumsum()
        new = marchaud_difference_abs(v, 0.37)
        old = holder_tail_out_of_place(v, 1.0 / n, 0.37, step=block_band_rows(n))
        assert (np.abs(new - old) <= 4 * np.spacing(old)).all()

    @pytest.mark.parametrize("n", [183, 256, 300, 362])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
    def test_banded_triangle_agrees_with_the_whole_square(self, n, alpha):
        # only the einsum's summation order changes with the band layout
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n + 1).cumsum()
        new = marchaud_difference_abs(v, alpha)
        old = holder_tail_out_of_place(v, 1.0 / n, alpha, step=n - 1)
        assert (np.abs(new - old) <= 4 * np.spacing(old)).all()

    @pytest.mark.parametrize("n, k", [(256, 1), (256, 3), (362, 1), (362, 4),
                                      (363, 1), (1024, 1), (1024, 3), (4096, 1)])
    def test_band_selection_is_bitwise_the_full_call(self, n, k):
        rng = np.random.default_rng(n + k)
        stack = rng.standard_normal((k, n + 1)).cumsum(axis=1)
        full = marchaud_difference_abs(stack, 0.3)
        column0 = marchaud_difference_abs(stack, 0.3, bands=())
        starts = _tail_bands(n)
        chosen = list(starts)[1::2]
        part = marchaud_difference_abs(stack, 0.3, bands=chosen)
        summed = np.zeros(n + 1, dtype=bool)
        for r0 in chosen:
            summed[r0:r0 + starts.step] = True
        assert np.array_equal(part[:, summed], full[:, summed])
        assert np.array_equal(part[:, ~summed], column0[:, ~summed])
        assert np.array_equal(column0[:, :2], full[:, :2])
        assert (column0 <= full).all()
        every = marchaud_difference_abs(stack, 0.3, bands=starts)
        assert np.array_equal(every, full)

    @pytest.mark.parametrize("n, k", [(256, 1), (362, 1), (256, 25)])
    def test_scratch_of_one_band_below_363_cells(self, n, k):
        # the whole square of a slice, or two of a stack, was 0.52 MB at
        # n = 256; one band holds at most 2^15 pairs.  The broadcast
        # subtraction adds numpy's ufunc buffer of getbufsize() values.
        stack = np.random.default_rng(n).standard_normal((k, n + 1)).cumsum(axis=1)
        values = stack[0] if k == 1 else stack
        marchaud_difference_abs(values, 0.37)      # fills the weight caches
        tracemalloc.start()
        try:
            marchaud_difference_abs(values, 0.37)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (_BAND_PAIRS + stack.size + np.getbufsize()) + 8192

    def test_memory_ceiling_at_n4096(self):
        # a dense kernel would hold (n+1)^2 float64 arrays of 134 MB each
        n = 4096
        v = np.random.default_rng(0).standard_normal(n + 1).cumsum()
        tracemalloc.start()
        try:
            marchaud_difference_abs(v, 0.37)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
