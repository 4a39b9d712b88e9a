"""Marchaud-form Weyl derivatives and the Hoelder tail of the slice norm.

All operators are discretized by product integration on uniform grids: the
singular kernel is integrated exactly against the piecewise-linear
interpolant of the data, so every operator is a linear map of the nodal
values with nonnegative weights.  Weight tables depend only on the exact
pair (n, order), are O(n), and are memoized read-only in plain
``lru_cache``s, so concurrent readers are safe.  Every kernel works on
[0, 1], where a slice of n + 1 nodes has step 1/n; a sub-interval is
passed as its sub-slice (see ``fracpath.stieltjes``).

The left Weyl derivative of w = f - f(0) is Du = d w - e (C * w)
(``weyl_derivative_left``): the node factors d and the scalar e come from
a read-only cache per (n, order) (``_weyl_coefficients``), and C * w
is the causal convolution with the difference weights.  As w(0) = 0 an
offset of f does not enter, and column 0's boundary weight drops out.  The
convolution runs by ``np.convolve`` below ``_FFT_MIN_N`` cells, one call
per row of a stack, and from there on by rfft against spectra cached per
(n, order) (``_convolve``, which the Stieltjes sweep shares, ``_FFT_ROWS``
rows per transform call), with the largest weights, which set the
transform's rounding, summed directly.  The transform length is the
smallest 5-smooth integer >= 2n + 1, so nothing wraps.  The derivatives
are array kernels: they take one slice (n+1,) or a (k, n+1) stack of
slices on the uniform grid of [0, 1] (the Stieltjes sweep passes its rows
as they are), refuse a non-finite value in one check, and return a
read-only array of the input's shape, each row bitwise its one-slice call;
a slice is a one-row stack.

The Hoelder tail (``marchaud_difference_abs``) accepts one slice or a stack
of slices.  It sums only the lower triangle of node pairs, in bands of rows
read against a strided Toeplitz view of the O(n) weight vector, so no
(n+1)^2 weight matrix is formed or cached (a call at n = 4096 peaks below
16 MB).  One rule, ``_tail_bands``, cuts rows 2..n into bands: up to
n = 182 a block holds whole slices (at most 2^17 pairs, about 1 MB); up to
n = 362 a slice is cut into the fewest equal bands of at most 2^15 pairs
(256 KB); from there on into bands of ``_SWEEP_ROWS`` rows, fewer where
that many rows exceed a block, so that the slice norm can skip the bands
without its max.  The node differences of a band are built in place in
its buffer: a fill, then a subtraction.

Sign conventions are real throughout: the complex phases carried by the
right-sided operators are dropped, and the Stieltjes pairing fixes the one
remaining global sign (see ``fracpath.stieltjes``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grids import GridError, order_value

__all__ = [
    "weyl_derivative_left",
    "weyl_derivative_right",
    "beta_b1",
    "marchaud_difference_abs",
    "left_power_integral",
]

_MIN_BETA_ORDER = 1e-6
# pairs per block of the Hoelder-tail kernel: 2^17 float64 values, about 1 MB
_BLOCK_ELEMENTS = 1 << 17
# rows per band of the pair sweep (``norms._right_bands``), whose buffers
# stay small at every n, and, past one block, of the Hoelder tail
_SWEEP_ROWS = 32
# pairs per band of the Hoelder tail of a slice whose square fits one block:
# 2^15 float64 values, 256 KB
_BAND_PAIRS = 1 << 15
# cells from which the Stieltjes sweep and the Weyl convolution run by rfft:
# the measured crossover of the sweep's contraction.  The Weyl convolution's
# own crossover is about 768 cells; one value serves both until a workload
# runs in between and can tell them apart.
_FFT_MIN_N = 512
# kernel distances 0.._NEAR_FIELD of an rfft convolution summed directly
_NEAR_FIELD = 4
# rows per rfft/irfft call of ``_convolve``, which bounds its transform scratch
_FFT_ROWS = 8


@lru_cache(maxsize=128)
def _hat_moments(mu: float, kmax: int):
    """Moments of u^(mu-1) against the two halves of the unit hat function.

    A[k] = int_k^{k+1} u^(mu-1) ((k+1) - u) du   (right half of the hat at k)
    B[k] = int_{k-1}^k u^(mu-1) (u - (k-1)) du   (left half of the hat at k)

    Valid for mu in (-1, 1) \\ {0}.  For mu < 0 the moment A[0] diverges;
    it is zeroed because every caller pairs it with a vanishing difference.
    """
    k = np.arange(kmax + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        pm = k ** mu
        pm1 = k ** (mu + 1.0)
        qm = (k + 1.0) ** mu
        qm1 = (k + 1.0) ** (mu + 1.0)
        A = (k + 1.0) * (qm - pm) / mu - (qm1 - pm1) / (mu + 1.0)
        B = np.zeros_like(A)
        B[1:] = (pm1[1:] - pm1[:-1]) / (mu + 1.0) \
            - k[:-1] * (pm[1:] - pm[:-1]) / mu
    if mu < 0.0:
        A[0] = 0.0
    if kmax >= 1:
        B[1] = 1.0 / (mu + 1.0)  # closed form; avoids 0*inf for mu < 0
    A.setflags(write=False)
    B.setflags(write=False)
    return A, B


@lru_cache(maxsize=64)
def _difference_weights(n: int, alpha: float):
    """Kernel/corrections for sum_j w_ij (f_i - f_j) with w from u^(-alpha-1)."""
    A, B = _hat_moments(-alpha, n)
    C = A + B
    C[0] = 0.0  # diagonal weight pairs with a zero difference
    rowsum = B.copy()
    if n >= 2:
        rowsum[2:] += np.cumsum(C[1:])[: n - 1]
    C.setflags(write=False)
    rowsum.setflags(write=False)
    return C, A, rowsum


@lru_cache(maxsize=16)
def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= 2n + 1: a causal convolution of n + 1
    values at that length does not wrap: over the odd parts 3^j 5^k below
    2(2n + 1), the least power of two times each that reaches 2n + 1."""
    target = 2 * n + 1
    best, p5 = 2 * target, 1
    while p5 < 2 * target:
        p35 = p5
        while p35 < 2 * target:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=64)
def _split_kernels(kernels, n: int, alpha: float):
    """The weights at distances 0.._NEAR_FIELD and the rfft spectrum of the
    rest, stacked over the causal kernels ``kernels(n, alpha)`` returns."""
    w = np.stack(kernels(n, alpha))
    near = w[:, :_NEAR_FIELD + 1].copy()
    w[:, :_NEAR_FIELD + 1] = 0.0
    spectra = np.fft.rfft(w, _fft_length(n))
    near.setflags(write=False)
    spectra.setflags(write=False)
    return near, spectra


def _convolve(x: np.ndarray, kernels, alpha: float) -> np.ndarray:
    """y[q, ..., i] = sum_{j <= i} w_q[i - j] x[..., j] at i <= n for a stack
    x (..., n+1) and each kernel w_q of ``kernels(n, alpha)``.  The largest
    weights, at distances <= _NEAR_FIELD, set the rounding of the transform,
    so they are summed directly.  The rows are transformed ``_FFT_ROWS`` at
    a time into one output, so the transforms' scratch does not grow with
    the stack.  Each row is bitwise its one-row call."""
    n = x.shape[-1] - 1
    near, spectra = _split_kernels(kernels, n, alpha)
    L = _fft_length(n)
    rows = x.reshape(-1, n + 1)
    y = np.empty((len(near), len(rows), n + 1))
    for r0 in range(0, len(rows), _FFT_ROWS):
        chunk = np.fft.rfft(rows[r0:r0 + _FFT_ROWS], L) * spectra[:, None]
        y[:, r0:r0 + _FFT_ROWS] = np.fft.irfft(chunk, L)[:, :, :n + 1]
    for r, row in enumerate(rows):
        for q, w in enumerate(near):
            y[q, r] += np.convolve(row, w)[:n + 1]
    return y.reshape(near.shape[:1] + x.shape)


def _lower_toeplitz(w: np.ndarray, pad: float) -> np.ndarray:
    """Read-only (n+1, n+1) Toeplitz view T[i, j] = w[i - j - 1] for j < i,
    ``pad`` for j >= i, of the n weights w at distances 1..n.  Backed by one
    vector of 2n+1 values; every row is unit-stride."""
    n = w.size
    padded = np.concatenate((w[::-1], np.full(n + 1, pad)))
    return np.lib.stride_tricks.sliding_window_view(padded, n + 1)[::-1]


@lru_cache(maxsize=64)
def _tail_weights(n: int, alpha: float) -> np.ndarray:
    """Read-only (n+1, n) Toeplitz view T[r, q] = C[r - q] for q < r, 0 for
    q >= r, of the difference weights C; row i - 1 weights the columns
    j = q + 1 < i of node i."""
    C, _, _ = _difference_weights(n, alpha)
    return _lower_toeplitz(C[1:], 0.0)[:, :n]


def _square_fits_block(n: int) -> bool:
    """Whether the (n - 1)^2 node pairs of one slice fit one block of
    ``_BLOCK_ELEMENTS`` pairs: n <= 362."""
    return n - 1 <= _BLOCK_ELEMENTS // (n + 1)


def _tail_bands(n: int) -> range:
    """First rows of the bands in which the Hoelder tail of one slice is
    summed: rows 2..n, as rows 0 and 1 pair with column 0 alone.  While the
    square fits one block (n <= 362), the fewest bands of equal height whose
    rows against all n - 1 columns span at most ``_BAND_PAIRS`` pairs: one
    band up to n = 182, two at n = 256, five at n = 362.  A band reads only
    the columns left of its last row, so the bands cover the lower triangle.
    From there on, bands of ``_SWEEP_ROWS`` rows, fewer where that many rows
    exceed a block (n >= 4096), so that a slice norm can skip most of them."""
    if _square_fits_block(n):
        width = max(1, n - 1)
        bands = -(-width // (_BAND_PAIRS // width))
        step = -(-width // bands)
    else:
        step = min(_BLOCK_ELEMENTS // (n + 1), _SWEEP_ROWS)
    return range(2, n + 1, max(1, step))


def _difference_kernel(n: int, alpha: float) -> tuple:
    return _difference_weights(n, alpha)[:1]


def marchaud_difference_abs(values: np.ndarray, alpha: float, bands=None) -> np.ndarray:
    """Same integral with |f(x_i) - f(y)|; this is the Hoelder-tail of a slice.

    ``values`` is one slice (n+1,) or a stack of slices (k, n+1); the result
    has the same shape, and each row of a stack is bitwise the one-slice
    result for that row.  Only the pairs j < i carry weight.  Column 0 gets
    the boundary weight B[i] and is added as one vector term; columns
    1..i-1 get the Toeplitz weights C[i-j] (``_tail_weights``), reduced row
    by row in blocks, so no (n+1)^2 array is formed.  A block holds whole
    slices, up to ``_BLOCK_ELEMENTS`` pairs, while one band covers a slice
    (n <= 182), and otherwise one band of rows of one slice
    (``_tail_bands``: at most ``_BAND_PAIRS`` pairs up to n = 362, at most
    ``_BLOCK_ELEMENTS`` from there on).  Its differences are built in
    place: each row is filled with f(x_i), then f(x_j) is subtracted.

    ``bands`` lists the first rows (from ``_tail_bands(n)``) of the bands to
    sum, each bitwise as in the full call, ``None`` all; the rows of the
    other bands keep only their column-0 term.
    """
    v = np.asarray(values, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    k, n = rows.shape[0], rows.shape[1] - 1
    _, B = _hat_moments(-alpha, n)
    out = rows - rows[:, :1]
    np.abs(out, out=out)
    out *= B
    if n >= 2:
        toeplitz = _tail_weights(n, alpha)
        starts = _tail_bands(n)
        step = starts.step                                      # rows per block
        # slices per block: whole slices while one band holds a slice
        group = max(1, min(k, _BLOCK_ELEMENTS // (n * n))) if len(starts) == 1 else 1
        buf = np.empty(group * step * (n - 1))
        for s0 in range(0, k, group):
            s1 = min(s0 + group, k)
            for r0 in starts if bands is None else bands:
                r1 = min(r0 + step, n + 1)
                D = buf[:(s1 - s0) * (r1 - r0) * (r1 - 2)]
                D = D.reshape(s1 - s0, r1 - r0, r1 - 2)
                np.copyto(D, rows[s0:s1, r0:r1, None])
                np.subtract(D, rows[s0:s1, None, 1:r1 - 1], out=D)
                np.abs(D, out=D)
                out[s0:s1, r0:r1] += np.einsum("sij,ij->si", D,
                                               toeplitz[r0 - 1:r1 - 1, :r1 - 2])
    out *= (1.0 / n) ** (-alpha)
    return out.reshape(v.shape)


def left_power_integral(values: np.ndarray, alpha: float) -> float:
    """int_0^1 f(y) y^(-alpha) dy, product-integrated."""
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    A, B = _hat_moments(1.0 - alpha, n)
    w = A + B
    w[0] = A[0]
    w[n] = B[n]
    return float(np.dot(w, v)) * (1.0 / n) ** (1.0 - alpha)


def weyl_derivative_left(values, alpha) -> np.ndarray:
    """Marchaud-form left Weyl derivative of order alpha of w = f - f(0), the
    f_{0+} of the Stieltjes pairing, 0 at x = 0:

    D f(x) = (1/Gamma(1-alpha)) [ w(x)/x^alpha
             + alpha int_0^x (w(x)-w(y))/(x-y)^(alpha+1) dy ],

    product-integrated as Du = d w - e (C * w): d and e come from
    ``_weyl_coefficients``, C * w is the causal convolution with the
    difference weights, by ``np.convolve`` per row below ``_FFT_MIN_N``
    cells and by ``_convolve`` from there on.  As w(0) = 0, the boundary
    weight of column 0 drops out.

    ``values`` is one slice (n+1,) or a stack of slices (k, n+1) on the
    uniform grid of [0, 1]; the result is a read-only array of the same
    shape, each row bitwise the one-slice call for that row.  A non-finite
    node value is refused.
    """
    order = order_value(alpha)
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise GridError("non-finite node values")
    rows = v.reshape(-1, v.shape[-1])
    n = rows.shape[1] - 1
    d, e = _weyl_coefficients(n, order)
    w = rows - rows[:, :1]
    if n >= _FFT_MIN_N:
        conv = _convolve(w, _difference_kernel, order)[0]
    else:
        C = _difference_weights(n, order)[0]
        conv = np.empty(w.shape)
        for r, row in enumerate(w):
            conv[r] = np.convolve(C, row)[:n + 1]
    conv *= e
    out = d * w
    out -= conv
    out[:, 0] = 0.0
    out.setflags(write=False)
    return out.reshape(v.shape)


def weyl_derivative_right(values, alpha) -> np.ndarray:
    """Marchaud-form right Weyl derivative of f - f(1) (real convention,
    phase dropped): the mirror of :func:`weyl_derivative_left`, 0 at x = 1,
    for one slice or a stack, as a read-only view of the mirrored output.
    """
    mirrored = np.asarray(values, dtype=float)[..., ::-1]
    return weyl_derivative_left(mirrored, alpha)[..., ::-1]


def beta_b1(alpha) -> float:
    """The Beta-function constant B(2*alpha, 1 - alpha) for alpha in (0, 1/2).

    Evaluates int_0^inf (1+x)^(-alpha-1) x^(-alpha) dx through the Gamma
    identity Gamma(2a) Gamma(1-a) / Gamma(1+a).  Rejects alpha >= 1/2
    (the downstream factor 1/(1-2*alpha) diverges) and alpha below 1e-6
    (Gamma(2*alpha) pole).
    """
    a = float(alpha)
    if a >= 0.5:
        raise GridError(f"beta_b1 needs alpha < 1/2, got {a}")
    if a < _MIN_BETA_ORDER:
        raise GridError(f"beta_b1 diverges as alpha -> 0; got {a} < {_MIN_BETA_ORDER}")
    return math.gamma(2.0 * a) * math.gamma(1.0 - a) / math.gamma(1.0 + a)


@lru_cache(maxsize=64)
def _weyl_coefficients(n: int, alpha: float):
    """The node factor d (read-only, n+1) and the scalar e of the left Weyl
    derivative Du = d w - e (C * w) on the grid of n cells on [0, 1], with
    h = 1/n: d_i = (x_i^(-alpha) + alpha h^(-alpha) rowsum_i) / Gamma(1-alpha)
    for i >= 1, with x_i bitwise ``f.nodes[i]`` of a ``GridFunction`` f of
    n cells and rowsum from ``_difference_weights``, d_0 = 0, and
    e = alpha h^(-alpha) / Gamma(1-alpha)."""
    _, _, rowsum = _difference_weights(n, alpha)
    scale = alpha * (1.0 / n) ** (-alpha)
    gamma = math.gamma(1.0 - alpha)
    d = np.zeros(n + 1)
    d[1:] = (np.linspace(0.0, 1.0, n + 1)[1:] ** (-alpha) + scale * rowsum[1:]) / gamma
    d.setflags(write=False)
    return d, scale / gamma
