"""Discretized Hoelder-Sobolev norms and the integrator functional Lambda.

Suprema over the continuum are replaced by maxima over grid nodes and node
pairs; the singular inner integrals reuse the product-integration weights
from ``frac_calc``, so constants and linear data are reproduced exactly.
Near-diagonal behaviour is handled by the piecewise-linear model, whose
sub-cell Hoelder quotient is maximized at the adjacent-node pair.  Every
norm is over xi in [0, 1]: a slice of n + 1 nodes has step 1/n.

The pair matrix D of the right Weyl derivative and the driver's Hoelder
norm come from one sweep over node pairs (``_right_bands``) in bands of
``_SWEEP_ROWS`` rows, each against only the columns left of its last row,
with buffers sized to one band and weights read through Toeplitz views of
O(n) vectors; its values are bitwise the same for any band height.  D is
built in place, band by band, beside two band buffers; the Hoelder norm
keeps only each band's max.  Lambda_alpha is max |D| / Gamma(1 - alpha)
(``lambda_from_pair_matrix``, with no second matrix).  On the grid it is
the exact sup for the driver the engine integrates, the piecewise-linear
interpolant of the nodes: refining the interpolant moves it by at most
2.5e-15 relative (``test_lambda_is_the_sup_of_the_interpolant``).  It is
not the sup for the fBm sample itself, which is rougher at every finer n.

The slice norm is the max over nodes of |f| plus the Hoelder tail.  Up to
n = 362, or for a stack with a non-finite value, it is one full kernel
call.  From 363 cells on, an O(n^1.5) upper bound at every node
(``_tail_bound``), taken for a whole stack of slices in one call, picks
the kernel bands to sum: the one with the largest bound, then each whose
bound reaches the max so far.  The rest cannot hold the max: the norm is
the full kernel's.  Most callers need only the largest norm of a stack
(field norms, Picard residuals, the ball check): ``max_slice_norm``
carries one such floor across all its slices and skips every slice whose
bound stays below it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .frac_calc import (_BLOCK_ELEMENTS, _SWEEP_ROWS, _difference_weights, _hat_moments,
                        _lower_toeplitz, _square_fits_block, _tail_bands,
                        left_power_integral, marchaud_difference_abs)
from .grids import GridError, GridFunction, order_value

__all__ = [
    "norm_1malpha_infty0",
    "norm_alpha_1",
    "lambda_from_pair_matrix",
    "slice_norm_alpha_infty",
    "slice_norms_alpha_infty",
    "max_slice_norm",
    "right_derivative_pair_matrix",
]


def slice_norm_alpha_infty(values: np.ndarray, alpha) -> float:
    """max over xi of |f| plus the singular Hoelder tail, for one slice."""
    row = np.asarray(values, dtype=float)[None, :]
    return float(slice_norms_alpha_infty(row, alpha)[0])


def slice_norms_alpha_infty(rows: np.ndarray, alpha) -> np.ndarray:
    """The slice norm of every row of a (k, n+1) stack.

    Entry i is bitwise ``slice_norm_alpha_infty(rows[i], alpha)`` and the
    max of the full Hoelder tail plus |f|.  A stack of n <= 362 cells or
    with a non-finite entry goes through one full kernel call.
    """
    a = order_value(alpha)
    v = np.asarray(rows, dtype=float)
    top = _band_tops(v, a)
    if top is None:
        return _node_totals(v, a, None).max(axis=1)
    return np.array([_band_max(v[i:i + 1], t, a, -np.inf) for i, t in enumerate(top)])


def max_slice_norm(rows: np.ndarray, alpha, floor: float = -np.inf) -> float:
    """The larger of ``floor`` and the largest slice norm of the rows of a
    (k, n+1) stack, bitwise ``max(floor, slice_norms_alpha_infty(rows,
    alpha).max())``, and NaN where ``floor`` is NaN or the stack has a
    non-finite entry.

    Rows are visited in order of their largest band bound with one floor
    for the whole stack, starting at ``floor``: a row sums only the bands
    whose bound reaches it, and the first row whose largest bound is below
    it ends the search.
    """
    a = order_value(alpha)
    v = np.asarray(rows, dtype=float)
    top = _band_tops(v, a)
    if top is None:
        return float(np.maximum(floor, _node_totals(v, a, None).max()))
    largest = top.max(axis=1)
    for i in np.argsort(-largest, kind="stable"):
        if largest[i] < floor:
            break
        floor = _band_max(v[i:i + 1], top[i], a, floor)
    return float(floor)


def _node_totals(rows: np.ndarray, a: float, bands) -> np.ndarray:
    """|f| plus the Hoelder tail of a stack, summed over ``bands`` only."""
    total = marchaud_difference_abs(rows, a, bands=bands)
    total += np.abs(rows)
    return total


def _band_tops(v: np.ndarray, a: float):
    """The largest node bound in each tail band of every row (k, bands), or
    None where the stack goes through one full kernel call: a slice whose
    square fits one kernel block (n <= 362; pruning its few bands was
    measured slower than summing them) or a non-finite entry."""
    n = v.shape[-1] - 1
    if _square_fits_block(n) or not np.isfinite(v).all():
        return None
    return np.maximum.reduceat(_tail_bound(v, a), _tail_bands(n), axis=1)


def _band_max(row: np.ndarray, top: np.ndarray, a: float, floor: float) -> float:
    """The larger of ``floor`` and the max of ``_node_totals`` of one finite
    row (1, n+1) with band bounds ``top``: the band with the largest bound
    is summed first, then each other whose bound reaches the floor.  A
    partial sum is at most the full one at every node, so the max of any
    partial sum is a floor, and a band below it cannot hold the max."""
    starts = _tail_bands(row.shape[1] - 1)
    first = starts[int(np.argmax(top))]
    floor = max(floor, _node_totals(row, a, (first,)).max())
    rest = [r0 for r0, u in zip(starts, top) if r0 != first and not u < floor]
    if rest:
        floor = max(floor, _node_totals(row, a, rest).max())
    return floor


_NEAR = 16   # distances summed exactly in the bound; farther ones by blocks
# the window positions _NEAR - d of node i < d + 1, which stand for no column
_NEAR_MASK = np.add.outer(np.arange(_NEAR), np.arange(_NEAR)) >= _NEAR
_NEAR_MASK.setflags(write=False)


@lru_cache(maxsize=64)
def _far_weights(n: int, alpha: float):
    """Block width s (a power of two <= sqrt(n), >= 16) and the weight W[k, i]
    node i gives block k, columns 1+s*k..s*k+s: a read-only view of G[x] = sum
    of C[d] over max(x-s+1, _NEAR+1) <= d <= x at x = i-1-s*k, 0 for x < 0."""
    s = max(16, 1 << (math.isqrt(n).bit_length() - 1))
    C = _difference_weights(n, alpha)[0][:n].copy()
    C[:_NEAR + 1] = 0.0
    G = np.concatenate((np.zeros(1 + s * ((n - 2) // s)), np.convolve(C, np.ones(s))[:n]))
    return s, np.lib.stride_tricks.sliding_window_view(G, n + 1)[::s][::-1]


def _tail_bound(v: np.ndarray, a: float) -> np.ndarray:
    """An upper bound of |f| plus the Hoelder tail at every node of each
    finite slice of a stack (k, n+1), n > _NEAR, in O(n (_NEAR + n/s)) per
    slice.  Column 0 and distances <= _NEAR are exact, the latter as one
    strided pass; for column j in far block k, |f_i - f_j| <= |f_i - mid_k|
    + rad_k, with mid_k the centre of the block's range and rad_k its
    farther end.  Block k weights only the nodes i >= s k + _NEAR + 2, so
    each chunk of nodes sums only the blocks left of its last node.  Rows
    go in groups and nodes in chunks, so scratch stays near one
    ``_BLOCK_ELEMENTS`` block."""
    k, n = v.shape[0], v.shape[1] - 1
    C, _, _ = _difference_weights(n, a)
    tail = np.abs(v - v[:, :1])
    tail *= _hat_moments(-a, n)[1]
    # node i sees v[i - d] at window position _NEAR - d; the zero pad stands
    # for the columns j < 1, and _NEAR_MASK drops them
    near = C[_NEAR:0:-1]
    s, W = _far_weights(n, a)
    lo, hi = (f.reduceat(v[:, 1:n], np.arange(0, n - 1, s), axis=1)
              for f in (np.minimum, np.maximum))
    mid = 0.5 * (lo + hi)
    rad = np.maximum(hi - mid, mid - lo)
    blocks = mid.shape[1]
    step = 8 * s   # nodes per chunk: about n/4, the measured best at n = 1024 and 4096
    group = min(k, max(1, _BLOCK_ELEMENTS // max(blocks * step, _NEAR * n)))   # rows per group
    buf = np.empty(group * max(blocks * step, _NEAR * n))
    padded = np.zeros((group, _NEAR + n))
    for g0 in range(0, k, group):
        g1 = min(g0 + group, k)
        r = g1 - g0
        padded[:r, _NEAR:] = v[g0:g1, 1:]
        win = np.ndarray((r, n, _NEAR + 1), buffer=padded,
                         strides=padded.strides + padded.strides[1:])
        N = buf[:r * n * _NEAR].reshape(r, n, _NEAR)
        np.abs(np.subtract(win[:, :, _NEAR:], win[:, :, :_NEAR], out=N), out=N)
        N[:, :_NEAR] *= _NEAR_MASK
        tail[g0:g1, 1:] += N @ near   # a BLAS matvec; the slack below covers its rounding
        for c0 in range(_NEAR + 2, n + 1, step):
            c1 = min(c0 + step, n + 1)
            kb = min(blocks, (c1 - _NEAR - 3) // s + 1)   # blocks that weight a node < c1
            D = buf[:r * kb * (c1 - c0)].reshape(r, kb, c1 - c0)
            np.abs(np.subtract(v[g0:g1, None, c0:c1], mid[g0:g1, :kb, None], out=D), out=D)
            D += rad[g0:g1, :kb, None]
            tail[g0:g1, c0:c1] += np.einsum("bi,rbi->ri", W[:kb, c0:c1], D)
    # a slack of 1 + 1e-9, far above the rounding of either sum of nonnegative
    # terms (about n * eps <= 1e-12 at n <= 4096); 1e-300 covers underflow
    return (tail * (1.0 / n) ** (-a) + np.abs(v)) * (1.0 + 1e-9) + 1e-300


def norm_alpha_1(f: GridFunction, alpha) -> float:
    """int_0^1 |f|/eta^alpha + the double singular difference integral.

    Both terms use product integration, the outer integral of the second
    term is trapezoidal.
    """
    a = order_value(alpha)
    v = np.abs(f.values)
    first = left_power_integral(v, a)
    tail = marchaud_difference_abs(f.values, a)
    second = (1.0 / f.n) * (tail.sum() - 0.5 * (tail[0] + tail[-1]))
    return float(first + second)


@lru_cache(maxsize=64)
def _row_bands(n: int) -> tuple:
    """The bands [i0, i1) of rows 1..n in which the Stieltjes contraction
    reads the pair matrix, each of about ``_BLOCK_ELEMENTS`` node pairs;
    row 0 pairs with no column.  The einsum's bits depend on the band
    height."""
    step = max(1, _BLOCK_ELEMENTS // (n + 1))
    return tuple((i0, min(i0 + step, n + 1)) for i0 in range(1, n + 1, step))


@lru_cache(maxsize=64)
def _right_weights(n: int, alpha: float):
    """Read-only (n+1, n+1) Toeplitz views of the pair sweep's weights, with
    no weight on the pairs j >= i: B[i-j] and (A + B)[i-j] of the hat moments
    of u^(alpha-2), and the distances (xi_i - eta_j)^(1-alpha), inf above."""
    A, B = _hat_moments(alpha - 1.0, n)
    return (_lower_toeplitz(B[1:], 0.0), _lower_toeplitz((A + B)[1:], 0.0),
            _lower_toeplitz((np.arange(1, n + 1) * (1.0 / n)) ** (1.0 - alpha), np.inf))


def _right_bands(v: np.ndarray, a: float, scale: float, absolute: bool,
                 out: np.ndarray | None = None):
    """Yield (i0, i1, X) for bands of ``_SWEEP_ROWS`` rows i0 <= i < i1 (the
    last may be shorter), with X[i - i0, j] = d/dist + scale * S for every
    column j < i1 - 1: d is v[j] - v[i] (or its modulus), dist is
    (xi_i - eta_j)^(1-alpha) and S = B[i-j] d + sum_{j<l<i} C[l-j] d(l, j)
    is the product-integrated singular tail of d on [eta_j, xi_i].  Entries
    with j >= i are 0.

    The weights are the Toeplitz views of ``_right_weights``, and the
    running column sums of C d are one cumsum per band whose last row
    carries into the next band, so the sweep over all bands costs O(n^2),
    touches only the lower triangle up to each band's last column, and
    every value is bitwise the same for any band height.  X is a reused
    buffer of the band's size, valid until the next band.  d/dist is held
    in the band's view ``out[i0:i1, :i1 - 1]`` of an (n+1, n+1) ``out``
    until X is summed, or else in a third such buffer.
    """
    n = v.size - 1
    Bt, Ct, dist = _right_weights(n, a)
    step = _SWEEP_ROWS
    carry = np.zeros(n)   # column sums of C d over the rows above the band
    xbuf, pbuf = np.empty(step * n), np.empty((step + 1) * n)
    qbuf = np.empty(step * n) if out is None else None
    for i0 in range(1, n + 1, step):
        i1 = min(i0 + step, n + 1)
        r, c = i1 - i0, i1 - 1
        X = xbuf[:r * c].reshape(r, c)
        P = pbuf[:(r + 1) * c].reshape(r + 1, c)
        Q = qbuf[:r * c].reshape(r, c) if out is None else out[i0:i1, :c]
        np.subtract(v[None, :c], v[i0:i1, None], out=X)   # d, until the tail
        if absolute:
            np.abs(X, out=X)
        P[0] = carry[:c]
        np.multiply(Ct[i0:i1, :c], X, out=P[1:])
        np.cumsum(P, axis=0, out=P)   # P[k] sums the rows above row i0 + k
        carry[:c] = P[-1]
        np.divide(X, dist[i0:i1, :c], out=Q)
        X *= Bt[i0:i1, :c]
        X += P[:-1]
        X *= scale
        X += Q
        yield i0, i1, X


def right_derivative_pair_matrix(values: np.ndarray, alpha) -> np.ndarray:
    """D[i, j] = right Weyl derivative of order 1-alpha of g - g(xi_i) on
    [0, xi_i], evaluated at eta_j, for every pair j < i (zero elsewhere).

    Written band by band from ``_right_bands``, which keeps its d/dist term
    in D's own band, so the full matrix costs O(n^2) and the sweep needs
    two band buffers of at most (``_SWEEP_ROWS`` + 1) n values beside it.
    """
    a = order_value(alpha)
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    inv_gamma = 1.0 / math.gamma(a)
    D = np.zeros((n + 1, n + 1))
    for i0, i1, X in _right_bands(v, a, (1.0 - a) * (1.0 / n) ** (a - 1.0), False, out=D):
        np.multiply(X, inv_gamma, out=D[i0:i1, :i1 - 1])
    return D


def lambda_from_pair_matrix(D: np.ndarray, alpha: float) -> float:
    """Lambda_alpha of one slice from its pair matrix: max |D| / Gamma(1-alpha),
    with max |D| taken as max(max D, -min D) so that no second matrix is
    formed."""
    return float(max(D.max(), -D.min())) / math.gamma(1.0 - alpha)


def norm_1malpha_infty0(values: np.ndarray, alpha) -> float:
    """max over node pairs eta < xi of the (1-alpha)-Hoelder quotient plus
    the left-anchored singular tail integral, for one slice (n+1,) on the
    unit grid."""
    a = order_value(alpha)
    row = np.asarray(values, dtype=float)
    if row.ndim != 1:
        raise GridError("norm_1malpha_infty0 takes one 1-D slice")
    best = 0.0
    for _, _, X in _right_bands(row, a, (1.0 / (row.size - 1)) ** (a - 1.0), True):
        best = max(best, float(X.max()))
    return best
