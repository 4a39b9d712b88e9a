"""Discretized Hoelder-Sobolev norms and the integrator functional Lambda.

Suprema over the continuum are replaced by maxima over grid nodes and node
pairs; the singular inner integrals reuse the product-integration weights
from ``frac_calc``, so constants and linear data are reproduced exactly.
Near-diagonal behaviour is handled by the piecewise-linear model, whose
sub-cell Hoelder quotient is maximized at the adjacent-node pair.

The pair matrix and the driver's Hoelder norm come from one sweep over
node pairs in bands of ``_SWEEP_ROWS`` rows, each against only the columns
left of its last row, with buffers sized to one band; its values are
bitwise the same for any band height.

The slice norm is the max over nodes of |f| plus the Hoelder tail.  Over
several kernel bands, an O(n^1.5) upper bound at every node picks the bands
to sum: the one with the largest bound, then each whose bound reaches the
max so far.  The rest cannot hold the max: the norm is the full kernel's.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .frac_calc import (_BLOCK_ELEMENTS, _SWEEP_ROWS, _difference_weights, _hat_moments,
                        _lower_toeplitz, _tail_bands, left_power_integral,
                        marchaud_difference_abs)
from .grids import GridError, GridFunction, SpaceTimeField, order_value

__all__ = [
    "norm_alpha_infty",
    "norm_1malpha_infty0",
    "norm_alpha_1",
    "lambda_alpha",
    "lambda_from_pair_matrix",
    "slice_norm_alpha_infty",
    "slice_norms_alpha_infty",
    "right_derivative_pair_matrix",
]


def slice_norm_alpha_infty(values: np.ndarray, h: float, alpha) -> float:
    """max over xi of |f| plus the singular Hoelder tail, for one slice."""
    row = np.asarray(values, dtype=float)[None, :]
    return float(slice_norms_alpha_infty(row, h, alpha)[0])


def slice_norms_alpha_infty(rows: np.ndarray, h: float, alpha) -> np.ndarray:
    """The slice norm of every row of a (k, n+1) stack.

    Entry i is bitwise ``slice_norm_alpha_infty(rows[i], h, alpha)`` and the
    max of the full Hoelder tail plus |f|.  A stack whose tail has one band
    (nothing to skip) or a non-finite entry goes through one full kernel call.
    """
    a = order_value(alpha)
    v = np.asarray(rows, dtype=float)
    if len(_tail_bands(v.shape[-1] - 1)) < 2 or not np.isfinite(v).all():
        return _node_totals(v, h, a, None).max(axis=1)
    return np.array([_slice_max(stack, h, a) for stack in v[:, None, :]])


def _node_totals(rows: np.ndarray, h: float, a: float, bands) -> np.ndarray:
    """|f| plus the Hoelder tail of a stack, summed over ``bands`` only."""
    total = marchaud_difference_abs(rows, h, a, bands=bands)
    total += np.abs(rows)
    return total


def _slice_max(stack: np.ndarray, h: float, a: float) -> float:
    """The max of ``_node_totals`` of one finite slice (1, n+1), with the bands
    whose bound stays below a floor skipped.  A partial sum is at most the
    full one at every node, so the max of any partial sum is a floor."""
    starts = _tail_bands(stack.shape[1] - 1)
    top = np.maximum.reduceat(_tail_bound(stack[0], h, a), starts)
    first = starts[int(np.argmax(top))]
    floor = _node_totals(stack, h, a, (first,)).max()
    rest = [r0 for r0, u in zip(starts, top) if r0 != first and not u < floor]
    if rest:
        floor = max(floor, _node_totals(stack, h, a, rest).max())
    return floor


_NEAR = 16   # distances summed exactly in the bound; farther ones by blocks


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


def _tail_bound(v: np.ndarray, h: float, a: float) -> np.ndarray:
    """An upper bound of |f| plus the Hoelder tail at every node of a finite
    slice, in O(n (_NEAR + n/s)).  Column 0 and distances <= _NEAR are exact;
    for column j in far block k, |f_i - f_j| <= |f_i - mid_k| + rad_k, with
    mid_k the centre of the block's range and rad_k its farther end.  Block
    k weights only the nodes i >= s k + _NEAR + 2, so each chunk of nodes
    sums only the blocks left of its last node."""
    n = v.size - 1
    C, _, _ = _difference_weights(n, a)
    tail = _hat_moments(-a, n)[1] * np.abs(v - v[0])
    for d in range(1, min(_NEAR, n - 1) + 1):
        tail[d + 1:] += C[d] * np.abs(v[d + 1:] - v[1:n + 1 - d])
    s, W = _far_weights(n, a)
    lo, hi = (f.reduceat(v[1:n], np.arange(0, n - 1, s)) for f in (np.minimum, np.maximum))
    mid = 0.5 * (lo + hi)
    rad = np.maximum(hi - mid, mid - lo)
    # nodes per chunk: a multiple of s, about 1/4 MB at full height
    step = max(s, _BLOCK_ELEMENTS // 4 // mid.size // s * s)
    buf = np.empty(mid.size * step)
    for c0 in range(_NEAR + 2, n + 1, step):
        c1 = min(c0 + step, n + 1)
        k = min(mid.size, (c1 - _NEAR - 3) // s + 1)   # blocks that weight a node < c1
        D = buf[:k * (c1 - c0)].reshape(k, c1 - c0)
        np.abs(np.subtract(v[c0:c1], mid[:k, None], out=D), out=D)
        D += rad[:k, None]
        tail[c0:c1] += np.einsum("ki,ki->i", W[:k, c0:c1], D)
    # a slack of 1 + 1e-9, far above the rounding of either sum of nonnegative
    # terms (about n * eps <= 1e-12 at n <= 4096); 1e-300 covers underflow
    return (tail * h ** (-a) + np.abs(v)) * (1.0 + 1e-9) + 1e-300


def norm_alpha_infty(f: SpaceTimeField, alpha) -> float:
    """sup over t and xi of |f| plus the singular Hoelder tail in xi."""
    return float(slice_norms_alpha_infty(f.values, f.h, alpha).max())


def norm_alpha_1(f: GridFunction, alpha) -> float:
    """int_0^1 |f|/eta^alpha + the double singular difference integral.

    Defined on the unit interval; both terms use product integration, the
    outer integral of the second term is trapezoidal.
    """
    a = order_value(alpha)
    if abs(f.a) > 1e-12 or abs(f.b - 1.0) > 1e-12:
        raise GridError("norm_alpha_1 is defined for grids on [0, 1]")
    v = np.abs(f.values)
    first = left_power_integral(v, f.h, a)
    tail = marchaud_difference_abs(f.values, f.h, a)
    second = f.h * (tail.sum() - 0.5 * (tail[0] + tail[-1]))
    return float(first + second)


def _row_bands(n: int) -> list:
    """The bands [i0, i1) of rows 1..n in which the Stieltjes contraction
    reads the pair matrix, each of about ``_BLOCK_ELEMENTS`` node pairs; row
    0 pairs with no column.  The einsum's bits depend on the band height."""
    step = max(1, _BLOCK_ELEMENTS // (n + 1))
    return [(i0, min(i0 + step, n + 1)) for i0 in range(1, n + 1, step)]


def _right_bands(v: np.ndarray, h: float, a: float, scale: float, absolute: bool):
    """Yield (i0, i1, X) for bands of ``_SWEEP_ROWS`` rows i0 <= i < i1 (the
    last may be shorter), with X[i - i0, j] = d/dist + scale * S for every
    column j < i1 - 1: d is v[j] - v[i] (or its modulus), dist is
    (xi_i - eta_j)^(1-alpha) and S = B[i-j] d + sum_{j<l<i} C[l-j] d(l, j)
    is the product-integrated singular tail of d on [eta_j, xi_i].  Entries
    with j >= i are 0.

    The weights are Toeplitz views of O(n) vectors, padded so that the pairs
    j >= i carry none, and the running column sums of C d are one cumsum
    per band whose last row carries into the next band, so the sweep over
    all bands costs O(n^2), touches only the lower triangle up to each
    band's last column, and every value is bitwise the same for any band
    height.  X is a reused buffer of the band's size, valid until the next
    band.
    """
    n = v.size - 1
    A, B = _hat_moments(a - 1.0, n)
    Bt = _lower_toeplitz(B[1:], 0.0)
    Ct = _lower_toeplitz((A + B)[1:], 0.0)
    dist = _lower_toeplitz((np.arange(1, n + 1) * h) ** (1.0 - a), np.inf)
    step = _SWEEP_ROWS
    carry = np.zeros(n)   # column sums of C d over the rows above the band
    xbuf, sbuf, pbuf = np.empty(step * n), np.empty(step * n), np.empty((step + 1) * n)
    for i0 in range(1, n + 1, step):
        i1 = min(i0 + step, n + 1)
        r, c = i1 - i0, i1 - 1
        X = xbuf[:r * c].reshape(r, c)
        S = sbuf[:r * c].reshape(r, c)
        P = pbuf[:(r + 1) * c].reshape(r + 1, c)
        np.subtract(v[None, :c], v[i0:i1, None], out=X)
        if absolute:
            np.abs(X, out=X)
        P[0] = carry[:c]
        np.multiply(Ct[i0:i1, :c], X, out=P[1:])
        np.cumsum(P, axis=0, out=P)   # P[k] sums the rows above row i0 + k
        carry[:c] = P[-1]
        np.multiply(Bt[i0:i1, :c], X, out=S)
        S += P[:-1]
        S *= scale
        X /= dist[i0:i1, :c]
        X += S
        yield i0, i1, X


def right_derivative_pair_matrix(values: np.ndarray, h: float, alpha) -> np.ndarray:
    """D[i, j] = right Weyl derivative of order 1-alpha of g - g(xi_i) on
    [0, xi_i], evaluated at eta_j, for every pair j < i (zero elsewhere).

    Written band by band from ``_right_bands``, so the full matrix costs
    O(n^2) and the sweep needs three band buffers of at most
    (``_SWEEP_ROWS`` + 1) n values beside it.
    """
    a = order_value(alpha)
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    inv_gamma = 1.0 / math.gamma(a)
    D = np.zeros((n + 1, n + 1))
    for i0, i1, X in _right_bands(v, h, a, (1.0 - a) * h ** (a - 1.0), False):
        np.multiply(X, inv_gamma, out=D[i0:i1, :i1 - 1])
    return D


def lambda_from_pair_matrix(D: np.ndarray, alpha: float) -> float:
    """Lambda_alpha of one slice from its pair matrix: max |D| / Gamma(1-alpha),
    with max |D| taken as max(max D, -min D) so that no second matrix is
    formed."""
    return float(max(D.max(), -D.min())) / math.gamma(1.0 - alpha)


def lambda_alpha(g: SpaceTimeField, alpha) -> float:
    """sup over times and pairs eta < xi of |D^{1-alpha}_{xi-} g_{xi-}(eta)|,
    divided by Gamma(1-alpha)."""
    a = order_value(alpha)
    return max(lambda_from_pair_matrix(right_derivative_pair_matrix(row, g.h, a), a)
               for row in g.values)


def norm_1malpha_infty0(g: SpaceTimeField | np.ndarray, alpha) -> float:
    """sup over t and node pairs eta < xi of the (1-alpha)-Hoelder quotient
    plus the left-anchored singular tail integral.

    ``g`` is a field or one slice (n+1,) on the unit grid.
    """
    a = order_value(alpha)
    rows = g.values if isinstance(g, SpaceTimeField) else np.asarray(g, dtype=float)[None, :]
    h = 1.0 / (rows.shape[1] - 1)
    scale = h ** (a - 1.0)
    best = 0.0
    for row in rows:
        for _, _, X in _right_bands(row, h, a, scale, True):
            best = max(best, float(X.max()))
    return best
