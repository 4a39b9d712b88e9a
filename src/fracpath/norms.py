"""Discretized Hoelder-Sobolev norms and the integrator functional Lambda.

Suprema over the continuum are replaced by maxima over grid nodes and node
pairs; the singular inner integrals reuse the product-integration weights
from ``frac_calc``, so constants and linear data are reproduced exactly.
Near-diagonal behaviour is handled by the piecewise-linear model, whose
sub-cell Hoelder quotient is maximized at the adjacent-node pair.
"""

from __future__ import annotations

import math

import numpy as np

from .frac_calc import _hat_moments, left_power_integral, marchaud_difference_abs
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
    """The slice norm of every row of a (k, n+1) stack, in one kernel call.

    Entry i is bitwise ``slice_norm_alpha_infty(rows[i], h, alpha)``.
    """
    a = order_value(alpha)
    v = np.asarray(rows, dtype=float)
    total = marchaud_difference_abs(v, h, a)
    total += np.abs(v)
    return total.max(axis=1)


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


def _right_columns(v: np.ndarray, h: float, a: float, scale: float, absolute: bool):
    """Yield, for j = 0..n-1, the column c with c[i - j - 1] = d/dist
    + scale * S for every node i > j, where d is v[j] - v[i] (or its modulus), dist is
    (xi_i - eta_j)^(1-alpha) and S is the product-integrated singular tail
    of d on [eta_j, xi_i]; S reuses prefix sums of the weights, so the sweep
    over all columns costs O(n^2)."""
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


def right_derivative_pair_matrix(values: np.ndarray, h: float, alpha) -> np.ndarray:
    """D[i, j] = right Weyl derivative of order 1-alpha of g - g(xi_i) on
    [0, xi_i], evaluated at eta_j, for every pair j < i (zero elsewhere).

    Column j is filled by one step of ``_right_columns``, so the full
    matrix costs O(n^2).
    """
    a = order_value(alpha)
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    inv_gamma = 1.0 / math.gamma(a)
    D = np.zeros((n + 1, n + 1))
    for j, col in enumerate(_right_columns(v, h, a, (1.0 - a) * h ** (a - 1.0), False)):
        D[j + 1:, j] = inv_gamma * col
    return D


def lambda_from_pair_matrix(D: np.ndarray, alpha: float) -> float:
    """Lambda_alpha of one slice from its pair matrix: max |D| / Gamma(1-alpha)."""
    return float(np.abs(D).max()) / math.gamma(1.0 - alpha)


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
        for col in _right_columns(row, h, a, scale, True):
            best = max(best, float(col.max()))
    return best
