"""Generalized (fractional-derivative) Stieltjes integration.

The integral of f against a rough integrator g on [c, d] is the pairing of
the left Weyl derivative of f - f(c) with the right Weyl derivative of
g - g(d), plus the boundary term f(c) (g(d) - g(c)).  With the complex
phases of the one-sided operators dropped, a single global sign remains;
it is fixed by requiring that f(x) = x, g(x) = x on (0, 1) integrates to
+1/2 (the test suite recomputes it from scratch and asserts that it
matches ``PAIRING_SIGN``).

The pairing integral uses the trapezoid rule on interior nodes; the two
endpoint cells, where the factors vanish like (x-c)^(1-alpha) and
(d-x)^alpha, contribute through those local power models.

Every slice lives on [0, 1].  A grid-aligned [c, d] is integrated as the
[0, 1] pairing of the sub-slices on its nodes: under x = c + l s, with
l = d - c, the left derivative of order alpha scales by l^(-alpha), the
right one of order 1 - alpha by l^(alpha-1) and dx by l, and the product
l^(-alpha) l^(alpha-1) l = 1, in the product-integration weights too.

Against one integrator slice the integral up to every node is a linear
operator, a ``SliceOperator`` built once per slice with the driver, and
the one form in which a slice is passed around; its pair matrix D is read
only here.  ``stieltjes_all_upper_limits`` applies it to one integrand
slice or a stack, whose left derivatives it takes in one
``weyl_derivative_left`` call on the rows as they are (a slice is a
one-row stack); each row of a stack is bitwise its one-slice result.
The two regimes differ only in how they form the plain row sums
sum_{j<i} D[i, j] Du_j.  Below ``frac_calc._FFT_MIN_N`` cells the
operator keeps D (``pair_matrix``, at most 2.1 MB at n = 511) and the
sweep is one ``np.einsum`` of each row's field against it, band by band
over the lower triangle.  The einsum's bands are those of about 2^17
pairs of ``norms._row_bands``, not the 32-row bands in which
``norms._right_bands`` builds D, since the einsum's bits depend on the
band height.  From ``_FFT_MIN_N`` cells on the row sums
are cheaper as convolutions: D is dropped after the build, so the operator
holds O(n) data, and two Toeplitz kernels against differences of the slice
values (``_pair_kernels``) make them four causal convolutions and one
prefix sum.  Batching rows cannot move that crossover down: the README
solve's windows are one cell, so most of its sweeps are one row.  The
quadrature is then applied once, in the same order in both regimes: the
trapezoid end corrections as O(n) terms (``first`` and ``last``, from
column 1 and the subdiagonal of D), then the scale PAIRING_SIGN h, then
the boundary term u_0 (g - g(0)).
``np.einsum`` and ``numpy.fft`` call no BLAS and the near field's dot
products have at most five terms, so the bits do not depend on the BLAS
thread count; no (n+1)^2 temporary is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import norms
from .frac_calc import (_FFT_MIN_N, _convolve, _hat_moments, weyl_derivative_left,
                        weyl_derivative_right)
from .grids import GridError, GridFunction, order_value

__all__ = [
    "PAIRING_SIGN",
    "SliceOperator",
    "slice_operator",
    "stieltjes_integral",
    "stieltjes_all_upper_limits",
    "stieltjes_indicator_consistency",
    "bound_357_check",
    "pathwise_integral_bound_check",
    "IndicatorReport",
    "BoundReport",
]

PAIRING_SIGN = -1.0


def _aligned_index(f: GridFunction, x: float, what: str) -> int:
    pos = x * f.n
    i = int(round(pos))
    if abs(pos - i) > 1e-9 or not 0 <= i <= f.n:
        raise GridError(f"{what} = {x} is not aligned to the grid")
    return i


def _check_compatible(f: GridFunction, g: GridFunction):
    if f.n != g.n:
        raise GridError("f and g must share one grid")


def _pairing_quadrature(psi: np.ndarray, h: float, alpha: float) -> float:
    """Integrate the pairing integrand given at the nodes of [0, 1], of
    which ``_pairing_value`` passes at least three."""
    inner = psi[1:-1]
    total = inner.sum() - 0.5 * (inner[0] + inner[-1])
    total += inner[0] / (2.0 - alpha) + inner[-1] / (1.0 + alpha)
    return h * float(total)


def _pairing_value(fv: np.ndarray, gv: np.ndarray, alpha: float) -> float:
    """The pairing of the Weyl derivatives of f - f(0) and g - g(1) for
    the slices ``fv`` and ``gv`` on [0, 1], with step 1/(size - 1)."""
    if fv.size < 3:
        return 0.0
    Du = weyl_derivative_left(fv, alpha)
    Dg = weyl_derivative_right(gv, 1.0 - alpha)
    return _pairing_quadrature(Du * Dg, 1.0 / (fv.size - 1), alpha)


def stieltjes_integral(f: GridFunction, g: GridFunction, alpha,
                       c: float | None = None, d: float | None = None) -> float:
    """int_c^d f dg for grid-aligned [c, d] inside [0, 1] (all of it by
    default), as the [0, 1] pairing of the sub-slices of f and g on the
    nodes of [c, d]."""
    a = order_value(alpha)
    _check_compatible(f, g)
    c = 0.0 if c is None else float(c)
    d = 1.0 if d is None else float(d)
    ic = _aligned_index(f, c, "c")
    i_d = _aligned_index(f, d, "d")
    if ic >= i_d:
        raise GridError(f"need c < d, got ({c}, {d})")
    fv = f.values[ic:i_d + 1]
    gv = g.values[ic:i_d + 1]
    pairing = _pairing_value(fv, gv, a)
    value = PAIRING_SIGN * pairing + float(fv[0]) * float(gv[-1] - gv[0])
    if not math.isfinite(value):
        raise GridError(f"non-finite Stieltjes integral on [{c}, {d}]")
    return value


@dataclass(frozen=True, eq=False)
class SliceOperator:
    """u -> int_0^xi u dg at every node, for one integrator slice g on the
    unit grid, whose pair matrix D is built once: the order alpha,
    Lambda_alpha(g) and read-only copies of g - g(0) (``rise``), of g
    centred at its mid-range (``centred``) and of the trapezoid end
    corrections of the pairing quadrature, column 1 of D times
    1/(2-alpha) - 1/2 (``first``) and the subdiagonal of D times
    1/(1+alpha) - 1/2 (``last``).  Below ``_FFT_MIN_N`` cells it keeps D
    itself, read-only, as ``pair_matrix``; from there on ``pair_matrix`` is
    None and the sweep convolves.  The two regimes differ only in how they
    form the row sums sum_{j<i} D[i, j] Du_j; the end corrections, the sign
    and h are applied to them once, in ``stieltjes_all_upper_limits``."""

    alpha: float
    lam: float
    rise: np.ndarray
    centred: np.ndarray
    first: np.ndarray
    last: np.ndarray
    pair_matrix: np.ndarray | None


def slice_operator(values: np.ndarray, alpha) -> SliceOperator:
    """Build the operator of one integrator slice on the unit grid: D is
    built once and, once Lambda_alpha and the end corrections are read,
    kept below ``_FFT_MIN_N`` cells and dropped from there on."""
    a = order_value(alpha)
    g = np.asarray(values, dtype=float)
    n = g.size - 1
    D = norms.right_derivative_pair_matrix(g, a)
    lam = norms.lambda_from_pair_matrix(D, a)
    first = (1.0 / (2.0 - a) - 0.5) * D[:, 1]
    last = (1.0 / (1.0 + a) - 0.5) * np.diagonal(D, -1)
    rise = g - g[0]
    centred = g - 0.5 * (g.max() + g.min())
    for arr in (rise, centred, first, last, D):
        arr.setflags(write=False)
    return SliceOperator(a, lam, rise, centred, first, last, D if n < _FFT_MIN_N else None)


def _pair_kernels(n: int, a: float) -> tuple:
    """The kernels K(d) and s C(d), each over Gamma(a), of the pair matrix on
    the unit grid: for j < i, d = i - j and s = (1-a) h^(a-1),
    Gamma(a) D[i, j] = (v_j - v_i) K(d) + s sum_{0<l<d} C(l) (v_j - v_{j+l}),
    K(d) = (d h)^(a-1) + s B(d), with B and C = A + B the hat moments of
    u^(a-2) (``norms._right_bands``); K(0) = C(0) = 0."""
    h = 1.0 / n
    A, B = _hat_moments(a - 1.0, n)
    s = (1.0 - a) * h ** (a - 1.0)
    K = np.zeros(n + 1)
    K[1:] = 1.0 / (np.arange(1, n + 1) * h) ** (1.0 - a) + s * B[1:]
    C = s * (A + B)
    C[0] = 0.0
    return K / math.gamma(a), C / math.gamma(a)


def stieltjes_all_upper_limits(u: np.ndarray, op: SliceOperator) -> np.ndarray:
    """int_0^{xi_i} u dg for every grid node xi_i at O(n^2) total cost.

    ``u`` is one integrand slice (n+1,) or a stack (k, n+1) integrated
    against the integrator slice of ``op``; the result has the same shape,
    and each row of a stack is bitwise the one-slice result for that row.
    The left derivative Du of each row is taken once, in one call on the
    rows as they are.  The row sums sum_{j<i} D[i, j] Du_j are formed with
    the pair matrix one band of rows [i0, i1) at a time, against the columns
    j < i1 - 1 only, since D is 0 for j >= i, or from ``_FFT_MIN_N`` cells
    on by convolutions.  Then, in both regimes, the quadrature of
    ``_pairing_quadrature``: nodes 0 and 1 integrate over fewer than three
    nodes and are 0, the end corrections ``first`` and ``last`` are added,
    the sums are scaled by PAIRING_SIGN h, and u_0 (g - g(0)) is added.
    """
    u = np.asarray(u, dtype=float)
    rows = u.reshape(-1, u.shape[-1])
    n = rows.shape[1] - 1
    if rows.shape[1] != op.rise.size:
        raise GridError("the integrand must live on the operator's grid")
    Du = weyl_derivative_left(rows, op.alpha)
    D = op.pair_matrix
    if D is None:
        out = _convolved_rowsums(Du, op)
    else:
        out = np.empty_like(Du)
        for i0, i1 in norms._row_bands(n):
            np.einsum("sj,ij->si", Du[:, :i1 - 1], D[i0:i1, :i1 - 1], out=out[:, i0:i1])
    out[:, :2] = 0.0
    out[:, 2:] += op.first[2:] * Du[:, 1:2]
    out[:, 2:] += op.last[1:] * Du[:, 1:-1]
    out *= PAIRING_SIGN / n
    out += rows[:, :1] * op.rise
    if not np.isfinite(out).all():
        bad = int(np.argwhere(~np.isfinite(out))[0][-1])
        raise GridError(f"non-finite pathwise integral at node {bad}")
    return out.reshape(u.shape)


def _convolved_rowsums(Du: np.ndarray, op: SliceOperator) -> np.ndarray:
    """sum_{j<i} Du_j D[i, j] at every node i, by the causal convolutions of
    ``_pair_kernels``: (Du w * K)_i - w_i (Du * K)_i plus the prefix sum over
    p < i of (Du w * sC)_p - w_p (Du * sC)_p, with w the slice centred at
    its mid-range (``op.centred``), as D holds differences of values only."""
    w = op.centred
    y = _convolve(np.stack((Du * w, Du), axis=1), _pair_kernels, op.alpha)
    y = y[:, :, 0] - w * y[:, :, 1]
    rowsum = y[0]
    rowsum[:, 1:] += np.cumsum(y[1, :, :-1], axis=1)
    return rowsum


@dataclass
class IndicatorReport:
    """int_c^d f dg taken directly (``direct``) and as the integral over the
    whole grid of f times the node indicator of [c, d] (``embedded``), and
    their absolute difference (``gap``)."""

    direct: float
    embedded: float
    gap: float


def stieltjes_indicator_consistency(f: GridFunction, g: GridFunction, alpha,
                                    c: float, d: float) -> IndicatorReport:
    """Compare int_c^d f dg with the indicator-embedded integral on [0, 1].

    The indicator is applied at node level (nodes with c <= x_i <= d keep
    f, all others are zeroed), so for (c, d) = (0, 1) both sides are the
    same computation and the gap is exactly zero.
    """
    a = order_value(alpha)
    _check_compatible(f, g)
    direct = stieltjes_integral(f, g, a, c, d)
    ind = ((f.nodes >= c - 1e-12) & (f.nodes <= d + 1e-12)).astype(float)
    embedded = stieltjes_integral(GridFunction(f.values * ind), g, a)
    return IndicatorReport(direct, embedded, abs(direct - embedded))


@dataclass
class BoundReport:
    """The integral bound max_xi |int_0^xi f dg| (``lhs``) <= Lambda_alpha(g)
    ||f||_{alpha,1} (``rhs``, from ``lam`` and ``f_norm``): whether it
    ``holds`` within a relative slack of 1e-6, and rhs - lhs (``margin``)."""

    lhs: float
    rhs: float
    holds: bool
    margin: float
    lam: float
    f_norm: float


_BOUND_SLACK = 1e-6


def _bound_report(u: GridFunction, ops, lam: float) -> BoundReport:
    """max over the slices of ``ops`` and over xi of |int_0^xi u dg|, one
    sweep per slice, against lam ||u||_{alpha,1}."""
    lhs = max(float(np.abs(stieltjes_all_upper_limits(u.values, op)).max()) for op in ops)
    f_norm = norms.norm_alpha_1(u, ops[0].alpha)
    rhs = lam * f_norm
    return BoundReport(lhs, rhs, lhs <= rhs * (1.0 + _BOUND_SLACK),
                       rhs - lhs, lam, f_norm)


def bound_357_check(f: GridFunction, g: GridFunction, alpha) -> BoundReport:
    """Check max_xi |int_0^xi f dg| <= Lambda_alpha(g) ||f||_{alpha,1}."""
    _check_compatible(f, g)
    op = slice_operator(g.values, alpha)
    return _bound_report(f, (op,), op.lam)


def pathwise_integral_bound_check(u: GridFunction, driver) -> BoundReport:
    """Same bound against a realized FBM driver on every distinct time slice:
    max over t and xi of |int_0^xi u dB_t| <= G ||u||_{alpha,1}, where G is
    the driver's Lambda_alpha, already the sup over its slices."""
    return _bound_report(u, driver.slices, driver.lambda_value)
