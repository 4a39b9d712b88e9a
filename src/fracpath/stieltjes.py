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

Against one integrator slice the integral up to every node is a linear
operator, a ``SliceOperator`` built once; its pair matrix D is read only
here.  ``stieltjes_all_upper_limits`` applies it to one integrand slice or
a stack, whose left derivatives it takes in one ``weyl_derivative_left``
call on the whole stack.  Below ``frac_calc._FFT_MIN_N`` cells each row's
left derivative is contracted with D by ``np.einsum``, band by band over
the lower triangle (the bands of about 2^17 pairs of ``norms._row_bands``:
the einsum's bits depend on the band height, so it does not share the
32-row bands in which ``norms._right_bands`` builds D).  From there on D is dropped after
the build: two Toeplitz kernels against differences of the slice values
(``_pair_kernels``) make the contraction four causal convolutions and one
prefix sum.  ``np.einsum`` and ``numpy.fft`` call no BLAS and the near
field's dot products have at most five terms, so the bits do not depend on
the BLAS thread count; no (n+1)^2 temporary is formed.  The solver stacks
the window of a time-constant driver 32 rows per call, computes the
window's fixed row 0 once, and builds each window's first iterate from
that row alone.
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
    pos = (x - f.a) / f.h
    i = int(round(pos))
    if abs(pos - i) > 1e-9 or not 0 <= i <= f.n:
        raise GridError(f"{what} = {x} is not aligned to the grid")
    return i


def _check_compatible(f: GridFunction, g: GridFunction):
    if f.n != g.n or abs(f.a - g.a) > 1e-12 or abs(f.b - g.b) > 1e-12:
        raise GridError("f and g must share one grid")


def _pairing_quadrature(psi: np.ndarray, h: float, alpha: float) -> float:
    """Integrate the pairing integrand given at the nodes of [c, d], of
    which ``_pairing_value`` passes at least three."""
    inner = psi[1:-1]
    total = inner.sum() - 0.5 * (inner[0] + inner[-1])
    total += inner[0] / (2.0 - alpha) + inner[-1] / (1.0 + alpha)
    return h * float(total)


def _pairing_value(fv: np.ndarray, gv: np.ndarray, a: float, b: float,
                   alpha: float) -> float:
    if fv.size < 3:
        return 0.0
    fsub = GridFunction(a, b, fv)
    gsub = GridFunction(a, b, gv)
    Du = weyl_derivative_left(fsub, alpha).values
    Dg = weyl_derivative_right(gsub, 1.0 - alpha).values
    return _pairing_quadrature(Du * Dg, fsub.h, alpha)


def stieltjes_integral(f: GridFunction, g: GridFunction, alpha,
                       c: float | None = None, d: float | None = None) -> float:
    """int_c^d f dg for grid-aligned [c, d] inside the common grid of f, g."""
    a = order_value(alpha)
    _check_compatible(f, g)
    c = f.a if c is None else float(c)
    d = f.b if d is None else float(d)
    ic = _aligned_index(f, c, "c")
    i_d = _aligned_index(f, d, "d")
    if ic >= i_d:
        raise GridError(f"need c < d, got ({c}, {d})")
    fv = f.values[ic:i_d + 1]
    gv = g.values[ic:i_d + 1]
    pairing = _pairing_value(fv, gv, c, d, a)
    return PAIRING_SIGN * pairing + float(fv[0]) * float(gv[-1] - gv[0])


@dataclass(frozen=True, eq=False)
class SliceOperator:
    """u -> int_0^xi u dg at every node, for one integrator slice g on the
    unit grid: read-only copies of g's values, of column 1 and of the
    subdiagonal of its pair matrix D, the step h, the order alpha and
    Lambda_alpha(g).  Below ``_FFT_MIN_N`` cells it keeps D, read-only;
    from there on ``pair_matrix`` is None and the sweep convolves."""

    values: np.ndarray
    h: float
    alpha: float
    lam: float
    column: np.ndarray
    subdiagonal: np.ndarray
    pair_matrix: np.ndarray | None


def slice_operator(values: np.ndarray, alpha) -> SliceOperator:
    """Build the operator of one integrator slice on the unit grid; D is
    built once and, from ``_FFT_MIN_N`` cells on, dropped after use."""
    a = order_value(alpha)
    g = np.array(values, dtype=float)
    n = g.size - 1
    D = norms.right_derivative_pair_matrix(g, 1.0 / n, a)
    column, subdiagonal = D[:, 1].copy(), np.diagonal(D, -1).copy()
    for arr in (g, column, subdiagonal, D):
        arr.setflags(write=False)
    return SliceOperator(g, 1.0 / n, a, norms.lambda_from_pair_matrix(D, a),
                         column, subdiagonal, D if n < _FFT_MIN_N else None)


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
    The left-derivative field of each row is computed once and contracted
    with the pair matrix, one band of rows [i0, i1) at a time against the
    columns j < i1 - 1 only, since D[i, j] = 0 for j >= i, or from
    ``_FFT_MIN_N`` cells on by convolutions; the trapezoid end corrections
    are O(n) vector terms.
    """
    u = np.asarray(u, dtype=float)
    rows = u.reshape(-1, u.shape[-1])
    return _contract(_left_fields(rows, op), rows, op).reshape(u.shape)


def _left_fields(rows: np.ndarray, op: SliceOperator) -> np.ndarray:
    """Left Weyl derivative of each row minus its base value, on [0, 1]:
    one call on the whole stack, whose rows are bitwise one-row calls; a
    single row goes as one slice, which skips the stack's per-row loop."""
    if rows.shape[1] != op.values.size:
        raise GridError("the integrand must live on the operator's grid")
    f = GridFunction._adopt(0.0, 1.0, rows[0] if rows.shape[0] == 1 else rows)
    return weyl_derivative_left(f, op.alpha).values.reshape(rows.shape)


def _convolved_rowsums(Du: np.ndarray, op: SliceOperator) -> np.ndarray:
    """sum_{j<i} Du_j D[i, j] at every node i, by the causal convolutions of
    ``_pair_kernels``: (Du w * K)_i - w_i (Du * K)_i plus the prefix sum over
    p < i of (Du w * sC)_p - w_p (Du * sC)_p, with w the slice centered at
    its mid-range, as D holds differences of values only."""
    g = op.values
    w = g - 0.5 * (g.max() + g.min())
    y = _convolve(np.stack((Du * w, Du), axis=1), _pair_kernels, op.alpha)
    y = y[:, :, 0] - w * y[:, :, 1]
    rowsum = y[0]
    rowsum[:, 1:] += np.cumsum(y[1, :, :-1], axis=1)
    return rowsum


def _contract(Du: np.ndarray, rows: np.ndarray, op: SliceOperator) -> np.ndarray:
    """Integrals up to every node of the stacked ``rows`` against the slice
    of ``op``, from their left-derivative fields ``Du``."""
    D, g, a = op.pair_matrix, op.values, op.alpha
    if D is None:
        rowsum = _convolved_rowsums(Du, op)
    else:
        # the pair matrix is zero for j >= i, so each band of rows meets
        # only the columns left of its last row
        rowsum = np.zeros_like(Du)
        for i0, i1 in norms._row_bands(rows.shape[1] - 1):
            np.einsum("sj,ij->si", Du[:, :i1 - 1], D[i0:i1, :i1 - 1],
                      out=rowsum[:, i0:i1])
    first = op.column * Du[:, 1:2]
    last = np.zeros_like(rowsum)
    last[:, 1:] = op.subdiagonal * Du[:, :-1]
    trap = rowsum - 0.5 * (first + last) + first / (2.0 - a) + last / (1.0 + a)
    trap[:, :2] = 0.0
    out = PAIRING_SIGN * op.h * trap + rows[:, :1] * (g - g[0])
    if not np.isfinite(out).all():
        bad = int(np.argwhere(~np.isfinite(out))[0][-1])
        raise GridError(f"non-finite pathwise integral at node {bad}")
    return out


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
    """Compare int_c^d f dg with the indicator-embedded integral on [a, b].

    The indicator is applied at node level (nodes with c <= x_i <= d keep
    f, all others are zeroed), so for (c, d) = (a, b) both sides are the
    same computation and the gap is exactly zero.
    """
    a = order_value(alpha)
    _check_compatible(f, g)
    direct = stieltjes_integral(f, g, a, c, d)
    ind = ((f.nodes >= c - 1e-12) & (f.nodes <= d + 1e-12)).astype(float)
    embedded = stieltjes_integral(f.with_values(f.values * ind), g, a)
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

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "holds": self.holds,
                "margin": self.margin, "lambda": self.lam, "f_norm": self.f_norm}


_BOUND_SLACK = 1e-6


def _bound_report(u: GridFunction, ops, lam: float) -> BoundReport:
    """max over the slices of ``ops`` and over xi of |int_0^xi u dg| against
    lam ||u||_{alpha,1}; the left derivative of u is computed once."""
    if abs(u.a) > 1e-12 or abs(u.b - 1.0) > 1e-12:
        raise GridError("the bound is checked for u on the unit grid")
    rows = u.values[None, :]
    Du = _left_fields(rows, ops[0])
    lhs = max(float(np.abs(_contract(Du, rows, op)).max()) for op in ops)
    f_norm = norms.norm_alpha_1(GridFunction(0.0, 1.0, u.values), ops[0].alpha)
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
