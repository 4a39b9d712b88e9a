"""Reference operators that only the tests call.

Each is an independent route to a quantity the package computes another
way: the Riemann-Liouville integrals (the Abel inverse of the Weyl
derivative), the Weyl derivative by the mid-range-centred Marchaud
difference, the Stieltjes sweep with its trapezoid ends applied to the
unfolded pair matrix and its folded weights as per-pair factors, the
pairing sign recomputed from the f = g = x case, Lambda_alpha over a stack
of slices, the Davies-Harte sampler without the cached spectrum, the
fixed-point operator F one field and one row at a time, and the random
probe data as sums of one mode at a time.  They read the package's
private weight tables and helpers, so their bits are those the package
would give; none of them is run by a ``fracpath`` command.  The one
exception is the chain-rule solution of the equation on a frozen driver
(``chain_rule_solution``): an exact reference in numpy alone.
"""

import math

import numpy as np

from fracpath.fbm import _circulant_root, _fgn_sample
from fracpath.frac_calc import _difference_weights, _hat_moments
from fracpath.grids import GridError, GridFunction, SpaceTimeField, order_value
from fracpath.norms import _row_bands, lambda_from_pair_matrix, right_derivative_pair_matrix
from fracpath.sampling import _FIELD_MODES, _GRID_MODES
from fracpath.solver import _check_driver
from fracpath.stieltjes import PAIRING_SIGN, _pairing_value, stieltjes_all_upper_limits


def _integral_weights(n: int, alpha: float):
    """Convolution kernel C and boundary correction A for the left integral."""
    A, B = _hat_moments(alpha, n)
    C = A + B
    C[0] = A[0]
    return C, A


def rl_integral_left(values, alpha, a: float = 0.0, b: float = 1.0) -> np.ndarray:
    """Left-sided fractional integral of order alpha of the slice ``values``
    on the uniform grid of [a, b].

    Node i receives (1/Gamma(alpha)) int_a^{x_i} f(y) (x_i - y)^(alpha-1) dy,
    with the integrable singularity handled by piecewise-linear product
    integration; the result is exact whenever f is piecewise linear.
    """
    order = order_value(alpha)
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    C, A = _integral_weights(n, order)
    conv = np.convolve(C, v)[: n + 1]
    out = (((b - a) / n) ** order / math.gamma(order)) * (conv - A * v[0])
    out[0] = 0.0
    return out


def rl_integral_right(values, alpha, a: float = 0.0, b: float = 1.0) -> np.ndarray:
    """Right-sided fractional integral (real convention, phase dropped)."""
    return rl_integral_left(np.asarray(values, dtype=float)[::-1], alpha, a, b)[::-1]


def marchaud_difference(values: np.ndarray, alpha: float) -> np.ndarray:
    """int_0^{x_i} (f(x_i) - f(y)) / (x_i - y)^(alpha+1) dy at every node of
    one slice on [0, 1], by the package's difference weights applied by
    direct ``np.convolve`` at every n to the slice centred at its mid-range:
    only differences enter, so the shift is exact and keeps an offset from
    cancelling."""
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    C, A, rowsum = _difference_weights(n, alpha)
    w = v - 0.5 * (v.max() + v.min())
    out = (w * rowsum - (np.convolve(C, w)[:n + 1] - A * w[0])) * (1.0 / n) ** (-alpha)
    out[0] = 0.0
    return out


def weyl_derivative_left(values, alpha) -> np.ndarray:
    """Left Weyl derivative of f - f(0) on [0, 1] by its Marchaud form,
    ((f(x) - f(0)) / x^alpha + alpha (centred Marchaud difference))
    / Gamma(1 - alpha), 0 at x = 0."""
    a = order_value(alpha)
    v = np.asarray(values, dtype=float)
    diff = marchaud_difference(v, a)
    x = np.linspace(0.0, 1.0, v.size)
    out = np.zeros(v.shape)
    out[1:] = ((v[1:] - v[0]) / x[1:] ** a + a * diff[1:]) / math.gamma(1.0 - a)
    return out


def trapezoid_sweep(Du: np.ndarray, rows: np.ndarray, g: np.ndarray, D: np.ndarray,
                    alpha: float) -> np.ndarray:
    """int_0^xi u dg at every node for the stacked ``rows`` (k, n+1) against
    the slice g with pair matrix D, from the rows' left-derivative fields
    ``Du``: D contracted band by band (``norms._row_bands``), then the
    trapezoid end corrections of column 1 and the subdiagonal, the sign and
    h applied to the sums in one expression."""
    n = g.size - 1
    rowsum = np.zeros_like(Du)
    for i0, i1 in _row_bands(n):
        np.einsum("sj,ij->si", Du[:, :i1 - 1], D[i0:i1, :i1 - 1], out=rowsum[:, i0:i1])
    first = D[:, 1] * Du[:, 1:2]
    last = np.zeros_like(rowsum)
    last[:, 1:] = np.diagonal(D, -1) * Du[:, :-1]
    trap = rowsum - 0.5 * (first + last) + first / (2.0 - alpha) + last / (1.0 + alpha)
    trap[:, :2] = 0.0
    return PAIRING_SIGN * (1.0 / n) * trap + rows[:, :1] * (g - g[0])


def calibrate_pairing_sign(n: int = 256, alpha: float = 0.3) -> float:
    """Recompute the global pairing sign from the f = g = x smooth case."""
    x = np.linspace(0.0, 1.0, n + 1)
    raw = _pairing_value(x, x, alpha)
    if abs(abs(raw) - 0.5) > 0.05:
        raise RuntimeError(f"pairing calibration off: raw value {raw}")
    return float(np.sign(0.5 / raw))


def lambda_alpha(rows, alpha) -> float:
    """sup over the slices ``rows`` and pairs eta < xi of
    |D^{1-alpha}_{xi-} g_{xi-}(eta)|, divided by Gamma(1-alpha)."""
    a = order_value(alpha)
    return max(lambda_from_pair_matrix(right_derivative_pair_matrix(row, a), a)
               for row in rows)


def fgn_davies_harte(c: np.ndarray, n: int, rng: np.random.Generator):
    """n variates with autocovariance c[0..n] by circulant embedding."""
    return _fgn_sample(_circulant_root(c), n, rng)


def apply_F(Y: SpaceTimeField, phi: GridFunction, coeff, driver, alpha) -> SpaceTimeField:
    """One application of the fixed-point operator to one field: the inner
    integral int_0^xi A(Y) dg of each row against its own driver slice, one
    row per sweep, then phi plus the trapezoid integral in time."""
    _check_driver(driver, order_value(alpha), Y.m, Y.n, Y.T)
    if phi.n != Y.n:
        raise GridError("phi must live on the field's spatial grid")
    V = np.array([stieltjes_all_upper_limits(coeff(y), driver.time_slice(j))
                  for j, y in enumerate(Y.values)])
    out = np.empty_like(V)
    out[0] = phi.values
    out[1:] = phi.values + np.cumsum(0.5 * (Y.T / Y.m) * (V[1:] + V[:-1]), axis=0)
    return SpaceTimeField(Y.T, out)


def chain_rule_solution(g: np.ndarray, psi, A, m: int, T: float,
                        dx: float = 2.0 ** -14, tol: float = 1e-15) -> np.ndarray:
    """Y(t_j, xi_i) of Y = psi(g) + int_0^t int_0^xi A(Y) dg ds against one
    frozen driver slice g with g(0) = 0, at the m + 1 time nodes of [0, T].

    For the piecewise-linear interpolant of g the chain rule is exact:
    int_0^xi F(g) dg = int_0^{g(xi)} F(y) dy.  So Y(t, xi) = f(t, g(xi))
    with f(t, x) = psi(x) + int_0^t int_0^x A(f(s, y)) dy ds, which is
    solved on a grid of step ``dx`` over the range of g, with 0 a node:
    the inner integral by the cumulative trapezoid rule and time by the
    implicit trapezoid rule, each step by Picard iteration to ``tol``.
    f is then interpolated linearly at g(xi_i).  Uses numpy only.
    """
    lo = math.floor(g.min() / dx) - 1
    x = dx * np.arange(lo, math.ceil(g.max() / dx) + 2)
    dt = T / m

    def inner(F):
        c = np.concatenate(([0.0], np.cumsum(0.5 * dx * (F[1:] + F[:-1]))))
        return c - c[-lo]

    f = psi(x)
    out = [np.interp(g, x, f)]
    for _ in range(m):
        known = f + 0.5 * dt * inner(A(f))
        new = f
        for _ in range(100):
            prev, new = new, known + 0.5 * dt * inner(A(new))
            if np.abs(new - prev).max() <= tol:
                break
        else:
            raise RuntimeError("chain-rule Picard iteration did not converge")
        f = new
        out.append(np.interp(g, x, f))
    return np.array(out)


def random_trig_grid(n: int, rng: np.random.Generator) -> GridFunction:
    """``sampling.random_trig_grid`` as a sum of one mode at a time."""
    x = np.linspace(0.0, 1.0, n + 1)
    k = np.arange(1, _GRID_MODES + 1)
    amps = rng.standard_normal(_GRID_MODES) / k ** 1.5
    v = sum(amps[i] * np.sin(k[i] * np.pi * x) for i in range(_GRID_MODES))
    return GridFunction(v + rng.standard_normal())


def random_smooth_field(m: int, n: int, T: float,
                        rng: np.random.Generator) -> SpaceTimeField:
    """``sampling.random_smooth_field`` as a sum of one mode at a time."""
    t = np.linspace(0.0, T, m + 1)[:, None]
    xi = np.linspace(0.0, 1.0, n + 1)[None, :]
    k = np.arange(1, _FIELD_MODES + 1)
    a = rng.standard_normal(_FIELD_MODES) / k ** 2
    b = rng.standard_normal(_FIELD_MODES) / k ** 2
    c0 = rng.standard_normal()
    tt = t / T if T > 0 else t
    vals = c0 + sum((a[i] + b[i] * tt) * np.sin(k[i] * np.pi * xi)
                    for i in range(_FIELD_MODES))
    return SpaceTimeField(T, np.broadcast_to(vals, (m + 1, n + 1)).copy())
