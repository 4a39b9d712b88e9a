"""Reference operators that only the tests call.

Each is an independent route to a quantity the package computes another
way: the Riemann-Liouville integrals (the Abel inverse of the Weyl
derivative), the pairing sign recomputed from the f = g = x case, Lambda_alpha
over a whole field, and the Davies-Harte sampler without the cached
spectrum.  They read the package's private weight tables and helpers, so
their bits are those the package would give; none of them is run by a
``fracpath`` command.
"""

import math

import numpy as np

from fracpath.fbm import _circulant_root, _fgn_sample
from fracpath.frac_calc import _finite_values, _hat_moments
from fracpath.grids import GridFunction, SpaceTimeField, order_value
from fracpath.norms import lambda_from_pair_matrix, right_derivative_pair_matrix
from fracpath.stieltjes import _pairing_value


def _integral_weights(n: int, alpha: float):
    """Convolution kernel C and boundary correction A for the left integral."""
    A, B = _hat_moments(alpha, n)
    C = A + B
    C[0] = A[0]
    return C, A


def rl_integral_left(f: GridFunction, alpha) -> GridFunction:
    """Left-sided fractional integral of order alpha.

    Node i receives (1/Gamma(alpha)) int_a^{x_i} f(y) (x_i - y)^(alpha-1) dy,
    with the integrable singularity handled by piecewise-linear product
    integration; the result is exact whenever f is piecewise linear.
    """
    a = order_value(alpha)
    v = _finite_values(f)
    n = f.n
    C, A = _integral_weights(n, a)
    conv = np.convolve(C, v)[: n + 1]
    out = (f.h ** a / math.gamma(a)) * (conv - A * v[0])
    out[0] = 0.0
    return f.with_values(out)


def rl_integral_right(f: GridFunction, alpha) -> GridFunction:
    """Right-sided fractional integral (real convention, phase dropped)."""
    return rl_integral_left(f.reflected(), alpha).reflected()


def calibrate_pairing_sign(n: int = 256, alpha: float = 0.3) -> float:
    """Recompute the global pairing sign from the f = g = x smooth case."""
    x = np.linspace(0.0, 1.0, n + 1)
    raw = _pairing_value(x, x, 0.0, 1.0, alpha)
    if abs(abs(raw) - 0.5) > 0.05:
        raise RuntimeError(f"pairing calibration off: raw value {raw}")
    return float(np.sign(0.5 / raw))


def lambda_alpha(g: SpaceTimeField, alpha) -> float:
    """sup over times and pairs eta < xi of |D^{1-alpha}_{xi-} g_{xi-}(eta)|,
    divided by Gamma(1-alpha)."""
    a = order_value(alpha)
    return max(lambda_from_pair_matrix(right_derivative_pair_matrix(row, g.h, a), a)
               for row in g.values)


def fgn_davies_harte(c: np.ndarray, n: int, rng: np.random.Generator):
    """n variates with autocovariance c[0..n] by circulant embedding."""
    return _fgn_sample(_circulant_root(c), n, rng)
