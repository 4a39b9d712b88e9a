"""Seedable fractional Brownian motion paths and driving fields.

Paths are generated by Davies-Harte circulant embedding of the fractional
Gaussian noise covariance (O(n log n)); the embedding of the fGn
covariance is nonnegative for every H in (0, 1), and a negative eigenvalue
raises.  The square roots of its eigenvalues are computed once per (H, n)
and cached read-only, so a path costs one inverse FFT of fresh noise.  A
fixed seed determines the output bit-for-bit; ensemble member k draws from
the split stream ``SeedSequence((seed, k))``; no entry may be negative.

The equation's driver g is a function of the space variable xi; the model
does not pin down a law in time, so two constructions are provided: the
canonical ``frozen`` driver (one spatial path, ``field_from_path``, with no
time axis) and a clearly non-canonical fractional sheet g(t, xi) for
experiments (``driving_field``), on the time grid of its ``FbmConfig``.
Smooth deterministic stubs are first-class drivers for oracle tests.

A ``DrivingField`` is its slice operators (``stieltjes.SliceOperator``),
built once: a time-constant driver is one operator, which serves any time
grid over its spatial grid; a sheet is m+1 operators over its own grid of
[0, T], built one slice at a time, so beside them it holds one transient
pair matrix at most and never the (m+1)(n+1) field of its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import norms
from .grids import GridError, GridFunction, check_grid, order_value
from .stieltjes import SliceOperator, slice_operator

__all__ = [
    "FbmConfig",
    "DrivingField",
    "check_seeds",
    "fbm_path",
    "fbm_covariance",
    "increment_covariance",
    "driving_field",
    "stub_driving_field",
    "field_from_path",
    "covariance_validator",
    "CovarianceReport",
]

_SHEET_MAX_TIME_NODES = 64
# |z| above which the covariance validator flags an entry
_Z_LIMIT = 4.0
STUB_KINDS = {"zero": (), "linear": ("scale",), "quadratic": ("scale",),  # kind: params
              "sine": ("k", "amplitude")}


def check_seeds(seeds) -> tuple:
    """A seed and its split-stream entries as ints; a negative one is refused."""
    seeds = tuple(int(s) for s in seeds)
    if min(seeds) < 0:
        raise GridError(f"seeds must be >= 0, got {seeds}")
    return seeds


def _rng(seed: int, stream: tuple = ()) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(check_seeds((seed, *stream))))


def fbm_covariance(hurst: float, s, t):
    """R_H(s, t) = (|s|^2H + |t|^2H - |t-s|^2H) / 2."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * (np.abs(s) ** two_h + np.abs(t) ** two_h - np.abs(t - s) ** two_h)


def increment_covariance(hurst: float, lags) -> np.ndarray:
    """Autocovariance of unit-spacing fractional Gaussian noise."""
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k ** two_h + np.abs(k - 1.0) ** two_h)


def _circulant_root(c: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of the circulant embedding of the
    autocovariance c[0..n]; a negative eigenvalue raises."""
    row = np.concatenate([c, c[-2:0:-1]])  # circulant first row, length 2n
    eig = np.fft.fft(row).real
    if eig.min() < -1e-8 * max(eig.max(), 1.0):
        raise RuntimeError(
            f"circulant embedding of the fGn covariance has a negative eigenvalue "
            f"{eig.min()}; this indicates a bug")
    return np.sqrt(np.clip(eig, 0.0, None))


@lru_cache(maxsize=16)
def _fgn_root(hurst: float, n: int) -> np.ndarray:
    """Read-only ``_circulant_root`` of unit fGn at n variates."""
    root = _circulant_root(increment_covariance(hurst, np.arange(n + 1)))
    root.setflags(write=False)
    return root


def _fgn_sample(root: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Gaussian variates with the circulant spectrum whose roots are ``root``."""
    z = np.empty(2 * n, dtype=complex)
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    uv = rng.standard_normal((n - 1, 2))
    z[1:n] = (uv[:, 0] + 1j * uv[:, 1]) / math.sqrt(2.0)
    z[n + 1:] = np.conj(z[1:n][::-1])
    return math.sqrt(2 * n) * np.fft.ifft(root * z).real[:n]


def fractional_gaussian_noise(hurst: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n unit-spacing fGn variates by circulant embedding, with the spectrum
    cached per (hurst, n)."""
    if not 0.0 < hurst < 1.0:
        raise GridError(f"Hurst parameter must lie in (0, 1), got {hurst}")
    if hurst == 0.5:
        return rng.standard_normal(n)
    return _fgn_sample(_fgn_root(float(hurst), n), n, rng)


def fbm_path(hurst: float, n: int, seed: int, stream: tuple = ()) -> GridFunction:
    """One FBM path on [0, 1] sampled at n+1 nodes, B(0) = 0.

    Increments are stationary centered Gaussians with
    Var(B(x+d) - B(x)) = d^(2H); the seed (plus optional split stream)
    fully determines the output.
    """
    if n < 2:
        raise GridError(f"need n >= 2 nodes per cell count, got {n}")
    fgn = fractional_gaussian_noise(hurst, n, _rng(seed, stream))
    values = np.concatenate([[0.0], np.cumsum(fgn)]) * (1.0 / n) ** hurst
    return GridFunction(values)


@dataclass(frozen=True)
class FbmConfig:
    """A fractional sheet: spatial Hurst ``hurst`` on n cells of [0, 1] and
    temporal Hurst ``hurst_t`` in [0.9, 1) on m <= 64 cells of [0, T] (dense
    temporal Cholesky), from ``seed`` and its split ``stream``; the sampler
    checks the Hurst parameter and the seeds of every path."""

    hurst: float
    n: int
    m: int
    T: float
    seed: int
    hurst_t: float = 0.95
    stream: tuple = ()

    def __post_init__(self):
        if self.m > _SHEET_MAX_TIME_NODES:
            raise GridError(f"sheet model limited to m <= {_SHEET_MAX_TIME_NODES} time "
                            f"cells (dense temporal Cholesky), got m={self.m}")
        if not 0.9 <= self.hurst_t < 1.0:
            raise GridError(f"temporal Hurst must lie in [0.9, 1), got {self.hurst_t}")


@dataclass(frozen=True)
class DrivingField:
    """A driver g with its realized integrator functional and Hoelder norm.

    Satisfies g(t, 0) = 0 for all t.  ``slices`` holds the integration
    operator of every distinct time slice, built once so that Picard
    iterations never re-quadrature: one for a time-constant driver, one
    per node of the grid of m cells of [0, T] otherwise, with ``T`` its
    horizon (None for a time-constant driver).  The operators are built
    one slice at a time, and from ``frac_calc._FFT_MIN_N`` cells on each
    keeps O(n) data, not its pair matrix.
    """

    slices: tuple = dc_field(repr=False, compare=False)
    lambda_value: float
    holder_norm: float
    T: float | None = None

    @property
    def alpha(self) -> float:
        return self.slices[0].alpha

    @property
    def time_constant(self) -> bool:
        return len(self.slices) == 1

    def time_slice(self, t_index: int) -> SliceOperator:
        """The operator of time slice ``t_index``; a time-constant driver
        answers every index with its one slice."""
        return self.slices[0 if self.time_constant else t_index]


def _finish_field(rows, alpha: float, T: float | None = None) -> DrivingField:
    """The driver of the slices ``rows``: one, or the m+1 of a sheet over [0, T]."""
    if not np.all(rows[:, 0] == 0.0):
        raise GridError("driving field must satisfy g(t, 0) = 0")
    ops = tuple(slice_operator(row, alpha) for row in rows)
    lam = max(op.lam for op in ops)
    hnorm = max(norms.norm_1malpha_infty0(row, alpha) for row in rows)
    if not (np.isfinite(lam) and np.isfinite(hnorm)):
        raise GridError("realized driver functionals are non-finite")
    return DrivingField(ops, lam, hnorm, T)


def driving_field(cfg: FbmConfig, alpha) -> DrivingField:
    """The sheet of ``cfg``: a time-correlated mixture of iid spatial paths."""
    check_grid(cfg.m, cfg.n, cfg.T)
    t = np.linspace(0.0, cfg.T, cfg.m + 1)[1:]
    cov_t = fbm_covariance(cfg.hurst_t, t[:, None], t[None, :])
    L = np.linalg.cholesky(cov_t + 1e-14 * np.eye(cfg.m))
    paths = np.stack([
        fbm_path(cfg.hurst, cfg.n, cfg.seed, cfg.stream + (k,)).values
        for k in range(cfg.m)])
    vals = np.zeros((cfg.m + 1, cfg.n + 1))
    # einsum calls no BLAS, so the bits do not depend on the BLAS thread count
    vals[1:] = np.einsum("tk,kj->tj", L, paths)
    return _finish_field(vals, order_value(alpha), float(cfg.T))


def field_from_path(path: GridFunction, alpha) -> DrivingField:
    """Frozen driver built from an explicit spatial path with g(0) = 0: the
    one operator of the path's slice."""
    return _finish_field(path.values[None], order_value(alpha))


def stub_driving_field(kind: str, n: int, alpha, **params) -> DrivingField:
    """Deterministic time-constant drivers for oracle testing.

    kinds: zero, linear (scale*xi), quadratic (scale*xi^2),
    sine (amplitude*sin(k*pi*xi)).
    """
    xi = np.linspace(0.0, 1.0, n + 1)
    if kind == "zero":
        row = np.zeros(n + 1)
    elif kind == "linear":
        row = params.get("scale", 1.0) * xi
    elif kind == "quadratic":
        row = params.get("scale", 0.5) * xi ** 2
    elif kind == "sine":
        k = params.get("k", 1)
        row = params.get("amplitude", 1.0) * np.sin(np.multiply(k, math.pi) * xi)
    else:
        raise GridError(f"unknown stub kind {kind!r}; choose from {tuple(STUB_KINDS)}")
    return field_from_path(GridFunction(row), alpha)


@dataclass
class CovarianceReport:
    """The Monte-Carlo check of the fBm law (fbm_validation.json): ``samples``
    paths of n cells at Hurst parameter ``hurst``; one entry per checked
    statistic with its kind, nodes, expected and observed value and z-score;
    the largest |z|, and ``passed`` when it is at most 4."""

    hurst: float
    n: int
    samples: int
    entries: list
    max_abs_z: float
    passed: bool


def covariance_validator(hurst: float, samples: int, seed: int,
                         n: int = 64) -> CovarianceReport:
    """Monte-Carlo check of the FBM law against its analytic covariance.

    Generates ``samples`` independent paths (split streams of ``seed``) and
    z-scores the empirical covariances, increment variances and disjoint
    increment products on a coarse node subset.  Any |z| > 4 is flagged.
    """
    if samples < 10 ** 3:
        raise GridError(f"validator needs at least 1000 samples, got {samples}")
    sel = sorted({max(1, n // 8), n // 4, n // 2, 3 * n // 4, n})
    paths = np.empty((samples, n + 1))
    for s in range(samples):
        paths[s] = fbm_path(hurst, n, seed, (s,)).values
    xi = np.linspace(0.0, 1.0, n + 1)
    entries = []

    def z_entry(kind, i, j, expected, data):
        mean = float(data.mean())
        se = float(data.std(ddof=1)) / math.sqrt(samples)
        z = (mean - expected) / se if se > 0 else 0.0
        entries.append({"kind": kind, "i": float(i), "j": float(j),
                        "expected": float(expected), "observed": mean,
                        "z": float(z)})

    for ia in sel:
        for ib in sel:
            if ib < ia:
                continue
            z_entry("covariance", xi[ia], xi[ib],
                    fbm_covariance(hurst, xi[ia], xi[ib]),
                    paths[:, ia] * paths[:, ib])
    lags = sorted({1, max(1, n // 8), max(1, n // 4)})
    offsets = [0, n // 2]
    for lag in lags:
        for off in offsets:
            d = paths[:, off + lag] - paths[:, off]
            sigma2 = (lag / n) ** (2.0 * hurst)
            var = float(d.var(ddof=1))
            se = sigma2 * math.sqrt(2.0 / (samples - 1))
            entries.append({"kind": "increment_var", "i": xi[off], "j": lag / n,
                            "expected": sigma2, "observed": var,
                            "z": (var - sigma2) / se})
    # disjoint increments: independent exactly when H = 1/2
    qa, qb = n // 4, n // 2
    qc, qd = 3 * n // 4, n
    d1 = paths[:, qb] - paths[:, qa]
    d2 = paths[:, qd] - paths[:, qc]
    expected = (fbm_covariance(hurst, xi[qb], xi[qd]) - fbm_covariance(hurst, xi[qb], xi[qc])
                - fbm_covariance(hurst, xi[qa], xi[qd]) + fbm_covariance(hurst, xi[qa], xi[qc]))
    z_entry("disjoint_increments", xi[qa], xi[qc], expected, d1 * d2)

    max_abs_z = max(abs(e["z"]) for e in entries)
    return CovarianceReport(hurst, n, samples, entries, max_abs_z,
                            max_abs_z <= _Z_LIMIT)
