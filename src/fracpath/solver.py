"""Windowed Picard solver for Y(t,xi) = phi(xi) + int_0^t int_0^xi A(Y) dg ds.

The fixed-point operator F evaluates the inner pathwise integral with the
integration operator of each driver slice (``stieltjes.SliceOperator``,
built once with the driver) and the outer time integral with the trapezoid
rule, in its output array.  One loop (``_apply_window``) serves both
driver kinds, on one field or a stack of fields: rows that share a slice
(every row on a time-constant driver, one time row of each field on a
sheet) are swept in stacks of at most ``_SWEEP_ROWS`` rows, so a sweep's
scratch stays one band.  Row 0 of every window iterate is the window's
start slice, so its inner integral is taken once per window; on a
time-constant driver it is also every row of the first iterate's inner
integral, and that iterate needs no sweep.  A window's residual norm goes in the same bands, from
the last, carrying one pruning floor across them
(``norms.max_slice_norm``).

Local existence windows are sized from the explicitly computed proof
constants: the run set (alpha, Lambda_alpha, M1, M2, b1..b3, K) once per
solve, and the window set (R1, M_N(R1), b4, b5, T1, T2, T0) once per
window from the norm of its start slice, which continuation re-anchors.
The Gronwall envelope reads the run set and window 0's ||phi||, the
probes window 0's set.  Every inequality the analysis asserts is
re-checked numerically and reported.  Every entry point checks that the
driver was prepared for its order alpha; a time-constant driver serves
any time grid over its spatial grid, so the probes apply the solve's own
driver to their short probe windows, and a sheet serves only its own
grid.  Each probe draws its random fields and applies F to all of them
through the same window sweep, as one field stack: the ball check to its
trials, ``contraction_probe`` (the solve's spot check and ``verify
contraction``) to its field pairs.

What a solve holds: the solution once (``solve`` writes Y window by window
and the report holds that array itself, read-only); the driver, one
operator per distinct slice (from 512 cells on O(n) data, below it also
the (n+1)^2 pair matrix); at most three window-sized arrays (the iterate,
its inner integrals and its image during a sweep; the iterate and its
image during the residual norm, which forms each band's difference in its
step), plus one band of scratch of the sweep and the norm, and a record of
about 1 kB per window.  The Gronwall running norms go ``_SWEEP_ROWS`` rows
at a time, so no copy of the solution is stacked.  A driver build forms the pair matrix D of each
distinct slice once, and from 512 cells on drops it after the build; that
transient matrix sets the peak of a short large-n solve (8.4 MB at
n = 1024, 134 MB at n = 4096).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grids, norms
from .coefficients import CoefficientFunction
from .fbm import DrivingField
from .frac_calc import _SWEEP_ROWS, beta_b1
from .grids import GridError, GridFunction, check_solver_order
from .sampling import random_smooth_field
from .stieltjes import SliceOperator, stieltjes_all_upper_limits

__all__ = [
    "SolverConfig",
    "RunConstants",
    "WindowConstants",
    "WindowRecord",
    "SolverReport",
    "run_constants",
    "compute_constants",
    "solve",
    "contraction_probe",
    "ball_invariance_check",
    "gronwall_check",
    "quadruple_inequality_check",
]

_REL_SLACK = 1e-6
WINDOW_POLICIES = ("paper-constants", "adaptive")
# time cells of the random fields drawn by the ball and contraction probes
PROBE_TIME_CELLS = 4
# the contraction level b5 T2 that sizes the T2 window
CONTRACTION_TARGET = 0.5
# trials of each spot probe of ``solve``, and the seed they draw from
VERIFICATION_TRIALS = 5
VERIFICATION_SEED = 0


@dataclass(frozen=True)
class SolverConfig:
    """One solve: the order ``alpha`` and Hurst parameter in the window
    1 - H < alpha < 1/2, the grid of m time cells of [0, T], the initial
    slice ``phi`` on [0, 1], whose n cells are the spatial grid, the
    coefficient A, the Picard tolerance and iteration cap per window, and
    the window policy ("paper-constants" sizes every window from T0,
    "adaptive" resizes from the last window's contraction ratio)."""

    alpha: float
    hurst: float
    m: int
    T: float
    phi: GridFunction
    coeff: CoefficientFunction
    picard_tol: float = 1e-9
    max_iterations: int = 60
    window_policy: str = "paper-constants"

    def __post_init__(self):
        check_solver_order(self.alpha, self.hurst)
        if self.window_policy not in WINDOW_POLICIES:
            raise GridError(f"unknown window policy {self.window_policy!r}")
        grids.check_grid(self.m, self.n, self.T)
        if self.max_iterations < 1 or not 0 < self.picard_tol < math.inf:
            raise GridError("need max_iterations >= 1 and a finite picard_tol > 0")

    @property
    def n(self) -> int:
        return self.phi.n

    @property
    def dt(self) -> float:
        return self.T / self.m

    def phi_norm(self) -> float:
        return norms.slice_norm_alpha_infty(self.phi.values, self.alpha)


@dataclass(frozen=True)
class RunConstants:
    """The proof constants that do not depend on the initial slice, once
    per solve: alpha, the realized sup Lambda_alpha(g), M1, M2, b1..b3 (b3 =
    max(1, b1) = b1, as b1 = B(2 alpha, 1 - alpha) > 1 on (0, 1/2)), the
    Gronwall exponent K (b2 by construction) and the level b5 T2."""

    alpha: float
    lam: float
    m1: float
    m2: float
    b1: float
    b2: float
    b3: float
    gronwall_k: float
    contraction_target: float


@dataclass(frozen=True)
class WindowConstants:
    """The constants of one window, from the norm of its start slice:
    R1, M_N(R1), b4, b5 (the full contraction prefactor, with Lambda_alpha
    and b3) and the window lengths T1, T2, T0."""

    phi_norm: float
    r1: float
    mn_r1: float
    b4: float
    b5: float
    t1: float
    t2: float
    t0: float


def _check_finite(coeff: CoefficientFunction, constants, where: str = ""):
    """OverflowError naming the coefficient at the first (name, value) past float64."""
    for name, value in constants:
        if not math.isfinite(value):
            raise OverflowError(f"coefficient {coeff.name} gives the proof constant "
                                f"{name} = {value}{where}")


def run_constants(alpha: float, coeff: CoefficientFunction, lam: float) -> RunConstants:
    """Evaluate M1, M2, b1..b3 and the Gronwall rate for the order alpha in
    (0, 1/2) and the driver's Lambda_alpha ``lam``; M1, M2 or b2 past float64
    raises OverflowError naming the coefficient."""
    a = float(alpha)
    if not 0.0 < a < 0.5:
        raise GridError(f"constants need alpha in (0, 1/2), got {a}")
    m1, m2 = coeff.lipschitz, coeff.bound
    b1 = beta_b1(a)
    b2 = (m2 * (1.0 / (1.0 - a) + b1 / (1.0 - 2.0 * a))
          + m1 * (1.0 + 1.0 / (a * (1.0 - a)))) * lam
    _check_finite(coeff, (("M1", m1), ("M2", m2), ("b2", b2)))
    return RunConstants(a, lam, m1, m2, b1, b2, max(1.0, b1), b2, CONTRACTION_TARGET)


def compute_constants(run: RunConstants, coeff: CoefficientFunction,
                      phi_norm: float, horizon: float = math.inf) -> WindowConstants:
    """Evaluate R1, M_N(R1), b4, b5 and the window lengths T1, T2, T0 of a
    window whose start slice has the norm ``phi_norm``.

    T1 makes the ball of radius R1 = 2 max(1, ||phi||) invariant (a
    non-finite ||phi|| is refused); T2 scales the contraction factor to
    ``run.contraction_target`` < 1.  Degenerate coefficients
    (A identically 0) make both windows unbounded, in which case the
    configured horizon is returned.  M_N(R1), b4 or b5 past float64 raises
    OverflowError naming the coefficient and R1.
    """
    if not math.isfinite(phi_norm):
        raise GridError(f"constants need a finite ||phi||, got {phi_norm}")
    a = run.alpha
    r1 = 2.0 * max(1.0, phi_norm)
    mn = float(coeff.deriv_lipschitz(r1))
    b4 = (run.m1 + mn) * (1.0 + 2.0 * r1)
    rho = (2.0 - 3.0 * a) / ((1.0 - 2.0 * a) * (1.0 - a))
    b5 = run.lam * run.b3 * b4 * rho
    _check_finite(coeff, (("M_N(R1)", mn), ("b4", b4), ("b5", b5)), f" at R1 = {r1:g}")
    t1 = (r1 - phi_norm) / (run.b2 * (1.0 + r1)) if run.b2 > 0 else horizon
    t2 = run.contraction_target / b5 if b5 > 0 else horizon
    t0 = min(t1, t2)
    if not math.isfinite(t0):
        t0 = horizon
    return WindowConstants(phi_norm, r1, mn, b4, b5, t1, t2, t0)


def _inner_integrals(y_rows: np.ndarray, coeff: CoefficientFunction,
                     op: SliceOperator) -> np.ndarray:
    """int_0^xi A(y) dg at every node for one slice y (n+1,) or a stack of
    slices (k, n+1) against the integrator slice of ``op``."""
    u = coeff(y_rows)
    if not np.isfinite(u).all():
        bad = int(np.argwhere(~np.isfinite(u))[0][-1])
        raise GridError(f"coefficient produced a non-finite value at node {bad}")
    return stieltjes_all_upper_limits(u, op)


def _apply_window(y_window: np.ndarray, phi_values: np.ndarray,
                  coeff: CoefficientFunction, driver: DrivingField,
                  j_start: int, dt: float, v0: np.ndarray | None = None) -> np.ndarray:
    """F restricted to a window: row l maps time node j_start + l.

    ``y_window`` is one field (rows, n+1) or k fields (rows, k, n+1).
    ``v0`` is the inner integral of row 0 when the caller already has it
    (row 0 is phi_w in every Picard iteration of a window).  The rows that
    share one driver slice go through stacked kernel calls of at most
    ``_SWEEP_ROWS`` rows.
    """
    V = np.empty(y_window.shape)
    l0 = 0
    if v0 is not None:
        V[0] = v0
        l0 = 1
    step = y_window.shape[0] if driver.time_constant else 1
    for r0 in range(l0, y_window.shape[0], step):
        op = driver.time_slice(j_start + r0)
        rows = y_window[r0:r0 + step].reshape(-1, y_window.shape[-1])
        out = V[r0:r0 + step].reshape(rows.shape)   # a view: V is contiguous
        for s0 in range(0, len(rows), _SWEEP_ROWS):
            out[s0:s0 + _SWEEP_ROWS] = _inner_integrals(rows[s0:s0 + _SWEEP_ROWS], coeff, op)
    return _time_integral(V, phi_values, j_start, dt)


def _first_iterate(y_window: np.ndarray, phi_values: np.ndarray,
                   coeff: CoefficientFunction, driver: DrivingField,
                   j_start: int, dt: float, v0: np.ndarray) -> np.ndarray:
    """F of a window's first iterate, the flat ``y_window`` = tile(phi_w),
    whose row-0 inner integral is ``v0``.  On a time-constant driver every
    row is phi_w against the same slice, and stacked rows are bitwise
    one-slice calls, so every row of the inner integral is ``v0`` and no
    sweep runs; a sheet driver sweeps each slice as ``_apply_window`` does.
    """
    if not driver.time_constant:
        return _apply_window(y_window, phi_values, coeff, driver, j_start, dt, v0)
    return _time_integral(np.broadcast_to(v0, y_window.shape), phi_values, j_start, dt)


def _time_integral(V: np.ndarray, phi_values: np.ndarray, j_start: int,
                   dt: float) -> np.ndarray:
    """phi plus the trapezoid integral along axis 0 of the inner integrals
    ``V`` of one field or a field stack, whose row l is at time node
    j_start + l."""
    out = np.empty(V.shape)
    out[0] = phi_values
    steps = np.add(V[1:], V[:-1], out=out[1:])   # the sums run in place in out
    steps *= 0.5 * dt
    np.cumsum(steps, axis=0, out=steps)
    steps += phi_values
    if not np.isfinite(out).all():
        bad = np.argwhere(~np.isfinite(out))[0]
        raise GridError(f"non-finite iterate at time node {j_start + int(bad[0])}, "
                        f"space node {int(bad[-1])}")
    return out


def _check_driver(driver: DrivingField, alpha: float, m: int, n: int, T: float):
    """The driver must be prepared for the order ``alpha``; a time-constant
    driver serves any time grid over its spatial grid, a sheet only its own."""
    if abs(driver.alpha - alpha) > 1e-12:
        raise GridError("driver was prepared for a different alpha")
    if driver.slices[0].rise.size - 1 != n or not driver.time_constant and (
            len(driver.slices) - 1 != m or abs(driver.T - T) > 1e-12):
        raise GridError("the driver was built on another grid")


def _window_norm(F: np.ndarray, Y: np.ndarray, alpha: float) -> float:
    """max of the slice norms of the rows of F - Y, taken in bands of
    ``_SWEEP_ROWS`` rows from the last, which in a Picard difference mostly
    holds the max, with one floor carried across the bands (a NaN norm
    stays NaN).  Each band's difference is formed in its step, so no
    window-sized difference is held; rows that are exactly zero (row 0 of
    a Picard difference, both rows being phi) have norm 0.0 and are
    skipped."""
    best = 0.0
    for r1 in range(F.shape[0], 0, -_SWEEP_ROWS):
        r0 = max(0, r1 - _SWEEP_ROWS)
        band = F[r0:r1] - Y[r0:r1]
        live = band[band.any(axis=1)]
        if live.shape[0]:
            best = norms.max_slice_norm(live, alpha, best)
    return best


@dataclass
class WindowRecord:
    """One Picard window of a solve, an entry of ``windows`` in report.json:
    its time span [t_start, t_end] of ``cells`` time cells, the iterations
    run and whether the residual reached the tolerance, the residual r_k
    (the max slice norm of the change of an iterate) after each iteration
    k = 0, 1, ..., whether the window fits the proof's T0
    (``guarantee_ok``), and the window constants that sized it.
    ``contraction_ratio`` is the largest r_k / r_(k-1) over k >= 2 with
    r_(k-1) > 1e-14 (r_1 / r_0 is left out), or 0.0 if there is none."""

    index: int
    t_start: float
    t_end: float
    cells: int
    iterations: int
    converged: bool
    final_residual: float
    residual_history: list
    contraction_ratio: float
    guarantee_ok: bool
    constants: WindowConstants


@dataclass
class SolverReport:
    """The outcome of ``solve``: the solution (solution.csv), the read-only
    (rows, n+1) array that ``solve`` wrote, row j the slice at the time
    ``t_nodes[j]`` (rows = m+1 on [0, T], fewer if a window failed), and,
    in report.json, whether every window converged and the first that did
    not, the run constants (with the driver's Lambda_alpha), the window
    records (each with its window constants), and the verdicts of the
    proof's checks, each with its ``passed``."""

    solution: np.ndarray
    t_nodes: np.ndarray
    converged: bool
    windows: list
    constants: RunConstants
    verdicts: dict
    failed_window: int | None = None

    def to_dict(self) -> dict:
        """Every field but ``solution`` and ``t_nodes``; the records in it
        stay records."""
        return {
            "converged": self.converged,
            "failed_window": self.failed_window,
            "constants": self.constants,
            "windows": self.windows,
            "verdicts": self.verdicts,
        }


def _measured_ratio(history: list) -> float:
    ratios = []
    for r_prev, r_next in zip(history[1:], history[2:]):
        if r_prev > 1e-14:
            ratios.append(r_next / r_prev)
    return max(ratios) if ratios else 0.0


def solve(cfg: SolverConfig, driver: DrivingField, verify: bool = True) -> SolverReport:
    """Windowed Picard iteration over [0, T] with per-window constants.

    Never returns an unconverged field silently: on failure the report has
    ``converged = False``, the failing window index, and its residual
    history, and the solution and its Gronwall check end at that window's
    t_end, with the window's last iterate as its rows.
    """
    a = cfg.alpha
    _check_driver(driver, a, cfg.m, cfg.n, cfg.T)
    m, dt = cfg.m, cfg.dt
    run = run_constants(a, cfg.coeff, driver.lambda_value)
    phi0 = cfg.phi.values
    Y = np.tile(phi0, (m + 1, 1))
    windows: list[WindowRecord] = []
    converged = True
    failed_window = None
    j0 = 0
    phi_w = phi0
    adaptive_cells = None
    start_norms = {}   # row of each window start -> its slice norm
    while j0 < m:
        pn = norms.slice_norm_alpha_infty(phi_w, a)
        start_norms[j0] = pn
        cons = compute_constants(run, cfg.coeff, pn, horizon=cfg.T)
        # capped at m, so that a T0 far past the horizon cannot overflow int
        paper_cells = max(1, int(min(cons.t0 / dt + 1e-12, m)))
        if cfg.window_policy == "adaptive" and adaptive_cells is not None:
            cells = adaptive_cells
        else:
            cells = paper_cells
        cells = min(cells, m - j0)
        j1 = j0 + cells
        guarantee_ok = cells * dt <= cons.t0 * (1.0 + 1e-9)

        Yw = np.tile(phi_w, (cells + 1, 1))
        # row 0 of every iterate is phi_w, so its inner integral is fixed
        v0 = _inner_integrals(phi_w, cfg.coeff, driver.time_slice(j0))
        history = []
        w_converged = False
        iterations = 0
        for it in range(1, cfg.max_iterations + 1):
            iterations = it
            sweep = _first_iterate if it == 1 else _apply_window
            Fw = sweep(Yw, phi_w, cfg.coeff, driver, j0, dt, v0)
            res = _window_norm(Fw, Yw, a)
            history.append(res)
            Yw = Fw
            if res <= cfg.picard_tol:
                w_converged = True
                break
        windows.append(WindowRecord(
            index=len(windows), t_start=j0 * dt, t_end=j1 * dt, cells=cells,
            iterations=iterations, converged=w_converged,
            final_residual=history[-1], residual_history=history,
            contraction_ratio=_measured_ratio(history),
            guarantee_ok=guarantee_ok, constants=cons))
        Y[j0 + 1:j1 + 1] = Yw[1:]
        if not w_converged:
            converged = False
            failed_window = len(windows) - 1
            Y = Y[:j1 + 1]   # the solution ends with the failed window's last iterate
            break
        if cfg.window_policy == "adaptive":
            ratio = windows[-1].contraction_ratio
            base = cells
            if ratio < 0.25 and iterations <= 4:
                adaptive_cells = base * 2
            elif ratio > 0.75 or iterations >= cfg.max_iterations:
                adaptive_cells = max(1, base // 2)
            else:
                adaptive_cells = base
        phi_w = Y[j1]
        j0 = j1

    # nothing else holds Y, so the report holds it itself, not a copy
    Y.setflags(write=False)
    t = np.linspace(0.0, cfg.T if converged else windows[-1].t_end, len(Y))
    t.setflags(write=False)
    # window 0 starts from phi itself: the probes check its constants
    start = windows[0].constants
    verdicts = {
        "fixed_point_residual": {
            "max_final_residual": max(w.final_residual for w in windows),
            "tolerance": cfg.picard_tol,
            "passed": converged,
        },
    }
    verdicts["gronwall"] = gronwall_check(Y, t, run, start.phi_norm, start_norms)
    if verify and converged:
        verdicts.update(_spot_verdicts(cfg, driver, start))
    return SolverReport(Y, t, converged, windows, run, verdicts, failed_window)


def gronwall_check(values: np.ndarray, t: np.ndarray, run: RunConstants,
                   phi_norm: float, known_norms: dict) -> dict:
    """Envelope ||phi|| exp(K t) against the running slice norm at every
    node, for the rows ``values`` of a field at the times ``t``, with K and
    the order alpha of the norms read from ``run``.

    ``known_norms`` maps rows of ``values`` to slice norms already taken
    (the window starts of ``solve``); the other rows are computed in
    stacked calls of ``_SWEEP_ROWS`` rows, so that no copy of the field is
    formed, and each entry is bitwise the one-slice norm.

    Where the envelope overflows (at every t > 0 when K is +inf) it is
    +inf, 0 while ||phi|| = 0, and bounds nothing; ``unbounded_from`` is
    the first such t, or None.
    """
    a, k = run.alpha, run.gronwall_k
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(k * t)
        growth[0] = 1.0   # an infinite K gives inf * 0 at t = 0
        env = phi_norm * growth if phi_norm else np.zeros(len(t))
        ceiling = env * (1.0 + _REL_SLACK)
    unbounded = np.flatnonzero(np.isinf(env))
    rest = [j for j in range(len(t)) if j not in known_norms]
    running = np.empty(len(t))
    for c in range(0, len(rest), _SWEEP_ROWS):
        rows = rest[c:c + _SWEEP_ROWS]
        running[rows] = norms.slice_norms_alpha_infty(values[rows], a)
    running[list(known_norms)] = list(known_norms.values())
    ok = running <= ceiling
    violations = [
        {"t": float(t[j]), "running_norm": float(running[j]), "envelope": float(env[j])}
        for j in np.nonzero(~ok)[0]]
    margins = env - running
    return {
        "passed": bool(ok.all()),
        "k": k,
        "phi_norm": phi_norm,
        "min_margin": float(margins.min()),
        "unbounded_from": float(t[unbounded[0]]) if unbounded.size else None,
        "violations": violations,
    }


def _probe_images(fields: np.ndarray, cfg: SolverConfig, driver: DrivingField,
                  t_w: float) -> np.ndarray:
    """F of a probe's field stack (PROBE_TIME_CELLS + 1, k, n+1) on the
    probe window [0, t_w], once the driver is checked for it."""
    _check_driver(driver, cfg.alpha, PROBE_TIME_CELLS, cfg.n, t_w)
    return _apply_window(fields, cfg.phi.values, cfg.coeff, driver, 0,
                         t_w / PROBE_TIME_CELLS)


def contraction_probe(cfg: SolverConfig, driver: DrivingField,
                      constants: WindowConstants, t_w: float, trials: int,
                      rng: np.random.Generator) -> dict:
    """Measured Lipschitz ratios of F on ``trials`` random field pairs of
    length t_w, each field scaled to 0.8 R1, against the b5*t_w ceiling,
    summarized as one verdict.  F maps all the fields as one field stack."""
    a, n = cfg.alpha, cfg.n
    fields = np.empty((PROBE_TIME_CELLS + 1, 2 * trials, n + 1))
    for i in range(fields.shape[1]):
        Y = random_smooth_field(PROBE_TIME_CELLS, n, t_w, rng)
        fields[:, i] = Y * (0.8 * constants.r1 / max(norms.max_slice_norm(Y, a), 1e-12))
    images = _probe_images(fields, cfg, driver, t_w)
    ratios = [_window_norm(images[:, i], images[:, i + 1], a)
              / _window_norm(fields[:, i], fields[:, i + 1], a)
              for i in range(0, fields.shape[1], 2)]
    ceiling = float(constants.b5 * t_w)
    return {
        "passed": all(r <= ceiling * 1.1 or ceiling == 0.0 for r in ratios),
        "max_ratio": max(ratios, default=0.0),
        "ceiling": ceiling,
        "trials": trials,
    }


def ball_invariance_check(cfg: SolverConfig, driver: DrivingField,
                          constants: WindowConstants, trials: int = 100,
                          seed: int = 0) -> dict:
    """Sample fields with norm <= R1 and verify ||F(Y)|| <= R1 on [0, T1].

    Trial 0 is the flat extension of phi, the iteration's own starting
    point; F maps all trials as one field stack.
    """
    a, n = cfg.alpha, cfg.n
    t_w = constants.t1 if math.isfinite(constants.t1) else cfg.T
    rng = np.random.default_rng(seed)
    fields = np.empty((PROBE_TIME_CELLS + 1, max(1, trials), n + 1))
    fields[:, 0] = cfg.phi.values
    for i in range(1, fields.shape[1]):
        Yr = random_smooth_field(PROBE_TIME_CELLS, n, t_w, rng)
        nrm = norms.max_slice_norm(Yr, a)
        target = rng.uniform(0.2, 1.0) * constants.r1
        fields[:, i] = Yr * (target / max(nrm, 1e-12))
    images = _probe_images(fields, cfg, driver, t_w)
    # the verdict and the excess need only the largest image norm
    worst = norms.max_slice_norm(images.reshape(-1, n + 1), a)
    return {"passed": bool(worst <= constants.r1 * (1.0 + _REL_SLACK)), "r1": constants.r1,
            "t1": t_w, "worst_excess": float(worst - constants.r1), "trials": fields.shape[1]}


def quadruple_inequality_check(coeff: CoefficientFunction, radius: float,
                               trials: int, seed: int) -> dict:
    """The four-point inequality |h(X1)-h(X2)-h(X3)+h(X4)| <= M1 |X1-X2-X3+X4|
    + M_N |X1-X3| (|X1-X2| + |X3-X4|) on random quadruples in [-N, N]."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-radius, radius, size=(int(trials), 4))
    hv = coeff(X)
    lhs = np.abs(hv[:, 0] - hv[:, 1] - hv[:, 2] + hv[:, 3])
    mn = coeff.deriv_lipschitz(radius)
    rhs = coeff.lipschitz * np.abs(X[:, 0] - X[:, 1] - X[:, 2] + X[:, 3]) \
        + mn * np.abs(X[:, 0] - X[:, 2]) * (np.abs(X[:, 0] - X[:, 1])
                                            + np.abs(X[:, 2] - X[:, 3]))
    slack = rhs - lhs
    worst = float(slack.min())
    violations = int((slack < -1e-12 * np.maximum(rhs, 1.0)).sum())
    return {"passed": violations == 0, "worst_slack": worst,
            "violations": violations, "trials": int(trials), "radius": radius}


def _spot_verdicts(cfg: SolverConfig, driver: DrivingField,
                   constants: WindowConstants) -> dict:
    if not driver.time_constant:
        return {}
    trials, seed = VERIFICATION_TRIALS, VERIFICATION_SEED
    out = {}
    out["ball_invariance"] = ball_invariance_check(cfg, driver, constants,
                                                   trials=trials, seed=seed)
    t2 = constants.t2 if math.isfinite(constants.t2) else cfg.T
    out["contraction"] = contraction_probe(cfg, driver, constants, t2, trials,
                                           np.random.default_rng(seed + 1))
    out["prop2"] = quadruple_inequality_check(cfg.coeff, constants.r1,
                                              max(1000, trials * 100), seed + 2)
    return out
