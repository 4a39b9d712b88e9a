"""Windowed Picard solver for Y(t,xi) = phi(xi) + int_0^t int_0^xi A(Y) dg ds.

The fixed-point operator F evaluates the inner pathwise integral with the
integration operator of each driver slice (``stieltjes.SliceOperator``,
built once with the driver) and the outer time integral with the trapezoid
rule.  Row 0 of every window iterate is the window's start slice, so its
inner integral is taken once per window; on a time-constant driver it is
also every row of the first iterate's inner integral, and that iterate
needs no sweep.  Local existence windows are sized from the explicitly
computed proof constants (b1..b5, T1, T2, T0); continuation re-anchors the
initial slice and refreshes the constants window by window.  Every
inequality the analysis asserts is re-checked numerically and reported.  A
time-constant driver serves any time grid over its spatial grid, so the
probes apply the solve's own driver to their short probe windows.  Every
entry point checks that the driver was prepared for its order alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grids, norms
from .coefficients import CoefficientFunction
from .fbm import DrivingField
from .frac_calc import _SWEEP_ROWS, beta_b1
from .grids import GridError, GridFunction, SpaceTimeField, check_solver_order, order_value
from .sampling import random_smooth_field
from .stieltjes import SliceOperator, stieltjes_all_upper_limits

__all__ = [
    "SolverConfig",
    "ProofConstants",
    "WindowRecord",
    "SolverReport",
    "compute_constants",
    "apply_F",
    "solve",
    "contraction_probe",
    "contraction_sweep",
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
    1 - H < alpha < 1/2, the grid of m time cells of [0, T] and n space
    cells of [0, 1], the initial slice ``phi`` on that spatial grid, the
    coefficient A, the Picard tolerance and iteration cap per window, and
    the window policy ("paper-constants" sizes every window from T0,
    "adaptive" resizes from the last window's contraction ratio)."""

    alpha: float
    hurst: float
    m: int
    n: int
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
        if self.phi.n != self.n or abs(self.phi.a) > 1e-12 or abs(self.phi.b - 1.0) > 1e-12:
            raise GridError("phi must live on the solver's spatial grid over [0, 1]")
        grids.check_grid(self.m, self.n, self.T)
        if self.max_iterations < 1 or not 0 < self.picard_tol < math.inf:
            raise GridError("need max_iterations >= 1 and a finite picard_tol > 0")

    @property
    def dt(self) -> float:
        return self.T / self.m

    def phi_norm(self) -> float:
        return norms.slice_norm_alpha_infty(self.phi.values, self.phi.h, self.alpha)


@dataclass(frozen=True)
class ProofConstants:
    """All constants the existence proof manufactures, computed numerically.

    b5 carries the full contraction prefactor including the realized
    sup Lambda_alpha(g) and b3 = max(1, b1); since b1 = B(2 alpha, 1 - alpha)
    exceeds 1 on (0, 1/2), b3 = b1.  K is the Gronwall exponent (identical
    to b2 by construction).
    """

    alpha: float
    lam: float
    m1: float
    m2: float
    mn_r1: float
    phi_norm: float
    r1: float
    b1: float
    b2: float
    b3: float
    b4: float
    b5: float
    t1: float
    t2: float
    t0: float
    gronwall_k: float
    contraction_target: float


def compute_constants(alpha: float, coeff: CoefficientFunction, lam: float,
                      phi_norm: float, r1: float | None = None,
                      horizon: float = math.inf) -> ProofConstants:
    """Evaluate b1..b5, the window lengths T1, T2, T0 and the Gronwall rate.

    T1 makes the ball of radius R1 invariant; T2 scales the contraction
    factor to ``CONTRACTION_TARGET`` < 1.  Degenerate coefficients
    (A identically 0) make both windows unbounded, in which case the
    configured horizon is returned.
    """
    a = float(alpha)
    if not 0.0 < a < 0.5:
        raise GridError(f"constants need alpha in (0, 1/2), got {a}")
    if r1 is None:
        r1 = 2.0 * max(1.0, phi_norm)
    if r1 <= phi_norm:
        raise GridError(f"R1 = {r1} must exceed ||phi|| = {phi_norm}")
    m1, m2 = coeff.lipschitz, coeff.bound
    b1 = beta_b1(a)
    b3 = max(1.0, b1)
    bracket = m2 * (1.0 / (1.0 - a) + b1 / (1.0 - 2.0 * a)) \
        + m1 * (1.0 + 1.0 / (a * (1.0 - a)))
    b2 = bracket * lam
    mn = float(coeff.deriv_lipschitz(r1))
    b4 = (m1 + mn) * (1.0 + 2.0 * r1)
    rho = (2.0 - 3.0 * a) / ((1.0 - 2.0 * a) * (1.0 - a))
    b5 = lam * b3 * b4 * rho
    t1 = (r1 - phi_norm) / (b2 * (1.0 + r1)) if b2 > 0 else horizon
    t2 = CONTRACTION_TARGET / b5 if b5 > 0 else horizon
    t0 = min(t1, t2)
    if not math.isfinite(t0):
        t0 = horizon
    return ProofConstants(a, lam, m1, m2, mn, phi_norm, float(r1),
                          b1, b2, b3, b4, b5, t1, t2, t0, b2,
                          CONTRACTION_TARGET)


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

    ``v0`` is the inner integral of row 0 when the caller already has it
    (row 0 is phi_w in every Picard iteration of a window).  The rows that
    share one driver slice go through stacked kernel calls: the window of a
    time-constant driver in bands of ``_SWEEP_ROWS`` rows, so a long
    window's scratch stays a band's, and one row per call otherwise.
    """
    w = y_window.shape[0] - 1
    V = np.empty(y_window.shape)
    l0 = 0
    if v0 is not None:
        V[0] = v0
        l0 = 1
    if driver.time_constant:
        op = driver.time_slice(j_start)
        for r0 in range(l0, w + 1, _SWEEP_ROWS):
            V[r0:r0 + _SWEEP_ROWS] = _inner_integrals(y_window[r0:r0 + _SWEEP_ROWS], coeff, op)
    else:
        for l in range(l0, w + 1):
            V[l] = _inner_integrals(y_window[l], coeff, driver.time_slice(j_start + l))
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
    """phi plus the trapezoid integral in time of the inner integrals ``V``,
    whose row l is at time node j_start + l."""
    out = np.empty(V.shape)
    out[0] = phi_values
    steps = np.add(V[1:], V[:-1], out=out[1:])   # the sums run in place in out
    steps *= 0.5 * dt
    np.cumsum(steps, axis=0, out=steps)
    steps += phi_values
    if not np.isfinite(out).all():
        t_i, x_i = np.argwhere(~np.isfinite(out))[0]
        raise GridError(f"non-finite iterate at time node {j_start + int(t_i)}, "
                        f"space node {int(x_i)}")
    return out


def _check_driver(driver: DrivingField, alpha: float, m: int, n: int, T: float):
    """The driver must be prepared for the order ``alpha``; a time-constant
    driver serves any time grid over its spatial grid, a sheet only its own."""
    if abs(driver.alpha - alpha) > 1e-12:
        raise GridError("driver was prepared for a different alpha")
    f = driver.field
    if f.n != n or not driver.time_constant and (f.m != m or abs(f.T - T) > 1e-12):
        raise GridError("field and driver grids must match")


def apply_F(Y: SpaceTimeField, phi: GridFunction, coeff: CoefficientFunction,
            driver: DrivingField, alpha) -> SpaceTimeField:
    """One application of the fixed-point operator over the full field."""
    _check_driver(driver, order_value(alpha), Y.m, Y.n, Y.T)
    if phi.n != Y.n:
        raise GridError("phi must live on the field's spatial grid")
    out = _apply_window(Y.values, phi.values, coeff, driver, 0, Y.dt)
    return SpaceTimeField(Y.T, out)


def _window_norm(F: np.ndarray, Y: np.ndarray, h: float, alpha: float) -> float:
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
            best = norms.max_slice_norm(live, h, alpha, best)
    return best


@dataclass
class WindowRecord:
    """One Picard window of a solve, an entry of ``windows`` in report.json:
    its time span [t_start, t_end] of ``cells`` time cells, the iterations
    run and whether the residual reached the tolerance, the residual (the
    max slice norm of the change of an iterate) after each iteration, the
    largest ratio of successive residuals, whether the window fits the
    proof's T0 (``guarantee_ok``), and the constants that sized it."""

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
    constants: ProofConstants


@dataclass
class SolverReport:
    """The outcome of ``solve``: the solution field (solution.csv) and, in
    report.json, whether every window converged and the first that did not,
    the driver's Lambda_alpha, the constants of window 0 (the global set),
    the window records, and the verdicts of the proof's checks, each with
    its ``passed``."""

    solution: SpaceTimeField
    converged: bool
    windows: list
    constants: ProofConstants
    lambda_alpha: float
    verdicts: dict
    failed_window: int | None = None

    def to_dict(self) -> dict:
        """Every field but ``solution``; the records in it stay records."""
        return {
            "converged": self.converged,
            "failed_window": self.failed_window,
            "lambda_alpha": self.lambda_alpha,
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
    history.
    """
    a = cfg.alpha
    _check_driver(driver, a, cfg.m, cfg.n, cfg.T)
    m, n, dt, h = cfg.m, cfg.n, cfg.dt, cfg.phi.h
    lam = driver.lambda_value
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
        pn = norms.slice_norm_alpha_infty(phi_w, h, a)
        start_norms[j0] = pn
        cons = compute_constants(a, cfg.coeff, lam, pn, horizon=cfg.T)
        paper_cells = max(1, int(cons.t0 / dt + 1e-12))
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
            res = _window_norm(Fw, Yw, h, a)
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

    # nothing else holds Y, so the solution takes it over instead of a copy
    solution = SpaceTimeField._adopt(cfg.T, Y)
    # window 0 starts from phi itself, so its constants are the global set
    constants = windows[0].constants
    verdicts = {
        "fixed_point_residual": {
            "max_final_residual": max(w.final_residual for w in windows),
            "tolerance": cfg.picard_tol,
            "passed": converged,
        },
    }
    gr = gronwall_check(solution, cfg, constants, start_norms)
    verdicts["gronwall"] = gr
    if verify and converged:
        verdicts.update(_spot_verdicts(cfg, driver, constants))
    return SolverReport(solution, converged, windows, constants,
                        lam, verdicts, failed_window)


def gronwall_check(sol: SpaceTimeField, cfg: SolverConfig,
                   constants: ProofConstants, known_norms: dict) -> dict:
    """Envelope ||phi|| exp(K t) against the running slice norm at every node.

    ``known_norms`` maps rows of ``sol`` to slice norms already taken (the
    window starts of ``solve``); the other rows are computed in stacked
    calls of ``_SWEEP_ROWS`` rows, so that no copy of the field is formed,
    and each entry is bitwise the one-slice norm.
    """
    a = cfg.alpha
    phi_norm = constants.phi_norm
    k = constants.gronwall_k
    t = sol.t_nodes
    env = phi_norm * np.exp(k * t)
    rest = [j for j in range(len(t)) if j not in known_norms]
    running = np.empty(len(t))
    for c in range(0, len(rest), _SWEEP_ROWS):
        rows = rest[c:c + _SWEEP_ROWS]
        running[rows] = norms.slice_norms_alpha_infty(sol.values[rows], sol.h, a)
    running[list(known_norms)] = list(known_norms.values())
    ok = running <= env * (1.0 + _REL_SLACK)
    violations = [
        {"t": float(t[j]), "running_norm": float(running[j]), "envelope": float(env[j])}
        for j in np.nonzero(~ok)[0]]
    margins = env - running
    return {
        "passed": bool(ok.all()),
        "k": k,
        "phi_norm": phi_norm,
        "min_margin": float(margins.min()),
        "violations": violations,
    }


def contraction_probe(Y1: SpaceTimeField, Y2: SpaceTimeField, cfg: SolverConfig,
                      driver: DrivingField, constants: ProofConstants, *,
                      field_norms: tuple | None = None) -> dict:
    """Measured Lipschitz ratio of F on a field pair against the b5*T ceiling.

    ``field_norms`` are the norms of Y1 and Y2 when the caller has them (a
    field scaled by s > 0 has s times the norm); without them they are
    computed.  Either way a field outside the ball of radius R1 is refused.
    """
    a = cfg.alpha
    if Y1.values.shape != Y2.values.shape or abs(Y1.T - Y2.T) > 1e-12:
        raise GridError("probe fields must share one grid")
    if np.array_equal(Y1.values, Y2.values):
        raise GridError("probe fields must differ (zero denominator)")
    if field_norms is None:
        field_norms = (norms.norm_alpha_infty(Y1, a), norms.norm_alpha_infty(Y2, a))
    if max(field_norms) > constants.r1 * (1.0 + 1e-9):
        raise GridError(f"probe fields leave the ball of radius R1 = {constants.r1}")
    F1 = apply_F(Y1, cfg.phi, cfg.coeff, driver, a)
    F2 = apply_F(Y2, cfg.phi, cfg.coeff, driver, a)
    num = _window_norm(F1.values, F2.values, Y1.h, a)
    den = _window_norm(Y1.values, Y2.values, Y1.h, a)
    ratio = num / den
    ceiling = constants.b5 * Y1.T
    return {"ratio": float(ratio), "ceiling": float(ceiling), "b5": constants.b5,
            "T": Y1.T, "passed": bool(ratio <= ceiling * 1.1 or ceiling == 0.0)}


def contraction_sweep(cfg: SolverConfig, driver: DrivingField,
                      constants: ProofConstants, t_w: float, trials: int,
                      rng: np.random.Generator) -> dict:
    """``trials`` contraction probes on random field pairs of length t_w,
    each field scaled to 0.8 R1, summarized as one verdict."""
    probes = []
    for _ in range(trials):
        pair, scaled_norms = [], []
        for _ in range(2):
            Y = random_smooth_field(PROBE_TIME_CELLS, cfg.n, t_w, rng)
            nrm = norms.norm_alpha_infty(Y, cfg.alpha)
            s = 0.8 * constants.r1 / max(nrm, 1e-12)
            pair.append(SpaceTimeField(t_w, Y.values * s))
            scaled_norms.append(s * nrm)
        probes.append(contraction_probe(*pair, cfg, driver, constants,
                                        field_norms=tuple(scaled_norms)))
    return {
        "passed": all(p["passed"] for p in probes),
        "max_ratio": max((p["ratio"] for p in probes), default=0.0),
        "ceiling": float(constants.b5 * t_w),
        "trials": len(probes),
    }


def _flat_image(cfg: SolverConfig, driver: DrivingField, t_w: float) -> SpaceTimeField:
    """F of the flat extension of phi over PROBE_TIME_CELLS cells of [0, t_w],
    the iteration's own starting point: a first iterate, built from phi's
    row-0 inner integral, and bitwise ``apply_F`` of that field."""
    _check_driver(driver, cfg.alpha, PROBE_TIME_CELLS, cfg.n, t_w)
    phi = cfg.phi.values
    flat = np.tile(phi, (PROBE_TIME_CELLS + 1, 1))
    v0 = _inner_integrals(phi, cfg.coeff, driver.time_slice(0))
    F = _first_iterate(flat, phi, cfg.coeff, driver, 0, t_w / PROBE_TIME_CELLS, v0)
    return SpaceTimeField(t_w, F)


def ball_invariance_check(cfg: SolverConfig, driver: DrivingField,
                          constants: ProofConstants, trials: int = 100,
                          seed: int = 0) -> dict:
    """Sample fields with norm <= R1 and verify ||F(Y)|| <= R1 on [0, T1]."""
    a = cfg.alpha
    t_w = constants.t1 if math.isfinite(constants.t1) else cfg.T
    rng = np.random.default_rng(seed)
    # trial 0: the flat extension of phi, the iteration's own starting point
    images = [_flat_image(cfg, driver, t_w)]
    for _ in range(max(0, trials - 1)):
        Yr = random_smooth_field(PROBE_TIME_CELLS, cfg.n, t_w, rng)
        nrm = norms.norm_alpha_infty(Yr, a)
        target = rng.uniform(0.2, 1.0) * constants.r1
        Yr = SpaceTimeField(t_w, Yr.values * (target / max(nrm, 1e-12)))
        images.append(apply_F(Yr, cfg.phi, cfg.coeff, driver, a))
    # the verdict and the excess need only the largest image norm
    worst = norms.max_slice_norm(np.concatenate([F.values for F in images]), images[0].h, a)
    return {"passed": bool(worst <= constants.r1 * (1.0 + _REL_SLACK)), "r1": constants.r1,
            "t1": t_w, "worst_excess": float(worst - constants.r1), "trials": len(images)}


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
                   constants: ProofConstants) -> dict:
    if not driver.time_constant:
        return {}
    trials, seed = VERIFICATION_TRIALS, VERIFICATION_SEED
    out = {}
    out["ball_invariance"] = ball_invariance_check(cfg, driver, constants,
                                                   trials=trials, seed=seed)
    t2 = constants.t2 if math.isfinite(constants.t2) else cfg.T
    out["contraction"] = contraction_sweep(cfg, driver, constants, t2, trials,
                                           np.random.default_rng(seed + 1))
    out["prop2"] = quadruple_inequality_check(cfg.coeff, constants.r1,
                                              max(1000, trials * 100), seed + 2)
    return out
