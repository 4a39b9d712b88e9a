"""Acceptance suite: every inequality and oracle at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see
them inline).  Tolerances are pinned here and nowhere else.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fracpath.grids import GridFunction, SpaceTimeField
from fracpath import coefficients as co, fbm, norms, solver, stieltjes
from fracpath.frac_calc import weyl_derivative_left
from fracpath.sampling import random_smooth_field, random_trig_grid
from oracles import apply_F, rl_integral_left


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "fracpath.cli", *args],
                          capture_output=True, text=True)


def test_criterion_1_fractional_operator_oracles():
    t0 = time.perf_counter()
    n = 2048
    x = np.linspace(0.0, 1.0, n + 1)
    interior = (x >= 0.05) & (x <= 0.95)
    worst = 0.0
    constant_ok = True
    xi = x[interior]
    for alpha in (0.1, 0.25, 0.4):
        for beta in (0, 1, 2):
            f = x ** beta
            got_i = rl_integral_left(f, alpha)[interior]
            exact_i = math.gamma(beta + 1) / math.gamma(alpha + beta + 1) \
                * xi ** (alpha + beta)
            got_d = weyl_derivative_left(f, alpha)[interior]
            pairs = [(got_i, exact_i)]
            if beta == 0:
                # the derivative acts on f - f(0), which is 0 for a constant
                constant_ok = constant_ok and np.array_equal(got_d, np.zeros_like(got_d))
            else:
                pairs.append((got_d, math.gamma(beta + 1) / math.gamma(beta + 1 - alpha)
                              * xi ** (beta - alpha)))
            for got, exact in pairs:
                scale = np.maximum(np.abs(exact), 1e-30)
                worst = max(worst, float(np.max(np.abs(got - exact) / scale)))
    oracles_ok = worst <= 1e-2 and constant_ok

    # D^a(I^a f) on a Lipschitz input: sup error halves (+-20%) per doubling
    errs = []
    for nn in (512, 1024, 2048):
        xx = np.linspace(0, 1, nn + 1)
        f = np.abs(xx - 1 / math.pi)
        D = weyl_derivative_left(rl_integral_left(f, 0.25), 0.25)
        sel = (xx >= 0.05) & (xx <= 0.95)
        errs.append(float(np.max(np.abs(D[sel] - f[sel]))))
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    halving_ok = all(0.4 <= r <= 0.6 for r in ratios)
    elapsed = time.perf_counter() - t0
    report("criterion 1 (fractional-operator oracles)",
           oracles_ok and halving_ok and elapsed <= 10.0,
           f"worst closed-form rel err {worst:.2e} (<=1e-2), "
           f"constant input exactly 0: {constant_ok}, "
           f"halving ratios {[f'{r:.3f}' for r in ratios]} (in [0.4,0.6]), "
           f"runtime {elapsed:.1f}s (<=10s)")


def test_criterion_2_stieltjes_consistency():
    t0 = time.perf_counter()
    n = 2048
    x = np.linspace(0.0, 1.0, n + 1)
    pairs = [
        (np.sin, lambda t: t ** 2),
        (lambda t: np.cos(math.pi * t) + 2.0, lambda t: t ** 3 / 3 + t),
        (lambda t: np.exp(-t), lambda t: np.sin(3.0 * t)),
        (lambda t: t ** 2 + 1.0, lambda t: np.cos(t)),
        (lambda t: 1.0 / (1.0 + t ** 2), lambda t: t + 0.3 * np.sin(math.pi * t)),
    ]
    xs = np.linspace(0.0, 1.0, 10 ** 5 + 1)
    mid = 0.5 * (xs[:-1] + xs[1:])
    worst = 0.0
    for ffn, gfn in pairs:
        ref = float(np.sum(ffn(mid) * (gfn(xs[1:]) - gfn(xs[:-1]))))
        got = stieltjes.stieltjes_integral(GridFunction(ffn(x)),
                                           GridFunction(gfn(x)), 0.3)
        worst = max(worst, abs(got - ref) / abs(ref))
    classical_ok = worst <= 1e-3

    f = GridFunction(np.sin(x) + 1.0)
    g = GridFunction(np.sin(2 * x) + x ** 2)
    gap = stieltjes.stieltjes_indicator_consistency(f, g, 0.25, 0.25, 0.75).gap
    indicator_ok = gap <= 1e-2
    elapsed = time.perf_counter() - t0
    report("criterion 2 (Stieltjes consistency)",
           classical_ok and indicator_ok and elapsed <= 30.0,
           f"worst classical rel err {worst:.2e} (<=1e-3), "
           f"indicator gap {gap:.2e} (<=1e-2), runtime {elapsed:.1f}s (<=30s)")


def test_criterion_3_fbm_law():
    t0 = time.perf_counter()
    worst_z = 0.0
    for hurst in (0.6, 0.75, 0.9):
        rep = fbm.covariance_validator(hurst, 10 ** 4, seed=2024, n=64)
        worst_z = max(worst_z, rep.max_abs_z)
    elapsed = time.perf_counter() - t0
    report("criterion 3 (FBM law)",
           worst_z <= 4.0 and elapsed <= 120.0,
           f"max |z| over H in {{0.6,0.75,0.9}} x 1e4 paths: {worst_z:.2f} (<=4), "
           f"runtime {elapsed:.1f}s (<=120s)")


def test_criterion_4_pathwise_bound():
    n = 256
    rng = np.random.default_rng(357)
    violations = 0
    worst_rel_margin = math.inf
    for s in range(100):
        f = random_trig_grid(n, rng)
        g = fbm.fbm_path(0.75, n, 4000, (s,))
        rep = stieltjes.bound_357_check(f, g, 0.3)
        worst_rel_margin = min(worst_rel_margin, rep.margin / rep.rhs)
        if not rep.holds:
            violations += 1
    report("criterion 4 (bound |int f dg| <= Lambda ||f||)",
           violations == 0,
           f"0 violations required, got {violations}; worst relative margin "
           f"{worst_rel_margin:.3f}")


def test_criterion_5_ball_invariance_and_contraction():
    import mpmath

    # the constant calculator against an independent Beta/Gamma evaluation
    run = solver.run_constants(0.25, co.tanh_coefficient(1.0), lam=1.0)
    c = solver.compute_constants(run, co.tanh_coefficient(1.0), phi_norm=1.0)
    b1_ref = float(mpmath.beta(0.5, 0.75))
    b2_ref = (1 / 0.75 + b1_ref / 0.5) + (1 + 1 / (0.25 * 0.75))
    t1_ref = 1.0 / (3.0 * b2_ref)
    four_figs = (abs(run.b1 - b1_ref) / b1_ref < 5e-5
                 and abs(c.t1 - t1_ref) / t1_ref < 5e-5
                 and abs(run.b1 - 2.396) < 5e-4 and abs(c.t1 - 0.0268) < 5e-5)

    n = 96
    phi = GridFunction(np.linspace(0, 1, n + 1))
    cfg = solver.SolverConfig(alpha=0.3, hurst=0.75, m=4, T=0.2, phi=phi,
                              coeff=co.tanh_coefficient(0.5))
    drv = fbm.stub_driving_field("quadratic", n, 0.3)
    cons = solver.compute_constants(
        solver.run_constants(cfg.alpha, cfg.coeff, drv.lambda_value), cfg.coeff,
        cfg.phi_norm(), horizon=cfg.T)
    ball = solver.ball_invariance_check(cfg, drv, cons, trials=100, seed=55)

    t2 = min(cons.t2, cfg.T)
    contraction = solver.contraction_probe(cfg, drv, cons, t2, 100, np.random.default_rng(66))
    max_ratio, contraction_ok = contraction["max_ratio"], contraction["passed"]
    report("criterion 5 (ball invariance and contraction)",
           four_figs and ball["passed"] and contraction_ok,
           f"constants to 4 sig figs (b1={run.b1:.6f}, T1={c.t1:.6f}); "
           f"100 ball probes worst excess {ball['worst_excess']:.3f} (<=0); "
           f"100 contraction probes max ratio {max_ratio:.4f} "
           f"vs ceiling {cons.b5 * t2:.3f}")


def classical_picard_reference(phi_fn, A_fn, gprime_fn, n, m, T,
                               tol=1e-12, maxit=200):
    """Independent oracle: for smooth g, dg = g'(xi) dxi with plain
    cumulative trapezoid quadrature in both variables."""
    xi = np.linspace(0, 1, n + 1)
    dt, h = T / m, 1.0 / n
    gp = gprime_fn(xi)
    phi = phi_fn(xi)
    Y = np.tile(phi, (m + 1, 1))
    for _ in range(maxit):
        W = A_fn(Y) * gp[None, :]
        inner = np.zeros_like(Y)
        inner[:, 1:] = np.cumsum(0.5 * h * (W[:, 1:] + W[:, :-1]), axis=1)
        F = np.empty_like(Y)
        F[0] = phi
        F[1:] = phi[None, :] + np.cumsum(0.5 * dt * (inner[1:] + inner[:-1]), axis=0)
        err = np.abs(F - Y).max()
        Y = F
        if err < tol:
            return Y
    raise AssertionError("reference iteration did not converge")


def test_criterion_6_solver_correctness():
    # closed forms to 1e-12
    n, m = 48, 40
    phi0 = GridFunction(np.zeros(n + 1))
    drv = fbm.stub_driving_field("linear", n, 0.3)
    cfg0 = solver.SolverConfig(alpha=0.3, hurst=0.75, m=m, T=1.0,
                               phi=GridFunction(np.linspace(0, 1, n + 1)),
                               coeff=co.zero_coefficient())
    rep0 = solver.solve(cfg0, drv, verify=False)
    dev0 = float(np.abs(rep0.solution.values - cfg0.phi.values[None, :]).max())

    cfg1 = solver.SolverConfig(alpha=0.3, hurst=0.75, m=m, T=1.0, phi=phi0,
                               coeff=co.constant_coefficient(1.0))
    rep1 = solver.solve(cfg1, drv, verify=False)
    t = np.linspace(0, 1, m + 1)[:, None]
    xi = np.linspace(0, 1, n + 1)[None, :]
    dev1 = float(np.abs(rep1.solution.values - t * xi).max())
    closed_ok = dev0 <= 1e-12 and dev1 <= 1e-12

    # tanh + smooth driver vs 4x-resolution classical-quadrature reference
    T, ns, ms = 0.5, 256, 200
    phi_fn = lambda x: np.sin(math.pi * x) / 2
    ref = classical_picard_reference(phi_fn, np.tanh, lambda x: x,
                                     4 * ns, 4 * ms, T)
    xs = np.linspace(0, 1, ns + 1)
    cfg2 = solver.SolverConfig(alpha=0.3, hurst=0.75, m=ms, T=T,
                               phi=GridFunction(phi_fn(xs)),
                               coeff=co.tanh_coefficient(1.0))
    drv2 = fbm.stub_driving_field("quadratic", ns, 0.3, scale=0.5)
    rep2 = solver.solve(cfg2, drv2, verify=False)
    dev2 = float(np.abs(rep2.solution.values - ref[::4, ::4]).max())
    reference_ok = rep2.converged and dev2 <= 5e-3

    # two distinct Picard initializations agree within 10x tolerance
    tol = 1e-11
    cfg3 = solver.SolverConfig(alpha=0.3, hurst=0.75, m=16, T=0.1,
                               phi=GridFunction(np.linspace(0, 1, 49)),
                               coeff=co.tanh_coefficient(0.5), picard_tol=tol)
    drv3 = fbm.stub_driving_field("quadratic", 48, 0.3)
    rep3 = solver.solve(cfg3, drv3, verify=False)
    cons = rep3.windows[0].constants
    rng = np.random.default_rng(77)
    bump = random_smooth_field(16, 48, 0.1, rng)
    scale = 0.2 * cons.r1 / max(norms.norm_alpha_infty(bump, cfg3.alpha), 1e-9)
    Y = SpaceTimeField(0.1, np.tile(cfg3.phi.values, (17, 1))
                       + scale * bump.values * np.linspace(0, 1, 17)[:, None])
    for _ in range(cfg3.max_iterations):
        F = apply_F(Y, cfg3.phi, cfg3.coeff, drv3, cfg3.alpha)
        res = max(norms.slice_norm_alpha_infty(r, cfg3.alpha)
                  for r in F.values - Y.values)
        Y = F
        if res <= tol:
            break
    dev3 = max(norms.slice_norm_alpha_infty(r, cfg3.alpha)
               for r in Y.values - rep3.solution.values)
    unique_ok = dev3 <= 10 * tol
    report("criterion 6 (solver correctness)",
           closed_ok and reference_ok and unique_ok,
           f"closed forms dev {max(dev0, dev1):.1e} (<=1e-12); "
           f"vs 4x classical reference {dev2:.2e} (<=5e-3); "
           f"initialization agreement {dev3:.2e} (<=1e-10)")


def test_criterion_7_global_behavior():
    # window continuation over T = 1.0 with T0 on the 1e-2 scale
    n, m = 96, 400
    phi = GridFunction(np.linspace(0, 1, n + 1))
    cfg = solver.SolverConfig(alpha=0.25, hurst=0.8, m=m, T=1.0, phi=phi,
                              coeff=co.tanh_coefficient(0.2))
    drv = fbm.stub_driving_field("linear", n, 0.25)
    rep = solver.solve(cfg, drv, verify=False)
    t0_scale = rep.windows[0].constants.t0
    horizon_ok = (rep.converged
                  and rep.windows[-1].t_end == pytest.approx(1.0)
                  and len(rep.windows) >= 20
                  and 0.005 <= t0_scale <= 0.1
                  and rep.verdicts["gronwall"]["passed"])

    # 20 FBM seeds: Gronwall envelope at every time node
    envelope_ok = True
    worst_margin = math.inf
    for seed in range(20):
        nf, mf, Tf = 48, 60, 0.05
        cfgf = solver.SolverConfig(alpha=0.3, hurst=0.75, m=mf, T=Tf,
                                   phi=GridFunction(np.linspace(0, 1, nf + 1)),
                                   coeff=co.tanh_coefficient(0.5))
        drvf = fbm.field_from_path(fbm.fbm_path(0.75, nf, seed), 0.3)
        repf = solver.solve(cfgf, drvf, verify=False)
        g = repf.verdicts["gronwall"]
        envelope_ok = envelope_ok and repf.converged and g["passed"]
        worst_margin = min(worst_margin, g["min_margin"])
    report("criterion 7 (global behavior)",
           horizon_ok and envelope_ok,
           f"T=1.0 covered by {len(rep.windows)} windows at T0={t0_scale:.4f}; "
           f"Gronwall envelope held for stub run and 20 FBM seeds "
           f"(worst margin {worst_margin:.2e})")


def test_criterion_8_proposition_2():
    reports = [
        solver.quadruple_inequality_check(co.tanh_coefficient(), 2.0, 10 ** 4, 8),
        solver.quadruple_inequality_check(co.gaussian_bump(width=0.7), 2.0,
                                          10 ** 4, 9),
    ]
    violations = sum(r["violations"] for r in reports)
    worst = min(r["worst_slack"] for r in reports)
    report("criterion 8 (four-point inequality)",
           violations == 0,
           f"1e4 quadruples x {{tanh, gaussian-bump}}: {violations} violations, "
           f"worst slack {worst:.3e}")


def test_criterion_9_cli_reproducibility(tmp_path):
    cfg = {
        "hurst": 0.75, "alpha": 0.3,
        "grid": {"m": 12, "n": 48, "T": 0.05},
        "driver": {"model": "frozen", "seed": 5},
        "phi": {"kind": "ramp"},
        "A": {"kind": "tanh", "params": {"scale": 0.5}},
        "picard": {"tol": 1e-9, "max_iter": 40},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    stub_cfg = dict(cfg, driver={"model": "stub", "kind": "quadratic"})
    (tmp_path / "stub.json").write_text(json.dumps(stub_cfg))
    commands = {
        "fbm": ["fbm", "--hurst", "0.75", "--n", "128", "--seed", "7",
                "--samples", "1000", "--validate"],
        "solve": ["solve", str(tmp_path / "cfg.json")],
        "verify": ["verify", "prop2", "--seed", "3"],
        "ensemble": ["--threads", "3", "ensemble", str(tmp_path / "cfg.json"),
                     "--count", "3", "--seed", "11"],
        "convergence": ["convergence", str(tmp_path / "stub.json"),
                        "--resolutions", "32,64,128"],
    }
    all_ok = True
    diffs = []
    for name, argv in commands.items():
        outs = []
        for run in ("x", "y"):
            outdir = tmp_path / f"{name}_{run}"
            r = run_cli("--out", str(outdir), *argv)
            assert r.returncode == 0, (name, r.stderr)
            outs.append(sorted(p for p in outdir.iterdir()))
        for pa, pb in zip(*outs):
            if pa.read_bytes() != pb.read_bytes():
                all_ok = False
                diffs.append(f"{name}/{pa.name}")
    report("criterion 9 (CLI reproducibility)",
           all_ok,
           "all five commands byte-identical across reruns "
           f"(threads>1 included); diffs: {diffs or 'none'}")
