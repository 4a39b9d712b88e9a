import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fracpath.grids import GridError, GridFunction, SpaceTimeField
from fracpath import cli, coefficients as co, fbm, norms, sampling, solver, stieltjes
from fracpath.sampling import random_smooth_field
import oracles

# the solve config of the README
README_CONFIG = {
    "hurst": 0.75, "alpha": 0.3,
    "grid": {"m": 200, "n": 256, "T": 0.5},
    "driver": {"model": "frozen", "seed": 7},
    "phi": {"kind": "sine", "params": {"k": 1, "amplitude": 0.5}},
    "A": {"kind": "tanh", "params": {"scale": 1.0}},
    "picard": {"tol": 1e-9, "max_iter": 60},
    "window_policy": "paper-constants",
}


def ramp_phi(n):
    return GridFunction(np.linspace(0, 1, n + 1))


def make_cfg(n=48, m=20, T=0.2, alpha=0.3, hurst=0.75, coeff=None, phi=None, **kw):
    return solver.SolverConfig(
        alpha=alpha, hurst=hurst, m=m, T=T,
        phi=phi if phi is not None else ramp_phi(n),
        coeff=coeff if coeff is not None else co.tanh_coefficient(0.5), **kw)


def constants_for(cfg, drv):
    """The window-0 proof constants of a solve of cfg against drv."""
    run = solver.run_constants(cfg.alpha, cfg.coeff, drv.lambda_value)
    return solver.compute_constants(run, cfg.coeff, cfg.phi_norm(), horizon=cfg.T)


def run_and_window(alpha, coeff, lam, phi_norm, horizon=math.inf):
    """The run constants and the window constants of one start norm."""
    run = solver.run_constants(alpha, coeff, lam)
    return run, solver.compute_constants(run, coeff, phi_norm, horizon)


class TestComputeConstants:
    def test_worked_example_to_four_figures(self):
        # alpha = 1/4, M1 = M2 = Lambda = 1, ||phi|| = 1, R1 = 2
        run, c = run_and_window(0.25, co.tanh_coefficient(1.0), lam=1.0, phi_norm=1.0)
        assert c.r1 == 2.0
        assert run.b1 == pytest.approx(2.396, abs=5e-4)
        assert run.b2 == pytest.approx(12.459, abs=5e-3)
        assert c.t1 == pytest.approx(0.02675, abs=5e-6)

    def test_worked_example_against_independent_gamma_evaluation(self):
        import mpmath

        run, c = run_and_window(0.25, co.tanh_coefficient(1.0), lam=1.0, phi_norm=1.0)
        b1 = float(mpmath.beta(0.5, 0.75))
        b2 = (1 / 0.75 + b1 / 0.5) + (1 + 1 / (0.25 * 0.75))
        t1 = (2 - 1) / (b2 * 3)
        assert run.b1 == pytest.approx(b1, rel=5e-5)   # 4 significant figures
        assert run.b2 == pytest.approx(b2, rel=5e-5)
        assert c.t1 == pytest.approx(t1, rel=5e-5)

    def test_degenerate_coefficient_returns_horizon(self):
        run, c = run_and_window(0.3, co.zero_coefficient(), lam=2.0, phi_norm=1.0,
                                horizon=7.5)
        assert run.b2 == 0.0 and c.t1 == 7.5 and c.t0 == 7.5

    def test_b3_is_max_of_one_and_b1(self):
        run = solver.run_constants(0.3, co.tanh_coefficient(), lam=1.0)
        assert run.b3 == max(1.0, run.b1)
        assert run.gronwall_k == run.b2

    def test_b5_scales_with_lambda_and_b4(self):
        run, c1 = run_and_window(0.3, co.tanh_coefficient(), lam=1.0, phi_norm=0.5)
        c2 = run_and_window(0.3, co.tanh_coefficient(), lam=3.0, phi_norm=0.5)[1]
        assert c2.b5 == pytest.approx(3.0 * c1.b5, rel=1e-12)
        rho = (2 - 0.9) / ((1 - 0.6) * 0.7)
        assert c1.b5 == pytest.approx(run.b3 * c1.b4 * rho, rel=1e-12)

    @pytest.mark.parametrize("phi_norm", [2.0, 0.25])
    def test_radius_is_twice_the_larger_of_one_and_the_initial_norm(self, phi_norm):
        c = run_and_window(0.3, co.tanh_coefficient(), lam=1.0, phi_norm=phi_norm)[1]
        assert c.r1 == 2.0 * max(1.0, phi_norm) > phi_norm

    def test_overflowing_run_constant_names_the_coefficient(self):
        # M1 = 1e308 is finite and b2 is not; no run constant depends on R1,
        # so the line gives none, and the window constants are not reached
        with pytest.raises(OverflowError, match=r"^coefficient tanh\(1e\+308\) gives "
                                                r"the proof constant b2 = inf$"):
            solver.run_constants(0.3, co.tanh_coefficient(1e308), lam=1.0)

    @pytest.mark.parametrize("phi_norm", [math.inf, math.nan])
    def test_rejects_non_finite_initial_norm(self, phi_norm):
        # unrefused, a NaN norm would give R1 = 2 and t0 = horizon
        with pytest.raises(GridError, match="finite"):
            run_and_window(0.3, co.tanh_coefficient(), lam=1.0, phi_norm=phi_norm,
                           horizon=1.0)


class TestApplyF:
    def test_zero_coefficient_returns_phi(self):
        n, m = 32, 6
        phi = ramp_phi(n)
        drv = fbm.stub_driving_field("linear", n, 0.3)
        Y = SpaceTimeField(1.0, np.random.default_rng(0).standard_normal((m + 1, n + 1)))
        F = oracles.apply_F(Y, phi, co.zero_coefficient(), drv, 0.3)
        np.testing.assert_array_equal(F.values, np.tile(phi.values, (m + 1, 1)))

    def test_constant_coefficient_closed_form(self):
        # A = c, frozen g: F(Y) = phi + c t (g(xi) - g(0)) exactly
        n, m = 48, 10
        phi = ramp_phi(n)
        drv = fbm.field_from_path(fbm.fbm_path(0.75, n, 2), 0.3)
        Y = SpaceTimeField(0.5, np.zeros((m + 1, n + 1)))
        F = oracles.apply_F(Y, phi, co.constant_coefficient(2.0), drv, 0.3)
        t = np.linspace(0, 0.5, m + 1)[:, None]
        g = fbm.fbm_path(0.75, n, 2).values
        exact = phi.values[None, :] + 2.0 * t * (g - g[0])[None, :]
        np.testing.assert_allclose(F.values, exact, atol=1e-14)

    def test_odd_coefficient_fixes_zero(self):
        # A = tanh, phi = 0: F(0) = 0, so the zero field is a fixed point
        n, m = 32, 5
        phi = GridFunction(np.zeros(n + 1))
        drv = fbm.stub_driving_field("linear", n, 0.3)
        Y = SpaceTimeField(1.0, np.zeros((m + 1, n + 1)))
        F = oracles.apply_F(Y, phi, co.tanh_coefficient(), drv, 0.3)
        np.testing.assert_allclose(F.values, 0.0, atol=1e-15)

    def test_grid_mismatch_rejected(self):
        drv = fbm.stub_driving_field("linear", 32, 0.3)
        Y = SpaceTimeField(1.0, np.zeros((6, 49)))
        with pytest.raises(GridError):
            oracles.apply_F(Y, ramp_phi(48), co.tanh_coefficient(), drv, 0.3)

    def test_frozen_driver_serves_any_time_grid(self):
        # one frozen driver, applied on two time grids, gives on each the
        # bits of a driver built from its path for that grid alone
        n = 48
        path = fbm.fbm_path(0.75, n, 11)
        drv = fbm.field_from_path(path, 0.3)
        for m, T in ((4, 0.25), (10, 1.0)):
            Y = random_smooth_field(m, n, T, np.random.default_rng(1))
            probe = fbm.field_from_path(path, 0.3)
            F = oracles.apply_F(Y, ramp_phi(n), co.tanh_coefficient(), drv, 0.3)
            F_probe = oracles.apply_F(Y, ramp_phi(n), co.tanh_coefficient(), probe, 0.3)
            assert np.array_equal(F.values, F_probe.values)

    def test_sheet_driver_rejects_other_time_grid(self):
        n = 48
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=10, T=1.0, seed=11), 0.3)
        Y = random_smooth_field(4, n, 0.25, np.random.default_rng(1))
        with pytest.raises(GridError):
            oracles.apply_F(Y, ramp_phi(n), co.tanh_coefficient(), drv, 0.3)


class TestSolve:
    def test_zero_coefficient_single_iteration(self):
        cfg = make_cfg(coeff=co.zero_coefficient())
        drv = fbm.stub_driving_field("linear", cfg.n, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert rep.converged
        assert all(w.iterations == 1 for w in rep.windows)
        np.testing.assert_array_equal(
            rep.solution.values, np.tile(cfg.phi.values, (cfg.m + 1, 1)))

    def test_constant_coefficient_exact_solution(self):
        n, m = 48, 40
        cfg = make_cfg(n=n, m=m, T=1.0, coeff=co.constant_coefficient(1.0),
                       phi=GridFunction(np.zeros(n + 1)))
        drv = fbm.stub_driving_field("linear", n, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        t = np.linspace(0, 1, m + 1)[:, None]
        xi = np.linspace(0, 1, n + 1)[None, :]
        assert rep.converged
        np.testing.assert_allclose(rep.solution.values, t * xi, atol=1e-12)

    def test_residual_invariant(self):
        cfg = make_cfg()
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert rep.converged
        assert all(w.final_residual <= cfg.picard_tol for w in rep.windows)

    def test_uniqueness_proxy(self):
        # restarting the iteration from a perturbed admissible guess lands on
        # the same fixed point to within 10x the tolerance
        n, m, T = 48, 16, 0.1
        cfg = make_cfg(n=n, m=m, T=T, picard_tol=1e-11)
        drv = fbm.stub_driving_field("quadratic", n, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)

        cons = constants_for(cfg, drv)
        rng = np.random.default_rng(9)
        bump = random_smooth_field(m, n, T, rng)
        scale = 0.2 * cons.r1 / max(norms.norm_alpha_infty(bump, cfg.alpha), 1e-9)
        Y = SpaceTimeField(T, np.tile(cfg.phi.values, (m + 1, 1))
                           + scale * bump.values * np.linspace(0, 1, m + 1)[:, None])
        for _ in range(cfg.max_iterations):
            F = oracles.apply_F(Y, cfg.phi, cfg.coeff, drv, cfg.alpha)
            res = max(norms.slice_norm_alpha_infty(r, cfg.alpha)
                      for r in F.values - Y.values)
            Y = F
            if res <= cfg.picard_tol:
                break
        dev = max(norms.slice_norm_alpha_infty(r, cfg.alpha)
                  for r in Y.values - rep.solution.values)
        assert dev <= 10 * cfg.picard_tol

    def test_grid_convergence(self):
        m, T = 40, 0.2
        fields = []
        for n in (128, 256, 512):
            cfg = make_cfg(n=n, m=m, T=T)
            drv = fbm.stub_driving_field("quadratic", n, cfg.alpha)
            rep = solver.solve(cfg, drv, verify=False)
            assert rep.converged
            fields.append(rep.solution.values)
        e1 = np.abs(fields[0] - fields[2][:, ::4]).max()
        e2 = np.abs(fields[1] - fields[2][:, ::2]).max()
        assert e2 < e1

    def test_grid_convergence_on_one_fbm_sample(self):
        # one seed-7 path at n = 2048, restricted by stride, so every grid
        # sees the same sample; sup errors against the n = 2048 solve were
        # 1.85e-5, 8.95e-6 and 4.08e-6 at n = 256, 512 and 1024, while the
        # grid Lambda_alpha rose 1.92, 2.36, 2.58 (3.03 at n = 2048)
        path = fbm.fbm_path(0.75, 2048, 7).values
        solutions, lams = {}, {}
        for n in (256, 512, 1024, 2048):
            drv = fbm.field_from_path(GridFunction(path[::2048 // n]), 0.3)
            phi = GridFunction(0.5 * np.sin(math.pi * np.linspace(0, 1, n + 1)))
            cfg = make_cfg(n=n, m=8, T=0.02, phi=phi, coeff=co.tanh_coefficient(1.0))
            rep = solver.solve(cfg, drv, verify=False)
            assert rep.converged
            solutions[n], lams[n] = rep.solution.values, drv.lambda_value
        errors = [np.abs(solutions[n] - solutions[2048][:, ::2048 // n]).max()
                  for n in (256, 512, 1024)]
        for e0, e1 in zip(errors, errors[1:]):
            assert e0 >= 1.5 * e1, f"errors {errors}, Lambda_alpha(n) {lams}"

    # (H, alpha) -> the sup errors measured at n = 256, 1024 (and 4096)
    CHAIN_RULE_ERRORS = {(0.75, 0.3): (2.85e-3, 1.65e-3, 8.79e-4),
                         (0.6, 0.45): (1.36e-2, 1.26e-2),
                         (0.9, 0.2): (5.77e-4, 2.13e-4)}

    @pytest.mark.parametrize("hurst, alpha", list(CHAIN_RULE_ERRORS))
    def test_solve_against_the_chain_rule_on_one_fbm_sample(self, hurst, alpha):
        # one seed-7 path at n = 16384, restricted by stride; on a frozen
        # driver with phi = psi(g) the exact solution is Y(t, xi) = f(t, g(xi))
        # (``oracles.chain_rule_solution``, on the solver's time grid).  The
        # errors are far above the self-convergence errors of the test above
        # (1.85e-5 and below) and fall slowest where H is least
        recorded = self.CHAIN_RULE_ERRORS[hurst, alpha]
        path = fbm.fbm_path(hurst, 16384, 7).values
        psi = lambda x: 0.5 * np.sin(math.pi * x)
        errors = []
        for n in (256, 1024, 4096)[:len(recorded)]:
            g = path[::16384 // n]
            drv = fbm.field_from_path(GridFunction(g), alpha)
            cfg = make_cfg(n=n, m=40, T=0.2, alpha=alpha, hurst=hurst,
                           phi=GridFunction(psi(g)), coeff=co.tanh_coefficient(1.0))
            rep = solver.solve(cfg, drv, verify=False)
            assert rep.converged
            exact = oracles.chain_rule_solution(g, psi, np.tanh, 40, 0.2)
            # the oracle's own space step is far below the errors it measures
            coarse = oracles.chain_rule_solution(g, psi, np.tanh, 40, 0.2, dx=2.0 ** -12)
            assert np.abs(exact - coarse).max() < 1e-6
            errors.append(float(np.abs(rep.solution.values - exact).max()))
        assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:])), errors
        assert all(e <= 2 * r for e, r in zip(errors, recorded)), errors

    def test_window_continuation_covers_horizon(self):
        n, m = 32, 160
        cfg = make_cfg(n=n, m=m, T=1.0, alpha=0.25, hurst=0.8,
                       coeff=co.tanh_coefficient(0.2))
        drv = fbm.stub_driving_field("linear", n, 0.25)
        rep = solver.solve(cfg, drv, verify=False)
        assert rep.converged
        assert len(rep.windows) > 10
        assert rep.windows[0].t_start == 0.0
        assert rep.windows[-1].t_end == pytest.approx(1.0)
        for w_prev, w_next in zip(rep.windows, rep.windows[1:]):
            assert w_next.t_start == pytest.approx(w_prev.t_end)
        assert all(w.guarantee_ok for w in rep.windows)

    def test_adaptive_policy_converges_to_same_solution(self):
        n, m, T = 48, 40, 0.2
        cfg_p = make_cfg(n=n, m=m, T=T)
        cfg_a = make_cfg(n=n, m=m, T=T, window_policy="adaptive")
        drv = fbm.stub_driving_field("quadratic", n, cfg_p.alpha)
        rp = solver.solve(cfg_p, drv, verify=False)
        ra = solver.solve(cfg_a, drv, verify=False)
        assert rp.converged and ra.converged
        assert np.abs(rp.solution.values - ra.solution.values).max() < 1e-7

    def test_nonconvergence_reported_not_silent(self):
        cfg = make_cfg(max_iterations=1, picard_tol=1e-16)
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert not rep.converged
        assert rep.failed_window == 0
        assert len(rep.windows[0].residual_history) == 1

    def test_determinism(self):
        cfg = make_cfg()
        drv = fbm.field_from_path(fbm.fbm_path(0.75, cfg.n, 5), cfg.alpha)
        r1 = solver.solve(cfg, drv, verify=False)
        r2 = solver.solve(cfg, drv, verify=False)
        assert np.array_equal(r1.solution.values, r2.solution.values)

    @pytest.mark.parametrize("alpha, hurst", [(0.2, 0.75), (0.5, 0.75), (0.3, 0.5),
                                              (0.3, 1.0)])
    def test_config_rejects_order_outside_solver_window(self, alpha, hurst):
        with pytest.raises(GridError):
            make_cfg(alpha=alpha, hurst=hurst)

    def test_config_rejects_zero_max_iterations(self):
        with pytest.raises(GridError):
            make_cfg(max_iterations=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_config_rejects_nonpositive_picard_tol(self, tol):
        with pytest.raises(GridError):
            make_cfg(picard_tol=tol)

    def test_one_frozen_driver_solves_two_time_grids(self):
        # a frozen driver has no time grid: one driver solves on two grids,
        # on each with the bits of a driver built for that solve alone
        cfg = make_cfg()
        path = fbm.fbm_path(0.75, cfg.n, 4)
        shared = fbm.field_from_path(path, cfg.alpha)
        for grid in (cfg, make_cfg(m=7, T=0.1)):
            r_shared = solver.solve(grid, shared, verify=False)
            r_own = solver.solve(grid, fbm.field_from_path(path, grid.alpha), verify=False)
            assert r_shared.converged
            assert r_shared.solution.values.shape == (grid.m + 1, grid.n + 1)
            assert np.array_equal(r_shared.solution.values, r_own.solution.values)

    def test_sheet_driver_on_another_grid_rejected(self):
        cfg = make_cfg(n=32, m=24, T=0.05)
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=32, m=12, T=0.05, seed=6), cfg.alpha)
        with pytest.raises(GridError):
            solver.solve(cfg, drv, verify=False)

    def test_sheet_driver_runs(self):
        n, m, T = 32, 24, 0.05
        cfg = make_cfg(n=n, m=m, T=T)
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=m, T=T, seed=6), cfg.alpha)
        rep = solver.solve(cfg, drv, verify=True)
        assert rep.converged
        assert rep.verdicts["gronwall"]["passed"]
        # spot probes need a time-constant driver and are skipped here
        assert "ball_invariance" not in rep.verdicts


class TestDriverOrder:
    """Every entry point refuses a driver prepared for another order alpha,
    rather than mixing the two orders in one operator."""

    @staticmethod
    def mismatched():
        cfg = make_cfg(n=64, m=4, T=0.01, alpha=0.35)
        drv = fbm.stub_driving_field("sine", 64, 0.3)
        return cfg, drv, constants_for(cfg, drv)

    def test_apply_F(self):
        drv = fbm.stub_driving_field("sine", 64, 0.3)
        Y = SpaceTimeField(1.0, np.tile(ramp_phi(64).values, (5, 1)))
        with pytest.raises(GridError, match="different alpha"):
            oracles.apply_F(Y, ramp_phi(64), co.tanh_coefficient(), drv, 0.2)

    def test_solve(self):
        cfg, drv, _ = self.mismatched()
        with pytest.raises(GridError, match="different alpha"):
            solver.solve(cfg, drv, verify=False)

    def test_ball_invariance_check(self):
        cfg, drv, cons = self.mismatched()
        with pytest.raises(GridError, match="different alpha"):
            solver.ball_invariance_check(cfg, drv, cons, trials=2, seed=0)

    def test_contraction_probe(self):
        # one trial: a single field pair
        cfg, drv, cons = self.mismatched()
        with pytest.raises(GridError, match="different alpha"):
            solver.contraction_probe(cfg, drv, cons, 0.01, 1, np.random.default_rng(1))

    def test_contraction_sweep(self):
        # several trials: every pair mapped as one field stack
        cfg, drv, cons = self.mismatched()
        with pytest.raises(GridError, match="different alpha"):
            solver.contraction_probe(cfg, drv, cons, 0.01, 5, np.random.default_rng(1))


class TestConstantsFlow:
    def test_verdicts_use_the_window_zero_constants(self):
        cfg = make_cfg(n=32, m=8)
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.alpha)
        rep = solver.solve(cfg, drv)
        run, cons = rep.constants, rep.windows[0].constants
        assert run == solver.run_constants(cfg.alpha, cfg.coeff, drv.lambda_value)
        assert cons == constants_for(cfg, drv)
        assert rep.verdicts["gronwall"]["k"] == run.gronwall_k
        assert rep.verdicts["gronwall"]["phi_norm"] == cons.phi_norm
        t2 = cons.t2 if math.isfinite(cons.t2) else cfg.T
        assert rep.verdicts["contraction"]["ceiling"] == cons.b5 * t2
        assert rep.verdicts["ball_invariance"]["r1"] == cons.r1


def probe_case(name):
    """(cfg, driver, constants, t_w) of a probe test: the README config, the
    ``verify contraction`` config, or a sheet driver built on the probe grid
    [0, t_w] (its constants' T1 and T2 set to t_w, so both probes use it)."""
    if name == "readme":
        cfg, build = cli._read_config(README_CONFIG)
        drv = build()
    elif name == "probe96":
        cfg, drv = cli._probe_config(96)
    else:
        n, t_w = 48, 0.05
        cfg = make_cfg(n=n, m=solver.PROBE_TIME_CELLS, T=t_w, phi=GridFunction(
            0.5 * np.sin(np.pi * np.linspace(0, 1, n + 1))))
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=cfg.m, T=t_w, seed=7), cfg.alpha)
        cons = dataclasses.replace(constants_for(cfg, drv), t1=t_w, t2=t_w)
        return cfg, drv, cons, t_w
    cons = constants_for(cfg, drv)
    return cfg, drv, cons, min(cons.t2, cfg.T)


PROBE_CASES = [("readme", 5), ("readme", 60), ("probe96", 5), ("probe96", 60), ("sheet", 40)]


def hand_rolled_ball(cfg, drv, cons, trials, seed):
    """``ball_invariance_check`` as a loop over its trials, each scaled and
    mapped by F on its own."""
    a = cfg.alpha
    t_w = cons.t1 if math.isfinite(cons.t1) else cfg.T
    rng = np.random.default_rng(seed)
    fields = [SpaceTimeField(t_w, np.tile(cfg.phi.values,
                                          (solver.PROBE_TIME_CELLS + 1, 1)))]
    for _ in range(trials - 1):
        Y = random_smooth_field(solver.PROBE_TIME_CELLS, cfg.n, t_w, rng)
        nrm = norms.norm_alpha_infty(Y, a)
        target = rng.uniform(0.2, 1.0) * cons.r1
        fields.append(SpaceTimeField(t_w, Y.values * (target / max(nrm, 1e-12))))
    images = [oracles.apply_F(Y, cfg.phi, cfg.coeff, drv, a).values for Y in fields]
    worst = max(norms.slice_norms_alpha_infty(F, a).max() for F in images)
    return {"passed": bool(worst <= cons.r1 * (1.0 + solver._REL_SLACK)), "r1": cons.r1,
            "t1": t_w, "worst_excess": float(worst - cons.r1), "trials": trials}


def hand_rolled_contraction(cfg, drv, cons, t_w, trials, rng):
    """``contraction_probe`` as a loop over its field pairs, each field
    mapped by F on its own and each norm the max of the slice norms."""
    a = cfg.alpha
    ceiling = cons.b5 * t_w
    ratios = []
    for _ in range(trials):
        pair = []
        for _ in range(2):
            Y = random_smooth_field(solver.PROBE_TIME_CELLS, cfg.n, t_w, rng)
            s = 0.8 * cons.r1 / max(norms.norm_alpha_infty(Y, a), 1e-12)
            pair.append(SpaceTimeField(t_w, Y.values * s))
        F1, F2 = (oracles.apply_F(Y, cfg.phi, cfg.coeff, drv, a) for Y in pair)
        num = norms.slice_norms_alpha_infty(F1.values - F2.values, a).max()
        den = norms.slice_norms_alpha_infty(pair[0].values - pair[1].values, a).max()
        ratios.append(float(num / den))
    return {"passed": all(r <= ceiling * 1.1 or ceiling == 0.0 for r in ratios),
            "max_ratio": max(ratios), "ceiling": float(ceiling), "trials": trials}


class TestContractionProbe:
    def test_constant_coefficient_has_zero_ratio(self):
        # F depends on Y only through A, so constant A gives numerator 0
        cfg = make_cfg(coeff=co.constant_coefficient(1.5))
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.alpha)
        probe = solver.contraction_probe(cfg, drv, constants_for(cfg, drv), 0.01, 3,
                                         np.random.default_rng(1))
        assert probe["max_ratio"] == 0.0

    def test_randomized_ratios_below_ceiling(self):
        cfg = make_cfg(n=64)
        drv = fbm.stub_driving_field("quadratic", 64, cfg.alpha)
        cons = constants_for(cfg, drv)
        probe = solver.contraction_probe(cfg, drv, cons, min(cons.t2, cfg.T), 25,
                                         np.random.default_rng(2))
        assert probe["passed"] and probe["trials"] == 25
        assert probe["max_ratio"] <= probe["ceiling"] * 1.1

    def test_sweep_matches_hand_rolled_probes(self):
        # all pairs are mapped as one field stack: the same verdict, bit for
        # bit, as mapping each field on its own
        for name, trials in PROBE_CASES:
            cfg, drv, cons, t_w = probe_case(name)
            probe = solver.contraction_probe(cfg, drv, cons, t_w, trials,
                                             np.random.default_rng(2))
            assert probe == hand_rolled_contraction(cfg, drv, cons, t_w, trials,
                                                    np.random.default_rng(2)), (name, trials)

    def test_ratio_scales_linearly_in_window_length(self):
        # a random field's values do not depend on its length, so one seed
        # draws the same scaled pairs for both windows
        cfg = make_cfg(n=64)
        drv = fbm.stub_driving_field("quadratic", 64, cfg.alpha)
        cons = constants_for(cfg, drv)
        ratios = [solver.contraction_probe(cfg, drv, cons, t_w, 5,
                                           np.random.default_rng(4))["max_ratio"]
                  for t_w in (0.02, 0.01)]
        assert ratios[1] == pytest.approx(0.5 * ratios[0], rel=0.2)


class TestBallInvariance:
    def test_zero_coefficient_never_leaves_ball(self):
        cfg = make_cfg(coeff=co.zero_coefficient())
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.alpha)
        rep = solver.ball_invariance_check(cfg, drv, constants_for(cfg, drv),
                                           trials=20, seed=0)
        assert rep["passed"]

    def test_flat_extension_of_phi_stays_inside(self):
        cfg = make_cfg()
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.alpha)
        rep = solver.ball_invariance_check(cfg, drv, constants_for(cfg, drv),
                                           trials=1, seed=0)
        assert rep["passed"] and rep["worst_excess"] < 0

    def test_random_sweep(self):
        cfg = make_cfg(n=64)
        drv = fbm.stub_driving_field("quadratic", 64, cfg.alpha)
        rep = solver.ball_invariance_check(cfg, drv, constants_for(cfg, drv),
                                           trials=100, seed=3)
        assert rep["passed"]

    @pytest.mark.parametrize("name, trials", PROBE_CASES,
                             ids=[f"{n}-{k}" for n, k in PROBE_CASES])
    def test_matches_hand_rolled_trials(self, name, trials):
        # all trials are mapped as one field stack, trial 0 the flat
        # extension of phi: the same dict, bit for bit, as mapping each
        # trial on its own
        cfg, drv, cons, _ = probe_case(name)
        assert solver.ball_invariance_check(cfg, drv, cons, trials=trials, seed=4) \
            == hand_rolled_ball(cfg, drv, cons, trials, seed=4)

    def test_sweeps_stay_one_band(self, monkeypatch):
        # 100 trials of 5 rows at n = 1024 go through the inner integrals in
        # stacks of at most _SWEEP_ROWS rows
        cfg, drv = cli._probe_config(1024)
        rows = []
        inner = solver._inner_integrals

        def spy(y_rows, *args):
            rows.append(y_rows.shape[0])
            return inner(y_rows, *args)
        monkeypatch.setattr(solver, "_inner_integrals", spy)
        solver.ball_invariance_check(cfg, drv, constants_for(cfg, drv), trials=100, seed=0)
        assert max(rows) <= solver._SWEEP_ROWS
        assert sum(rows) == 100 * (solver.PROBE_TIME_CELLS + 1)


def test_time_step_is_second_order_against_rk4():
    # on a time-constant driver the equation is y' = G(y), G(y) = int_0^xi
    # A(y) dg, and the windowed Picard scheme is the implicit trapezoid rule;
    # measured at n = 64: errors 5.0e-8 .. 2.0e-10 for m = 25 .. 400, ratio 4.00
    cfg_dict = dict(README_CONFIG, grid={"m": 25, "n": 64, "T": 0.5},
                    picard={"tol": 1e-13, "max_iter": 60})
    cfg, build = cli._read_config(cfg_dict)
    drv = build()
    op = drv.time_slice(0)

    def G(y):
        return stieltjes.stieltjes_all_upper_limits(cfg.coeff(y), op)
    y, steps = cfg.phi.values.copy(), 500   # RK4 moves by < 2e-15 from 250 steps
    dt = cfg.T / steps
    for _ in range(steps):
        k1 = G(y)
        k2 = G(y + 0.5 * dt * k1)
        k3 = G(y + 0.5 * dt * k2)
        k4 = G(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    errors = []
    for m in (25, 50, 100, 200, 400):
        run, _ = cli._read_config(dict(cfg_dict, grid={"m": m, "n": 64, "T": 0.5}))
        rep = solver.solve(run, drv, verify=False)
        assert rep.converged
        errors.append(np.abs(rep.solution.values[-1] - y).max())
    for e0, e1 in zip(errors, errors[1:]):
        assert e0 / e1 == pytest.approx(4.0, abs=0.2), errors


class TestStackedMaxInProbes:
    """The probes take their norms as one max over a stack of slices
    (``norms.max_slice_norm``); their verdicts must equal those built from
    the max of every slice's own norm."""

    @staticmethod
    def probe_dicts(cfg, drv):
        cons = constants_for(cfg, drv)
        ball = solver.ball_invariance_check(cfg, drv, cons, trials=5, seed=0)
        contraction = solver.contraction_probe(cfg, drv, cons, min(cons.t2, cfg.T), 5,
                                               np.random.default_rng(1))
        return ball, contraction

    @pytest.mark.parametrize("name", ["readme", "probe96", "probe400"])
    def test_equal_to_the_max_of_slice_norms(self, name, monkeypatch):
        if name == "readme":
            cfg, build = cli._read_config(README_CONFIG)
            drv = build()
        else:
            cfg, drv = cli._probe_config(int(name[5:]))
        got = self.probe_dicts(cfg, drv)
        monkeypatch.setattr(norms, "max_slice_norm", lambda rows, alpha, floor=-np.inf: float(
            np.max([floor, norms.slice_norms_alpha_infty(rows, alpha).max()])))
        assert got == self.probe_dicts(cfg, drv)


class TestGronwall:
    def test_zero_coefficient_flat_envelope(self):
        cfg = make_cfg(coeff=co.zero_coefficient())
        drv = fbm.stub_driving_field("linear", cfg.n, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        g = rep.verdicts["gronwall"]
        assert g["passed"] and g["k"] == 0.0

    def test_constant_coefficient_closed_form_run(self):
        n, m = 48, 40
        cfg = make_cfg(n=n, m=m, T=1.0, coeff=co.constant_coefficient(0.5))
        drv = fbm.stub_driving_field("linear", n, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert rep.verdicts["gronwall"]["passed"]

    @pytest.mark.parametrize("seed", range(5))
    def test_fbm_runs(self, seed):
        n, m, T = 48, 60, 0.05
        cfg = make_cfg(n=n, m=m, T=T)
        drv = fbm.field_from_path(fbm.fbm_path(0.75, n, seed), cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert rep.converged
        assert rep.verdicts["gronwall"]["passed"]
        assert rep.verdicts["gronwall"]["min_margin"] >= 0.0

    def test_window_start_norms_reused_bitwise(self):
        n, m, T = 48, 60, 0.05
        cfg = make_cfg(n=n, m=m, T=T)
        drv = fbm.field_from_path(fbm.fbm_path(0.75, n, 1), cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert len(rep.windows) > 1
        # recomputing every row gives the same verdict, bit for bit
        phi_norm = rep.windows[0].constants.phi_norm
        assert solver.gronwall_check(rep.solution, rep.constants, phi_norm, {}) == \
            rep.verdicts["gronwall"]
        # and a known norm is taken as given, not recomputed
        bad = solver.gronwall_check(rep.solution, rep.constants, phi_norm, {3: 1e9})
        assert not bad["passed"] and bad["violations"][0]["running_norm"] == 1e9

    @pytest.mark.parametrize("k, phi_norm, first", [(1e4, None, 8), (1e4, 0.0, None),
                                                     (math.inf, None, 1)])
    def test_overflowing_envelope_is_unbounded_not_an_error(self, k, phi_norm, first):
        # exp(K t) overflows for t > 0.071 at K = 1e4, and for every t > 0
        # at K = inf: the envelope is +inf there (0 while ||phi|| = 0, never
        # NaN), min_margin stays finite, and unbounded_from names the first
        # such node
        cfg = make_cfg(n=32, m=20, T=0.2)
        drv = fbm.stub_driving_field("linear", cfg.n, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        run = dataclasses.replace(rep.constants, gronwall_k=k)
        if phi_norm is None:
            phi_norm = rep.windows[0].constants.phi_norm
        with np.errstate(over="raise", invalid="raise"):
            g = solver.gronwall_check(rep.solution, run, phi_norm, {})
        assert math.isfinite(g["min_margin"])
        if first is None:
            assert g["unbounded_from"] is None and not g["passed"]
        else:
            assert g["unbounded_from"] == rep.solution.t_nodes[first] and g["passed"]
        assert rep.verdicts["gronwall"]["unbounded_from"] is None


class TestContractionRatio:
    @pytest.mark.parametrize("history, ratio", [
        ([1.0, 5.0, 1.0], 0.2),              # r_1 / r_0 = 5 is left out
        ([1.0, 0.5, 0.25, 0.2], 0.8),        # the largest later ratio
        ([1.0, 0.5, 1e-15, 1e-16], 2e-15),   # r_2 = 1e-15 <= 1e-14 divides nothing
        ([1.0, 1e-14, 1e-15], 0.0),          # nor does r_1 = 1e-14: no pair is left
        ([1.0, 0.5], 0.0),                   # fewer than three residuals
        ([0.3], 0.0),
    ])
    def test_largest_ratio_after_the_first_above_the_floor(self, history, ratio):
        assert solver._measured_ratio(history) == ratio


class TestWindowNorm:
    @pytest.mark.parametrize("zero_rows", [(), (0,), (0, 3)])
    def test_equals_max_of_slice_norms(self, zero_rows):
        n = 64
        diff = np.random.default_rng(3).standard_normal((5, n + 1)).cumsum(axis=1)
        diff[list(zero_rows)] = 0.0
        expected = max(norms.slice_norm_alpha_infty(row, 0.3) for row in diff)
        assert solver._window_norm(diff, np.zeros_like(diff), 0.3) == expected

    def test_all_zero_rows(self):
        Y = np.random.default_rng(2).standard_normal((3, 17))
        assert solver._window_norm(Y, Y.copy(), 0.3) == 0.0

    @pytest.mark.parametrize("n", [128, 1024])
    def test_bands_give_the_stacked_max(self, n):
        # 100 rows go in bands of _SWEEP_ROWS from the last, with one floor,
        # each band's difference F - Y formed in its step
        rng = np.random.default_rng(n)
        Y = rng.standard_normal((100, n + 1)).cumsum(axis=1)
        F = Y + 1e-3 * rng.standard_normal((100, n + 1)).cumsum(axis=0)
        F[0] = Y[0]
        want = norms.slice_norms_alpha_infty((F - Y)[1:], 0.3).max()
        assert np.float64(solver._window_norm(F, Y, 0.3)).tobytes() == want.tobytes()
        for row in (99, 40, 1):   # a NaN stays NaN in the first, a middle and the last band
            bad = F.copy()
            bad[row, n // 2] = np.nan
            with np.errstate(invalid="ignore"):
                assert np.isnan(solver._window_norm(bad, Y, 0.3)), row


class TestLongWindow:
    @pytest.mark.parametrize("model, w", [("frozen", 70), ("sheet", 40)], ids=["frozen", "sheet"])
    def test_banded_sweep_is_bitwise_one_stacked_call(self, model, w):
        # a time-constant driver's window goes _SWEEP_ROWS rows per sweep, a
        # sheet's one row per slice, and the time integral runs in its
        # output: bitwise one stacked call per slice and the out-of-place sum
        n = 64
        cfg = make_cfg(n=n, m=w, T=0.01)
        drv = (fbm.field_from_path(fbm.fbm_path(0.75, n, 7), 0.3) if model == "frozen" else
               fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=w, T=0.01, seed=7), 0.3))
        rng = np.random.default_rng(5)
        Yw = cfg.phi.values + 0.1 * rng.standard_normal((w + 1, n + 1)).cumsum(axis=0)
        got = solver._apply_window(Yw, cfg.phi.values, cfg.coeff, drv, 0, cfg.dt)
        if model == "frozen":
            V = stieltjes.stieltjes_all_upper_limits(cfg.coeff(Yw), drv.time_slice(0))
        else:
            V = np.array([stieltjes.stieltjes_all_upper_limits(cfg.coeff(y), drv.time_slice(j))
                          for j, y in enumerate(Yw)])
        want = np.empty_like(V)
        want[0] = cfg.phi.values
        want[1:] = cfg.phi.values + np.cumsum(0.5 * cfg.dt * (V[1:] + V[:-1]), axis=0)
        assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("model", ["frozen", "sheet"])
    @pytest.mark.parametrize("n", [64, 600])
    @pytest.mark.parametrize("k", [2, 40])
    @pytest.mark.parametrize("with_v0", [False, True], ids=["sweep-row-0", "v0"])
    def test_field_stack_is_bitwise_one_field_at_a_time(self, model, n, k, with_v0):
        # k fields on one window, (rows, k, n+1): more rows than _SWEEP_ROWS
        # share a slice on both drivers at k = 40; n = 600 contracts by FFT
        m, T = 4, 0.01
        cfg = make_cfg(n=n, m=m, T=T)
        drv = (fbm.field_from_path(fbm.fbm_path(0.75, n, 7), 0.3) if model == "frozen" else
               fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=m, T=T, seed=7), 0.3))
        rng = np.random.default_rng(k)
        Ys = cfg.phi.values + 0.1 * rng.standard_normal((m + 1, k, n + 1)).cumsum(axis=0)
        v0 = solver._inner_integrals(Ys[0], cfg.coeff, drv.time_slice(0)) if with_v0 else None
        got = solver._apply_window(Ys, cfg.phi.values, cfg.coeff, drv, 0, cfg.dt, v0)
        assert got.shape == Ys.shape
        for f in range(k):
            want = oracles.apply_F(SpaceTimeField(T, Ys[:, f]), cfg.phi, cfg.coeff, drv, 0.3)
            assert got[:, f].tobytes() == want.values.tobytes(), f

    def test_time_integral_names_the_node_of_a_field_stack(self):
        V = np.zeros((6, 4, 17))
        V[3, 0, 2] = np.nan   # a later time node in the first field
        V[2, 3, 7] = np.inf   # the first time node hit, in the last field
        with pytest.raises(GridError, match=r"^non-finite iterate at time node 7, space node 7$"):
            solver._time_integral(V, np.zeros(17), 5, 0.1)
        V[2, 3, 7] = 0.0
        with pytest.raises(GridError, match=r"^non-finite iterate at time node 8, space node 2$"):
            solver._time_integral(V, np.zeros(17), 5, 0.1)


class TestSampling:
    @pytest.mark.parametrize("n", [2, 3, 64, 96, 257, 1024])
    def test_whole_array_samplers_are_the_mode_sums(self, n):
        # one broadcast product summed over its modes, bitwise the sum of one
        # mode at a time, and the generator left in the same state
        for seed in range(50):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            g = sampling.random_trig_grid(n, got)
            assert g.values.tobytes() == oracles.random_trig_grid(n, want).values.tobytes()
            for m, T in ((4, 0.01), (1, 1.0), (16, 0.3)):
                Y = sampling.random_smooth_field(m, n, T, got)
                ref = oracles.random_smooth_field(m, n, T, want)
                assert Y.T == ref.T and Y.values.tobytes() == ref.values.tobytes(), (seed, m)
            assert got.standard_normal() == want.standard_normal()


class TestSolveMemory:
    @staticmethod
    def traced_solve(m, T):
        """Traced peak of building a frozen driver of n = 128 and solving."""
        cfg = make_cfg(n=128, m=m, T=T)
        tracemalloc.start()
        try:
            drv = fbm.field_from_path(fbm.fbm_path(0.75, 128, 7), 0.3)
            rep = solver.solve(cfg, drv, verify=False)
            assert rep.converged
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_by_one_field_per_field(self):
        # one time step and windows of about 18 cells over m = 500 and 2000
        # cells: the driver holds one slice, the solution is the solve's own
        # Y, and the Gronwall norms go 32 rows at a time, so the peak grows
        # by the field's size (1.1 times it measured) plus the window records;
        # a tiled driver, a copied solution and one stacked Gronwall call
        # made it 5.6 times
        self.traced_solve(10, 0.01)   # fill the weight caches
        peaks = {m: self.traced_solve(m, m * 2.25e-4) for m in (500, 2000)}
        field = (2000 - 500) * 129 * 8
        assert peaks[2000] - peaks[500] < 1.3 * field

    def test_long_window_scratch_is_bounded(self):
        # one window of all 2000 cells (T = 0.0018 is below T0): the sweep and
        # the residual norm go _SWEEP_ROWS rows at a time, the norm forms each
        # band's difference in its step and the time integral runs in its
        # output, so the peak is the solution, two window-sized arrays and a
        # band's scratch (8.67 MB measured); a whole-window difference made
        # it 9.57 MB, and one stacked sweep and norm over the window 22.9 MB
        self.traced_solve(10, 0.01)
        assert self.traced_solve(2000, 0.0018) < 9.1e6

