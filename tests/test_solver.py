import math

import numpy as np
import pytest

from fracpath.grids import GridError, GridFunction, SpaceTimeField
from fracpath import cli, coefficients as co, fbm, norms, solver
from fracpath.sampling import random_smooth_field

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
    return GridFunction(0, 1, np.linspace(0, 1, n + 1))


def make_cfg(n=48, m=20, T=0.2, alpha=0.3, hurst=0.75, coeff=None, phi=None, **kw):
    return solver.SolverConfig(
        alpha=alpha, hurst=hurst, m=m, n=n, T=T,
        phi=phi if phi is not None else ramp_phi(n),
        coeff=coeff if coeff is not None else co.tanh_coefficient(0.5), **kw)


def constants_for(cfg, drv):
    """The global proof constants of a solve of cfg against drv."""
    return solver.compute_constants(cfg.alpha, cfg.coeff, drv.lambda_value,
                                    cfg.phi_norm(), horizon=cfg.T)


class TestComputeConstants:
    def test_worked_example_to_four_figures(self):
        # alpha = 1/4, M1 = M2 = Lambda = 1, ||phi|| = 1, R1 = 2
        c = solver.compute_constants(0.25, co.tanh_coefficient(1.0), lam=1.0,
                                     phi_norm=1.0, r1=2.0)
        assert c.b1 == pytest.approx(2.396, abs=5e-4)
        assert c.b2 == pytest.approx(12.459, abs=5e-3)
        assert c.t1 == pytest.approx(0.02675, abs=5e-6)

    def test_worked_example_against_independent_gamma_evaluation(self):
        import mpmath

        c = solver.compute_constants(0.25, co.tanh_coefficient(1.0), lam=1.0,
                                     phi_norm=1.0, r1=2.0)
        b1 = float(mpmath.beta(0.5, 0.75))
        b2 = (1 / 0.75 + b1 / 0.5) + (1 + 1 / (0.25 * 0.75))
        t1 = (2 - 1) / (b2 * 3)
        assert c.b1 == pytest.approx(b1, rel=5e-5)   # 4 significant figures
        assert c.b2 == pytest.approx(b2, rel=5e-5)
        assert c.t1 == pytest.approx(t1, rel=5e-5)

    def test_degenerate_coefficient_returns_horizon(self):
        c = solver.compute_constants(0.3, co.zero_coefficient(), lam=2.0,
                                     phi_norm=1.0, horizon=7.5)
        assert c.b2 == 0.0 and c.t1 == 7.5 and c.t0 == 7.5

    def test_b3_is_max_of_one_and_b1(self):
        c = solver.compute_constants(0.3, co.tanh_coefficient(), lam=1.0,
                                     phi_norm=0.5)
        assert c.b3 == max(1.0, c.b1)

    def test_b5_scales_with_lambda_and_b4(self):
        c1 = solver.compute_constants(0.3, co.tanh_coefficient(), lam=1.0,
                                      phi_norm=0.5, r1=2.0)
        c2 = solver.compute_constants(0.3, co.tanh_coefficient(), lam=3.0,
                                      phi_norm=0.5, r1=2.0)
        assert c2.b5 == pytest.approx(3.0 * c1.b5, rel=1e-12)
        rho = (2 - 0.9) / ((1 - 0.6) * 0.7)
        assert c1.b5 == pytest.approx(c1.b3 * c1.b4 * rho, rel=1e-12)

    def test_rejects_radius_inside_initial_norm(self):
        with pytest.raises(GridError):
            solver.compute_constants(0.3, co.tanh_coefficient(), lam=1.0,
                                     phi_norm=2.0, r1=1.5)


class TestApplyF:
    def test_zero_coefficient_returns_phi(self):
        n, m = 32, 6
        phi = ramp_phi(n)
        drv = fbm.stub_driving_field("linear", n, m, 1.0, 0.3)
        Y = SpaceTimeField(1.0, np.random.default_rng(0).standard_normal((m + 1, n + 1)))
        F = solver.apply_F(Y, phi, co.zero_coefficient(), drv, 0.3)
        np.testing.assert_array_equal(F.values, np.tile(phi.values, (m + 1, 1)))

    def test_constant_coefficient_closed_form(self):
        # A = c, frozen g: F(Y) = phi + c t (g(xi) - g(0)) exactly
        n, m = 48, 10
        phi = ramp_phi(n)
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=m, T=0.5,
                                              seed=2), 0.3)
        Y = SpaceTimeField.constant_in_time(np.zeros(n + 1), m, 0.5)
        F = solver.apply_F(Y, phi, co.constant_coefficient(2.0), drv, 0.3)
        t = np.linspace(0, 0.5, m + 1)[:, None]
        g = drv.field.values[0]
        exact = phi.values[None, :] + 2.0 * t * (g - g[0])[None, :]
        np.testing.assert_allclose(F.values, exact, atol=1e-14)

    def test_odd_coefficient_fixes_zero(self):
        # A = tanh, phi = 0: F(0) = 0, so the zero field is a fixed point
        n, m = 32, 5
        phi = GridFunction(0, 1, np.zeros(n + 1))
        drv = fbm.stub_driving_field("linear", n, m, 1.0, 0.3)
        Y = SpaceTimeField.constant_in_time(np.zeros(n + 1), m, 1.0)
        F = solver.apply_F(Y, phi, co.tanh_coefficient(), drv, 0.3)
        np.testing.assert_allclose(F.values, 0.0, atol=1e-15)

    def test_grid_mismatch_rejected(self):
        drv = fbm.stub_driving_field("linear", 32, 5, 1.0, 0.3)
        Y = SpaceTimeField.constant_in_time(np.zeros(49), 5, 1.0)
        with pytest.raises(GridError):
            solver.apply_F(Y, ramp_phi(48), co.tanh_coefficient(), drv, 0.3)

    def test_frozen_driver_serves_any_time_grid(self):
        # a frozen driver built on one time grid, applied on a probe grid,
        # gives the bits of a driver built on the probe grid itself
        n = 48
        path = fbm.fbm_path(0.75, n, 11)
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=10, T=1.0,
                                              seed=11), 0.3)
        probe = fbm.field_from_path(path, 4, 0.25, 0.3)
        Y = random_smooth_field(4, n, 0.25, np.random.default_rng(1))
        F = solver.apply_F(Y, ramp_phi(n), co.tanh_coefficient(), drv, 0.3)
        F_probe = solver.apply_F(Y, ramp_phi(n), co.tanh_coefficient(), probe, 0.3)
        assert np.array_equal(F.values, F_probe.values)

    def test_sheet_driver_rejects_other_time_grid(self):
        n = 48
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=10, T=1.0,
                                              seed=11, time_model="sheet"), 0.3)
        Y = random_smooth_field(4, n, 0.25, np.random.default_rng(1))
        with pytest.raises(GridError):
            solver.apply_F(Y, ramp_phi(n), co.tanh_coefficient(), drv, 0.3)


class TestSolve:
    def test_zero_coefficient_single_iteration(self):
        cfg = make_cfg(coeff=co.zero_coefficient())
        drv = fbm.stub_driving_field("linear", cfg.n, cfg.m, cfg.T, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert rep.converged
        assert all(w.iterations == 1 for w in rep.windows)
        np.testing.assert_array_equal(
            rep.solution.values, np.tile(cfg.phi.values, (cfg.m + 1, 1)))

    def test_constant_coefficient_exact_solution(self):
        n, m = 48, 40
        cfg = make_cfg(n=n, m=m, T=1.0, coeff=co.constant_coefficient(1.0),
                       phi=GridFunction(0, 1, np.zeros(n + 1)))
        drv = fbm.stub_driving_field("linear", n, m, 1.0, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        t = np.linspace(0, 1, m + 1)[:, None]
        xi = np.linspace(0, 1, n + 1)[None, :]
        assert rep.converged
        np.testing.assert_allclose(rep.solution.values, t * xi, atol=1e-12)

    def test_residual_invariant(self):
        cfg = make_cfg()
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.m, cfg.T, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert rep.converged
        assert all(w.final_residual <= cfg.picard_tol for w in rep.windows)

    def test_uniqueness_proxy(self):
        # restarting the iteration from a perturbed admissible guess lands on
        # the same fixed point to within 10x the tolerance
        n, m, T = 48, 16, 0.1
        cfg = make_cfg(n=n, m=m, T=T, picard_tol=1e-11)
        drv = fbm.stub_driving_field("quadratic", n, m, T, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)

        cons = solver.compute_constants(cfg.alpha, cfg.coeff, drv.lambda_value,
                                        cfg.phi_norm(), horizon=T)
        rng = np.random.default_rng(9)
        bump = random_smooth_field(m, n, T, rng)
        scale = 0.2 * cons.r1 / max(norms.norm_alpha_infty(bump, cfg.alpha), 1e-9)
        Y = SpaceTimeField(T, np.tile(cfg.phi.values, (m + 1, 1))
                           + scale * bump.values * np.linspace(0, 1, m + 1)[:, None])
        for _ in range(cfg.max_iterations):
            F = solver.apply_F(Y, cfg.phi, cfg.coeff, drv, cfg.alpha)
            res = max(norms.slice_norm_alpha_infty(r, cfg.phi.h, cfg.alpha)
                      for r in F.values - Y.values)
            Y = F
            if res <= cfg.picard_tol:
                break
        dev = max(norms.slice_norm_alpha_infty(r, cfg.phi.h, cfg.alpha)
                  for r in Y.values - rep.solution.values)
        assert dev <= 10 * cfg.picard_tol

    def test_grid_convergence(self):
        m, T = 40, 0.2
        fields = []
        for n in (128, 256, 512):
            cfg = make_cfg(n=n, m=m, T=T)
            drv = fbm.stub_driving_field("quadratic", n, m, T, cfg.alpha)
            rep = solver.solve(cfg, drv, verify=False)
            assert rep.converged
            fields.append(rep.solution.values)
        e1 = np.abs(fields[0] - fields[2][:, ::4]).max()
        e2 = np.abs(fields[1] - fields[2][:, ::2]).max()
        assert e2 < e1

    def test_window_continuation_covers_horizon(self):
        n, m = 32, 160
        cfg = make_cfg(n=n, m=m, T=1.0, alpha=0.25, hurst=0.8,
                       coeff=co.tanh_coefficient(0.2))
        drv = fbm.stub_driving_field("linear", n, m, 1.0, 0.25)
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
        drv = fbm.stub_driving_field("quadratic", n, m, T, cfg_p.alpha)
        rp = solver.solve(cfg_p, drv, verify=False)
        ra = solver.solve(cfg_a, drv, verify=False)
        assert rp.converged and ra.converged
        assert np.abs(rp.solution.values - ra.solution.values).max() < 1e-7

    def test_nonconvergence_reported_not_silent(self):
        cfg = make_cfg(max_iterations=1, picard_tol=1e-16)
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.m, cfg.T, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert not rep.converged
        assert rep.failed_window == 0
        assert len(rep.windows[0].residual_history) == 1

    def test_determinism(self):
        cfg = make_cfg()
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=cfg.n, m=cfg.m,
                                              T=cfg.T, seed=5), cfg.alpha)
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

    def test_frozen_driver_from_another_time_grid(self):
        cfg = make_cfg()
        own = fbm.stub_driving_field("quadratic", cfg.n, cfg.m, cfg.T, cfg.alpha)
        other = fbm.stub_driving_field("quadratic", cfg.n, 3, 1.0, cfg.alpha)
        r_own = solver.solve(cfg, own, verify=False)
        r_other = solver.solve(cfg, other, verify=False)
        assert np.array_equal(r_own.solution.values, r_other.solution.values)

    def test_sheet_driver_on_another_grid_rejected(self):
        cfg = make_cfg(n=32, m=24, T=0.05)
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=32, m=12, T=0.05,
                                              seed=6, time_model="sheet"), cfg.alpha)
        with pytest.raises(GridError):
            solver.solve(cfg, drv, verify=False)

    def test_sheet_driver_runs(self):
        n, m, T = 32, 24, 0.05
        cfg = make_cfg(n=n, m=m, T=T)
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=m, T=T,
                                              seed=6, time_model="sheet"),
                                cfg.alpha)
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
        drv = fbm.stub_driving_field("sine", 64, 4, 0.01, 0.3)
        return cfg, drv, constants_for(cfg, drv)

    def test_apply_F(self):
        drv = fbm.stub_driving_field("sine", 64, 4, 1.0, 0.3)
        Y = SpaceTimeField.constant_in_time(ramp_phi(64).values, 4, 1.0)
        with pytest.raises(GridError, match="different alpha"):
            solver.apply_F(Y, ramp_phi(64), co.tanh_coefficient(), drv, 0.2)

    def test_solve(self):
        cfg, drv, _ = self.mismatched()
        with pytest.raises(GridError, match="different alpha"):
            solver.solve(cfg, drv, verify=False)

    def test_ball_invariance_check(self):
        cfg, drv, cons = self.mismatched()
        with pytest.raises(GridError, match="different alpha"):
            solver.ball_invariance_check(cfg, drv, cons, trials=2, seed=0)

    def test_contraction_probe(self):
        cfg, drv, cons = self.mismatched()
        Y1 = SpaceTimeField.constant_in_time(cfg.phi.values, 4, 0.01)
        Y2 = SpaceTimeField(0.01, 0.5 * Y1.values)
        with pytest.raises(GridError, match="different alpha"):
            solver.contraction_probe(Y1, Y2, cfg, drv, cons)

    def test_contraction_sweep(self):
        cfg, drv, cons = self.mismatched()
        with pytest.raises(GridError, match="different alpha"):
            solver.contraction_sweep(cfg, drv, cons, 0.01, 2, np.random.default_rng(1))


class TestConstantsFlow:
    def test_verdicts_use_the_window_zero_constants(self):
        cfg = make_cfg(n=32, m=8)
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.m, cfg.T, cfg.alpha)
        rep = solver.solve(cfg, drv)
        cons = rep.constants
        assert cons == rep.windows[0].constants
        assert cons == constants_for(cfg, drv)
        assert rep.verdicts["gronwall"]["k"] == cons.gronwall_k
        assert rep.verdicts["gronwall"]["phi_norm"] == cons.phi_norm
        t2 = cons.t2 if math.isfinite(cons.t2) else cfg.T
        assert rep.verdicts["contraction"]["ceiling"] == cons.b5 * t2
        assert rep.verdicts["ball_invariance"]["r1"] == cons.r1


class TestContractionProbe:
    def test_rejects_identical_fields(self):
        cfg = make_cfg()
        drv = fbm.stub_driving_field("quadratic", cfg.n, 4, 0.01, cfg.alpha)
        Y = SpaceTimeField.constant_in_time(cfg.phi.values, 4, 0.01)
        with pytest.raises(GridError):
            solver.contraction_probe(Y, Y, cfg, drv, constants_for(cfg, drv))

    def test_constant_coefficient_has_zero_ratio(self):
        # F depends on Y only through A, so constant A gives numerator 0
        cfg = make_cfg(coeff=co.constant_coefficient(1.5))
        drv = fbm.stub_driving_field("quadratic", cfg.n, 4, 0.01, cfg.alpha)
        Y1 = SpaceTimeField.constant_in_time(cfg.phi.values, 4, 0.01)
        Y2 = SpaceTimeField(0.01, Y1.values + 0.3)
        probe = solver.contraction_probe(Y1, Y2, cfg, drv, constants_for(cfg, drv))
        assert probe["ratio"] == 0.0

    @staticmethod
    def randomized_probes():
        """25 probes on random pairs scaled to 0.8 R1, written out by hand
        as the reference for ``solver.contraction_sweep``."""
        cfg = make_cfg(n=64)
        drv = fbm.stub_driving_field("quadratic", 64, 4, cfg.T, cfg.alpha)
        cons = solver.compute_constants(cfg.alpha, cfg.coeff, drv.lambda_value,
                                        cfg.phi_norm(), horizon=cfg.T)
        t2 = min(cons.t2, cfg.T)
        rng = np.random.default_rng(2)
        probes = []
        for _ in range(25):
            Y1 = random_smooth_field(4, 64, t2, rng)
            Y2 = random_smooth_field(4, 64, t2, rng)
            s1 = 0.8 * cons.r1 / max(norms.norm_alpha_infty(Y1, cfg.alpha), 1e-12)
            s2 = 0.8 * cons.r1 / max(norms.norm_alpha_infty(Y2, cfg.alpha), 1e-12)
            probes.append(solver.contraction_probe(SpaceTimeField(t2, Y1.values * s1),
                                                   SpaceTimeField(t2, Y2.values * s2),
                                                   cfg, drv, cons))
        return cfg, drv, cons, t2, probes

    def test_randomized_ratios_below_ceiling(self):
        for probe in self.randomized_probes()[-1]:
            assert probe["ratio"] <= probe["ceiling"] * 1.1

    def test_sweep_matches_hand_rolled_probes(self):
        cfg, drv, cons, t2, probes = self.randomized_probes()
        sweep = solver.contraction_sweep(cfg, drv, cons, t2, 25,
                                         np.random.default_rng(2))
        assert sweep["max_ratio"] == max(p["ratio"] for p in probes)
        assert sweep["ceiling"] == probes[0]["ceiling"]
        assert sweep["passed"] == all(p["passed"] for p in probes)
        assert sweep["trials"] == 25

    @staticmethod
    def swept_probes(name, monkeypatch):
        """Every ``contraction_probe`` call of a contraction sweep on the README
        config or on the ``verify contraction`` config: (args, kwargs, result)."""
        if name == "readme":
            cfg, build = cli._read_config(README_CONFIG)
            drv = build()
        else:
            cfg, drv = cli._probe_config(96)
        cons = constants_for(cfg, drv)
        calls = []
        probe = solver.contraction_probe

        def spy(*args, **kwargs):
            calls.append((args, kwargs, probe(*args, **kwargs)))
            return calls[-1][2]
        monkeypatch.setattr(solver, "contraction_probe", spy)
        solver.contraction_sweep(cfg, drv, cons, min(cons.t2, cfg.T), 5,
                                 np.random.default_rng(1))
        monkeypatch.undo()
        assert len(calls) == 5
        return calls

    @pytest.mark.parametrize("name", ["readme", "probe96"])
    def test_known_field_norms_give_the_same_probe(self, name, monkeypatch):
        for args, kwargs, result in self.swept_probes(name, monkeypatch):
            assert set(kwargs) == {"field_norms"}
            assert solver.contraction_probe(*args) == result

    @pytest.mark.parametrize("name", ["readme", "probe96"])
    def test_known_field_norms_match_the_scaled_fields(self, name, monkeypatch):
        # s ||Y|| against ||s Y||: the norm is positively homogeneous
        for args, kwargs, _ in self.swept_probes(name, monkeypatch):
            cfg = args[2]
            for Y, known in zip(args[:2], kwargs["field_norms"]):
                measured = norms.norm_alpha_infty(Y, cfg.alpha)
                assert known == pytest.approx(measured, rel=1e-14, abs=0.0)

    def test_known_field_norms_above_r1_refused(self):
        cfg, drv = cli._probe_config(96)
        cons = constants_for(cfg, drv)
        rng = np.random.default_rng(3)
        Y1, Y2 = (random_smooth_field(4, 96, 0.01, rng) for _ in range(2))
        n1, n2 = (norms.norm_alpha_infty(Y, cfg.alpha) for Y in (Y1, Y2))
        inside = [SpaceTimeField(0.01, Y.values * (0.5 * cons.r1 / nrm))
                  for Y, nrm in ((Y1, n1), (Y2, n2))]
        outside = [SpaceTimeField(0.01, Y.values * (1.5 * cons.r1 / nrm))
                   for Y, nrm in ((Y1, n1), (Y2, n2))]
        with pytest.raises(GridError, match="leave the ball"):
            solver.contraction_probe(*inside, cfg, drv, cons,
                                     field_norms=(0.5 * cons.r1, 1.5 * cons.r1))
        with pytest.raises(GridError, match="leave the ball"):
            solver.contraction_probe(*outside, cfg, drv, cons)
        solver.contraction_probe(*inside, cfg, drv, cons,
                                 field_norms=(0.5 * cons.r1, 0.5 * cons.r1))

    def test_ratio_scales_linearly_in_window_length(self):
        cfg = make_cfg(n=64)
        drv = fbm.stub_driving_field("quadratic", 64, 8, cfg.T, cfg.alpha)
        rng = np.random.default_rng(4)
        base = random_smooth_field(8, 64, 1.0, rng).values
        pert = random_smooth_field(8, 64, 1.0, rng).values
        ratios = []
        for T in (0.02, 0.01):
            Y1 = SpaceTimeField(T, 0.3 * base)
            Y2 = SpaceTimeField(T, 0.3 * base + 0.1 * pert)
            ratios.append(solver.contraction_probe(Y1, Y2, cfg, drv,
                                                   constants_for(cfg, drv))["ratio"])
        assert ratios[1] == pytest.approx(0.5 * ratios[0], rel=0.2)


class TestBallInvariance:
    def test_zero_coefficient_never_leaves_ball(self):
        cfg = make_cfg(coeff=co.zero_coefficient())
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.m, cfg.T, cfg.alpha)
        rep = solver.ball_invariance_check(cfg, drv, constants_for(cfg, drv),
                                           trials=20, seed=0)
        assert rep["passed"]

    def test_flat_extension_of_phi_stays_inside(self):
        cfg = make_cfg()
        drv = fbm.stub_driving_field("quadratic", cfg.n, cfg.m, cfg.T, cfg.alpha)
        rep = solver.ball_invariance_check(cfg, drv, constants_for(cfg, drv),
                                           trials=1, seed=0)
        assert rep["passed"] and rep["worst_excess"] < 0

    def test_random_sweep(self):
        cfg = make_cfg(n=64)
        drv = fbm.stub_driving_field("quadratic", 64, cfg.m, cfg.T, cfg.alpha)
        rep = solver.ball_invariance_check(cfg, drv, constants_for(cfg, drv),
                                           trials=100, seed=3)
        assert rep["passed"]


class TestFlatImage:
    # trial 0 of the ball check is built from phi's row-0 inner integral;
    # it must be bitwise F of the flat extension of phi
    @pytest.mark.parametrize("model", ["frozen", "sheet"])
    def test_bitwise_apply_F(self, model):
        n, t_w = 48, 0.05
        cfg = make_cfg(n=n, m=solver.PROBE_TIME_CELLS, T=t_w, phi=GridFunction(
            0, 1, 0.5 * np.sin(np.pi * np.linspace(0, 1, n + 1))))
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=cfg.m, T=t_w, seed=7,
                                              time_model=model), cfg.alpha)
        flat = SpaceTimeField.constant_in_time(cfg.phi.values, solver.PROBE_TIME_CELLS, t_w)
        F = solver.apply_F(flat, cfg.phi, cfg.coeff, drv, cfg.alpha)
        image = solver._flat_image(cfg, drv, t_w)
        assert image.T == F.T
        assert image.values.tobytes() == F.values.tobytes()

    def test_checks_the_driver_first(self):
        cfg = make_cfg(n=64, alpha=0.35)
        drv = fbm.stub_driving_field("sine", 64, 4, 0.01, 0.3)
        with pytest.raises(GridError, match="different alpha"):
            solver._flat_image(cfg, drv, 0.01)


class TestGronwall:
    def test_zero_coefficient_flat_envelope(self):
        cfg = make_cfg(coeff=co.zero_coefficient())
        drv = fbm.stub_driving_field("linear", cfg.n, cfg.m, cfg.T, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        g = rep.verdicts["gronwall"]
        assert g["passed"] and g["k"] == 0.0

    def test_constant_coefficient_closed_form_run(self):
        n, m = 48, 40
        cfg = make_cfg(n=n, m=m, T=1.0, coeff=co.constant_coefficient(0.5))
        drv = fbm.stub_driving_field("linear", n, m, 1.0, cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert rep.verdicts["gronwall"]["passed"]

    @pytest.mark.parametrize("seed", range(5))
    def test_fbm_runs(self, seed):
        n, m, T = 48, 60, 0.05
        cfg = make_cfg(n=n, m=m, T=T)
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=m, T=T,
                                              seed=seed), cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert rep.converged
        assert rep.verdicts["gronwall"]["passed"]
        assert rep.verdicts["gronwall"]["min_margin"] >= 0.0

    def test_window_start_norms_reused_bitwise(self):
        n, m, T = 48, 60, 0.05
        cfg = make_cfg(n=n, m=m, T=T)
        drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=m, T=T, seed=1),
                                cfg.alpha)
        rep = solver.solve(cfg, drv, verify=False)
        assert len(rep.windows) > 1
        # recomputing every row gives the same verdict, bit for bit
        assert solver.gronwall_check(rep.solution, cfg, rep.constants, {}) == \
            rep.verdicts["gronwall"]
        # and a known norm is taken as given, not recomputed
        bad = solver.gronwall_check(rep.solution, cfg, rep.constants, {3: 1e9})
        assert not bad["passed"] and bad["violations"][0]["running_norm"] == 1e9


class TestWindowNorm:
    @pytest.mark.parametrize("zero_rows", [(), (0,), (0, 3)])
    def test_equals_max_of_slice_norms(self, zero_rows):
        n = 64
        diff = np.random.default_rng(3).standard_normal((5, n + 1)).cumsum(axis=1)
        diff[list(zero_rows)] = 0.0
        expected = max(norms.slice_norm_alpha_infty(row, 1.0 / n, 0.3) for row in diff)
        assert solver._window_norm(diff, 1.0 / n, 0.3) == expected

    def test_all_zero_rows(self):
        assert solver._window_norm(np.zeros((3, 17)), 1.0 / 16, 0.3) == 0.0
