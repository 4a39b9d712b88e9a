import json
import math
import pathlib
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fracpath import cli

VERIFY_REFERENCE = pathlib.Path(__file__).parents[1] / "perfbench/reference/verify-all.json"


def run_cli(*args, cwd=None, env=None):
    return subprocess.run([sys.executable, "-m", "fracpath.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def write_config(path, **overrides):
    cfg = {
        "hurst": 0.75,
        "alpha": 0.3,
        "grid": {"m": 16, "n": 48, "T": 0.1},
        "driver": {"model": "stub", "kind": "linear"},
        "phi": {"kind": "ramp"},
        "A": {"kind": "tanh", "params": {"scale": 0.5}},
        "picard": {"tol": 1e-10, "max_iter": 40},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def assert_usage_error(r):
    """Exit 2 with one ``error:`` line and no traceback."""
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert len(r.stderr.splitlines()) == 1
    assert "Traceback" not in r.stderr


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestFbmCommand:
    def test_path_csv_shape_and_origin(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "fbm", "--hurst", "0.75",
                    "--n", "1024", "--seed", "7")
        assert r.returncode == 0
        header, rows = read_csv(tmp_path / "fbm_path.csv")
        assert header == ["xi", "value"]
        assert len(rows) == 1025
        assert float(rows[0][1]) == 0.0

    def test_field_export(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "fbm", "--hurst", "0.75",
                    "--n", "32", "--seed", "2", "--field-m", "3",
                    "--field-T", "0.5")
        assert r.returncode == 0
        header, rows = read_csv(tmp_path / "fbm_field.csv")
        assert header == ["t", "xi", "g"]
        assert len(rows) == 4 * 33
        # frozen field: every time slice repeats the path
        vals = np.array([float(row[2]) for row in rows]).reshape(4, 33)
        for j in range(1, 4):
            np.testing.assert_array_equal(vals[j], vals[0])

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            r = run_cli("--out", str(tmp_path / sub), "fbm", "--hurst", "0.6",
                        "--n", "128", "--seed", "3")
            assert r.returncode == 0
        assert (tmp_path / "a/fbm_path.csv").read_bytes() \
            == (tmp_path / "b/fbm_path.csv").read_bytes()

    def test_validator_mode(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "fbm", "--hurst", "0.5",
                    "--n", "64", "--seed", "1", "--samples", "2000",
                    "--validate", "--strict")
        assert r.returncode == 0
        rep = json.loads((tmp_path / "fbm_validation.json").read_text())
        assert rep["passed"] and rep["max_abs_z"] <= 4.0

    def test_bad_flags_exit_2(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "fbm", "--hurst", "1.5",
                    "--n", "64", "--seed", "1")
        assert r.returncode == 2

    def test_negative_seed_exit_2(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "fbm", "--hurst", "0.75",
                    "--n", "64", "--seed", "-1")
        assert_usage_error(r)

    def test_negative_field_m_exit_2(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "fbm", "--hurst", "0.75",
                    "--n", "64", "--seed", "1", "--field-m", "-2")
        assert_usage_error(r)


class TestSolveCommand:
    def test_zero_coefficient_replicates_phi(self, tmp_path):
        write_config(tmp_path / "cfg.json", A={"kind": "zero"},
                     phi={"kind": "sine", "params": {"k": 1, "amplitude": 0.5}})
        r = run_cli("--out", str(tmp_path), "solve", str(tmp_path / "cfg.json"))
        assert r.returncode == 0
        _, rows = read_csv(tmp_path / "solution.csv")
        vals = np.array([[float(c) for c in row] for row in rows])
        n = 48
        phi = 0.5 * np.sin(np.pi * np.linspace(0, 1, n + 1))
        for j in range(17):
            np.testing.assert_array_equal(vals[j * (n + 1):(j + 1) * (n + 1), 2], phi)

    def test_constant_coefficient_closed_form(self, tmp_path):
        write_config(tmp_path / "cfg.json", A={"kind": "const", "params": {"c": 1.0}},
                     phi={"kind": "zero"})
        r = run_cli("--out", str(tmp_path), "solve", str(tmp_path / "cfg.json"))
        # A = 1 moves Y = t xi off phi = 0, above the Gronwall envelope
        # ||phi|| exp(K t) = 0: the only failed verdict, so the solve exits 1
        report = json.loads((tmp_path / "report.json").read_text())
        failed = sorted(k for k, v in report["verdicts"].items() if not v["passed"])
        assert report["converged"] and failed == ["gronwall"]
        assert r.returncode == 1
        _, rows = read_csv(tmp_path / "solution.csv")
        worst = max(abs(float(t) * float(x) - float(y)) for t, x, y in rows)
        assert worst <= 1e-12

    def test_report_contains_constants_and_verdicts(self, tmp_path):
        write_config(tmp_path / "cfg.json")
        r = run_cli("--out", str(tmp_path), "solve", str(tmp_path / "cfg.json"))
        assert r.returncode == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["converged"]
        for key in ("b1", "b2", "b3", "b4", "b5", "t1", "t2", "t0", "gronwall_k"):
            assert key in rep["constants"]
        assert rep["verdicts"]["gronwall"]["passed"]
        assert rep["windows"]

    def test_report_records_are_their_fields(self, tmp_path):
        from dataclasses import fields
        from fracpath.solver import ProofConstants, WindowRecord
        write_config(tmp_path / "cfg.json")
        assert cli.main(["--out", str(tmp_path), "solve", str(tmp_path / "cfg.json")]) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        window_keys = {f.name for f in fields(WindowRecord)}
        constant_keys = {f.name for f in fields(ProofConstants)}
        assert set(rep["constants"]) == constant_keys
        for w in rep["windows"]:
            assert set(w) == window_keys
            assert set(w["constants"]) == constant_keys

    def test_alpha_outside_window_exit_2(self, tmp_path):
        write_config(tmp_path / "cfg.json", alpha=0.2)  # 1-H = 0.25 > alpha
        r = run_cli("--out", str(tmp_path), "solve", str(tmp_path / "cfg.json"))
        assert r.returncode == 2

    def test_malformed_config_exit_2(self, tmp_path):
        (tmp_path / "cfg.json").write_text('{"hurst": 0.75}')
        r = run_cli("--out", str(tmp_path), "solve", str(tmp_path / "cfg.json"))
        assert r.returncode == 2

    @pytest.mark.parametrize("params", [{"scale": -1}, {"foo": 1}],
                             ids=["bad-value", "unknown-key"])
    def test_bad_coefficient_params_exit_2(self, tmp_path, params):
        write_config(tmp_path / "cfg.json", A={"kind": "tanh", "params": params})
        r = run_cli("--out", str(tmp_path), "solve", str(tmp_path / "cfg.json"))
        assert_usage_error(r)

    @pytest.mark.parametrize("seed", [-1, [3, -1]], ids=["int", "list"])
    def test_negative_driver_seed_exit_2(self, tmp_path, seed):
        write_config(tmp_path / "cfg.json", driver={"model": "frozen", "seed": seed})
        r = run_cli("--out", str(tmp_path), "solve", str(tmp_path / "cfg.json"))
        assert_usage_error(r)

    def test_nonconvergence_exit_3(self, tmp_path):
        write_config(tmp_path / "cfg.json", picard={"tol": 1e-16, "max_iter": 1},
                     driver={"model": "stub", "kind": "quadratic"})
        r = run_cli("--out", str(tmp_path), "solve", str(tmp_path / "cfg.json"))
        assert r.returncode == 3

    @pytest.mark.parametrize("verdict", ["gronwall", "ball_invariance", "contraction", "prop2"])
    def test_failed_verdict_exit_1(self, tmp_path, monkeypatch, verdict):
        # a converged solve whose report carries one failed verdict
        solve = cli.solver.solve

        def failing(*args, **kwargs):
            report = solve(*args, **kwargs)
            report.verdicts[verdict]["passed"] = False
            return report

        monkeypatch.setattr(cli.solver, "solve", failing)
        write_config(tmp_path / "cfg.json")
        assert cli.main(["--out", str(tmp_path), "solve", str(tmp_path / "cfg.json")]) == 1
        rep = json.loads((tmp_path / "report.json").read_text())
        failed = [k for k, v in rep["verdicts"].items() if not v["passed"]]
        assert rep["converged"] and failed == [verdict]
        assert (tmp_path / "solution.csv").exists()

    def test_phi_sampled_from_file(self, tmp_path):
        # use an exported FBM path as the initial condition
        r = run_cli("--out", str(tmp_path), "fbm", "--hurst", "0.75",
                    "--n", "48", "--seed", "9")
        assert r.returncode == 0
        write_config(tmp_path / "cfg.json", A={"kind": "zero"},
                     phi={"kind": "file",
                          "params": {"path": str(tmp_path / "fbm_path.csv")}})
        r = run_cli("--out", str(tmp_path), "solve", str(tmp_path / "cfg.json"))
        assert r.returncode == 0
        _, prows = read_csv(tmp_path / "fbm_path.csv")
        phi = np.array([float(p[1]) for p in prows])
        _, srows = read_csv(tmp_path / "solution.csv")
        vals = np.array([float(row[2]) for row in srows])
        np.testing.assert_array_equal(vals[:49], phi)


class TestVerifyCommand:
    def test_prop2_passes(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "verify", "prop2", "--seed", "3")
        assert r.returncode == 0
        rep = json.loads((tmp_path / "verify_prop2.json").read_text())
        assert rep["passed"]

    def test_malformed_suite_exit_2(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "verify", "nosuchsuite")
        assert r.returncode == 2

    def test_negative_seed_exit_2(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "verify", "prop2", "--seed", "-1")
        assert_usage_error(r)

    def test_all_matches_benchmark_reference(self, tmp_path):
        # the benchmark's verify-all oracle: same check names, and every
        # worst_margin within 1e-12 * max(1, |reference|)
        assert cli.main(["--out", str(tmp_path), "verify", "all", "--seed", "7"]) == 0
        checks = json.loads((tmp_path / "verify_all.json").read_text())["checks"]
        ref = json.loads(VERIFY_REFERENCE.read_text())
        assert [[c["suite"], c["name"]] for c in checks] == [r[:2] for r in ref]
        for c, (suite, name, margin) in zip(checks, ref):
            assert abs(c["worst_margin"] - margin) <= 1e-12 * max(1.0, abs(margin)), \
                (suite, name)


class TestEnsembleCommand:
    def test_single_run_matches_solve_with_split_seed(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           driver={"model": "frozen", "seed": 21})
        r = run_cli("--out", str(tmp_path / "ens"), "ensemble",
                    str(tmp_path / "cfg.json"), "--count", "1", "--seed", "21")
        assert r.returncode == 0
        cfg["driver"]["seed"] = [21, 0]
        (tmp_path / "cfg_split.json").write_text(json.dumps(cfg))
        r2 = run_cli("--out", str(tmp_path / "single"), "solve",
                     str(tmp_path / "cfg_split.json"))
        assert r2.returncode == 0
        rep = json.loads((tmp_path / "single/report.json").read_text())
        _, rows = read_csv(tmp_path / "ens/ensemble_summary.csv")
        assert float(rows[0][1]) == pytest.approx(rep["lambda_alpha"], rel=1e-15)

    def test_thread_count_does_not_change_output(self, tmp_path):
        write_config(tmp_path / "cfg.json", driver={"model": "frozen", "seed": 5})
        for threads, sub in (("1", "t1"), ("4", "t4")):
            r = run_cli("--out", str(tmp_path / sub), "--threads", threads,
                        "ensemble", str(tmp_path / "cfg.json"),
                        "--count", "4", "--seed", "11")
            assert r.returncode == 0
        assert (tmp_path / "t1/ensemble_summary.csv").read_bytes() \
            == (tmp_path / "t4/ensemble_summary.csv").read_bytes()
        assert (tmp_path / "t1/ensemble_stats.json").read_bytes() \
            == (tmp_path / "t4/ensemble_stats.json").read_bytes()

    def test_gronwall_margins_nonnegative(self, tmp_path):
        write_config(tmp_path / "cfg.json", driver={"model": "frozen", "seed": 2})
        r = run_cli("--out", str(tmp_path), "ensemble", str(tmp_path / "cfg.json"),
                    "--count", "5", "--seed", "13")
        assert r.returncode == 0
        _, rows = read_csv(tmp_path / "ensemble_summary.csv")
        assert len(rows) == 5
        for row in rows:
            assert row[5] == "1"
            assert float(row[4]) >= 0.0

    def test_executor_imported_only_by_ensembles(self):
        # concurrent.futures pulls in logging, 5-8 ms of every CLI start
        r = subprocess.run([sys.executable, "-c", "import sys, fracpath.cli; "
                            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_failed_gronwall_exit_1(self, tmp_path):
        # A = 1 moves Y = t xi off phi = 0, above the envelope ||phi|| exp(K t) = 0:
        # every member converges and fails the Gronwall verdict, as in solve
        write_config(tmp_path / "cfg.json", driver={"model": "frozen", "seed": 5},
                     A={"kind": "const", "params": {"c": 1.0}}, phi={"kind": "zero"})
        rc = cli.main(["--out", str(tmp_path), "ensemble", str(tmp_path / "cfg.json"),
                       "--count", "2", "--seed", "1"])
        stats = json.loads((tmp_path / "ensemble_stats.json").read_text())
        assert stats["converged"] == 2 and not stats["all_gronwall_passed"]
        assert rc == 1

    @pytest.mark.parametrize("flags", [("--count", "2", "--seed", "-1"),
                                       ("--count", "-1", "--seed", "1"),
                                       ("--count", "0", "--seed", "1")],
                             ids=["negative-seed", "negative-count", "zero-count"])
    def test_bad_flags_exit_2(self, tmp_path, flags):
        write_config(tmp_path / "cfg.json", driver={"model": "frozen", "seed": 5})
        r = run_cli("--out", str(tmp_path), "ensemble", str(tmp_path / "cfg.json"),
                    *flags)
        assert_usage_error(r)
        assert not (tmp_path / "ensemble_summary.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, threads):
        write_config(tmp_path / "cfg.json", driver={"model": "frozen", "seed": 5})
        r = run_cli("--out", str(tmp_path), "--threads", threads, "ensemble",
                    str(tmp_path / "cfg.json"), "--count", "2", "--seed", "1")
        assert_usage_error(r)
        assert "--threads" in r.stderr
        assert not (tmp_path / "ensemble_summary.csv").exists()


class TestConvergenceCommand:
    def test_zero_coefficient_all_errors_zero(self, tmp_path):
        write_config(tmp_path / "cfg.json", A={"kind": "zero"})
        r = run_cli("--out", str(tmp_path), "convergence", str(tmp_path / "cfg.json"),
                    "--resolutions", "32,64,128")
        assert r.returncode == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        assert all(float(row[1]) == 0.0 for row in rows)

    def test_constant_coefficient_machine_epsilon_errors(self, tmp_path):
        write_config(tmp_path / "cfg.json", A={"kind": "const", "params": {"c": 1.0}},
                     phi={"kind": "zero"})
        r = run_cli("--out", str(tmp_path), "convergence", str(tmp_path / "cfg.json"),
                    "--resolutions", "32,64,128")
        assert r.returncode == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        assert all(float(row[1]) < 1e-13 for row in rows)

    def test_smooth_driver_errors_decrease(self, tmp_path):
        write_config(tmp_path / "cfg.json",
                     driver={"model": "stub", "kind": "quadratic"},
                     phi={"kind": "sine", "params": {"k": 1, "amplitude": 0.5}})
        r = run_cli("--out", str(tmp_path), "convergence", str(tmp_path / "cfg.json"),
                    "--resolutions", "64,128,256,512")
        assert r.returncode == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        errs = [float(row[1]) for row in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_fbm_driver_refused(self, tmp_path):
        write_config(tmp_path / "cfg.json", driver={"model": "frozen", "seed": 1})
        r = run_cli("--out", str(tmp_path), "convergence", str(tmp_path / "cfg.json"),
                    "--resolutions", "32,64")
        assert r.returncode == 2
        assert "deterministic stub" in r.stderr

    def test_zero_resolution_exit_2(self, tmp_path):
        write_config(tmp_path / "cfg.json")
        r = run_cli("--out", str(tmp_path), "convergence", str(tmp_path / "cfg.json"),
                    "--resolutions", "0,32")
        assert_usage_error(r)


class TestReproducibility:
    def test_solve_byte_identical(self, tmp_path):
        write_config(tmp_path / "cfg.json", driver={"model": "frozen", "seed": 8})
        for sub in ("r1", "r2"):
            r = run_cli("--out", str(tmp_path / sub), "solve",
                        str(tmp_path / "cfg.json"))
            assert r.returncode == 0
        for name in ("solution.csv", "report.json"):
            assert (tmp_path / "r1" / name).read_bytes() \
                == (tmp_path / "r2" / name).read_bytes()

    def test_blas_thread_count_does_not_change_output(self, tmp_path):
        import os
        write_config(tmp_path / "cfg.json", grid={"m": 8, "n": 64, "T": 0.1},
                     driver={"model": "frozen", "seed": 7})
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            r = run_cli("--out", str(tmp_path / threads), "solve",
                        str(tmp_path / "cfg.json"), env=env)
            assert r.returncode == 0, r.stderr
        for name in ("solution.csv", "report.json"):
            assert (tmp_path / "1" / name).read_bytes() \
                == (tmp_path / "2" / name).read_bytes()

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        import os
        import subprocess as sp
        env = dict(os.environ, FRACPATH_OUTDIR=str(tmp_path / "envout"))
        r = sp.run([sys.executable, "-m", "fracpath.cli", "fbm", "--hurst",
                    "0.75", "--n", "32", "--seed", "1"],
                   capture_output=True, text=True, env=env)
        assert r.returncode == 0
        assert (tmp_path / "envout/fbm_path.csv").exists()


class TestCsvWriter:
    @staticmethod
    def cell_by_cell(path, columns, rows, chash):
        """The earlier writer: every cell formatted on its own."""
        def fmt(x):
            if isinstance(x, (bool, np.bool_)):
                return "1" if x else "0"
            if isinstance(x, (int, np.integer)):
                return str(int(x))
            return format(float(x), ".17g")
        lines = [f"# config_hash={chash}", ",".join(columns)]
        lines += [",".join(fmt(v) for v in row) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def assert_cell_by_cell(self, path, rows):
        """``path`` holds the bytes the cell-by-cell writer gives for its
        own comment and header and these rows."""
        comment, header = path.read_text().split("\n", 2)[:2]
        self.cell_by_cell(str(path) + ".old", header.split(","), rows,
                          comment.removeprefix("# config_hash="))
        assert path.read_bytes() == pathlib.Path(str(path) + ".old").read_bytes()

    def test_fbm_path(self, tmp_path):
        from fracpath import fbm
        assert cli.main(["--out", str(tmp_path), "fbm", "--hurst", "0.75",
                         "--n", "250", "--seed", "7"]) == 0
        path = fbm.fbm_path(0.75, 250, 7)
        self.assert_cell_by_cell(tmp_path / "fbm_path.csv",
                                 list(zip(path.nodes, path.values)))

    def test_convergence(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           driver={"model": "stub", "kind": "sine"})
        assert cli.main(["--out", str(tmp_path), "convergence", str(tmp_path / "cfg.json"),
                         "--resolutions", "32,64,128"]) == 0
        sol = {n: cli._run_config(dict(cfg, grid=dict(cfg["grid"], n=n)),
                                  verify=False).solution.values
               for n in (32, 64, 128)}
        rows = [(n, float(np.abs(sol[n] - sol[128][:, ::128 // n]).max()))
                for n in (32, 64)]
        assert all(e > 1e-6 for _, e in rows)
        self.assert_cell_by_cell(tmp_path / "convergence.csv", rows)

    @pytest.mark.parametrize("max_iter", [40, 1], ids=["converged", "failed"])
    def test_ensemble_summary(self, tmp_path, max_iter):
        cfg = write_config(tmp_path / "cfg.json", driver={"model": "frozen", "seed": 5},
                           picard={"tol": 1e-10, "max_iter": max_iter})
        rc = cli.main(["--out", str(tmp_path), "ensemble", str(tmp_path / "cfg.json"),
                       "--count", "3", "--seed", "7"])
        assert rc == (0 if max_iter > 1 else 1)
        members = [cli._ensemble_run(cfg, 7, k) for k in range(3)]
        assert all(r["ok"] == (max_iter > 1) for r in members)
        rows = [(r["seed"], r["lambda_alpha"], r["sup_norm"], r["iterations"],
                 r["gronwall_margin"], 1) if r["ok"]
                else (r["seed"], math.nan, math.nan, 0, math.nan, 0)
                for r in members]
        self.assert_cell_by_cell(tmp_path / "ensemble_summary.csv", rows)


class TestSolutionWriter:
    @staticmethod
    def row_by_row(field):
        """The rows of the earlier solution writer: one (t, xi, value) row of
        floats at a time, every cell formatted with %.17g."""
        xi = field.xi_nodes
        return "".join("%.17g,%.17g,%.17g\n" % tuple(row)
                       for t, values in zip(field.t_nodes, field.values)
                       for row in np.column_stack((np.full_like(xi, t), xi,
                                                   values)).tolist())

    @staticmethod
    def field(m, n, T, seed=0):
        """Values at every decimal exponent, with -0.0, the least subnormal
        and +-max double in the first and last slices."""
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((m + 1, n + 1)) \
            * 10.0 ** rng.integers(-300, 300, (m + 1, n + 1))
        specials = [-0.0, 5e-324, sys.float_info.max, -sys.float_info.max]
        flat = values.reshape(-1)
        flat[:4] = specials
        flat[-4:] = specials
        # n=1 is below the solver's least grid, so no SpaceTimeField here
        return SimpleNamespace(t_nodes=np.linspace(0.0, T, m + 1),
                               xi_nodes=np.linspace(0.0, 1.0, n + 1), values=values)

    @pytest.mark.parametrize("n", [1, 7, 256, 1024])
    @pytest.mark.parametrize("m", [1, 3, 200])
    def test_same_bytes_as_row_by_row(self, tmp_path, m, n):
        for T in (0.1, 0.5, 1.0 / 3.0):
            field = self.field(m, n, T)
            rows = self.row_by_row(field).encode()
            for name, header in (("solution.csv", "t,xi,Y"), ("fbm_field.csv", "t,xi,g")):
                cli.write_csv(str(tmp_path / name), header.split(","),
                              cli._solution_rows(field), "abc")
                assert (tmp_path / name).read_bytes() \
                    == f"# config_hash=abc\n{header}\n".encode() + rows, (name, T)

    def test_memory_holds_a_few_slices_not_the_file(self, tmp_path):
        # m=200, n=1024: the file is about 12 MB, one slice about 60 kB of
        # text; 1 MB of peak Python allocation leaves room for a few slices
        field = self.field(200, 1024, 0.1)
        path = tmp_path / "solution.csv"
        tracemalloc.start()
        try:
            cli.write_csv(str(path), ("t", "xi", "Y"), cli._solution_rows(field), "abc")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 10 * 2 ** 20
        assert peak <= 2 ** 20, peak
