"""Config-driven command-line front end.

Subcommands: ``fbm`` (paths and law validation), ``solve`` (one run from a
JSON config), ``verify`` (inequality suites), ``ensemble`` (seed sweeps),
``convergence`` (refinement studies with deterministic drivers only).

Exit codes: 0 success, 1 verification/ensemble failure, 2 usage or config
error, 3 Picard non-convergence.  All outputs are deterministic under
fixed flags and seeds; files carry the column names and a hash of the
generating configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import fbm, solver, stieltjes
from .coefficients import coefficient_from_kind
from .grids import GridError, GridFunction, SpaceTimeField, check_grid
from .sampling import random_trig_grid

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

OUTDIR_ENV = "FRACPATH_OUTDIR"


class ConfigError(ValueError):
    pass


def _check_at_least(flag: str, value: int, least: int):
    if value < least:
        raise ConfigError(f"{flag} must be >= {least}, got {value}")


def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _outdir(args) -> str:
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def write_csv(path: str, columns, lines, chash: str):
    """Write a config-hash comment, the header line and ``lines``, blocks
    of text that the caller formats with the one fixed template of its file.
    Each block is written as it comes, so the file is never held in memory
    whole."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={chash}\n" + ",".join(columns) + "\n")
        fh.writelines(lines)


def _fields(record) -> dict:
    """A dataclass record as the dict of its fields (read directly, not
    deep-copied as ``dataclasses.asdict`` would); the ``default`` of
    ``json.dump``, so it refuses anything else."""
    if not dataclasses.is_dataclass(record) or isinstance(record, type):
        raise TypeError(f"{type(record).__name__} is not JSON serializable")
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def write_json(path: str, payload: dict, chash: str):
    """Write ``payload`` and its config hash as sorted, indented JSON; a
    dataclass record anywhere in it is written as its fields."""
    payload = dict(payload)
    payload["config_hash"] = chash
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_fields)
        fh.write("\n")


_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string",
               dict: "an object", list: "an array"}


class _Section:
    """A solve-config object.  ``get`` reads a key (required unless given a
    default) and checks its type (float: any number, int: an integer, a
    bool neither; an object comes as a _Section) or that it is one of some
    strings; ``done`` refuses unread keys.  Constructors check the ranges."""

    def __init__(self, obj: dict, name: str = ""):
        self.obj, self.name, self.unread = obj, name, set(obj)

    def get(self, key: str, kind, default=...):
        value = self.obj.get(key, default)
        if value is ...:
            raise ConfigError(f"{self.name}{key} is required")
        self.unread.discard(key)
        if isinstance(kind, type):
            ok = isinstance(value, (int, float) if kind is float else kind)
            want = _TYPE_NAMES[kind]
        else:
            ok, want = value in tuple(kind), "one of " + ", ".join(kind)
        if not ok or isinstance(value, bool):
            raise ConfigError(f"{self.name}{key} must be {want}, "
                              f"got {json.dumps(value)}")
        return _Section(value, f"{self.name}{key}.") if kind is dict else value

    def numbers(self, keys=None) -> dict:
        """Every key as a number; the keys must be among ``keys`` if given."""
        values = {k: self.get(k, float) for k in self.obj if keys is None or k in keys}
        self.done()
        return values

    def done(self):
        if self.unread:
            raise ConfigError(f"unknown key {self.name}{min(self.unread)}")


def load_config(path: str) -> dict:
    """The config in ``path``, read as a solve reads it but without a driver."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    _read_config(cfg)
    return cfg


def _load_xy_csv(path: str) -> np.ndarray:
    """Two-column CSV with optional '#' comments; the first other line may
    be a header, every later one holds exactly two finite numbers.  The x
    values are distinct and reach 0 and 1, so sampling on [0, 1] never
    extends the table flat past its ends.  Returned sorted by x."""
    try:
        rows, header_allowed = [], True
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    x, y = map(float, line.split(","))
                    rows.append((x, y))
                except ValueError:
                    if not header_allowed:
                        raise ConfigError(f"{path}, line {number}: need two numbers, "
                                          f"got {line!r}") from None
                header_allowed = False
        data = np.array(rows)
    except OSError as exc:
        raise ConfigError(f"cannot read sampled phi from {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[0] < 2:
        raise ConfigError(f"{path} does not hold a two-column sample table")
    if not np.isfinite(data).all():
        raise ConfigError(f"{path}: every x and y must be finite")
    data = data[np.argsort(data[:, 0])]
    x = data[:, 0]
    if x[0] > 0.0 or x[-1] < 1.0:
        raise ConfigError(f"{path}: x runs from {x[0]:g} to {x[-1]:g}, "
                          f"which does not cover [0, 1]")
    repeated = x[1:][x[1:] == x[:-1]]
    if repeated.size:
        raise ConfigError(f"{path}: x = {repeated[0]:g} appears more than once")
    return data


def _phi_from_config(spec: _Section, n: int) -> GridFunction:
    kind = spec.get("kind", ("zero", "sine", "ramp", "file"))
    params = spec.get("params", dict, {})
    spec.done()
    x = np.linspace(0.0, 1.0, n + 1)
    if kind == "zero":
        v = np.zeros(n + 1)
    elif kind == "ramp":
        v = x.copy()
    elif kind == "sine":
        v = (params.get("amplitude", float, 1.0)
             * np.sin(params.get("k", float, 1) * math.pi * x))
    else:
        data = _load_xy_csv(params.get("path", str))
        v = np.interp(x, data[:, 0], data[:, 1])
    params.done()
    return GridFunction(0.0, 1.0, v)


def _driver_from_config(d: _Section, scfg: solver.SolverConfig):
    """A builder of the driver ``d`` names; reading ``d`` checks it whole."""
    model = d.get("model", ("frozen", "sheet", "stub"))
    if model == "stub":
        kind = d.get("kind", fbm.STUB_KINDS)
        params = d.get("params", dict, {}).numbers(fbm.STUB_KINDS[kind])
        d.done()
        return lambda: fbm.stub_driving_field(kind, scfg.n, scfg.m, scfg.T,
                                              scfg.alpha, **params)
    seed = (d.get("seed", list) if isinstance(d.obj.get("seed"), list)
            else [d.get("seed", int)])
    if not seed or any(type(s) is not int for s in seed):
        raise ConfigError(f"driver.seed must hold integers, got {json.dumps(seed)}")
    fc = fbm.FbmConfig(hurst=scfg.hurst, n=scfg.n, m=scfg.m, T=scfg.T,
                       seed=seed[0], time_model=model, stream=tuple(seed[1:]),
                       # a frozen driver has no time law: done() refuses hurst_t
                       hurst_t=d.get("hurst_t", float, 0.95) if model == "sheet" else 0.95)
    d.done()
    return lambda: fbm.driving_field(fc, scfg.alpha)


def _read_config(cfg) -> tuple:
    """The solver config and a driver builder; each key is read once."""
    top = _Section(cfg)
    grid = top.get("grid", dict)
    m, n, T = grid.get("m", int), grid.get("n", int), grid.get("T", float)
    grid.done()
    check_grid(m, n, T)  # before phi is sampled on n + 1 nodes
    spec = top.get("A", dict)
    kind, params = spec.get("kind", str), spec.get("params", dict, {}).numbers()
    spec.done()
    try:
        coeff = coefficient_from_kind(kind, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad coefficient A: {exc}") from exc
    picard = top.get("picard", dict, {})
    tol, max_iter = picard.get("tol", float, 1e-9), picard.get("max_iter", int, 60)
    picard.done()
    scfg = solver.SolverConfig(
        alpha=top.get("alpha", float), hurst=top.get("hurst", float),
        m=m, n=n, T=T, phi=_phi_from_config(top.get("phi", dict), n), coeff=coeff,
        picard_tol=tol, max_iterations=max_iter,
        window_policy=top.get("window_policy", str, "paper-constants"))
    build_driver = _driver_from_config(top.get("driver", dict), scfg)
    top.done()
    return scfg, build_driver


def _run_config(cfg: dict, verify: bool = True):
    scfg, build_driver = _read_config(cfg)
    return solver.solve(scfg, build_driver(), verify=verify)


def _solution_rows(field):
    """The (t, xi, value) lines of a space-time field, time-major, as one
    text block per time slice.  Every cell is %.17g, the digits of
    ``format(float(x), ".17g")``; each xi is formatted once per field and
    each t once per slice, so only the value cell is formatted per row."""
    cells = ["%.17g,%%.17g\n" % x for x in field.xi_nodes]
    for t, values in zip(field.t_nodes, field.values):
        head = "%.17g," % t
        yield (head + head.join(cells)) % tuple(values.tolist())


def cmd_fbm(args) -> int:
    _check_at_least("--seed", args.seed, 0)
    _check_at_least("--field-m", args.field_m, 0)
    out = _outdir(args)
    cfg = {"hurst": args.hurst, "n": args.n, "seed": args.seed,
           "samples": args.samples, "validate": bool(args.validate),
           "field_m": args.field_m, "field_T": args.field_T}
    chash = config_hash(cfg)
    path = fbm.fbm_path(args.hurst, args.n, args.seed)
    write_csv(os.path.join(out, "fbm_path.csv"), ("xi", "value"),
              ("%.17g,%.17g\n" % xv for xv in zip(path.nodes, path.values)), chash)
    if args.field_m:
        field = SpaceTimeField.constant_in_time(path.values, args.field_m,
                                                args.field_T)
        write_csv(os.path.join(out, "fbm_field.csv"), ("t", "xi", "g"),
                  _solution_rows(field), chash)
    if args.validate:
        rep = fbm.covariance_validator(args.hurst, args.samples, args.seed,
                                       n=min(args.n, 64))
        write_json(os.path.join(out, "fbm_validation.json"), _fields(rep), chash)
        if args.strict and not rep.passed:
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_solve(args) -> int:
    out = _outdir(args)
    cfg = load_config(args.config)
    chash = config_hash(cfg)
    report = _run_config(cfg)
    write_csv(os.path.join(out, "solution.csv"), ("t", "xi", "Y"),
              _solution_rows(report.solution), chash)
    write_json(os.path.join(out, "report.json"), report.to_dict(), chash)
    if not report.converged:
        return EXIT_NO_CONVERGENCE
    passed = all(v["passed"] for v in report.verdicts.values())
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _suite_stieltjes(seed: int) -> list:
    checks = []
    n = 2048
    x = np.linspace(0.0, 1.0, n + 1)
    pairs = [
        ("sin_x--x^2", np.sin, lambda t: t ** 2),
        ("cos+2--cubic", lambda t: np.cos(math.pi * t) + 2.0, lambda t: t ** 3 / 3 + t),
        ("exp--sin3", lambda t: np.exp(-t), lambda t: np.sin(3.0 * t)),
        ("poly--cos", lambda t: t ** 2 + 1.0, lambda t: np.cos(t)),
        ("rational--mixed", lambda t: 1.0 / (1.0 + t ** 2),
         lambda t: t + 0.3 * np.sin(math.pi * t)),
    ]
    xs = np.linspace(0.0, 1.0, 10 ** 5 + 1)
    mid = 0.5 * (xs[:-1] + xs[1:])
    for name, ffn, gfn in pairs:
        ref = float(np.sum(ffn(mid) * (gfn(xs[1:]) - gfn(xs[:-1]))))
        val = stieltjes.stieltjes_integral(GridFunction(0, 1, ffn(x)),
                                           GridFunction(0, 1, gfn(x)), 0.3)
        rel = abs(val - ref) / abs(ref)
        checks.append({"suite": "stieltjes", "name": f"classical:{name}",
                       "passed": rel <= 1e-3, "worst_margin": 1e-3 - rel,
                       "details": {"value": val, "reference": ref, "rel_err": rel}})
    f = GridFunction(0, 1, np.sin(x) + 1.0)
    g = GridFunction(0, 1, np.sin(2 * x) + x ** 2)
    rep = stieltjes.stieltjes_indicator_consistency(f, g, 0.25, 0.25, 0.75)
    checks.append({"suite": "stieltjes", "name": "indicator(0.25,0.75)",
                   "passed": rep.gap <= 1e-2, "worst_margin": 1e-2 - rep.gap,
                   "details": rep})
    return checks


def _suite_bounds(seed: int) -> list:
    checks = []
    n = 256
    rng = np.random.default_rng(seed)
    worst = math.inf
    ok = True
    for s in range(100):
        fv = random_trig_grid(n, rng)
        gp = fbm.fbm_path(0.75, n, seed, (s,))
        r = stieltjes.bound_357_check(fv, gp, 0.3)
        worst = min(worst, r.margin / r.rhs)
        ok = ok and r.holds
    checks.append({"suite": "bounds", "name": "bound_357:100-seed-sweep",
                   "passed": ok, "worst_margin": worst,
                   "details": {"hurst": 0.75, "alpha": 0.3, "n": n}})
    drv = fbm.driving_field(fbm.FbmConfig(hurst=0.75, n=n, m=1, T=1.0,
                                          seed=seed), 0.3)
    r = stieltjes.pathwise_integral_bound_check(
        GridFunction(0, 1, np.ones(n + 1)), drv)
    checks.append({"suite": "bounds", "name": "pathwise:u=1",
                   "passed": r.holds, "worst_margin": r.margin,
                   "details": r.to_dict()})
    return checks


def _probe_config(n: int):
    x = np.linspace(0.0, 1.0, n + 1)
    phi = GridFunction(0, 1, x)
    cfg = solver.SolverConfig(alpha=0.3, hurst=0.75, m=4, n=n, T=0.2, phi=phi,
                              coeff=coefficient_from_kind("tanh", scale=0.5))
    drv = fbm.stub_driving_field("quadratic", n, 4, 0.2, 0.3)
    return cfg, drv


def _suite_contraction(seed: int) -> list:
    cfg, drv = _probe_config(96)
    cons = solver.compute_constants(cfg.alpha, cfg.coeff, drv.lambda_value,
                                    cfg.phi_norm(), horizon=cfg.T)
    t2 = min(cons.t2, cfg.T)
    sweep = solver.contraction_sweep(cfg, drv, cons, t2, 60,
                                     np.random.default_rng(seed))
    ball = solver.ball_invariance_check(cfg, drv, cons, trials=60, seed=seed)
    return [
        {"suite": "contraction", "name": "ratio<=b5*T2*1.1", "passed": sweep["passed"],
         "worst_margin": cons.b5 * t2 * 1.1 - sweep["max_ratio"],
         "details": {"max_ratio": sweep["max_ratio"], "ceiling": sweep["ceiling"]}},
        {"suite": "contraction", "name": "ball_invariance", "passed": ball["passed"],
         "worst_margin": -ball["worst_excess"], "details": ball},
    ]


def _suite_gronwall(seed: int) -> list:
    checks = []
    n, m = 64, 120
    x = np.linspace(0.0, 1.0, n + 1)
    phi = GridFunction(0, 1, x)
    cfg = solver.SolverConfig(alpha=0.25, hurst=0.8, m=m, n=n, T=0.6, phi=phi,
                              coeff=coefficient_from_kind("tanh", scale=0.3))
    drv = fbm.stub_driving_field("linear", n, m, 0.6, 0.25)
    rep = solver.solve(cfg, drv, verify=False)
    g = rep.verdicts["gronwall"]
    checks.append({"suite": "gronwall", "name": "stub-driver", "passed":
                   rep.converged and g["passed"], "worst_margin": g["min_margin"],
                   "details": g})
    for s in range(5):
        cfgf = fbm.FbmConfig(hurst=0.75, n=n, m=80, T=0.08, seed=seed, stream=(s,))
        drvf = fbm.driving_field(cfgf, 0.3)
        cfg2 = solver.SolverConfig(alpha=0.3, hurst=0.75, m=80, n=n, T=0.08,
                                   phi=phi, coeff=coefficient_from_kind("tanh", scale=0.5))
        rep2 = solver.solve(cfg2, drvf, verify=False)
        g2 = rep2.verdicts["gronwall"]
        checks.append({"suite": "gronwall", "name": f"fbm-seed-{s}",
                       "passed": rep2.converged and g2["passed"],
                       "worst_margin": g2["min_margin"], "details": g2})
    return checks


def _suite_prop2(seed: int) -> list:
    checks = []
    cases = [("tanh", coefficient_from_kind("tanh"), 2.0),
             ("gaussian-bump", coefficient_from_kind("gaussian-bump", width=0.7), 2.0)]
    for name, coeff, radius in cases:
        r = solver.quadruple_inequality_check(coeff, radius, 10 ** 4, seed)
        checks.append({"suite": "prop2", "name": f"quadruple:{name}",
                       "passed": r["passed"], "worst_margin": r["worst_slack"],
                       "details": r})
    return checks


_SUITES = {
    "bounds": _suite_bounds,
    "contraction": _suite_contraction,
    "gronwall": _suite_gronwall,
    "prop2": _suite_prop2,
    "stieltjes": _suite_stieltjes,
}


def cmd_verify(args) -> int:
    _check_at_least("--seed", args.seed, 0)
    out = _outdir(args)
    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    cfg = {"suite": args.suite, "seed": args.seed}
    checks = []
    for name in names:
        checks.extend(_SUITES[name](args.seed))
    passed = all(c["passed"] for c in checks)
    write_json(os.path.join(out, f"verify_{args.suite}.json"),
               {"suite": args.suite, "seed": args.seed, "passed": passed,
                "checks": checks}, config_hash(cfg))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _ensemble_run(cfg: dict, base_seed: int, k: int):
    run_cfg = dict(cfg, driver=dict(cfg["driver"], seed=[base_seed, k]))
    try:
        report = _run_config(run_cfg, verify=False)
    except (GridError, ConfigError) as exc:
        return {"seed": k, "ok": False, "error": str(exc)}
    g = report.verdicts["gronwall"]
    sup = float(np.abs(report.solution.values).max())
    return {
        "seed": k,
        "ok": bool(report.converged),
        "lambda_alpha": report.lambda_alpha,
        "sup_norm": sup,
        "iterations": int(sum(w.iterations for w in report.windows)),
        "gronwall_margin": g["min_margin"],
        "gronwall_passed": g["passed"],
    }


def cmd_ensemble(args) -> int:
    _check_at_least("--seed", args.seed, 0)
    _check_at_least("--count", args.count, 1)
    out = _outdir(args)
    cfg = load_config(args.config)
    if cfg["driver"]["model"] == "stub":
        raise ConfigError("ensembles need a stochastic driver")
    chash = config_hash({"config": cfg, "count": args.count, "seed": args.seed})
    import concurrent.futures   # here: its import (logging) costs every other command
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.threads) as ex:
        rows = list(ex.map(lambda k: _ensemble_run(cfg, args.seed, k),
                           range(args.count)))
    write_csv(os.path.join(out, "ensemble_summary.csv"),
              ("seed", "lambda_alpha", "sup_norm", "iterations",
               "gronwall_margin", "converged"),
              ("%d,%.17g,%.17g,%d,%.17g,%d\n" % (
                  (r["seed"], r["lambda_alpha"], r["sup_norm"], r["iterations"],
                   r["gronwall_margin"], 1) if r["ok"]
                  else (r["seed"], math.nan, math.nan, 0, math.nan, 0))
               for r in rows), chash)
    ok_rows = [r for r in rows if r["ok"]]
    stats = {
        "count": args.count,
        "converged": len(ok_rows),
        "failed_seeds": [r["seed"] for r in rows if not r["ok"]],
        "lambda_alpha": _agg([r["lambda_alpha"] for r in ok_rows]),
        "sup_norm": _agg([r["sup_norm"] for r in ok_rows]),
        "gronwall_margin": _agg([r["gronwall_margin"] for r in ok_rows]),
        "all_gronwall_passed": all(r["gronwall_passed"] for r in ok_rows),
    }
    write_json(os.path.join(out, "ensemble_stats.json"), stats, chash)
    passed = len(ok_rows) == args.count and stats["all_gronwall_passed"]
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _agg(values) -> dict:
    if not values:
        return {"min": None, "mean": None, "max": None}
    return {"min": float(min(values)), "mean": float(sum(values) / len(values)),
            "max": float(max(values))}


def cmd_convergence(args) -> int:
    out = _outdir(args)
    cfg = load_config(args.config)
    if cfg["driver"]["model"] != "stub":
        raise ConfigError(
            "convergence studies need a deterministic stub driver: an FBM "
            "path regenerated at a finer grid is a different sample")
    try:
        res = sorted(int(r) for r in args.resolutions.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad resolution list {args.resolutions!r}") from exc
    if len(res) < 2:
        raise ConfigError("need at least two resolutions")
    _check_at_least("every resolution", res[0], 2)
    n_ref = res[-1]
    for n in res:
        if n_ref % n:
            raise ConfigError(f"resolution {n} must divide the reference {n_ref}")
    chash = config_hash({"config": cfg, "resolutions": res})
    solutions = {}
    for n in res:
        run_cfg = dict(cfg, grid=dict(cfg["grid"], n=n))
        report = _run_config(run_cfg, verify=False)
        if not report.converged:
            return EXIT_NO_CONVERGENCE
        solutions[n] = report.solution.values
    ref = solutions[n_ref]
    errors = []
    for n in res[:-1]:
        stride = n_ref // n
        errors.append(float(np.abs(solutions[n] - ref[:, ::stride]).max()))
    # errors at machine-epsilon scale count as converged
    sig = [e for e in errors if e > 1e-12]
    monotone = all(b <= a * 1.1 for a, b in zip(sig, sig[1:]))
    write_csv(os.path.join(out, "convergence.csv"), ("n", "sup_error"),
              ("%d,%.17g\n" % ne for ne in zip(res[:-1], errors)), chash)
    return EXIT_OK if monotone else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fracpath", description=__doc__)
    p.add_argument("--out", default=None, help=f"output directory (default ${OUTDIR_ENV} or .)")
    p.add_argument("--threads", type=int, default=1, help="worker slots for ensembles")
    sub = p.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("fbm", help="generate an FBM path, optionally validate the law")
    pf.add_argument("--hurst", type=float, required=True)
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--seed", type=int, required=True)
    pf.add_argument("--samples", type=int, default=10 ** 4)
    pf.add_argument("--validate", action="store_true")
    pf.add_argument("--field-m", type=int, default=0,
                    help="also write the frozen field CSV with this many time cells")
    pf.add_argument("--field-T", type=float, default=1.0)
    pf.add_argument("--strict", action="store_true")
    pf.set_defaults(fn=cmd_fbm)

    ps = sub.add_parser("solve", help="run one solve from a JSON config")
    ps.add_argument("config")
    ps.set_defaults(fn=cmd_solve)

    pv = sub.add_parser("verify", help="run an inequality verification suite")
    pv.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(fn=cmd_verify)

    pe = sub.add_parser("ensemble", help="run a seed ensemble of solves")
    pe.add_argument("config")
    pe.add_argument("--count", type=int, required=True)
    pe.add_argument("--seed", type=int, required=True)
    pe.set_defaults(fn=cmd_ensemble)

    pc = sub.add_parser("convergence", help="refinement study with a stub driver")
    pc.add_argument("config")
    pc.add_argument("--resolutions", required=True,
                    help="comma-separated n values; the largest is the reference")
    pc.set_defaults(fn=cmd_convergence)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_at_least("--threads", args.threads, 1)
        return args.fn(args)
    except (ConfigError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
