"""End-to-end and per-layer benchmark of the ``fracpath`` CLI.

    python3 perfbench/run.py --workload solve-readme --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1         # every workload, one table each

Each workload runs as fresh ``fracpath`` processes (``perfbench/child.py``)
started one at a time from this single-threaded process, with BLAS pinned
to one thread.  A run first makes one untimed invocation with ``--seed`` as
the driver seed (``verify --seed``), whose exit code and verdicts are
checked.  It then times invocations at the reference seed until
``--seconds`` have passed; their outputs must match ``perfbench/reference/``
and each other byte for byte.  The timed input is fixed because the Picard
work of a solve differs from path to path by up to 40 %, which would
swamp the run-to-run spread of the times.

``--trace 0`` reports the medians of wall time, CPU time, peak RSS and
set-up time.  The host's CPU speed changes by up to a factor of two within
seconds, so the untraced invocations run a speed probe (``child.py``) that
times two fixed kernels every 50 ms; each invocation's times, less the
probe's own and the time stolen from its CPU, are divided by its slowdown
against the kernels' reference times (``normalize``), and the times as
measured are printed beside them.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer spans and counts of the traced ones and the tracing overhead.
It fails when traced outputs differ from untraced ones, when a count
differs between two traced invocations, or when a layer the workload must
reach recorded no call.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from child import read_steal

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(HERE, "out")

REFERENCE_SEED = 7
SOLUTION_RTOL = 1e-12    # relative to the reference solution's sup norm
MARGIN_TOL = 1e-12       # verify-all margins, relative to max(1, |reference|)
RUN_LIMIT_S = 165.0      # then start nothing and kill a running child: a run ends by 180 s
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")   # steal jiffies per second
# The times of child.SpeedProbe's kernels at reference speed, round figures
# near the fastest medians seen on the machine of baseline.json.  The time
# metrics are given at this speed.
REFERENCE_KERNEL_S = {"small": 4.0e-4, "array": 9.0e-4}
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

README_CONFIG = {
    "hurst": 0.75, "alpha": 0.3,
    "grid": {"m": 200, "n": 256, "T": 0.5},
    "driver": {"model": "frozen", "seed": 7},
    "phi": {"kind": "sine", "params": {"k": 1, "amplitude": 0.5}},
    "A": {"kind": "tanh", "params": {"scale": 1.0}},
    "picard": {"tol": 1e-9, "max_iter": 60},
    "window_policy": "paper-constants",
}

# name -> (driver model, grid) for solves, None for ``verify all``.  BENCHMARK.json
# leaves out solve-sheet-n1024 so that a full pass (22 runs per listed workload)
# stays under an hour; see perfbench/README.md.
WORKLOADS = {
    "solve-readme": ("frozen", {"m": 200, "n": 256, "T": 0.5}),
    "solve-frozen-n1024": ("frozen", {"m": 50, "n": 1024, "T": 0.1}),
    "solve-sheet-n1024": ("sheet", {"m": 32, "n": 1024, "T": 0.1}),
    "verify-all": None,
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
# printed with the end-to-end metrics, not part of the result line: the times
# as measured, before the speed normalization, and the slowdown it divided by
MEASURED = (("wall_raw_s", "s"), ("cpu_raw_s", "s"), ("setup_raw_s", "s"),
            ("slowdown", "ratio"))

PER_LAYER = (
    ("cli.import.s", "s"), ("cli.load_config.s", "s"),
    ("cli.write_csv.s", "s"), ("cli.write_csv.bytes", "bytes"),
    ("cli.write_json.s", "s"), ("cli.write_json.bytes", "bytes"),
    ("solver.solve.calls", "count"), ("solver.solve.self_s", "s"),
    ("solver.compute_constants.calls", "count"),
    ("solver.gronwall_check.s", "s"),
    ("solver.contraction_probe.calls", "count"), ("solver.contraction_probe.s", "s"),
    ("solver.ball_invariance_check.s", "s"),
    ("solver.quadruple_inequality_check.s", "s"),
    ("solver.windows", "count"), ("solver.picard_iterations", "count"),
    ("solver.windows_unguaranteed", "count"),
    ("stieltjes.sweep.calls", "count"), ("stieltjes.sweep.self_s", "s"),
    ("stieltjes.integral.calls", "count"), ("stieltjes.integral.s", "s"),
    ("stieltjes.bound_check.s", "s"),
    ("norms.pair_matrix.calls", "count"), ("norms.pair_matrix.s", "s"),
    ("norms.sweeps_per_pair_matrix", "ratio"),
    ("norms.slice_norm.calls", "count"), ("norms.slice_norm.self_s", "s"),
    ("norms.holder_norm.s", "s"), ("norms.norm_alpha_1.s", "s"),
    ("frac_calc.holder_tail.calls", "count"), ("frac_calc.holder_tail.s", "s"),
    ("frac_calc.holder_tail.bytes_computed", "bytes"),
    ("frac_calc.weyl.calls", "count"), ("frac_calc.weyl.self_s", "s"),
    ("fbm.path.calls", "count"), ("fbm.path.s", "s"),
    ("fbm.driving_field.s", "s"), ("fbm.driving_field.self_s", "s"),
    ("coefficients.eval.calls", "count"), ("coefficients.eval.s", "s"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# spans that must record at least one call on each workload
_COMMON = ("cli.write_json", "solver.solve", "solver.compute_constants",
           "solver.gronwall_check", "stieltjes.sweep", "norms.pair_matrix",
           "norms.slice_norm", "norms.holder_norm", "frac_calc.holder_tail",
           "frac_calc.weyl", "fbm.path", "fbm.driving_field", "coefficients.eval")
_SOLVE = ("cli.load_config", "cli.write_csv")
_PROBES = ("solver.contraction_probe", "solver.ball_invariance_check",
           "solver.quadruple_inequality_check")
EXPECTED_SPANS = {
    "solve-readme": _COMMON + _SOLVE + _PROBES,
    "solve-frozen-n1024": _COMMON + _SOLVE + _PROBES,
    "solve-sheet-n1024": _COMMON + _SOLVE,
    "verify-all": _COMMON + _PROBES + ("stieltjes.integral", "stieltjes.bound_check",
                                       "norms.norm_alpha_1"),
}


def solve_config(workload: str, seed: int) -> dict:
    model, grid = WORKLOADS[workload]
    cfg = json.loads(json.dumps(README_CONFIG))
    cfg["grid"] = dict(grid)
    cfg["driver"] = {"model": model, "seed": seed}
    return cfg


def cli_args(workload: str, seed: int, workdir: str) -> list:
    if WORKLOADS[workload] is None:
        return ["verify", "all", "--seed", str(seed)]
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solve_config(workload, seed), fh)
    return ["solve", path]


# -- environment -------------------------------------------------------------

def _read(path, default=None):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return default


def _llc():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (-1, None)
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        if level is not None and level.isdigit() and int(level) > best[0]:
            best = (int(level), _read(os.path.join(base, index, "size")))
    return best[1]


def _git_commit():
    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "fracpath")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment() -> dict:
    model = None
    for line in (_read("/proc/cpuinfo", "") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "llc": _llc(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(), "source_digest": source_digest(),
    }


# -- speed normalization -------------------------------------------------------

def normalize(s, probe, ready, setup_steal_s):
    """Take the probe's and the stolen time out of an invocation and scale it
    to reference speed.

    The slowdown of a probe kernel is the harmonic mean of its times in the
    invocation over its time at reference speed (``REFERENCE_KERNEL_S``);
    the harmonic mean weighs a phase of the run by its length, as the work
    done in it is.  The invocation's slowdown is the geometric mean of the
    two kernels' slowdowns, and its wall, CPU and set-up times, less the time
    spent in the probe, are divided by it.  The probe cannot see time the
    hypervisor stole from the CPU, so that is taken out of the wall and
    set-up times too.
    """
    ticks = probe["ticks"]
    slowdowns = []
    for name, reference_s in REFERENCE_KERNEL_S.items():
        times = probe["kernel_s"][name]
        if not times:
            raise ValueError(f"the speed probe timed no {name} kernel")
        slowdowns.append(len(times) / sum(1.0 / t for t in times) / reference_s)
        s.kernel_s[name] = statistics.median(times)
    s.probe_s = sum(d for _, d in ticks)
    s.slowdown = statistics.geometric_mean(slowdowns)
    s.wall_s = (s.wall_raw_s - s.steal_s - s.probe_s) / s.slowdown
    s.cpu_s = (s.cpu_raw_s - s.probe_s) / s.slowdown
    s.setup_s = (s.setup_raw_s - setup_steal_s
                 - sum(d for t, d in ticks if t < ready)) / s.slowdown


# -- one invocation ------------------------------------------------------------

class Sample:
    def __init__(self, seed, traced, timed):
        self.seed, self.traced, self.timed = seed, traced, timed
        self.failures = []
        self.hashes = {}
        self.layers = None
        self.wall_raw_s = self.cpu_raw_s = self.setup_raw_s = None
        self.probe_s = 0.0   # time the speed probe took out of the invocation
        self.steal_s = 0.0   # time stolen from its CPU, when /proc/stat tells
        self.slowdown = None
        self.kernel_s = {}   # median time of each probe kernel
        self.wall_s = self.cpu_s = self.setup_s = None

    def to_dict(self):
        return {k: v for k, v in vars(self).items() if k != "layers"}


def invoke(workload, seed, traced, timed, deadline) -> Sample:
    s = Sample(seed, traced, timed)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        outdir = os.path.join(workdir, "out")
        stamp = os.path.join(workdir, "stamp")
        trace = os.path.join(workdir, "trace.json") if traced else "-"
        probe = "-" if traced else os.path.join(workdir, "probe.json")
        cmd = [sys.executable, CHILD, stamp, trace, probe, "--", "--out", outdir,
               *cli_args(workload, seed, workdir)]
        env = dict(os.environ, **PINNED_ENV)
        env.pop("FRACPATH_OUTDIR", None)
        with open(os.path.join(workdir, "stderr"), "w+b") as err:
            steal0 = read_steal()
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                s.wall_raw_s = time.monotonic() - t0
                proc.returncode = s.exit_code = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            steal1 = read_steal()
            err.seek(0)
            tail = err.read().decode(errors="replace").strip().splitlines()[-1:]
        s.cpu_raw_s = usage.ru_utime + usage.ru_stime
        s.peak_rss_mb = usage.ru_maxrss / 1024.0
        s.steal_jiffies = None if steal0 is None or steal1 is None else steal1 - steal0
        if s.steal_jiffies is not None:
            s.steal_s = s.steal_jiffies / CLOCK_TICKS
        if s.exit_code != 0:
            s.failures.append(f"exit code {s.exit_code}: {' '.join(tail)}")
            return s
        try:
            with open(stamp, encoding="utf-8") as fh:
                ready, ready_steal = json.load(fh)
            s.setup_raw_s = ready - t0
            setup_steal_s = 0.0 if steal0 is None or ready_steal is None \
                else (ready_steal - steal0) / CLOCK_TICKS
            if not traced:
                with open(probe, encoding="utf-8") as fh:
                    normalize(s, json.load(fh), ready, setup_steal_s)
            for name in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, name), "rb") as fh:
                    s.hashes[name] = hashlib.sha256(fh.read()).hexdigest()
            s.failures += check_outputs(workload, outdir, seed == REFERENCE_SEED)
            if traced:
                with open(trace, encoding="utf-8") as fh:
                    s.layers = layer_metrics(json.load(fh))
                s.failures += check_trace(workload, outdir, s.layers)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            s.failures.append(f"missing or malformed output: {exc!r}")
        return s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- correctness -----------------------------------------------------------------

def reference(workload):
    if WORKLOADS[workload] is None:
        with open(os.path.join(REFERENCE_DIR, "verify-all.json"), encoding="utf-8") as fh:
            return json.load(fh)
    return np.load(os.path.join(REFERENCE_DIR, f"{workload}.npy"))


def read_solution(outdir, workload):
    grid = WORKLOADS[workload][1]
    values = np.loadtxt(os.path.join(outdir, "solution.csv"), delimiter=",",
                        skiprows=2, usecols=2)
    return values.reshape(grid["m"] + 1, grid["n"] + 1)


def verify_checks(outdir):
    with open(os.path.join(outdir, "verify_all.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload, outdir, at_reference: bool) -> list:
    """Verdicts always; agreement with the reference at the reference seed."""
    failures = []
    if WORKLOADS[workload] is None:
        doc = verify_checks(outdir)
        checks = doc["checks"]
        failures += [f"check {c['suite']}:{c['name']} failed"
                     for c in checks if not c["passed"]]
        if not doc["passed"]:
            failures.append("verify reports passed = false")
        ref = reference(workload)
        if [[c["suite"], c["name"]] for c in checks] != [r[:2] for r in ref]:
            failures.append("verify check names differ from the reference")
        elif at_reference:
            for c, r in zip(checks, ref):
                if abs(c["worst_margin"] - r[2]) > MARGIN_TOL * max(1.0, abs(r[2])):
                    failures.append(f"check {r[0]}:{r[1]} margin {c['worst_margin']!r} "
                                    f"differs from the reference {r[2]!r}")
        return failures
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if not report["converged"]:
        failures.append("solve did not converge")
    failures += [f"verdict {k} failed" for k, v in sorted(report["verdicts"].items())
                 if not v["passed"]]
    if at_reference:
        ref = reference(workload)
        err = float(np.abs(read_solution(outdir, workload) - ref).max()) \
            / float(np.abs(ref).max())
        if not err <= SOLUTION_RTOL:
            failures.append(f"solution differs from the reference by {err:.3g} "
                            f"of its sup norm (tolerance {SOLUTION_RTOL})")
    return failures


def check_trace(workload, outdir, layers) -> list:
    failures = [f"span {name} recorded no call on {workload}"
                for name in EXPECTED_SPANS[workload] if not layers.get(f"{name}.calls")]
    if WORKLOADS[workload] is not None:
        with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
            windows = json.load(fh)["windows"]
        for key, value in (
                ("solver.windows", len(windows)),
                ("solver.picard_iterations", sum(w["iterations"] for w in windows)),
                ("solver.windows_unguaranteed",
                 sum(not w["guarantee_ok"] for w in windows))):
            if layers.get(key, 0) != value:
                failures.append(f"traced {key} = {layers.get(key, 0)}, "
                                f"report.json says {value}")
    return failures


# -- per-layer aggregation -----------------------------------------------------------

def layer_metrics(trace: dict) -> dict:
    """Calls, inclusive and self seconds per span name, plus the counts."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child_s):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - inner)
    t0, t1 = trace["import"]
    out["cli.import.s"] = t1 - t0
    out.update(trace["counts"])
    builds = out.get("norms.pair_matrix.calls", 0)
    out["norms.sweeps_per_pair_matrix"] = \
        out.get("stieltjes.sweep.calls", 0) / builds if builds else 0.0
    return out


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".bytes", ".bytes_computed")) or name in (
        "solver.windows", "solver.picard_iterations", "solver.windows_unguaranteed",
        "norms.sweeps_per_pair_matrix")


# -- one run -------------------------------------------------------------------------

def run(workload, seed, seconds, trace, started):
    """One untimed invocation at --seed, then timed ones at the reference seed."""
    deadline = started + RUN_LIMIT_S
    samples = [invoke(workload, seed, False, False, deadline)]
    t_end = time.monotonic() + seconds
    while True:
        # trace runs go untraced, traced, traced, untraced, ...
        traced = bool(trace) and len(samples) % 3 != 1
        samples.append(invoke(workload, REFERENCE_SEED, traced, True, deadline))
        timed = [s for s in samples if s.timed]
        n_traced = sum(s.traced for s in timed)
        enough = n_traced >= 2 and len(timed) > n_traced if trace else len(timed) >= 2
        now = time.monotonic()
        if (now >= t_end and enough) or now >= deadline:
            break
    # every invocation of one seed, traced or not, writes the same bytes
    first = {}
    for s in samples:
        if s.hashes and first.setdefault(s.seed, s.hashes) != s.hashes:
            s.failures.append("outputs differ from the run's first invocation "
                              "with the same seed")
    if trace:
        traced = [s for s in samples if s.traced and s.layers is not None]
        for s in traced[1:]:
            diff = sorted(k for k in set(s.layers) | set(traced[0].layers)
                          if is_count(k) and s.layers.get(k) != traced[0].layers.get(k))
            if diff:
                s.failures.append(f"counts differ between traced invocations: {diff}")
    return samples


def median_of(samples, attr):
    values = [getattr(s, attr) for s in samples if getattr(s, attr, None) is not None]
    return (statistics.median(values), len(values)) if values else (None, 0)


def summarize(workload, samples, trace):
    untraced = [s for s in samples if s.timed and not s.traced]
    metrics, counts = {}, {}
    if not trace:
        for name, _ in END_TO_END + MEASURED:
            metrics[name], counts[name] = median_of(untraced, name)
        return metrics, counts
    traced = [s for s in samples if s.traced and s.layers is not None]
    for name, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        if is_count(name):
            metrics[name] = traced[0].layers.get(name, 0) if traced else None
        else:
            values = [s.layers.get(name, 0.0) for s in traced]
            metrics[name] = statistics.median(values) if values else None
        counts[name] = len(traced)
    # as measured, less the stolen time and the probe's time
    for s in samples:
        s.wall_net_s = None if s.wall_raw_s is None \
            else s.wall_raw_s - s.steal_s - s.probe_s
    plain, n_plain = median_of(untraced, "wall_net_s")
    with_trace, n_traced = median_of([s for s in samples if s.traced], "wall_net_s")
    metrics["trace.untraced_wall_s"], counts["trace.untraced_wall_s"] = plain, n_plain
    metrics["trace.traced_wall_s"], counts["trace.traced_wall_s"] = with_trace, n_traced
    metrics["trace.overhead_ratio"] = with_trace / plain if plain and with_trace else None
    counts["trace.overhead_ratio"] = min(n_plain, n_traced)
    return metrics, counts


def report(workload, seed, seconds, trace, env, samples):
    metrics, counts = summarize(workload, samples, trace)
    units = dict(PER_LAYER if trace else END_TO_END + MEASURED)
    attempted = len(samples)
    failed = sum(bool(s.failures) for s in samples)
    print(f"# {workload}  seed {seed}  {seconds} s  trace {trace}  "
          f"1 invocation at seed {seed}, {attempted - 1} timed at the reference "
          f"seed {REFERENCE_SEED}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# steal jiffies per invocation: "
          + " ".join(str(s.steal_jiffies) for s in samples))
    for name, value in metrics.items():
        if name == MEASURED[0][0]:
            print("# as measured, and the slowdown the times above are divided by:")
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {units[name]:6s} median of {counts[name]}")
    print(f"  {'fail_rate':40s} {failed / attempted:>14.6g} {'ratio':6s} "
          f"{failed} failed of {attempted}")
    for k, s in enumerate(samples):
        for f in s.failures:
            print(f"FAIL invocation {k} (seed {s.seed}, traced {s.traced}): {f}",
                  file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "env": env, "metrics": metrics,
                   "samples": [s.to_dict() for s in samples]}, fh, indent=1)
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in (PER_LAYER if trace else END_TO_END)}
    correct = failed == 0 and all(v["value"] is not None for v in result.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}), flush=True)
    return correct


def capture_reference():
    """Write the reference outputs of every workload at the reference seed."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload, spec in WORKLOADS.items():
        workdir = tempfile.mkdtemp(dir=OUT_DIR)
        outdir = os.path.join(workdir, "out")
        cmd = [sys.executable, CHILD, os.path.join(workdir, "stamp"), "-", "-", "--",
               "--out", outdir, *cli_args(workload, REFERENCE_SEED, workdir)]
        subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **PINNED_ENV), check=True)
        if spec is None:
            checks = verify_checks(outdir)["checks"]
            with open(os.path.join(REFERENCE_DIR, "verify-all.json"), "w",
                      encoding="utf-8") as fh:
                rows = [json.dumps([c["suite"], c["name"], c["worst_margin"]])
                        for c in checks]
                fh.write("[\n" + ",\n".join(rows) + "\n]\n")
        else:
            np.save(os.path.join(REFERENCE_DIR, f"{workload}.npy"),
                    read_solution(outdir, workload))
        shutil.rmtree(workdir)
        print(f"captured {workload}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capture-reference", action="store_true",
                   help="rewrite perfbench/reference/ from this checkout and exit")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for this process and the invocations it starts, so that the
    # steal count read for an invocation is that of the CPU it ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "fracpath", "cli.py")):
        print(f"error: no fracpath sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: fracpath sources do not compile", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.capture_reference:
        capture_reference()
        return 0
    env = environment()
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        samples = run(workload, args.seed, args.seconds, args.trace,
                      time.monotonic() if args.workload == "all" else started)
        ok = report(workload, args.seed, args.seconds, args.trace, env, samples) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
