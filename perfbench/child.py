"""Run one ``fracpath`` CLI command in this process, for the benchmark.

    python3 perfbench/child.py STAMP_FILE TRACE_FILE PROBE_FILE -- <fracpath arguments>

Imports ``fracpath`` from the ``src/`` directory next to ``perfbench/``, runs
``fracpath.cli.main`` on the arguments after ``--`` and exits with its code.

STAMP_FILE receives, as a JSON list, the CLOCK_MONOTONIC time at which the
command's inputs were ready and the steal jiffies at that time
(``read_steal``): the entry of ``solver.solve`` for ``solve`` (imports,
config, schema validation and driver construction done), the entry of
``cli.cmd_verify`` for ``verify``.  The parent subtracts its own launch time
and steal count.

TRACE_FILE is ``-`` for an untraced run.  Otherwise the public functions of
each layer are wrapped at every module that holds a reference to them (the
``from ... import`` binding sites included), spans (name, start, end,
parent) and counts are kept in memory, and all of it is written to
TRACE_FILE when the command returns.

PROBE_FILE is ``-`` for no speed probe.  Otherwise a SIGALRM timer
interrupts the command every ``PROBE_INTERVAL_S`` and times one of two
fixed kernels on data of its own (``SpeedProbe``), to measure how fast the
shared CPU runs at that moment; the kernels' durations and the time the
probe took in all are written to PROBE_FILE.  Python runs the handler between bytecodes
of the command, so the probe sees the same core at the same time as the
command, and the command's outputs do not change.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time

# (span name, defining module, attribute); several functions may share a span
LAYERS = (
    ("cli.load_config", "fracpath.cli", "load_config"),
    ("cli.write_csv", "fracpath.cli", "write_csv"),
    ("cli.write_json", "fracpath.cli", "write_json"),
    ("solver.solve", "fracpath.solver", "solve"),
    ("solver.compute_constants", "fracpath.solver", "compute_constants"),
    ("solver.gronwall_check", "fracpath.solver", "gronwall_check"),
    ("solver.contraction_probe", "fracpath.solver", "contraction_probe"),
    ("solver.ball_invariance_check", "fracpath.solver", "ball_invariance_check"),
    ("solver.quadruple_inequality_check", "fracpath.solver",
     "quadruple_inequality_check"),
    ("stieltjes.sweep", "fracpath.stieltjes", "stieltjes_all_upper_limits"),
    ("stieltjes.integral", "fracpath.stieltjes", "stieltjes_integral"),
    ("stieltjes.bound_check", "fracpath.stieltjes", "bound_357_check"),
    ("stieltjes.bound_check", "fracpath.stieltjes", "pathwise_integral_bound_check"),
    ("norms.pair_matrix", "fracpath.norms", "right_derivative_pair_matrix"),
    ("norms.slice_norm", "fracpath.norms", "slice_norm_alpha_infty"),
    ("norms.holder_norm", "fracpath.norms", "norm_1malpha_infty0"),
    ("norms.norm_alpha_1", "fracpath.norms", "norm_alpha_1"),
    ("frac_calc.holder_tail", "fracpath.frac_calc", "marchaud_difference_abs"),
    ("frac_calc.weyl", "fracpath.frac_calc", "weyl_derivative_left"),
    ("frac_calc.weyl", "fracpath.frac_calc", "weyl_derivative_right"),
    ("fbm.path", "fracpath.fbm", "fbm_path"),
    ("fbm.driving_field", "fracpath.fbm", "driving_field"),
    ("fbm.driving_field", "fracpath.fbm", "stub_driving_field"),
    ("fbm.driving_field", "fracpath.fbm", "field_from_path"),
)

# command -> (module, attribute) whose first call marks the inputs as ready
READY_AT = {"solve": ("fracpath.solver", "solve"),
            "verify": ("fracpath.cli", "cmd_verify")}


class Tracer:
    """Spans and counts kept in memory for one process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def count_solve(self, args, report):
        self.add("solver.windows", len(report.windows))
        self.add("solver.picard_iterations", sum(w.iterations for w in report.windows))
        self.add("solver.windows_unguaranteed",
                 sum(not w.guarantee_ok for w in report.windows))

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a call nested directly in a span of the same name (a right Weyl
            # derivative calling the left one) is part of that span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def install(self):
        hooks = {
            "cli.write_csv": lambda args, _: self.add(
                "cli.write_csv.bytes", os.path.getsize(args[0])),
            "cli.write_json": lambda args, _: self.add(
                "cli.write_json.bytes", os.path.getsize(args[0])),
            # the dense kernel materializes three (n+1)^2 float64 arrays per call
            "frac_calc.holder_tail": lambda args, _: self.add(
                "frac_calc.holder_tail.bytes_computed", 3 * len(args[0]) ** 2 * 8),
            "solver.solve": self.count_solve,
        }
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fracpath" or key.startswith("fracpath."))]
        for name, module, attr in LAYERS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        # coefficients are called as objects, so the class method is the site
        cls = sys.modules["fracpath.coefficients"].CoefficientFunction
        cls.__call__ = self.wrap("coefficients.eval", cls.__call__)


PROBE_INTERVAL_S = 0.05
SMALL_SHAPE = (48, 1025)   # two 390 KB operands, which stay in cache
ARRAY_SHAPE = (256, 1025)  # 2 MB operand and buffer, past the L2 cache


class SpeedProbe:
    """Times two fixed kernels, on alternate ticks, while the command runs.

    ``small`` is the command's per-call mix in small: a cache-resident array
    operation, small-vector numpy calls and interpreted arithmetic.
    ``array`` is the Hoelder-tail pattern ``(W * |v_i - v_j|).sum(axis=1)``
    on 2 MB arrays, in a buffer of its own so that it allocates nothing.
    Each is timed on its second pass, so that neither depends on what the
    command left in the caches or the allocator.
    """

    KERNELS = ("small", "array")

    def __init__(self):
        import numpy as np   # here, so that a traced run times numpy's import in cli.import
        self.np = np
        rng = np.random.default_rng(0)
        self.a, self.b = rng.random(SMALL_SHAPE), rng.random(SMALL_SHAPE)
        self.v = rng.random(SMALL_SHAPE[1])
        self.w = rng.random(ARRAY_SHAPE)
        self.buf = np.empty(ARRAY_SHAPE)
        self.kernel_s = {name: [] for name in self.KERNELS}   # timed passes
        self.ticks = []      # [start, whole handler duration] per tick

    def small(self):
        np, v = self.np, self.v
        (self.a * np.abs(v[None, :] - self.b)).sum(axis=1)
        for _ in range(20):
            np.sqrt(np.abs(v[1:] - v[:-1])).sum()
        x = 0
        for i in range(1500):
            x += i * i % 7
        return x

    def array(self):
        np, v, buf = self.np, self.v, self.buf
        np.subtract(v[:ARRAY_SHAPE[0], None], v[None, :], out=buf)
        np.abs(buf, out=buf)
        np.multiply(self.w, buf, out=buf)
        return buf.sum(axis=1)

    def tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel = getattr(self, self.KERNELS[len(self.ticks) % 2])
        kernel()   # brings the operands back into cache, untimed
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.kernel_s[kernel.__name__].append(t2 - t1)
        self.ticks.append([time.monotonic(), t2 - t0])

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def read_steal():
    """Steal jiffies of the CPUs this process may run on, read from
    /proc/stat, or None: time the hypervisor ran something else on them."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return sum(int(f[8]) for f in map(str.split, fh) if f and f[0] in cpus)
    except (OSError, IndexError, ValueError):
        return None


def _mark_ready(stamp, module, attr):
    mod = sys.modules[module]
    original = getattr(mod, attr)

    @functools.wraps(original)
    def marked(*args, **kwargs):
        if not stamp:
            stamp.extend([time.monotonic(), read_steal()])
        return original(*args, **kwargs)
    setattr(mod, attr, marked)


def main() -> int:
    stamp_path, trace_path, probe_path, sep = sys.argv[1:5]
    if sep != "--":
        raise SystemExit("usage: child.py STAMP_FILE TRACE_FILE PROBE_FILE -- "
                         "<fracpath arguments>")
    argv = sys.argv[5:]
    probe = SpeedProbe() if probe_path != "-" else None
    if probe is not None:
        probe.start()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fracpath.cli
    t1 = time.perf_counter()
    if not os.path.abspath(fracpath.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"fracpath imported from {fracpath.cli.__file__}, not {src}")
    tracer = Tracer() if trace_path != "-" else None
    if tracer is not None:
        tracer.install()
    stamp = []
    command = next(a for a in argv if a in READY_AT)
    _mark_ready(stamp, *READY_AT[command])
    try:
        rc = fracpath.cli.main(argv)
    finally:
        if probe is not None:
            probe.stop()
    if stamp:
        with open(stamp_path, "w", encoding="utf-8") as fh:
            json.dump(stamp, fh)
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"import": [t0, t1], "spans": tracer.spans,
                       "counts": tracer.counts}, fh)
    if probe is not None:
        with open(probe_path, "w", encoding="utf-8") as fh:
            json.dump({"kernel_s": probe.kernel_s, "ticks": probe.ticks}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
