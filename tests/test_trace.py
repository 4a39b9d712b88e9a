"""The benchmark's traced runs reach every layer they must.

``perfbench/run.py --trace 1`` fails a workload on which a span of
``EXPECTED_SPANS`` records no call.  These tests run ``perfbench/child.py``
with a trace file, as the benchmark does, on a small frozen n = 1024 solve
and on ``verify all``, and check the trace with the benchmark's own
``layer_metrics`` and ``check_trace``; the perfbench files are only read.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module; it imports ``child`` from its folder."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def traced_run(bench, workload, args, tmp_path):
    """Run the CLI under ``child.py`` with a trace file; the layer metrics."""
    out = tmp_path / "out"
    trace = tmp_path / "trace.json"
    cmd = [sys.executable, str(PERFBENCH / "child.py"), str(tmp_path / "stamp"),
           str(trace), "-", "--", "--out", str(out), *args]
    r = subprocess.run(cmd, cwd=bench.ROOT, env=dict(os.environ, **bench.PINNED_ENV),
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    layers = bench.layer_metrics(json.loads(trace.read_text()))
    assert bench.check_trace(workload, str(out), layers) == []
    return layers


def test_frozen_n1024_solve_reaches_every_span(bench, tmp_path):
    cfg = bench.solve_config("solve-frozen-n1024", bench.REFERENCE_SEED)
    cfg["grid"].update(m=8, T=0.016)   # the workload's time step, fewer cells
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    layers = traced_run(bench, "solve-frozen-n1024", ["solve", str(path)], tmp_path)
    for name in bench.EXPECTED_SPANS["solve-frozen-n1024"]:
        assert layers[f"{name}.calls"] > 0, name


def test_verify_all_reaches_every_span(bench, tmp_path):
    layers = traced_run(bench, "verify-all", ["verify", "all", "--seed", "7"], tmp_path)
    for name in bench.EXPECTED_SPANS["verify-all"]:
        assert layers[f"{name}.calls"] > 0, name
