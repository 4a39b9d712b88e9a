"""The benchmark's gated workloads reproduce its reference outputs.

``perfbench/run.py`` checks every timed invocation against the outputs in
``perfbench/reference``: each solution within 1e-12 of the reference's sup
norm and each ``verify all`` margin within 1e-12 of max(1, |reference|),
with every verdict passed.  These tests run the three gated workloads and
the ungated sheet solve at the reference seed through ``cli.main`` and
apply the benchmark's own ``check_outputs``, so a numerical drift fails
here before the benchmark runs; the perfbench files are only read.
"""

import importlib.util
import pathlib
import sys

import pytest

from fracpath import cli

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


@pytest.mark.parametrize("workload", ["solve-readme", "solve-frozen-n1024",
                                      "solve-sheet-n1024", "verify-all"])
def test_reference_outputs_reproduced(bench, workload, tmp_path):
    out = tmp_path / "out"
    args = bench.cli_args(workload, bench.REFERENCE_SEED, str(tmp_path))
    assert cli.main(["--out", str(out), *args]) == 0
    assert bench.check_outputs(workload, str(out), True) == []
