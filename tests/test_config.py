"""Solve-config reading: every bad config exits 2 with one ``error:`` line,
before any solve starts, and a config mutated at random exits cleanly."""

import contextlib
import copy
import io
import json
import math
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracpath import cli

BASE = {
    "hurst": 0.75,
    "alpha": 0.3,
    "grid": {"m": 16, "n": 48, "T": 0.1},
    "driver": {"model": "stub", "kind": "linear"},
    "phi": {"kind": "ramp"},
    "A": {"kind": "tanh", "params": {"scale": 0.5}},
    "picard": {"tol": 1e-10, "max_iter": 40},
}
FROZEN = {"model": "frozen", "seed": 7}
SHEET = {"model": "sheet", "seed": 7}
DELETE = object()

# (id, {dotted key: new value or DELETE}); "driver" is replaced before the
# keys below it are set
BAD = [
    *[(f"missing-{k}", {k: DELETE})
      for k in ("hurst", "alpha", "grid", "driver", "phi", "A",
                "grid.m", "grid.n", "grid.T", "driver.model", "phi.kind", "A.kind")],
    *[(f"unknown-key-{k or 'top'}", {f"{k}.extra" if k else "extra": 1})
      for k in ("", "grid", "driver", "phi", "A", "picard")],
    *[(f"not-object-{k}", {k: v})
      for k, v in (("grid", []), ("driver", "frozen"), ("phi", None), ("A", 3),
                   ("picard", []), ("driver.params", []), ("phi.params", "x"),
                   ("A.params", [1]))],
    *[(f"wrong-type-{k}-{json.dumps(v)}", {k: v})
      for k, v in (("hurst", "0.75"), ("alpha", None), ("grid.m", "16"),
                   ("grid.n", 48.5), ("grid.T", "0.1"), ("grid.T", None),
                   ("driver.model", 3), ("driver.kind", ["linear"]),
                   ("phi.kind", 1), ("A.kind", None), ("picard.tol", "1e-9"),
                   ("picard.max_iter", 40.5), ("window_policy", 1))],
    *[(f"wrong-type-seed-{json.dumps(v)}", {"driver": FROZEN, "driver.seed": v})
      for v in ("7", 7.5, [7.5], ["7"], {}, [[7]])],
    ("wrong-type-hurst_t", {"driver": SHEET, "driver.hurst_t": "0.95"}),
    *[(f"bool-{k}", {k: True})
      for k in ("hurst", "alpha", "grid.m", "grid.n", "grid.T",
                "picard.tol", "picard.max_iter")],
    ("bool-seed", {"driver": FROZEN, "driver.seed": True}),
    ("bool-seed-entry", {"driver": FROZEN, "driver.seed": [3, False]}),
    ("bool-hurst_t", {"driver": SHEET, "driver.hurst_t": True}),
    *[(f"enum-{k}", {k: v})
      for k, v in (("driver.model", "brownian"), ("driver.kind", "cubic"),
                   ("phi.kind", "cubic"), ("A.kind", "relu"),
                   ("window_policy", "greedy"))],
    *[(f"bound-{k}={json.dumps(v)}", {k: v})
      for k, v in (("hurst", 0.5), ("hurst", 1.0), ("hurst", 1.2),
                   ("alpha", 0.0), ("alpha", 0.5), ("alpha", -0.1),
                   ("grid.m", 0), ("grid.m", -1), ("grid.n", 1), ("grid.n", 0),
                   ("grid.n", -5), ("grid.T", 0), ("grid.T", -0.1),
                   ("grid.T", 1e-320), ("grid.T", float("inf")),
                   ("picard.tol", 0), ("picard.tol", -1e-9), ("picard.tol", float("inf")),
                   ("picard.max_iter", 0), ("picard.max_iter", -3))],
    *[(f"bound-hurst_t={v}", {"driver": SHEET, "driver.hurst_t": v})
      for v in (0.89, 1.0, 1.5)],
    *[(f"bound-seed={json.dumps(v)}", {"driver": FROZEN, "driver.seed": v})
      for v in (-1, [-1], [3, -1], [])],
    ("alpha-below-1-minus-hurst", {"alpha": 0.2}),
    ("frozen-without-seed", {"driver": {"model": "frozen"}}),
    ("sheet-without-seed", {"driver": {"model": "sheet"}}),
    ("stub-without-kind", {"driver": {"model": "stub"}}),
    ("frozen-with-hurst_t", {"driver": FROZEN, "driver.hurst_t": 0.95}),
    # (m+1)(n+1) float64 values past any 57-bit address space: m = 10**16
    # passes the grid check and fails to allocate, the larger m are refused
    # by it, before any allocation
    *[(f"size-grid.m=10**{e}", {"grid.m": 10 ** e}) for e in (16, 17, 30)],
]

NOT_OBJECT = [[], 3, "config", None, [BASE]]


def bad_config(changes: dict, base: dict = BASE) -> dict:
    cfg = copy.deepcopy(base)
    for key, value in changes.items():
        *parents, last = key.split(".")
        obj = cfg
        for p in parents:
            obj = obj[p]
        if value is DELETE:
            del obj[last]
        else:
            obj[last] = copy.deepcopy(value)
    return cfg


def solve_exit(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["--out", str(tmp_path), "solve", str(path)])
    return rc, capsys.readouterr().err


def assert_refused(tmp_path, rc, err):
    """Exit 2, one ``error:`` line, and nothing solved or written."""
    assert rc == 2
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "solution.csv").exists()


def test_base_config_solves(tmp_path, capsys):
    rc, err = solve_exit(tmp_path, capsys, BASE)
    assert rc == 0 and err == ""


@pytest.mark.parametrize("changes", [c for _, c in BAD], ids=[i for i, _ in BAD])
def test_bad_config_refused(tmp_path, capsys, changes):
    rc, err = solve_exit(tmp_path, capsys, bad_config(changes))
    assert_refused(tmp_path, rc, err)


@pytest.mark.parametrize("m", [10 ** 17, 10 ** 30])
def test_grid_too_large_to_index_names_m_and_n(tmp_path, capsys, m):
    rc, err = solve_exit(tmp_path, capsys, bad_config({"grid.m": m}))
    assert_refused(tmp_path, rc, err)
    assert f"m={m} by n=48 cells" in err


def test_memory_error_is_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB")
    monkeypatch.setattr(cli.solver, "solve", exhausted)
    rc, err = solve_exit(tmp_path, capsys, BASE)
    assert_refused(tmp_path, rc, err)
    assert "8.00 EiB" in err


@pytest.mark.parametrize("cfg", NOT_OBJECT, ids=[json.dumps(c)[:12] for c in NOT_OBJECT])
def test_config_not_an_object_refused(tmp_path, capsys, cfg):
    rc, err = solve_exit(tmp_path, capsys, cfg)
    assert_refused(tmp_path, rc, err)


@pytest.mark.parametrize("key", ["grid.m", "grid.n", "picard.max_iter"])
def test_integer_given_as_float_refused(tmp_path, capsys, key):
    section, name = key.split(".")
    rc, err = solve_exit(tmp_path, capsys,
                         bad_config({key: float(BASE[section][name])}))
    assert_refused(tmp_path, rc, err)


@pytest.mark.parametrize("changes", [
    {"phi": {"kind": "sine", "params": {"k": 1, "foo": 1}}},
    {"phi": {"kind": "ramp", "params": {"k": 1}}},
    {"phi": {"kind": "sine", "params": {"amplitude": "x"}}},
    {"phi": {"kind": "file", "params": {"path": 3}}},
    {"driver.params": {"foo": 1}},
    {"driver.params": {"k": 2}},   # a sine parameter on a linear stub
    {"driver.params": {"scale": "x"}},
], ids=["phi-unknown", "phi-ramp-k", "phi-string", "phi-path-number",
        "stub-unknown", "stub-other-kind", "stub-string"])
def test_bad_params_refused(tmp_path, capsys, changes):
    rc, err = solve_exit(tmp_path, capsys, bad_config(changes))
    assert_refused(tmp_path, rc, err)


@pytest.mark.parametrize("line", ["0.5", "0.5,abc", "0.5,1,2", "x,y"],
                         ids=["no-comma", "not-a-number", "three-cells", "second-header"])
def test_malformed_phi_file_refused(tmp_path, capsys, line):
    path = tmp_path / "phi.csv"
    path.write_text(f"# phi\nx,y\n0,0\n{line}\n1,1\n")
    rc, err = solve_exit(tmp_path, capsys, bad_config(
        {"phi": {"kind": "file", "params": {"path": str(path)}}}))
    assert_refused(tmp_path, rc, err)
    assert f"{path}, line 4" in err


@pytest.mark.parametrize("table, message", [
    ("0,0\n0.5,1\n", "x runs from 0 to 0.5, which does not cover [0, 1]"),
    ("0.25,0\n1,1\n", "x runs from 0.25 to 1, which does not cover [0, 1]"),
    ("0,0\n0.5,1\n0.5,2\n1,1\n", "x = 0.5 appears more than once"),
    ("0,0\nnan,1\n1,1\n", "every x and y must be finite"),
    ("0,0\n0.5,inf\n1,1\n", "every x and y must be finite"),
], ids=["short-of-one", "short-of-zero", "repeated-x", "nan-x", "infinite-y"])
def test_phi_file_that_cannot_be_sampled_refused(tmp_path, capsys, table, message):
    path = tmp_path / "phi.csv"
    path.write_text("x,y\n" + table)
    rc, err = solve_exit(tmp_path, capsys, bad_config(
        {"phi": {"kind": "file", "params": {"path": str(path)}}}))
    assert_refused(tmp_path, rc, err)
    assert err == f"error: {path}: {message}\n"


def test_phi_file_may_reach_past_the_unit_interval(tmp_path, capsys):
    path = tmp_path / "phi.csv"
    path.write_text("x,y\n1.5,3\n-0.5,-1\n")
    rc, err = solve_exit(tmp_path, capsys, bad_config(
        {"phi": {"kind": "file", "params": {"path": str(path)}},
         "A": {"kind": "zero"}}))
    assert rc == 0 and err == ""


# (id, changes, arguments before the config path, arguments after it)
OVERFLOW = [
    ("T-1e308", {"grid.T": 1e308}, ["solve"], []),
    ("phi-amplitude-1e308", {"phi": {"kind": "sine", "params": {"amplitude": 1e308}}},
     ["solve"], []),
    ("ensemble-T-1e308", {"driver": FROZEN, "grid.T": 1e308},
     ["--threads", "2", "ensemble"], ["--count", "2", "--seed", "1"]),
]


@pytest.mark.parametrize("changes, before, after", [c[1:] for c in OVERFLOW],
                         ids=[c[0] for c in OVERFLOW])
def test_overflow_refused_with_one_line(tmp_path, changes, before, after):
    # a fresh interpreter: the suite's error::RuntimeWarning filter would
    # turn numpy's overflow warnings into exceptions in this process
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad_config(changes)))
    r = subprocess.run([sys.executable, "-m", "fracpath", "--out", str(tmp_path),
                        *before, str(path), *after], capture_output=True, text=True)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1, r.stderr
    assert not any(tmp_path.glob("*.csv"))


# (id, coefficient, the name and the proof constant the error line gives; a
# window constant is given at R1, twice the norm of the ramp phi, and a run
# constant, which does not depend on R1, without it)
OVERFLOWING_COEFFICIENTS = [
    ("tanh-1e200", {"kind": "tanh", "params": {"scale": 1e200}}, "tanh(1e+200)",
     "M_N(R1) = inf at R1 = 4.85714"),
    ("tanh-1e308", {"kind": "tanh", "params": {"scale": 1e308}}, "tanh(1e+308)", "b2 = inf"),
    ("biot-savart-1e-80", {"kind": "smoothed-biot-savart", "params": {"epsilon": 1e-80}},
     "smoothed-biot-savart(1e-80,1.0)", "M_N(R1) = inf at R1 = 4.85714"),
]


@pytest.mark.parametrize("A, name, constant", [c[1:] for c in OVERFLOWING_COEFFICIENTS],
                         ids=[c[0] for c in OVERFLOWING_COEFFICIENTS])
def test_overflowing_coefficient_constant_names_the_coefficient(tmp_path, A, name, constant):
    # a proof constant past float64 is refused where it is computed, not
    # turned into a probe grid over [0, 0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad_config({"grid": {"m": 8, "n": 32, "T": 0.1},
                                           "driver": FROZEN, "A": A})))
    r = subprocess.run([sys.executable, "-m", "fracpath", "--out", str(tmp_path),
                        "solve", str(path)], capture_output=True, text=True)
    assert r.returncode == 2, r.stderr
    assert r.stderr == (f"error: the inputs overflow float64 (coefficient {name} gives "
                        f"the proof constant {constant})\n"), r.stderr
    assert not any(tmp_path.glob("*.csv"))


# (number key, changes that give the config that key)
NUMBER_KEYS = [
    ("phi.params.amplitude", {"phi": {"kind": "sine", "params": {}}}),
    ("A.params.scale", {}),
    ("driver.params.scale", {"driver.params": {}}),
    ("A.params.c", {"A": {"kind": "const", "params": {}}}),
    ("grid.T", {}),
    ("picard.tol", {}),
    ("hurst", {}),
    ("alpha", {}),
]
NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("value", NON_FINITE, ids=json.dumps)
@pytest.mark.parametrize("key, setup", NUMBER_KEYS, ids=[k for k, _ in NUMBER_KEYS])
def test_non_finite_number_refused_naming_its_key(tmp_path, capsys, key, setup, value):
    # refused as it is read: no numpy warning first, and the line names the key
    cfg = bad_config({**setup, key: value})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, err = solve_exit(tmp_path, capsys, cfg)
    assert not caught, [str(w.message) for w in caught]
    assert_refused(tmp_path, rc, err)
    assert err == f"error: {key} must be a finite number, got {json.dumps(value)}\n"


@pytest.mark.parametrize("T", [100, 1000])
def test_long_horizon_keeps_its_solution(tmp_path, T):
    # exp(K T) overflows past t = 87.5 here: the Gronwall envelope is +inf
    # from there on and the report says so, where the run used to exit 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad_config({"grid.T": T})))
    r = subprocess.run([sys.executable, "-m", "fracpath", "--out", str(tmp_path),
                        "solve", str(path)], capture_output=True, text=True)
    assert r.returncode == 0 and r.stderr == "", r.stderr
    assert (tmp_path / "solution.csv").exists()
    gronwall = json.loads((tmp_path / "report.json").read_text())["verdicts"]["gronwall"]
    assert 0 < gronwall["unbounded_from"] <= T
    assert math.isfinite(gronwall["min_margin"])


# small configs (n = 32, m = 8) that hold between them every number key the
# readers take: each coefficient and driver kind with all its parameters
_FUZZ_GRID = {"m": 8, "n": 32, "T": 0.1}
_SINE_PHI = {"kind": "sine", "params": {"k": 1, "amplitude": 0.5}}
FUZZ_BASES = [
    {"hurst": 0.75, "alpha": 0.3, "grid": _FUZZ_GRID,
     "driver": {"model": "stub", "kind": "linear", "params": {"scale": 1.0}},
     "phi": _SINE_PHI, "A": {"kind": "tanh", "params": {"scale": 1.0}},
     "picard": {"tol": 1e-9, "max_iter": 40}, "window_policy": "paper-constants"},
    {"hurst": 0.75, "alpha": 0.3, "grid": _FUZZ_GRID,
     "driver": {"model": "stub", "kind": "sine", "params": {"k": 1, "amplitude": 1.0}},
     "phi": {"kind": "ramp"},
     "A": {"kind": "gaussian-bump", "params": {"center": 0.0, "width": 1.0, "amplitude": 1.0}},
     "picard": {"tol": 1e-9, "max_iter": 40}},
    {"hurst": 0.75, "alpha": 0.3, "grid": _FUZZ_GRID,
     "driver": {"model": "stub", "kind": "quadratic", "params": {"scale": 0.5}},
     "phi": _SINE_PHI,
     "A": {"kind": "smoothed-biot-savart", "params": {"epsilon": 0.5, "strength": 1.0}}},
    {"hurst": 0.75, "alpha": 0.3, "grid": _FUZZ_GRID, "driver": {"model": "frozen", "seed": 7},
     "phi": _SINE_PHI, "A": {"kind": "const", "params": {"c": 0.5}},
     "window_policy": "adaptive"},
    {"hurst": 0.75, "alpha": 0.3, "grid": _FUZZ_GRID,
     "driver": {"model": "sheet", "seed": [7, 1], "hurst_t": 0.95},
     "phi": {"kind": "zero"}, "A": {"kind": "tanh", "params": {"scale": 0.5}}},
]
# values any key may take besides the NON_FINITE ones, which are drawn as
# often as all these together: a deletion, wrong types, subnormal, huge and
# boundary numbers
ANY_VALUE = [DELETE, None, True, "0.5", [], {}, [0.5],
             5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, sys.float_info.max,
             -0.0, 0.0, 1e-12, 0.5, 1.0, -1, 0, 1, 2]
# integers past float64 and int64, for every key but the sizes below
HUGE_INTS = [10 ** 400, 2 ** 63, 10 ** 20]
# the keys that size the work: only their own small boundary values, so
# that no example asks for a large grid or a long Picard loop
SIZE_VALUES = {"grid.m": [16], "grid.n": [3, 64], "picard.max_iter": [60]}
KEY_VALUES = {
    "hurst": [0.5, 1.0, 0.7000000000000001],
    "alpha": [0.25, 0.49999999999999994],
    "grid.T": [100.0, 1e6],
    "driver.model": ["frozen", "sheet", "stub"],
    "driver.kind": ["zero", "linear", "quadratic", "sine"],
    "driver.hurst_t": [0.9, 0.99999],
    "phi.kind": ["zero", "sine", "ramp", "file"],
    "A.kind": ["zero", "const", "tanh", "gaussian-bump", "smoothed-biot-savart"],
    "picard.tol": [1e-300, 1e300],
    "window_policy": ["paper-constants", "adaptive"],
}


def _leaves(obj: dict, prefix: str = "") -> list:
    """The dotted keys of the values of ``obj`` that are not objects."""
    return [key for k, v in obj.items()
            for key in (_leaves(v, f"{prefix}{k}.") if isinstance(v, dict) and v
                        else [prefix + k])]


def _values(key: str) -> list:
    if key in SIZE_VALUES:
        return ANY_VALUE + SIZE_VALUES[key]
    return ANY_VALUE + HUGE_INTS + KEY_VALUES.get(key, [])


def _mutations(base: dict):
    """One or two leaves of ``base``, each with a value from its pool."""
    keys = st.lists(st.sampled_from(_leaves(base)), min_size=1, max_size=2, unique=True)
    return keys.flatmap(lambda ks: st.tuples(
        st.just(base),
        st.tuples(*[st.tuples(st.just(k), st.sampled_from(NON_FINITE)
                              | st.sampled_from(_values(k))) for k in ks])))


MUTATED = st.sampled_from(FUZZ_BASES).flatmap(_mutations)


def solve_in_process(cfg: dict):
    """Exit code, stderr, the warnings raised and the solution values of
    ``fracpath solve`` on ``cfg`` in this process (None unless exit 0)."""
    with tempfile.TemporaryDirectory() as out, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        path = pathlib.Path(out) / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["--out", out, "solve", str(path)])
        solution = None
        if rc == 0:
            solution = np.loadtxt(pathlib.Path(out) / "solution.csv", delimiter=",",
                                  skiprows=2)
    return rc, err.getvalue(), caught, solution


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(MUTATED)
# the inputs that once printed numpy warnings before their error line, and
# an integer horizon past int64 that once made an object array
@example((FUZZ_BASES[0], (("phi.params.amplitude", math.inf),)))
@example((FUZZ_BASES[0], (("A.params.scale", math.inf),)))
@example((FUZZ_BASES[0], (("driver.params.scale", math.inf),)))
@example((FUZZ_BASES[3], (("grid.T", 10 ** 20),)))
def test_mutated_config_exits_cleanly(mutated):
    base, mutation = mutated
    rc, err, caught, solution = solve_in_process(bad_config(dict(mutation), base))
    assert rc in (0, 1, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    if rc == 2:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    else:
        assert err == ""
    if rc == 0:
        assert np.isfinite(solution).all()


def readme_config() -> dict:
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("A solve config looks like\n\n```json\n", 1)[1]
    return json.loads(block.split("```", 1)[0])


def test_readme_config_loads_and_solves_without_jsonschema(tmp_path):
    cfg = readme_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.load_config(str(path))[0] == cfg
    script = ("import sys\n"
              "from fracpath import cli\n"
              f"rc = cli.main(['--out', {str(tmp_path)!r}, 'solve', {str(path)!r}])\n"
              "print(rc, 'jsonschema' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.stdout.split() == ["0", "False"], r.stderr
    assert (tmp_path / "solution.csv").exists()
