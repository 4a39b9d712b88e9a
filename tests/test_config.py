"""Solve-config reading: every bad config exits 2 with one ``error:`` line,
before any solve starts."""

import copy
import json
import pathlib
import subprocess
import sys

import pytest

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
]

NOT_OBJECT = [[], 3, "config", None, [BASE]]


def bad_config(changes: dict) -> dict:
    cfg = copy.deepcopy(BASE)
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


def readme_config() -> dict:
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("A solve config looks like\n\n```json\n", 1)[1]
    return json.loads(block.split("```", 1)[0])


def test_readme_config_loads_and_solves_without_jsonschema(tmp_path):
    cfg = readme_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.load_config(str(path)) == cfg
    script = ("import sys\n"
              "from fracpath import cli\n"
              f"rc = cli.main(['--out', {str(tmp_path)!r}, 'solve', {str(path)!r}])\n"
              "print(rc, 'jsonschema' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.stdout.split() == ["0", "False"], r.stderr
    assert (tmp_path / "solution.csv").exists()
