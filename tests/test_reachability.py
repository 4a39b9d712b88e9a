"""Every function in ``src/fracpath`` is reached by some CLI command.

The commands run in-process at small n under a profile hook on this thread
and on every thread started meanwhile (the ensemble's workers), with the
weight caches emptied first so that cached tables are built again.  A
function that no command reaches fails the test unless ``UNREACHED`` names
it with the reason it stays.
"""

import ast
import json
import pathlib
import sys
import threading

from fracpath import cli

SRC = pathlib.Path(cli.__file__).resolve().parent

# module.qualname -> why the function stays although no command calls it
UNREACHED = {
    "coefficients.spot_check_constants": "checks M1, M2 and M_N on a lattice; no verify suite runs it yet",
    "coefficients.gaussian_bump.<locals>.deriv": "A' is read only by spot_check_constants",
    "coefficients.smoothed_biot_savart.<locals>.deriv": "A' is read only by spot_check_constants",
}


def defined_functions() -> set:
    """module.qualname of every def in the package, methods and nested ones
    included (lambdas are not defs)."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)
    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return names


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("fracpath."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                    obj.cache_clear()


def write_config(path, grid, driver, A, phi=None, **extra):
    cfg = {"hurst": 0.75, "alpha": 0.3, "grid": grid, "driver": driver, "A": A,
           "phi": phi or {"kind": "sine", "params": {"k": 1, "amplitude": 0.5}}, **extra}
    path.write_text(json.dumps(cfg))
    return str(path)


def commands(tmp_path) -> list:
    phi_csv = tmp_path / "phi.csv"
    phi_csv.write_text("x,y\n0,0\n0.5,0.25\n1,0\n")
    frozen = write_config(tmp_path / "frozen.json", {"m": 4, "n": 512, "T": 0.01},
                          {"model": "frozen", "seed": 7},
                          {"kind": "tanh", "params": {"scale": 1.0}})
    sheet = write_config(tmp_path / "sheet.json", {"m": 4, "n": 48, "T": 0.05},
                         {"model": "sheet", "seed": [3, 1]},
                         {"kind": "smoothed-biot-savart", "params": {"epsilon": 2.0}},
                         {"kind": "file", "params": {"path": str(phi_csv)}})
    stub = write_config(tmp_path / "stub.json", {"m": 8, "n": 32, "T": 0.2},
                        {"model": "stub", "kind": "sine", "params": {"k": 1}},
                        {"kind": "const", "params": {"c": 0.5}},
                        {"kind": "ramp"}, window_policy="adaptive",
                        picard={"tol": 1e-10, "max_iter": 40})
    ensemble = write_config(tmp_path / "ensemble.json", {"m": 4, "n": 32, "T": 0.05},
                            {"model": "frozen", "seed": 1},
                            {"kind": "gaussian-bump", "params": {"width": 0.7}})
    refine = write_config(tmp_path / "refine.json", {"m": 4, "n": 16, "T": 0.1},
                          {"model": "stub", "kind": "quadratic"}, {"kind": "zero"},
                          {"kind": "zero"})
    return [["solve", frozen], ["solve", sheet], ["solve", stub],
            ["verify", "all"],
            ["--threads", "2", "ensemble", ensemble, "--count", "2", "--seed", "1"],
            ["convergence", refine, "--resolutions", "8,16"],
            ["fbm", "--hurst", "0.7", "--n", "32", "--seed", "1",
             "--validate", "--samples", "1000"]]


def test_every_function_is_reached_by_a_command(tmp_path):
    reached = set()
    prefix = str(SRC) + "/"

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            code = frame.f_code
            reached.add(f"{pathlib.Path(code.co_filename).stem}.{code.co_qualname}")

    argvs = commands(tmp_path)
    clear_caches()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        codes = [cli.main(["--out", str(tmp_path / "out"), *argv]) for argv in argvs]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert codes == [0] * len(argvs)
    defined = defined_functions()
    assert set(UNREACHED) <= defined, "allowlisted names that no longer exist"
    assert not UNREACHED.keys() & reached, "allowlisted names that a command reaches"
    assert sorted(defined - reached - set(UNREACHED)) == []
