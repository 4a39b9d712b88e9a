import dataclasses
import importlib
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

MODULES = ["fracpath", "fracpath.grids", "fracpath.frac_calc", "fracpath.norms",
           "fracpath.fbm", "fracpath.stieltjes", "fracpath.solver",
           "fracpath.coefficients", "fracpath.sampling"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_benchmark_hooks_resolve():
    # the benchmark's tracer wraps these by name, and only a traced benchmark
    # run would notice a rename; load its child script by path, without
    # running it, so that this suite does
    path = pathlib.Path(__file__).parents[1] / "perfbench/child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    sites = [(module, attr) for _, module, attr in child.LAYERS]
    sites += list(child.READY_AT.values())
    sites.append(("fracpath.coefficients", "CoefficientFunction"))
    unresolved = [site for site in sites
                  if not callable(getattr(importlib.import_module(site[0]), site[1], None))]
    assert unresolved == []


def test_only_norms_and_stieltjes_name_the_pair_matrix():
    # a slice operator is passed around as a stieltjes.SliceOperator; how it
    # is stored is known where it is built (norms) and contracted (stieltjes)
    src = pathlib.Path(__file__).parents[1] / "src/fracpath"
    naming = sorted(path.name for path in src.glob("*.py")
                    if "pair_matrix" in path.read_text())
    assert naming == ["norms.py", "stieltjes.py"]


def test_only_frac_calc_reads_the_tail_weights():
    # the Hoelder tail is summed by one kernel, frac_calc.marchaud_difference_abs;
    # the slice norm selects its bands instead of summing a tail of its own
    src = pathlib.Path(__file__).parents[1] / "src/fracpath"
    reading = sorted(path.name for path in src.glob("*.py")
                     if "_tail_weights" in path.read_text())
    assert reading == ["frac_calc.py"]


def test_the_unit_grid_is_not_an_argument():
    # every slice lives on [0, 1], where a slice of n + 1 nodes has step
    # 1/n, and a solve's n is the number of cells of its phi
    taking_h = []
    for module in ("fracpath.norms", "fracpath.frac_calc"):
        mod = importlib.import_module(module)
        taking_h += [f"{module}.{name}" for name in mod.__all__
                     if "h" in inspect.signature(getattr(mod, name)).parameters]
    assert taking_h == []
    from fracpath.solver import SolverConfig
    assert "n" not in {f.name for f in dataclasses.fields(SolverConfig)}
    from fracpath.grids import GridFunction
    assert [f.name for f in dataclasses.fields(GridFunction)] == ["values"]
    frac_calc = importlib.import_module("fracpath.frac_calc")
    taking_interval = [name for name in frac_calc.__all__
                       if {"a", "b"} & set(inspect.signature(getattr(frac_calc, name)).parameters)]
    assert taking_interval == []


def test_a_time_constant_driver_has_no_time_axis():
    # a driver is its slice operators: the frozen and stub drivers take no
    # time grid, a driver holds no field, and the Gronwall check reads the
    # order from its constants
    from fracpath import fbm, grids, solver
    for build in (fbm.field_from_path, fbm.stub_driving_field):
        assert not {"m", "T"} & set(inspect.signature(build).parameters), build.__name__
    assert "field" not in {f.name for f in dataclasses.fields(fbm.DrivingField)}
    assert not hasattr(grids, "SpaceTimeField")
    assert "cfg" not in inspect.signature(solver.gronwall_check).parameters


def test_one_contraction_probe():
    # the contraction probe draws, scales and maps all its field pairs
    # itself: no per-pair entry point, no norms handed in, and no field
    # states its time step
    from fracpath import grids, solver
    assert not hasattr(solver, "contraction_sweep")
    params = inspect.signature(solver.contraction_probe).parameters
    assert not {"Y1", "Y2", "field_norms"} & set(params)
    assert not hasattr(grids, "SpaceTimeField")


def test_a_field_is_a_plain_array():
    # a solve's field and a probe's random field are plain arrays: no field
    # type, no field norm beside max_slice_norm, and no record with its own
    # serializer
    from fracpath import grids, norms, sampling, stieltjes
    assert not hasattr(grids, "SpaceTimeField")
    assert not hasattr(norms, "norm_alpha_infty")
    field = sampling.random_smooth_field(2, 4, 0.5, np.random.default_rng(0))
    assert type(field) is np.ndarray and field.shape == (3, 5)
    assert not hasattr(stieltjes.BoundReport, "to_dict")


def test_fbm_config_is_the_sheet(monkeypatch):
    # a frozen driver is its path: its config builds no FbmConfig, which
    # configures the sheet alone and has no time model
    from fracpath import cli, fbm
    assert "time_model" not in {f.name for f in dataclasses.fields(fbm.FbmConfig)}

    def refuse(*args, **kwargs):
        raise AssertionError("FbmConfig built for a frozen driver")

    monkeypatch.setattr(fbm, "FbmConfig", refuse)
    _, build_driver = cli._read_config({
        "alpha": 0.3, "hurst": 0.75, "grid": {"m": 4, "n": 32, "T": 0.1},
        "phi": {"kind": "ramp"}, "A": {"kind": "tanh"},
        "driver": {"model": "frozen", "seed": [7, 1]}})
    want = fbm.field_from_path(fbm.fbm_path(0.75, 32, 7, (1,)), 0.3)
    assert build_driver().slices[0].rise.tobytes() == want.slices[0].rise.tobytes()


# sample arguments of every lru_cache'd table; a new cache must be listed here
CACHED_TABLES = {
    "fracpath.frac_calc": {
        "_hat_moments": (-0.7, 16),
        "_difference_weights": (16, 0.3),
        "_fft_length": (16,),
        "_split_kernels": ("_difference_kernel", 16, 0.3),
        "_tail_weights": (16, 0.3),
        "_weyl_coefficients": (16, 0.3),
    },
    "fracpath.norms": {"_far_weights": (64, 0.3), "_right_weights": (16, 0.3),
                       "_row_bands": (16,)},
    "fracpath.fbm": {"_fgn_root": (0.75, 16)},
}


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return []


@pytest.mark.parametrize("module", sorted(CACHED_TABLES))
def test_cached_tables_are_read_only(module):
    # threads of an ensemble share these tables, so none may be written
    mod = importlib.import_module(module)
    cached = {name for name, obj in vars(mod).items()
              if hasattr(obj, "cache_info") and obj.__module__ == module}
    assert cached == set(CACHED_TABLES[module])
    for name, args in CACHED_TABLES[module].items():
        args = tuple(getattr(mod, a) if isinstance(a, str) else a for a in args)
        arrays = _arrays(getattr(mod, name)(*args))
        assert name in ("_fft_length", "_row_bands") or arrays, name
        assert not any(a.flags.writeable for a in arrays), name
