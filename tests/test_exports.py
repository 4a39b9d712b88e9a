import importlib

import pytest

MODULES = ["fracpath", "fracpath.grids", "fracpath.frac_calc", "fracpath.norms",
           "fracpath.fbm", "fracpath.stieltjes", "fracpath.solver",
           "fracpath.coefficients", "fracpath.sampling"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
