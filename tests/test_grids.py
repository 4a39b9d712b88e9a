import numpy as np
import pytest

from fracpath.grids import GridError, GridFunction, SpaceTimeField


class TestSpaceTimeField:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite_values(self, bad):
        vals = np.zeros((4, 9))
        vals[3, 4] = bad
        for make in (SpaceTimeField, SpaceTimeField._adopt):
            with pytest.raises(GridError, match="non-finite"):
                make(1.0, vals.copy())

    @pytest.mark.parametrize("shape", [(9,), (2, 3, 9)])
    def test_refuses_values_that_are_not_two_dimensional(self, shape):
        with pytest.raises(GridError, match="2-D"):
            SpaceTimeField(1.0, np.zeros(shape))

    def test_public_constructor_copies(self):
        vals = np.zeros((3, 5))
        f = SpaceTimeField(1.0, vals)
        vals[1, 1] = 1.0
        assert f.values[1, 1] == 0.0 and not f.values.flags.writeable

    def test_adopt_holds_the_array_itself(self):
        vals = np.zeros((3, 5))
        f = SpaceTimeField._adopt(1.0, vals)
        assert f.values is vals and not vals.flags.writeable


class TestGridFunction:
    @pytest.mark.parametrize("shape", [(2, 9), (1, 9), (2, 3, 9), ()])
    def test_public_constructor_takes_one_slice(self, shape):
        with pytest.raises(GridError):
            GridFunction(np.zeros(shape))

    def test_public_constructor_copies(self):
        vals = np.zeros(9)
        f = GridFunction(vals)
        vals[1] = 1.0
        assert f.values[1] == 0.0 and not f.values.flags.writeable
