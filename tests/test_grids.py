import numpy as np
import pytest

from fracpath.grids import GridError, GridFunction


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
