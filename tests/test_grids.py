import numpy as np
import pytest

from fracpath.grids import GridError, GridFunction, SpaceTimeField


class TestConstantInTime:
    def test_one_read_only_slice_at_every_time_node(self):
        row = np.linspace(0.0, 1.0, 9) ** 2
        f = SpaceTimeField.constant_in_time(row, 4, 0.5)
        assert f.values.shape == (5, 9) and (f.m, f.n, f.T) == (4, 8, 0.5)
        assert not f.values.flags.writeable
        assert np.array_equal(f.values, np.tile(row, (5, 1)))
        # a broadcast of one copy of the slice: a later write to the
        # caller's array does not reach the field
        assert f.values.strides[0] == 0
        row[3] = -1.0
        assert f.values[2, 3] == (3 / 8) ** 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_a_non_finite_slice(self, bad):
        row = np.zeros(9)
        row[4] = bad
        with pytest.raises(GridError, match="non-finite"):
            SpaceTimeField.constant_in_time(row, 3, 1.0)

    def test_refuses_a_slice_that_is_not_one_dimensional(self):
        with pytest.raises(GridError):
            SpaceTimeField.constant_in_time(np.zeros((2, 9)), 3, 1.0)

    def test_public_constructor_copies(self):
        vals = np.zeros((3, 5))
        f = SpaceTimeField(1.0, vals)
        vals[1, 1] = 1.0
        assert f.values[1, 1] == 0.0 and not f.values.flags.writeable


class TestGridFunction:
    @pytest.mark.parametrize("shape", [(2, 9), (1, 9), (2, 3, 9), ()])
    def test_public_constructor_takes_one_slice(self, shape):
        with pytest.raises(GridError):
            GridFunction(0.0, 1.0, np.zeros(shape))

    def test_public_constructor_copies(self):
        vals = np.zeros(9)
        f = GridFunction(0.0, 1.0, vals)
        vals[1] = 1.0
        assert f.values[1] == 0.0 and not f.values.flags.writeable

    def test_adopt_holds_a_stack_without_a_copy(self):
        rows = np.random.default_rng(1).standard_normal((3, 9))
        f = GridFunction._adopt(0.0, 2.0, rows)
        assert f.values is rows and not rows.flags.writeable
        assert (f.a, f.b, f.n, f.h) == (0.0, 2.0, 8, 0.25)
        assert np.array_equal(f.nodes, np.linspace(0.0, 2.0, 9))

    @pytest.mark.parametrize("values", [np.zeros((2, 3, 9)), np.zeros((3, 2)),
                                        np.full((2, 9), np.inf),
                                        np.where(np.arange(9) == 0, np.nan, np.ones((2, 9)))])
    def test_adopt_validates_as_the_constructor_does(self, values):
        with pytest.raises(GridError):
            GridFunction._adopt(0.0, 1.0, values)
