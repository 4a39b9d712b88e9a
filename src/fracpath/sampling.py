"""Random smooth test data for probes and verification sweeps."""

from __future__ import annotations

import numpy as np

from .grids import GridFunction, SpaceTimeField

__all__ = ["random_trig_grid", "random_smooth_field"]

# sine modes of a random grid function and of a random space-time field
_GRID_MODES = 5
_FIELD_MODES = 4


def random_trig_grid(n: int, rng: np.random.Generator) -> GridFunction:
    """Random low-order trigonometric polynomial plus a constant on [0, 1]."""
    x = np.linspace(0.0, 1.0, n + 1)
    k = np.arange(1, _GRID_MODES + 1)
    amps = rng.standard_normal(_GRID_MODES) / k ** 1.5
    modes = amps[:, None] * np.sin(k[:, None] * np.pi * x)
    return GridFunction(np.add.reduce(modes, axis=0) + rng.standard_normal())


def random_smooth_field(m: int, n: int, T: float,
                        rng: np.random.Generator) -> SpaceTimeField:
    """Random smooth space-time field with mode amplitudes drifting in time."""
    t = np.linspace(0.0, T, m + 1)[:, None]
    xi = np.linspace(0.0, 1.0, n + 1)[None, :]
    k = np.arange(1, _FIELD_MODES + 1)
    a = rng.standard_normal(_FIELD_MODES) / k ** 2
    b = rng.standard_normal(_FIELD_MODES) / k ** 2
    c0 = rng.standard_normal()
    tt = t / T if T > 0 else t
    modes = (a[:, None, None] + b[:, None, None] * tt) * np.sin(k[:, None, None] * np.pi * xi)
    return SpaceTimeField(T, c0 + np.add.reduce(modes, axis=0))
