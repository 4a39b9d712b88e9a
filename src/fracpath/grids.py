"""Uniform-grid containers and the grid and order checks.

``GridFunction`` is one slice on [0, 1], held as a read-only copy;
``SpaceTimeField`` is m+1 slices over [0, T] x [0, 1], which a solve also
holds without a copy (``_adopt``).  Both refuse non-finite values.  The
kernels of ``frac_calc`` take plain arrays, one slice or a stack of
slices, and check what they read themselves.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["GridError", "GridFunction", "SpaceTimeField"]


class GridError(ValueError):
    """Raised when grid data violates a structural invariant."""


@dataclass(frozen=True)
class GridFunction:
    """Real samples at the uniform nodes x_i = i/n, i = 0..n, of [0, 1].

    One 1-D slice of finite node values, held as a read-only copy.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise GridError("grid values must be one 1-D slice")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if arr.size < 3:
            raise GridError("grid needs at least n = 2 cells (3 nodes)")
        if not np.isfinite(arr).all():
            raise GridError("non-finite node values")

    @property
    def n(self) -> int:
        return self.values.size - 1

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(0.0, 1.0, self.n + 1)
        x.setflags(write=False)
        return x


def order_value(alpha) -> float:
    """The fractional order as a float; validate the (0, 1) range."""
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise GridError(f"fractional order must lie in (0, 1), got {a}")
    return a


def check_solver_order(alpha: float, hurst: float) -> None:
    """Reject a Hurst parameter outside (1/2, 1) and an order alpha outside
    the window 1 - H < alpha < 1/2 of the fixed-point argument."""
    if not 0.5 < hurst < 1.0:
        raise GridError(f"Hurst parameter must lie in (1/2, 1), got {hurst}")
    if not (1.0 - hurst) < alpha < 0.5:
        raise GridError(
            f"alpha={alpha} outside the solver window (1-H, 1/2) = "
            f"({1.0 - hurst}, 0.5)")


def check_grid(m: int, n: int, T: float) -> None:
    """Reject fewer than 1 time cell or 2 space cells, a horizon T that is
    not finite and positive with a normal time step T/m (the reciprocal of
    a subnormal step overflows), or more (m+1)(n+1) float64 values than
    numpy can index."""
    if m < 1 or n < 2 or not 0 < T <= sys.float_info.max or T / m < sys.float_info.min:
        raise GridError(f"need m >= 1, n >= 2 and a finite T > 0 with T/m a normal float, "
                        f"got m={m}, n={n}, T={T}")
    if (m + 1) * (n + 1) > np.iinfo(np.intp).max // 8:
        raise GridError(f"a grid of m={m} by n={n} cells has more float64 values "
                        f"than an array can index")


@dataclass(frozen=True)
class SpaceTimeField:
    """Real values on the tensor grid [0, T] x [0, 1].

    ``values`` has shape (m+1, n+1): row j holds the spatial slice at
    t_j = j*T/m.  The spatial domain is fixed to [0, 1].
    """

    T: float
    values: np.ndarray

    def __post_init__(self):
        self._hold(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, T: float, values: np.ndarray) -> "SpaceTimeField":
        """A field over ``values`` itself, not a copy, for an array that
        nothing else writes, such as a finished result.  The array is made
        read-only and validated as the public constructor validates its
        copy."""
        f = object.__new__(cls)
        object.__setattr__(f, "T", T)
        f._hold(np.asarray(values, dtype=float))
        return f

    def _hold(self, arr: np.ndarray) -> None:
        object.__setattr__(self, "T", float(self.T))
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 2:
            raise GridError("field values must be a 2-D array")
        check_grid(arr.shape[0] - 1, arr.shape[1] - 1, self.T)
        if not np.isfinite(arr).all():
            raise GridError("non-finite field values")

    @property
    def m(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n(self) -> int:
        return self.values.shape[1] - 1

    @cached_property
    def t_nodes(self) -> np.ndarray:
        t = np.linspace(0.0, self.T, self.m + 1)
        t.setflags(write=False)
        return t

    @cached_property
    def xi_nodes(self) -> np.ndarray:
        x = np.linspace(0.0, 1.0, self.n + 1)
        x.setflags(write=False)
        return x
