"""Uniform-grid containers and the fourth-order discrete toolbox.

Everything here lives on the unit interval: grids are uniform partitions of
[0,1] with an even number of subintervals (composite Simpson pairs panels and
the five-point stencils need room at both ends).  General intervals are
handled upstream by the problem transform, never in this module.

The three workhorses are all fourth-order accurate:

* simpson            composite Simpson quadrature, exact through cubics
* diff5              five-point first derivative with one-sided edge rows
* solve_second_order_bvp
                     compact (Numerov-type) scheme for u'' = g with Dirichlet
                     data, exact whenever g is a polynomial of degree <= 3,
                     solved in closed form by two running sums
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "sup_norm",
    "simpson",
    "diff5",
    "solve_second_order_bvp",
]


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0,1] into n subintervals, n even and >= 8."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")

    @cached_property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        xs = np.linspace(0.0, 1.0, self.n + 1)
        xs.setflags(write=False)
        return xs


@dataclass(frozen=True)
class GridFunction:
    """Immutable samples of a function at the nodes of a Grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} values on a grid with n={self.grid.n}, "
                f"got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite value at node {bad} (x={bad * self.grid.h})")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def sample(cls, grid: Grid, fn: Callable) -> "GridFunction":
        vals = np.broadcast_to(np.asarray(fn(grid.nodes), dtype=float), (grid.n + 1,))
        return cls(grid, vals)


def sup_norm(f: GridFunction) -> float:
    """Maximum absolute nodal value."""
    return float(np.max(np.abs(f.values)))


def simpson(f: GridFunction) -> float:
    """Composite Simpson quadrature of f over [0,1].

    Fourth-order accurate; exact (up to roundoff) for polynomials of
    degree <= 3.
    """
    v = f.values
    h = f.grid.h
    return float(h / 3.0 * (v[0] + v[-1] + 4.0 * np.sum(v[1:-1:2]) + 2.0 * np.sum(v[2:-2:2])))


def diff5(f: GridFunction) -> GridFunction:
    """Five-point first derivative, fourth order up to the boundary.

    Interior nodes use the centered stencil (f[i-2] - 8 f[i-1] + 8 f[i+1]
    - f[i+2]) / (12 h); the two rows at each end use the one-sided and
    one-shifted five-point stencils with the same order.  Exact for
    polynomials of degree <= 4.
    """
    v = f.values
    w = 12.0 * f.grid.h
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / w
    d[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / w
    d[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / w
    d[-2] = (-v[-5] + 6.0 * v[-4] - 18.0 * v[-3] + 10.0 * v[-2] + 3.0 * v[-1]) / w
    d[-1] = (3.0 * v[-5] - 16.0 * v[-4] + 36.0 * v[-3] - 48.0 * v[-2] + 25.0 * v[-1]) / w
    return GridFunction(f.grid, d)


def solve_second_order_bvp(rhs: GridFunction, left: float, right: float) -> GridFunction:
    """Solve u'' = g on [0,1] with u(0) = left, u(1) = right.

    Compact fourth-order scheme: at interior nodes

        (u[i-1] - 2 u[i] + u[i+1]) / h^2 = (g[i-1] + 10 g[i] + g[i+1]) / 12

    which folds the h^2/12 second-difference correction of g into the right
    side.  The (1, -2, 1) system is only weakly diagonally dominant; its
    constant coefficients give a closed form, two running sums in O(n), so
    no elimination is needed.  Boundary values are imposed exactly.
    """
    if not (np.isfinite(left) and np.isfinite(right)):
        raise ValueError("boundary values must be finite")
    g = rhs.values
    grid = rhs.grid
    n = grid.n
    h = grid.h

    b = (h * h / 12.0) * (g[:-2] + 10.0 * g[1:-1] + g[2:])

    # The differences d[i] = u[i+1] - u[i] obey d[i] - d[i-1] = b[i-1], so d
    # is the running sum of b plus the one shift that makes the d add up to
    # right - left; u is then the running sum of d.
    d = np.concatenate(([0.0], np.cumsum(b)))
    d += (right - left - np.sum(d)) / n
    u = left + np.concatenate(([0.0], np.cumsum(d)))
    u[0] = left
    u[-1] = right
    return GridFunction(grid, u)
