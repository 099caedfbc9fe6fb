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

diff5 and solve_second_order_bvp are thin allocating wrappers: their
arithmetic lives in the in-place kernels _diff5_into and _bvp_into, which
write into a caller's array and take their temporaries from a caller's
scratch array; solve's passes allocate only what evaluating f does.

A GridFunction, SolveReport or RecoveredSolution owns read-only copies of its
arrays, keeps them read-only through pickling, pickles only its fields and
equals only itself; _Frozen, their base, carries these rules.

A GridFunction's values are finite; the check records s = sup|values|.  Every
intermediate and result of diff5's stencils is at most 128 s / (12 h) <= 16 n s
for n >= 8, so when 32 n s is finite diff5 skips the scan of its output; the
spare factor 2 covers rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from numbers import Real
from typing import Callable

import numpy as np

from .kernels import slope_kernel_left, slope_kernel_right

__all__ = [
    "Grid",
    "GridFunction",
    "sup_norm",
    "simpson",
    "diff5",
    "solve_second_order_bvp",
]


def _is_number(value) -> bool:
    """value is a real number and not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


class _Frozen:
    """Base of the frozen dataclasses that hold or cache arrays: pickles only
    their fields, dropping cached values, and makes array fields read-only
    again on unpickling, since pickle drops an array's flag."""

    def _own(self, *names):
        """Replace the named array fields, where set, with read-only float copies."""
        for name in names:
            if getattr(self, name) is not None:
                value = np.array(getattr(self, name), dtype=float)
                value.setflags(write=False)
                object.__setattr__(self, name, value)

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        self.__dict__.update(state)
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@dataclass(frozen=True)
class Grid(_Frozen):
    """Uniform partition of [0,1] into n subintervals, n even and >= 8."""

    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
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

    @cached_property
    def slope_weights(self) -> tuple:
        """Read-only node values (left, right) of the two slope kernels.

        They weight the source in the end-curvature functionals; built once
        per grid and freed with it.
        """
        weights = slope_kernel_left(self.nodes), slope_kernel_right(self.nodes)
        for w in weights:
            w.setflags(write=False)
        return weights


@dataclass(frozen=True, eq=False)
class GridFunction(_Frozen):
    """Immutable samples of a function at the nodes of a Grid; equal only to itself."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._own("values")
        if self.values.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} values on a grid with n={self.grid.n}, "
                f"got shape {self.values.shape}"
            )
        object.__setattr__(self, "_sup", _checked_sup(self.grid, self.values))

    @classmethod
    def _adopt(cls, grid: Grid, vals: np.ndarray, finite: bool = False) -> "GridFunction":
        """Wrap a fresh float array of n+1 values that nothing else holds.

        For arrays this package has just allocated: no copy and no shape
        check, but the finiteness check stays unless the caller has made it.
        """
        obj = object.__new__(cls)
        if not finite:
            object.__setattr__(obj, "_sup", _checked_sup(grid, vals))
        vals.setflags(write=False)
        object.__setattr__(obj, "grid", grid)
        object.__setattr__(obj, "values", vals)
        return obj

    @classmethod
    def sample(cls, grid: Grid, fn: Callable) -> "GridFunction":
        vals = np.broadcast_to(np.asarray(fn(grid.nodes), dtype=float), (grid.n + 1,))
        return cls(grid, vals)


def _checked_sup(grid: Grid, vals: np.ndarray) -> float:
    """sup|vals|, deciding finiteness too; max and min spare a large array abs's temporary."""
    big = len(vals) > 8192
    sup = max(float(vals.max()), -float(vals.min())) if big else float(np.abs(vals).max())
    if not math.isfinite(sup):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(f"non-finite value at node {bad} (x={bad * grid.h})")
    return sup


def _diff5_finite(n: int, sup: float) -> bool:
    """Whether the module docstring's bound makes diff5 finite on n intervals, given s = sup."""
    return math.isfinite(32.0 * n * sup)


def sup_norm(f: GridFunction) -> float:
    """Maximum absolute nodal value."""
    return float(np.abs(f.values).max())


def simpson(f: GridFunction) -> float:
    """Composite Simpson quadrature of f over [0,1].

    Fourth-order accurate; exact (up to roundoff) for polynomials of
    degree <= 3.
    """
    return _simpson(f.values, f.grid.h)


def _simpson(v: np.ndarray, h: float) -> float:
    """simpson on raw node values v with spacing h, summed on Python floats."""
    add = np.add.reduce  # what ndarray.sum calls, without its Python wrapper
    return h / 3.0 * (float(v[0]) + float(v[-1]) + 4.0 * float(add(v[1:-1:2])) + 2.0 * float(add(v[2:-2:2])))


def diff5(f: GridFunction) -> GridFunction:
    """Five-point first derivative, fourth order up to the boundary.

    Interior nodes use the centered stencil (f[i-2] - 8 f[i-1] + 8 f[i+1]
    - f[i+2]) / (12 h); the two rows at each end use the one-sided and
    one-shifted five-point stencils with the same order.  Exact for
    polynomials of degree <= 4.
    """
    d = np.empty(f.grid.n + 1)
    _diff5_into(d, f.values, np.empty(f.grid.n - 3))
    return GridFunction._adopt(f.grid, d, finite=_diff5_finite(f.grid.n, f.__dict__.get("_sup", math.inf)))


def _diff5_into(d: np.ndarray, v: np.ndarray, scratch: np.ndarray) -> None:
    """diff5 of the node values v, written into d; scratch holds at least n-3 values."""
    w = 12.0 * (1.0 / (len(v) - 1))  # 12 h, as Grid.h gives h
    t, o = scratch[:len(v) - 4], d[2:-2]  # the centered stencil, one operation at a time
    np.multiply(v[1:-3], 8.0, out=t)
    np.subtract(v[:-4], t, out=t)
    np.multiply(v[3:-1], 8.0, out=o)
    o += t
    o -= v[4:]
    o /= w
    # the edge rows on Python floats: the same arithmetic, far fewer numpy calls
    v0, v1, v2, v3, v4 = v[:5].tolist()
    d[0] = (-25.0 * v0 + 48.0 * v1 - 36.0 * v2 + 16.0 * v3 - 3.0 * v4) / w
    d[1] = (-3.0 * v0 - 10.0 * v1 + 18.0 * v2 - 6.0 * v3 + v4) / w
    v0, v1, v2, v3, v4 = v[-5:].tolist()
    d[-2] = (-v0 + 6.0 * v1 - 18.0 * v2 + 10.0 * v3 + 3.0 * v4) / w
    d[-1] = (3.0 * v0 - 16.0 * v1 + 36.0 * v2 - 48.0 * v3 + 25.0 * v4) / w


def solve_second_order_bvp(rhs: GridFunction, left: float, right: float) -> GridFunction:
    """Solve u'' = g on [0,1] with u(0) = left, u(1) = right.

    Compact fourth-order scheme: at interior nodes

        (u[i-1] - 2 u[i] + u[i+1]) / h^2 = (g[i-1] + 10 g[i] + g[i+1]) / 12

    which folds the h^2/12 second-difference correction of g into the right
    side.  The (1, -2, 1) system is only weakly diagonally dominant; its
    constant coefficients give a closed form, two running sums in O(n), so
    no elimination is needed.  Boundary values are imposed exactly.
    """
    if not (math.isfinite(left) and math.isfinite(right)):
        raise ValueError("boundary values must be finite")
    u = np.empty(rhs.grid.n + 1)
    _bvp_into(u, rhs.values, left, right, np.empty(rhs.grid.n))
    return GridFunction._adopt(rhs.grid, u)


def _bvp_into(u: np.ndarray, g: np.ndarray, left: float, right: float,
              scratch: np.ndarray) -> None:
    """solve_second_order_bvp on the node values g, written into u; scratch
    holds at least n values."""
    n = len(g) - 1
    h = 1.0 / n
    # The differences d[i] = u[i+1] - u[i] obey d[i] - d[i-1] = b[i-1], so d
    # is the running sum of b plus the one shift that makes the d add up to
    # right - left; u is then the running sum of d.  b is formed in d[1:], in
    # the order of operations of (h^2/12) (g[i-1] + 10 g[i] + g[i+1]).
    d = scratch[:n]
    b = d[1:]
    np.multiply(g[1:-1], 10.0, out=b)
    b += g[:-2]
    b += g[2:]
    b *= h * h / 12.0
    d[0] = 0.0
    np.add.accumulate(b, out=b)
    d += (right - left - d.sum()) / n
    u[0] = left
    np.add.accumulate(d, out=u[1:])
    u[1:] += left
    u[-1] = right
