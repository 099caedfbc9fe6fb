"""Grid containers, quadrature, differentiation and the tridiagonal solve.

Polynomial exactness claims are tested with random coefficients against
analytic antiderivatives/derivatives; the tridiagonal solver is checked
against a dense linear solve of the same system (brute-force oracle) and
against manufactured solutions for the convergence order.
"""

import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clampbeam.numerics import (
    Grid,
    GridFunction,
    _diff5_finite,
    diff5,
    simpson,
    solve_second_order_bvp,
    sup_norm,
)

COEF = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestGrid:
    def test_basic(self):
        g = Grid(10)
        assert g.h == pytest.approx(0.1)
        assert len(g.nodes) == 11
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0

    @pytest.mark.parametrize("n", [7, 9, 6, 0, -4])
    def test_rejects_odd_or_small(self, n):
        with pytest.raises(ValueError):
            Grid(n)

    @pytest.mark.parametrize("n", [True, False])
    def test_rejects_bool(self, n):
        # bool subclasses int, but is no grid size
        with pytest.raises(ValueError, match=f"grid size must be an integer, got {n}"):
            Grid(n)

    def test_nodes_read_only(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0


class TestGridFunction:
    def test_shape_check(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(8))

    def test_finiteness_check_names_node(self):
        g = Grid(8)
        vals = np.zeros(9)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="node 3"):
            GridFunction(g, vals)

    @pytest.mark.parametrize("n", [8, 10000])  # small arrays take abs, large max and min
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finiteness_check_records_sup(self, n, bad):
        vals = np.sin(np.arange(n + 1.0))
        vals[n // 2] = -1.5
        f = GridFunction(Grid(n), vals)
        assert vars(f)["_sup"] == 1.5 == sup_norm(f)
        vals[3] = bad
        with pytest.raises(ValueError, match=r"non-finite value at node 3 \("):
            GridFunction(Grid(n), vals)

    def test_values_read_only_and_copied(self):
        g = Grid(8)
        src = np.ones(9)
        f = GridFunction(g, src)
        src[0] = 7.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_sample_constant_and_array(self):
        g = Grid(8)
        c = GridFunction.sample(g, lambda x: 3.0)
        assert np.all(c.values == 3.0)
        s = GridFunction.sample(g, lambda x: x**2)
        assert s.values[-1] == 1.0

    def test_sup_norm(self):
        g = Grid(8)
        f = GridFunction.sample(g, lambda x: x - 0.75)
        assert sup_norm(f) == pytest.approx(0.75)

    def test_equal_only_to_itself(self):
        # an ndarray field would make == ask numpy for a truth value and
        # hash fail; a GridFunction is equal only to itself instead
        f = GridFunction(Grid(8), np.zeros(9))
        g = GridFunction(Grid(8), np.zeros(9))
        assert f == f and not f != f
        assert f != g and not f == g
        assert hash(f) == hash(f)
        assert len({f, g, f}) == 2

    def test_pickle_keeps_only_the_fields(self):
        # the recorded sup is dropped, so diff5 of the copy scans its output
        # again; its bits are the original's
        f = GridFunction.sample(Grid(16), lambda x: np.sin(3.0 * x))
        assert f.__getstate__().keys() == {"grid", "values"}
        copy = pickle.loads(pickle.dumps(f))
        assert vars(copy).keys() == {"grid", "values"}
        assert not copy.values.flags.writeable
        assert diff5(copy).values.tobytes() == diff5(f).values.tobytes()


class TestSimpson:
    @given(c0=COEF, c1=COEF, c2=COEF, c3=COEF)
    def test_exact_for_cubics(self, c0, c1, c2, c3):
        g = Grid(12)
        f = GridFunction(g, c0 + c1 * g.nodes + c2 * g.nodes**2 + c3 * g.nodes**3)
        exact = c0 + c1 / 2 + c2 / 3 + c3 / 4
        assert simpson(f) == pytest.approx(exact, abs=2e-14)

    def test_smooth_fourth_order(self):
        errs = []
        for n in (16, 32):
            g = Grid(n)
            f = GridFunction.sample(g, lambda x: np.sin(x))
            errs.append(abs(simpson(f) - (1.0 - math.cos(1.0))))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)

    def test_frozen_value(self):
        g = Grid(8)
        f = GridFunction.sample(g, lambda x: x**2)
        assert simpson(f) == pytest.approx(1.0 / 3.0, abs=1e-16)


class TestDiff5:
    @given(c=st.lists(COEF, min_size=5, max_size=5))
    def test_exact_for_quartics(self, c):
        g = Grid(16)
        x = g.nodes
        f = GridFunction(g, sum(ck * x**k for k, ck in enumerate(c)))
        expect = sum(k * ck * x ** (k - 1) for k, ck in enumerate(c) if k >= 1)
        d = diff5(f)
        assert np.max(np.abs(d.values - expect)) < 1e-10

    def test_fourth_order_on_sine(self):
        errs = []
        for n in (64, 128, 256):
            g = Grid(n)
            f = GridFunction.sample(g, lambda x: np.sin(2 * np.pi * x))
            d = diff5(f)
            exact = 2 * np.pi * np.cos(2 * np.pi * g.nodes)
            errs.append(np.max(np.abs(d.values - exact)))
        for a, b in zip(errs, errs[1:]):
            assert 12.0 <= a / b <= 20.0

    def test_grid_preserved(self):
        g = Grid(8)
        d = diff5(GridFunction.sample(g, lambda x: x))
        assert d.grid is g
        assert np.max(np.abs(d.values - 1.0)) < 1e-12

    @staticmethod
    def _bound(n):
        """The largest s with 32 n s <= DBL_MAX."""
        s = sys.float_info.max / (32 * n)
        while not 32.0 * n * s <= sys.float_info.max:
            s = np.nextafter(s, 0.0)
        return float(s)

    @given(data=st.data(), half=st.integers(min_value=4, max_value=40))
    def test_finite_within_the_bound(self, data, half):
        # diff5 skips the scan of its output for such values, so every
        # stencil row must stay finite on them
        n = 2 * half
        s = self._bound(n)
        values = st.one_of(st.floats(min_value=-s, max_value=s),
                           st.sampled_from([s, -s, 0.0, -0.0, 5e-324]))
        f = GridFunction(Grid(n), data.draw(st.lists(values, min_size=n + 1, max_size=n + 1)))
        assert _diff5_finite(f.grid.n, f._sup)
        assert np.isfinite(diff5(f).values).all()

    @pytest.mark.parametrize("n", [8, 10, 1000])
    def test_alternating_signs_at_the_bound(self, n):
        # the worst case for the edge rows: every term adds up
        s = self._bound(n)
        f = GridFunction(Grid(n), s * (-1.0) ** np.arange(n + 1))
        assert _diff5_finite(f.grid.n, f._sup)
        assert np.isfinite(diff5(f).values).all()

    def test_overflow_beyond_the_bound_still_raises(self):
        f = GridFunction(Grid(8), 1e307 * (-1.0) ** np.arange(9))
        assert not _diff5_finite(f.grid.n, f._sup)
        with pytest.raises(ValueError, match=r"non-finite value at node 0 \(x=0.0\)"):
            diff5(f)


def _dense_solve(grid, rhs_values, left, right):
    """Assemble and densely solve the same compact-scheme system."""
    n = grid.n
    h = grid.h
    m = n - 1
    A = np.zeros((m, m))
    for i in range(m):
        A[i, i] = -2.0
        if i > 0:
            A[i, i - 1] = 1.0
        if i < m - 1:
            A[i, i + 1] = 1.0
    g = rhs_values
    b = (h**2 / 12.0) * (g[:-2] + 10.0 * g[1:-1] + g[2:])
    b[0] -= left
    b[-1] -= right
    interior = np.linalg.solve(A, b)
    return np.concatenate([[left], interior, [right]])


class TestSecondOrderSolve:
    @given(data=st.lists(COEF, min_size=9, max_size=9),
           left=COEF, right=COEF)
    def test_matches_dense_solve(self, data, left, right):
        g = Grid(8)
        rhs = GridFunction(g, np.array(data))
        u = solve_second_order_bvp(rhs, left, right)
        expect = _dense_solve(g, rhs.values, left, right)
        assert np.max(np.abs(u.values - expect)) < 1e-12

    @given(half=st.integers(min_value=4, max_value=256), seed=st.integers(0, 2**32 - 1),
           left=COEF, right=COEF)
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_solve_on_larger_grids(self, half, seed, left, right):
        g = Grid(2 * half)
        data = np.random.default_rng(seed).uniform(-5.0, 5.0, g.n + 1)
        u = solve_second_order_bvp(GridFunction(g, data), left, right)
        expect = _dense_solve(g, data, left, right)
        # rounding of either solve grows like n^2 eps times the solution size
        scale = max(1.0, float(np.max(np.abs(expect))))
        tol = g.n**2 * np.finfo(float).eps * scale
        assert np.max(np.abs(u.values - expect)) <= tol

    @given(c0=COEF, c1=COEF, c2=COEF, c3=COEF, left=COEF, right=COEF)
    def test_exact_for_cubic_sources(self, c0, c1, c2, c3, left, right):
        # u'' = cubic makes u a quintic; the scheme reproduces it exactly
        g = Grid(10)
        x = g.nodes
        rhs = GridFunction(g, c0 + c1 * x + c2 * x**2 + c3 * x**3)
        # double antiderivative plus the line matching the boundary values
        base = c0 * x**2 / 2 + c1 * x**3 / 6 + c2 * x**4 / 12 + c3 * x**5 / 20
        lin0 = left - base[0]
        lin1 = right - base[-1]
        expect = base + lin0 + (lin1 - lin0) * x
        u = solve_second_order_bvp(rhs, left, right)
        assert np.max(np.abs(u.values - expect)) < 5e-13

    def test_fourth_order_on_sine(self):
        errs = []
        for n in (64, 128, 256):
            g = Grid(n)
            rhs = GridFunction.sample(g, lambda x: -np.pi**2 * np.sin(np.pi * x))
            u = solve_second_order_bvp(rhs, 0.0, math.sin(math.pi))
            errs.append(np.max(np.abs(u.values - np.sin(np.pi * g.nodes))))
        for a, b in zip(errs, errs[1:]):
            assert 12.0 <= a / b <= 20.0

    def test_boundary_values_exact(self):
        g = Grid(8)
        rhs = GridFunction.sample(g, lambda x: np.exp(x))
        u = solve_second_order_bvp(rhs, -3.5, 2.25)
        assert u.values[0] == -3.5
        assert u.values[-1] == 2.25

    def test_zero_source_is_line(self):
        g = Grid(8)
        rhs = GridFunction.sample(g, lambda x: 0.0)
        u = solve_second_order_bvp(rhs, 1.0, 3.0)
        assert np.max(np.abs(u.values - (1.0 + 2.0 * g.nodes))) < 1e-13
