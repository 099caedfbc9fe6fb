"""Fixed-point iteration: closed-form limits, histories, failure modes.

The strongest oracle is the constant-source family u'''' = c: the exact
limit is u = c x^2(1-x)^2/24 with end curvatures c/12, and the discrete
operators reproduce that family exactly (all profiles are polynomials
within each operator's exactness degree), so the converged state must
match to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clampbeam.examples import get_example
from clampbeam.expr import parse
from clampbeam.numerics import Grid, GridFunction
from clampbeam.problem import RawProblem, canonicalize, parse_problem_text
from clampbeam.solver import (
    DivergenceError,
    IterationLimitError,
    SolverConfig,
    Triplet,
    init_state,
    residual,
    solve,
    step,
    triplet_distance,
    triplet_norm,
)


def _canon(text: str):
    return canonicalize(parse_problem_text(text).raw)


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.n == 100 and cfg.tol == 1e-15
        assert cfg.max_iter == 200 and cfg.divergence_window == 5

    @pytest.mark.parametrize("kwargs", [
        dict(tol=0.0), dict(tol=-1.0), dict(max_iter=0), dict(divergence_window=1),
        dict(n=7), dict(n=6),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestTriplet:
    def test_norms(self):
        g = Grid(8)
        t1 = Triplet(GridFunction.sample(g, lambda x: 2.0), 1.0, -3.0)
        t2 = Triplet(GridFunction.sample(g, lambda x: 0.0), 0.0, 0.0)
        assert triplet_norm(t1) == pytest.approx(6.0)
        assert triplet_distance(t1, t2) == pytest.approx(6.0)
        assert triplet_distance(t1, t1) == 0.0

    def test_curvatures_must_be_finite(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            Triplet(GridFunction.sample(g, lambda x: 0.0), float("nan"), 0.0)


class TestConstantSourceFamily:
    def test_f24_limit(self):
        rep = solve(_canon("f = 24"), SolverConfig(n=64))
        assert rep.converged
        nodes = rep.grid.nodes
        exact = nodes**2 * (1 - nodes) ** 2
        assert np.max(np.abs(rep.profile.u.values - exact)) < 1e-13
        assert rep.triplet.alpha == pytest.approx(2.0, abs=1e-12)
        assert rep.triplet.beta == pytest.approx(2.0, abs=1e-12)
        assert np.all(rep.triplet.source.values == 24.0)
        assert rep.residual < 1e-12

    @given(c=st.floats(min_value=-40, max_value=40).filter(lambda v: abs(v) > 1e-3))
    @settings(max_examples=10)
    def test_constant_source_curvatures(self, c):
        rep = solve(_canon(f"f = {c!r}"), SolverConfig(n=32))
        assert rep.triplet.alpha == pytest.approx(c / 12.0, rel=1e-10, abs=1e-12)
        assert rep.triplet.beta == pytest.approx(c / 12.0, rel=1e-10, abs=1e-12)
        nodes = rep.grid.nodes
        exact = c * nodes**2 * (1 - nodes) ** 2 / 24.0
        assert np.max(np.abs(rep.profile.u.values - exact)) < 1e-12 * (1 + abs(c))

    def test_zero_source_converges_immediately(self):
        rep = solve(_canon("f = 0"))
        assert rep.converged and rep.iterations == 1
        assert np.all(rep.profile.u.values == 0.0)
        assert rep.first_step == 0.0
        assert rep.residual == 0.0


class TestHistories:
    def test_history_lengths_and_alignment(self):
        rep = solve(get_example(1).canonical(), SolverConfig(n=50))
        assert len(rep.e_history) == rep.iterations
        assert len(rep.eu_history) == rep.iterations
        assert rep.final_e == rep.e_history[-1]
        assert rep.final_eu == rep.eu_history[-1]
        assert rep.e_history[-1] <= 1e-15

    def test_geometric_decay(self):
        rep = solve(get_example(2).canonical(), SolverConfig(n=50))
        ratios = rep.e_history[1:] / rep.e_history[:-1]
        # the end-curvature relaxation dominates: ratio about 1/4
        assert np.max(ratios[2:]) < 0.35

    def test_eu_absent_without_exact(self):
        rep = solve(get_example(2).canonical(), SolverConfig(n=50))
        assert rep.eu_history is None
        assert rep.final_eu is None

    def test_exact_override(self):
        cp = _canon("f = 24")
        rep = solve(cp, SolverConfig(n=32),
                    exact=lambda x: x**2 * (1 - x) ** 2)
        assert rep.eu_history is not None
        assert rep.final_eu < 1e-13

    def test_first_step_value(self):
        cp = get_example(1).canonical()
        grid = Grid(100)
        s0 = init_state(cp, grid)
        s1, _ = step(s0, cp)
        rep = solve(cp, SolverConfig(n=100))
        assert rep.first_step == pytest.approx(triplet_distance(s1, s0), rel=1e-15)


class TestStepAndResidual:
    def test_init_state(self):
        cp = get_example(2).canonical()  # f(x,0,0,0,0) = x + x^2
        grid = Grid(20)
        s0 = init_state(cp, grid)
        np.testing.assert_allclose(s0.source.values, grid.nodes + grid.nodes**2,
                                   atol=1e-15)
        assert s0.alpha == 0.0 and s0.beta == 0.0

    def test_residual_small_at_fixed_point_large_off_it(self):
        cp = get_example(3).canonical()
        rep = solve(cp, SolverConfig(n=50))
        at_limit = residual(rep.triplet, cp)
        assert at_limit < 1e-10
        off = Triplet(rep.triplet.source, rep.triplet.alpha + 0.1, rep.triplet.beta)
        assert residual(off, cp) > 1e-3

    def test_step_reduces_distance_to_limit(self):
        cp = get_example(4).canonical()
        rep = solve(cp, SolverConfig(n=50))
        limit = rep.triplet
        grid = Grid(50)
        state = init_state(cp, grid)
        d_prev = triplet_distance(state, limit)
        for _ in range(5):
            state, _ = step(state, cp)
            d = triplet_distance(state, limit)
            assert d < d_prev
            d_prev = d


class TestFailureModes:
    def test_divergence_detected_with_report(self):
        # 600 exceeds the smallest clamped eigenvalue of the fourth
        # derivative (about 500.56), so the linear iteration blows up
        cp = _canon("f = 600*u + 1")
        with pytest.raises(DivergenceError) as info:
            solve(cp, SolverConfig(n=32))
        rep = info.value.report
        assert not rep.converged
        assert rep.failure == "divergence"
        assert rep.iterations >= 5
        assert len(rep.e_history) == rep.iterations
        # the recorded errors really do grow at the tail
        tail = rep.e_history[-5:]
        assert np.all(np.diff(tail) > 0)

    def test_iteration_limit_with_report(self):
        cp = get_example(2).canonical()
        with pytest.raises(IterationLimitError) as info:
            solve(cp, SolverConfig(n=32, max_iter=4))
        rep = info.value.report
        assert not rep.converged
        assert rep.failure == "iteration-limit"
        assert rep.iterations == 4

    def test_tiny_tol_reaches_exact_fixed_point(self):
        # the discrete map settles into an exact floating-point fixed
        # point, so even an unattainable-looking tolerance is met with
        # e == 0 instead of tripping the divergence monitor
        cp = _canon("f = 24")
        rep = solve(cp, SolverConfig(n=32, tol=1e-30, max_iter=60))
        assert rep.converged
        assert rep.final_e == 0.0


class TestExampleRuns:
    @pytest.mark.parametrize("ident, lo, hi", [
        (1, 22, 27), (2, 20, 26), (3, 20, 26), (4, 21, 27), (5, 20, 27), (6, 20, 26),
    ])
    def test_iteration_windows(self, ident, lo, hi):
        rep = solve(get_example(ident).canonical(), SolverConfig(n=100))
        assert rep.converged
        assert lo <= rep.iterations <= hi
        assert rep.residual <= 1e-8

    def test_example1_error_against_exact(self):
        rep = solve(get_example(1).canonical(), SolverConfig(n=100))
        # all operators are exact on this polynomial family, so only
        # rounding remains
        assert rep.final_eu < 1e-12

    def test_example1_rounding_floor_on_fine_grid(self):
        # only rounding remains here too; at n = 10^5 it must stay small
        rep = solve(get_example(1).canonical(), SolverConfig(n=100_000))
        assert rep.converged
        assert rep.final_eu <= 1e-12

    def test_solution_is_clamped(self):
        # end slopes recovered by differentiation carry O(h^4) error with
        # a data-dependent constant; the quintic problem is the stiffest
        for ident, slope_tol in [(1, 1e-12), (2, 1e-6), (3, 1e-6), (6, 1e-4)]:
            rep = solve(get_example(ident).canonical(), SolverConfig(n=50))
            u = rep.profile.u.values
            assert u[0] == 0.0 and u[-1] == 0.0
            du = rep.profile.du.values
            assert abs(du[0]) < slope_tol and abs(du[-1]) < slope_tol
