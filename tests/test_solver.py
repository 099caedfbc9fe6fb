"""Fixed-point iteration: closed-form limits, histories, failure modes.

The strongest oracle is the constant-source family u'''' = c: the exact
limit is u = c x^2(1-x)^2/24 with end curvatures c/12, and the discrete
operators reproduce that family exactly (all profiles are polynomials
within each operator's exactness degree), so the converged state must
match to rounding.
"""

import dataclasses
import gc
import math
import pickle
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clampbeam.numerics as numerics
import clampbeam.expr as expr_module
import clampbeam.solver as solver_module
from clampbeam.analysis import LatticeSpec, check_conditions
from clampbeam.examples import get_example
from clampbeam.expr import ExprEvalError, evaluate, parse
from clampbeam.numerics import Grid, GridFunction
from clampbeam.problem import RawProblem, canonicalize, parse_problem_text
from clampbeam.solver import (
    DivergenceError,
    IterateProfile,
    IterationLimitError,
    SolverConfig,
    SolverError,
    StallError,
    Triplet,
    init_state,
    residual,
    solve,
    step,
    triplet_distance,
    triplet_norm,
)
from test_expr import _trees  # the random expression trees of the expr tests


def _canon(text: str):
    return canonicalize(parse_problem_text(text).raw)


# a shifted interval with boundary data: most of the canonical f is x-only
SHIFTED_TEXT = ("a = 0.5\nb = 1.6\nA1 = 1\nB1 = -0.5\nA2 = 0.3\nB2 = 2\n"
                "f = 12 + u*z/2 - y*v/4 + y/4 + 24 - (x^3 - 2*x + 1)*sin(x)\n")


def _holds_only_fields(tree) -> bool:
    """Every node of tree holds its dataclass fields and nothing else."""
    fields = {f.name for f in dataclasses.fields(tree)}
    return set(vars(tree)) == fields and all(
        _holds_only_fields(getattr(tree, name)) for name in fields
        if dataclasses.is_dataclass(getattr(tree, name)))


def _keep_ref(refs: list, obj):
    refs.append(weakref.ref(obj))
    return obj


def _spy_slope_weights(monkeypatch, record):
    """Pass the slope weights of every grid that builds them through record."""
    weights = cached_property(lambda grid, real=Grid.slope_weights.func: record(real(grid)))
    weights.__set_name__(Grid, "slope_weights")
    monkeypatch.setattr(Grid, "slope_weights", weights)


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.n == 100 and cfg.tol == 1e-15
        assert cfg.max_iter == 200
        assert [f.name for f in dataclasses.fields(cfg)] == ["n", "tol", "max_iter"]

    @pytest.mark.parametrize("kwargs", [
        dict(tol=0.0), dict(tol=-1.0), dict(max_iter=0),
        dict(n=7), dict(n=6), dict(max_iter=2.5),
        dict(n=True), dict(tol=True), dict(max_iter=True), dict(max_iter=False),
        dict(tol="1e-3"), dict(tol=None), dict(tol=1j), dict(tol=float("nan")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=True), "grid size must be an integer, got True"),
        (dict(tol=True), "tol must be a positive number, got True"),
        (dict(max_iter=True), "max_iter must be an integer, got True"),
        (dict(tol="1e-3"), "tol must be a positive number, got '1e-3'"),
        (dict(tol=None), "tol must be a positive number, got None"),
        (dict(tol=1j), "tol must be a positive number, got 1j"),
    ])
    def test_bool_is_not_a_number(self, kwargs, message):
        # bool subclasses int, yet True is no grid size, tolerance or budget;
        # nor is a string, None or a complex number a tolerance
        with pytest.raises(ValueError) as info:
            SolverConfig(**kwargs)
        assert str(info.value) == message


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

    def test_equality_does_not_raise(self):
        # GridFunction compares by identity, so the dataclasses holding one
        # compare field by field without asking an array for its truth value
        zero = GridFunction.sample(Grid(8), lambda x: 0.0)
        other = GridFunction.sample(Grid(8), lambda x: 0.0)
        assert Triplet(zero, 1.0, 2.0) == Triplet(zero, 1.0, 2.0)
        assert Triplet(zero, 1.0, 2.0) != Triplet(other, 1.0, 2.0)
        assert hash(Triplet(zero, 1.0, 2.0)) == hash(Triplet(zero, 1.0, 2.0))
        assert IterateProfile(zero, other) == IterateProfile(zero, other)
        assert IterateProfile(zero, other) != IterateProfile(other, zero)


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

    def test_report_is_equal_only_to_itself(self):
        # a report holds arrays: two runs with equal histories compare
        # unequal instead of raising, and a report hashes
        problem = get_example(1).canonical()
        first, second = (solve(problem, SolverConfig(n=50)) for _ in range(2))
        assert first == first and first != second
        assert hash(first) == hash(first)

    def test_eu_nan_when_the_first_pass_fails(self):
        cp = _canon("f = log(1 + 1000000*u) + 5000\nexact = 0")
        with pytest.raises(SolverError) as info:
            solve(cp, SolverConfig(n=16))
        rep = info.value.report
        assert rep.iterations == 0 and len(rep.eu_history) == 0
        assert math.isnan(rep.final_eu) and math.isnan(rep.final_e)

    def test_exact_override(self):
        cp = _canon("f = 24")
        exact = GridFunction.sample(Grid(32), lambda x: x**2 * (1 - x) ** 2)
        rep = solve(cp, SolverConfig(n=32), exact=exact)
        assert rep.eu_history is not None
        assert rep.final_eu < 1e-13
        assert rep.grid is exact.grid  # the solve runs on the samples' grid

    def test_exact_on_another_grid_is_rejected_before_any_pass(self, monkeypatch):
        passes = []
        for name in ("_f", "_pass"):  # the start's f, then the passes
            real = getattr(solver_module, name)
            monkeypatch.setattr(solver_module, name,
                                lambda *args, real=real: passes.append(args) or real(*args))
        exact = GridFunction.sample(Grid(16), lambda x: x**2 * (1 - x) ** 2)
        with pytest.raises(ValueError) as info:
            solve(_canon("f = 24"), SolverConfig(n=32), exact=exact)
        assert str(info.value) == "exact samples on a grid of n=16, but the solve has n=32"
        assert passes == []

    def test_first_step_value(self):
        # solve is nothing but passes of the public step: pass 0 gives
        # first_step, and the last pass gives the reported triplet/profile
        for ident in range(1, 7):
            cp = get_example(ident).canonical()
            rep = solve(cp, SolverConfig(n=100))
            s0 = init_state(cp, Grid(100))
            s1, profile = step(s0, cp)
            assert rep.first_step == triplet_distance(s1, s0)
            state = s1
            for _ in range(rep.iterations):
                state, profile = step(state, cp)
            assert np.array_equal(state.source.values, rep.triplet.source.values)
            assert (state.alpha, state.beta) == (rep.triplet.alpha, rep.triplet.beta)
            assert np.array_equal(profile.u.values, rep.profile.u.values)


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

    def test_slope_kernels_built_once_per_grid(self, monkeypatch):
        calls = []
        _spy_slope_weights(monkeypatch, lambda weights: calls.append(len(weights[0])) or weights)
        cp = get_example(1).canonical()
        solve(cp, SolverConfig(n=100))
        solve(cp, SolverConfig(n=102))
        assert calls == [101, 103]

    def test_solve_constants_freed_with_report_and_problem(self, monkeypatch):
        # the x-only values of f live on the fold in solve's workspace: they
        # are gone once solve returns or raises, while the report and the
        # problem are still held.  The slope weights live on the grid: they
        # go, without a gc pass, once the report and the problem are dropped
        weights, folded = [], []
        _spy_slope_weights(monkeypatch, lambda pair: tuple(_keep_ref(weights, w) for w in pair))
        real_fold = expr_module._fold

        def fold(program, x=None):
            out = real_fold(program, x)
            if x is not None:  # a fold at fixed x: keep a reference to each x-only value
                for value in out.template:
                    if isinstance(value, np.ndarray) and value is not x:
                        _keep_ref(folded, value)
            return out

        monkeypatch.setattr(expr_module, "_fold", fold)
        for text, cfg, raised, built, x_only in [
            ("f = 24", SolverConfig(n=32), None, 2, 0),
            ("f = 24 + sin(x)", SolverConfig(n=32), None, 2, 1),
            ("f = 600*u + 1", SolverConfig(n=32), DivergenceError, 2, 0),
            ("f = 600*u + cos(x)", SolverConfig(n=32), DivergenceError, 2, 1),
            ("f = 1e5*u + 1e300*cos(x)", SolverConfig(n=32), DivergenceError, 2, 1),  # overflows
            ("f = x + x^2 + u^2*v", SolverConfig(n=32, max_iter=3), IterationLimitError, 2, 1),
            ("f = log(u)", SolverConfig(n=32), ExprEvalError, 0, 0),  # f undefined at u = 0
            ("f = log(u) + sin(x)", SolverConfig(n=32), ExprEvalError, 0, 1),
        ]:
            weights.clear()
            folded.clear()
            gc.disable()
            try:
                cp = _canon(text)
                try:
                    outcome = solve(cp, cfg)
                except (SolverError, ExprEvalError) as err:
                    assert type(err) is raised, text
                    outcome = getattr(err, "report", None)  # the error and its frames go
                else:
                    assert raised is None, text
                assert len(folded) == x_only and all(r() is None for r in folded), text
                assert len(weights) == built and all(r() is not None for r in weights), text
                del cp, outcome
                assert all(r() is None for r in weights), text
            finally:
                gc.enable()

    def test_interleaved_grids_match_a_fresh_problem(self):
        # step compiles f and folds it at each grid's nodes: nothing of one
        # grid stays on the rhs for the next
        problem = _canon(SHIFTED_TEXT)
        grids = [Grid(16), Grid(18)]
        grids += [grids[0], Grid(16)]

        def bits(state, profile=None):
            arrays = [state.source.values] + ([] if profile is None else [profile.u.values])
            return [a.tobytes() for a in arrays] + [state.alpha, state.beta]

        states = []
        for grid in grids:
            states.append(init_state(problem, grid))
            assert bits(states[-1]) == bits(init_state(_canon(SHIFTED_TEXT), grid))
        for _ in range(2):
            for state in states:
                assert residual(state, problem) == residual(state, _canon(SHIFTED_TEXT))
            for i, state in enumerate(states):
                states[i], profile = step(state, problem)
                assert bits(states[i], profile) == bits(*step(state, _canon(SHIFTED_TEXT)))

    def test_solved_problem_holds_only_its_fields(self):
        # f reads x, but its program, folded at the grid's nodes, went with
        # the solve: the rhs keeps nothing
        cp = _canon(SHIFTED_TEXT)
        solve(cp, SolverConfig(n=32))
        assert set(vars(cp)) == {f.name for f in dataclasses.fields(cp)} \
            == {"rhs", "raw", "shift", "length"}
        assert _holds_only_fields(cp.rhs)
        for copy in (pickle.loads(pickle.dumps(cp)).rhs, pickle.loads(pickle.dumps(cp.rhs))):
            assert copy == cp.rhs and _holds_only_fields(copy)

    TREE_CALLS = {
        "evaluate": lambda cp: evaluate(cp.rhs, 0.5, 0.25, 0.0, -1.0, 2.0),
        "init_state": lambda cp: init_state(cp, Grid(16)),
        "step": lambda cp: step(Triplet(GridFunction(Grid(16), np.ones(17)), 0.5, -0.5), cp),
        "residual": lambda cp: residual(Triplet(GridFunction(Grid(16), np.ones(17)), 0.5, -0.5), cp),
        "solve": lambda cp: solve(cp, SolverConfig(n=16)),
        "check": lambda cp: check_conditions(cp.rhs, 1.0, lattice=LatticeSpec(points=5)),
    }

    @pytest.mark.parametrize("name", list(TREE_CALLS))
    @pytest.mark.parametrize("text", [
        "f = 24 + sin(x)*u",       # every call returns
        "f = 600*u + cos(x)",      # solve diverges
        "f = log(u) + sin(x)",     # every call but evaluate raises
    ])
    def test_a_tree_keeps_nothing_a_call_compiles(self, name, text):
        # every caller owns the program it runs: nothing is left on the tree,
        # whether the call returns or raises, and a pickle is the same tree
        cp = _canon(text)
        try:
            self.TREE_CALLS[name](cp)
        except (SolverError, ValueError):
            pass
        assert _holds_only_fields(cp.rhs)
        copy = pickle.loads(pickle.dumps(cp.rhs))
        assert copy == cp.rhs and _holds_only_fields(copy)

    def test_no_stale_x_only_values_across_problems(self):
        # step and residual on problem A, then on B on the same grid, give
        # what B gives from scratch, and nothing holds on to A afterwards
        grid = Grid(40)
        b = _canon("f = cos(x)^2 + x*u - y/4")
        b_state = init_state(b, grid)

        def outcome():
            (state, profile), res = step(b_state, b), residual(b_state, b)
            return state.source.values, state.alpha, state.beta, profile.u.values, res

        fresh = outcome()
        a = _canon("f = sin(x)^2 + x*u - y/4")
        a_rhs = weakref.ref(a.rhs)
        step(init_state(a, grid), a)
        residual(init_state(a, grid), a)
        del a
        assert a_rhs() is None
        again = outcome()
        assert all(np.array_equal(p, q) for p, q in zip(fresh, again))

    @pytest.mark.parametrize("ident", [1, 3])
    def test_solved_problem_and_report_pickle(self, ident):
        cp = get_example(ident).canonical()
        rep = solve(cp, SolverConfig(n=50))
        cp2, rep2 = pickle.loads(pickle.dumps((cp, rep)))
        assert cp2 == cp
        assert rep2.iterations == rep.iterations
        assert np.array_equal(rep2.profile.u.values, rep.profile.u.values)
        again = solve(cp2, SolverConfig(n=50))
        assert np.array_equal(again.e_history, rep.e_history)
        assert np.array_equal(again.profile.u.values, rep.profile.u.values)
        assert (again.triplet.alpha, again.triplet.beta) == (rep.triplet.alpha, rep.triplet.beta)

    def test_pickled_report_stays_read_only(self):
        # pickle keeps an array's values but not its read-only flag; the grid
        # travels as its size alone and rebuilds its cached arrays
        rep = solve(get_example(1).canonical(), SolverConfig(n=16))
        assert not rep.e_history.flags.writeable and not rep.eu_history.flags.writeable
        rep.grid.slope_weights  # fill the grid's caches before pickling
        rep2 = pickle.loads(pickle.dumps(rep))
        assert vars(rep2.grid) == {"n": 16}
        arrays = [rep2.e_history, rep2.eu_history, rep2.triplet.source.values,
                  rep2.grid.nodes, *rep2.grid.slope_weights]
        arrays += [getattr(rep2.profile, name).values for name in ("u", "du", "d2u", "d3u")]
        assert all(not a.flags.writeable for a in arrays)
        assert np.array_equal(rep2.profile.u.values, rep.profile.u.values)
        with pytest.raises(ValueError):
            rep2.profile.u.values[3] = 1e300

    def test_report_owns_copies_of_the_callers_histories(self):
        rep = solve(get_example(1).canonical(), SolverConfig(n=16))
        mine = np.arange(3.0)
        moved = dataclasses.replace(rep, e_history=mine, eu_history=mine)
        for kept in (moved.e_history, moved.eu_history):
            assert not kept.flags.writeable and not np.shares_memory(mine, kept)
        assert mine.flags.writeable

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


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _report_of(cp, config):
    try:
        return solve(cp, config)
    except SolverError as err:
        return err.report


def _assert_slopes_are_diff5(profile):
    assert _same_bits(profile.du.values, numerics.diff5(profile.u).values)
    assert _same_bits(profile.d3u.values, numerics.diff5(profile.d2u).values)
    for gf in (profile.u, profile.du, profile.d2u, profile.d3u):
        assert not gf.values.flags.writeable


class TestSlopes:
    """du and d3u are diff5 of u and d2u, whether or not f reads them."""

    CASES = [(f"example:{i}", n) for i in range(1, 7) for n in (8, 100, 1000)]
    CASES += [("f = 300*u + 1", 100)]

    @staticmethod
    def _problem(ref):
        if ref.startswith("example:"):
            return get_example(int(ref.split(":")[1])).canonical()
        return _canon(ref)

    @pytest.mark.parametrize("ref, n", CASES)
    def test_reported_slopes(self, ref, n):
        rep = _report_of(self._problem(ref), SolverConfig(n=n))
        _assert_slopes_are_diff5(rep.profile)

    @pytest.mark.parametrize("ref, n", CASES)
    def test_slopes_of_step(self, ref, n):
        cp = self._problem(ref)
        _, profile = step(_report_of(cp, SolverConfig(n=n)).triplet, cp)
        _assert_slopes_are_diff5(profile)

    @pytest.mark.parametrize("ref, n", CASES)
    def test_slopes_after_pickle(self, ref, n):
        # pickled before any slope is read, and again after
        rep = _report_of(self._problem(ref), SolverConfig(n=n))
        unread = pickle.loads(pickle.dumps(rep))
        _assert_slopes_are_diff5(unread.profile)
        _assert_slopes_are_diff5(pickle.loads(pickle.dumps(rep)).profile)
        assert _same_bits(unread.profile.du.values, rep.profile.du.values)
        assert _same_bits(unread.profile.d3u.values, rep.profile.d3u.values)

    @pytest.mark.parametrize("ident, per_step", [(1, 2), (2, 2), (3, 0), (6, 0)])
    def test_diff5_only_for_what_f_reads(self, monkeypatch, ident, per_step):
        # examples 1 and 2 read y and z, 3 and 6 neither; each pass still
        # runs both second-order solves.  Counted are the in-place kernels,
        # which step's public wrappers and solve's later passes all reach.
        # The report's profile forms an unread slope with one diff5 on its
        # first read, and then keeps it
        calls = {"_diff5_into": 0, "_bvp_into": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            kernel = counted(name, getattr(numerics, name))
            for module in (numerics, solver_module):
                monkeypatch.setattr(module, name, kernel)
        rep = solver_module.solve(get_example(ident).canonical(), SolverConfig(n=100))
        passes = rep.iterations + 1
        assert calls["_bvp_into"] == 2 * passes + 2  # and two for the report's residual
        formed = per_step * (passes + 1)  # none for an unread slope yet
        assert calls["_diff5_into"] == formed
        for slope in ("du", "d3u"):
            first = getattr(rep.profile, slope)
            formed += per_step == 0
            assert calls["_diff5_into"] == formed
            assert getattr(rep.profile, slope) is first
            assert calls["_diff5_into"] == formed

    @pytest.mark.parametrize("ref, max_iter", [("example:3", 200), ("f = 500*u + 1", 5)])
    def test_report_holds_plain_grid_functions(self, ref, max_iter):
        # neither f reads a slope; the second report is a failure's
        rep = _report_of(self._problem(ref), SolverConfig(n=16, max_iter=max_iter))
        assert rep.converged == (max_iter == 200)
        prof = rep.profile
        for gf in (prof.u, prof.du, prof.d2u, prof.d3u):
            assert type(gf) is GridFunction
        assert "_Slope" not in repr(prof)
        moved = dataclasses.replace(prof.du, values=prof.du.values + 1.0)
        assert _same_bits(moved.values, prof.du.values + 1.0)
        _assert_slopes_are_diff5(prof)


class TestIterateProfile:
    """A profile holds u and u''; du and d3u are diff5 of them, formed on first read."""

    @staticmethod
    def _profile():
        grid = Grid(16)
        return IterateProfile(u=GridFunction.sample(grid, lambda x: np.sin(3.0 * x)),
                              d2u=GridFunction.sample(grid, np.exp))

    def test_slopes_are_diff5_and_kept(self):
        prof = self._profile()
        _assert_slopes_are_diff5(prof)
        assert prof.du is prof.du and prof.d3u is prof.d3u
        assert type(prof.du) is GridFunction and type(prof.d3u) is GridFunction

    def test_fields_are_u_and_d2u(self):
        prof = self._profile()
        assert [f.name for f in dataclasses.fields(prof)] == ["u", "d2u"]
        with pytest.raises(TypeError):
            IterateProfile(u=prof.u, du=prof.u, d2u=prof.d2u)
        with pytest.raises(TypeError):
            IterateProfile(u=prof.u, d2u=prof.d2u, d3u=prof.d2u)

    def test_replace_forms_the_new_slopes(self):
        prof = self._profile()
        prof.du, prof.d3u  # read before the replace
        w = GridFunction.sample(prof.u.grid, lambda x: x ** 3 - x)
        moved = dataclasses.replace(prof, u=w)
        assert _same_bits(moved.du.values, numerics.diff5(w).values)
        assert _same_bits(moved.d3u.values, prof.d3u.values)
        _assert_slopes_are_diff5(moved)

    def test_pickle_before_and_after_the_first_read(self):
        prof = self._profile()
        unread = pickle.loads(pickle.dumps(prof))
        prof.du, prof.d3u
        read = pickle.loads(pickle.dumps(prof))
        for copy in (unread, read):
            _assert_slopes_are_diff5(copy)
            for slope in ("du", "d3u"):
                assert _same_bits(getattr(copy, slope).values, getattr(prof, slope).values)

    def test_repr_names_public_classes_only(self):
        prof = self._profile()
        expected = ("IterateProfile(u=GridFunction(grid=Grid(n=16)), "
                    "d2u=GridFunction(grid=Grid(n=16)))")
        assert repr(prof) == expected
        prof.du, prof.d3u
        assert repr(prof) == expected


class TestPassCore:
    """solve's passes run on raw arrays in one workspace; they must give
    step's iterates and report bit for bit."""

    CASES = [(f"example:{i}", SolverConfig(n=n), None) for i in range(1, 7) for n in (16, 100, 400)]
    CASES += [
        ("f = 300*u + 1", SolverConfig(n=100), None),
        ("f = 500*u + 1", SolverConfig(n=100, max_iter=30), "iteration-limit"),
        ("f = 500*u + 1", SolverConfig(n=100), "iteration-limit"),  # stops early, at 16
        ("f = 2400 + u*z/2 - y*v/4", SolverConfig(n=100), "floor"),
        ("f = 1e5*u + 1e300", SolverConfig(n=100), "divergence"),  # the map breaks down
        ("f = 1e5*u + 1e300", SolverConfig(n=1000), "divergence"),  # in the curvatures
        ("f = 1e308", SolverConfig(n=100), "divergence"),  # on pass 0
        ("f = exp(500*u) + y^1", SolverConfig(n=100), "divergence"),  # in f, after the slopes
        ("f = 24 + sin(x)", SolverConfig(n=16), None),  # f is a value its fold keeps
        ("f = 2*x + z^1", SolverConfig(n=16), None),
    ]

    @pytest.mark.parametrize("ref, config, failure", CASES)
    def test_solve_is_step_iterated(self, ref, config, failure):
        cp = TestSlopes._problem(ref)
        rep = _report_of(cp, config)
        assert rep.failure == failure
        grid = Grid(config.n)
        exact = cp.exact_on(grid)
        # passes[k + 1] is step's pass k, on the triplet of passes[k];
        # passes[0] is init_state's triplet with the zero profile.  solve
        # makes at most iterations + 1 passes, and its residual one more
        zero = GridFunction(grid, np.zeros(grid.n + 1))
        passes = [(init_state(cp, grid), IterateProfile(u=zero, d2u=zero))]
        with np.errstate(over="ignore", invalid="ignore"):  # as solve does, take overflow for non-finite values
            while len(passes) < rep.iterations + 3:
                try:
                    passes.append(step(passes[-1][0], cp))
                except ValueError:
                    break
        # the report holds solve's last pass: a breakdown stops both loops at
        # the same pass, and otherwise the residual's pass went one further
        last = len(passes) - 1 if failure == "divergence" else len(passes) - 2
        assert rep.iterations == max(last - 1, 0)
        state, profile = passes[last]
        assert rep.first_step == (triplet_distance(passes[1][0], passes[0][0]) if last else math.inf)
        us = [passes[k][1].u.values for k in range(1, last + 1)]
        e = [float(np.abs(u - prev).max()) for prev, u in zip(us, us[1:])]
        assert _same_bits(rep.e_history, np.array(e))
        if exact is None:
            assert rep.eu_history is None
        else:
            eu = [float(np.abs(u - exact.values).max()) for u in us[1:]]
            assert _same_bits(rep.eu_history, np.array(eu))
        assert _same_bits(rep.triplet.source.values, state.source.values)
        assert (rep.triplet.alpha, rep.triplet.beta) == (state.alpha, state.beta)
        for name in ("u", "du", "d2u", "d3u"):
            assert _same_bits(getattr(rep.profile, name).values, getattr(profile, name).values), name
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                res = residual(state, cp)
            except ValueError:  # as solve reports it
                res = math.inf
        assert rep.residual == res

    @pytest.mark.parametrize("text", ["f = sin(u)", "f = sin(u) + z"])
    def test_slope_overflow_fails_in_a_pass_as_in_step(self, text):
        # as in test_slope_overflow_fails_where_it_did, u''' overflows in
        # diff5's edge rows, whether or not f reads it; the pass keeps the
        # current pair
        grid, cp = Grid(8), _canon(text)
        ws = solver_module._Workspace(cp, grid)
        current = (ws.u, ws.v)
        with pytest.raises(ValueError) as info:
            solver_module._pass(ws, np.zeros(9), 1e307, -1e307)
        assert str(info.value) == "non-finite value at node 0 (x=0.0)"
        assert (ws.u, ws.v) == current and not ws.u.any() and not ws.v.any()

    @pytest.mark.parametrize("name", ["u", "y", "v", "z"])
    def test_pass_never_returns_a_workspace_array(self, name):
        # f = u^1 evaluates to the array f was given for u
        grid, cp = Grid(16), _canon(f"f = {name}^1")
        ws = solver_module._Workspace(cp, grid)
        phi, _, _ = solver_module._pass(ws, np.ones(17), 1.0, 2.0)
        assert all(phi is not getattr(ws, slot) for slot in ("u", "v", "u_old", "v_old", "du", "d3u", "scratch"))

    def test_solve_memory_stays_at_19_arrays(self):
        # a pass holds the workspace, the source and f's temporaries; the
        # report's residual pass runs once the last f values and exact samples are gone
        tracemalloc = pytest.importorskip("tracemalloc")
        cp = get_example(1).canonical()
        n = 100_000
        solve(cp, SolverConfig(n=16))  # compile f outside the trace
        tracemalloc.start()
        try:
            solve(cp, SolverConfig(n=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 19 * 8 * (n + 1)

    def test_solve_memory_with_a_fold_stays_at_17_3_arrays(self):
        # example 5's f reads x: its fold keeps two x-only arrays, which the
        # report's residual pass reuses instead of forming them again.  Before
        # it did, this peak was 15.26 arrays
        tracemalloc = pytest.importorskip("tracemalloc")
        cp = get_example(5).canonical()
        n = 100_000
        solve(cp, SolverConfig(n=16))  # compile f outside the trace
        tracemalloc.start()
        try:
            solve(cp, SolverConfig(n=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (15.3 + 2) * 8 * (n + 1)

    def test_pass_loop_memory_stays_at_15_5_arrays(self, monkeypatch):
        # the residual pass sets solve's overall peak; the peak up to its
        # start is the pass loop's: the workspace's block, the source and
        # f's temporaries.  An array held through every pass, such as
        # init_state's source, adds one
        tracemalloc = pytest.importorskip("tracemalloc")
        cp = get_example(1).canonical()
        n = 100_000
        solve(cp, SolverConfig(n=16))  # compile f outside the trace
        peaks = []
        real = solver_module.residual

        def spy(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_module, "residual", spy)
        tracemalloc.start()
        try:
            solve(cp, SolverConfig(n=n))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1
        assert peaks[0] <= 15.5 * 8 * (n + 1)


# Right sides on which some input fails a check of f or raises a
# floating-point flag, or both
FLAG_CASES = [
    "sqrt(u - 1)", "log(u)", "asin(2 + u)", "1/(0*u)", "(0*u)/(0*u)", "(0*u)^-2",
    "(1e-200 + 0*u)^-2",  # the divisor underflows to zero
    "(0*u)^0.5",  # 0^0.5 raises no flag
    "(u - 1)^0.5", "exp(1000 + u)", "sinh(1000 + u)",
    "1e308*10 + u",  # an inf constant, which the addition does not flag
    "exp(-(1e200*(1 + u))^2)",  # overflows, is squashed, and succeeds
    "exp(-1000 + u)",  # underflows and succeeds
    "log(u) + sin(x)",
    # checks on a known divisor or base, which every run makes
    "u/(1 - 1)", "(0 - 2)^u", "u/(x - x)", "(x - 1)^0.5 + u", "u/(2 + x)", "(1 + x)^u",
]


def _outcome(fn):
    """The bytes of what fn returns, or its error's type and message."""
    try:
        out = fn()
    except ValueError as err:  # ExprEvalError, or a non-finite value rejected
        return type(err), str(err)
    return [a.tobytes() if isinstance(a, np.ndarray) else a for a in out]


# literals and inputs at the ends of the double range, where one operation
# overflows, underflows or divides by zero
FUZZ_LITERALS = (0.0, -0.0, 1e-200, 1e200, 1e308, 700.0, -1000.0)
FUZZ_INPUTS = (0.0, -0.0, 1e-300, 1e150, -1e154, 0.5, -2.0)


def _bits(run, program, values):
    """The shape and bytes of what run gives on values, or its error's message."""
    try:
        out = np.asarray(run(program, values), dtype=float)
    except ExprEvalError as err:
        return str(err)
    return out.shape, out.tobytes()


def _digest(rep) -> list:
    arrays = [rep.e_history, rep.triplet.source.values] + [
        getattr(rep.profile, name).values for name in ("u", "du", "d2u", "d3u")]
    return [a.tobytes() for a in arrays] + [rep.converged, rep.iterations, rep.residual,
                                            rep.first_step, rep.failure, rep.triplet.alpha]


class TestFlaggedRun:
    """_f checks f by numpy's floating-point flags, and runs f again checked
    on a flag: every value and error is the checked run's."""

    def _agree(self, monkeypatch, fn):
        flagged = _outcome(fn)
        with monkeypatch.context() as m:
            m.setattr(solver_module, "_run", expr_module._run_checked)
            assert _outcome(fn) == flagged

    @pytest.mark.parametrize("text", FLAG_CASES)
    def test_f_agrees_with_the_checked_run(self, monkeypatch, text):
        grid, cp = Grid(16), _canon(f"f = {text}")
        for program in (expr_module._compile(cp.rhs), expr_module._compile(cp.rhs, grid.nodes)):
            for u in (np.linspace(-2.0, 2.0, 17), np.linspace(0.0, 3.0, 17), np.zeros(17),
                      np.full(17, 2.0), np.full(17, 1e300)):
                self._agree(monkeypatch, lambda: [solver_module._f(program, grid.nodes,
                                                                   u, None, u, None)])

    @pytest.mark.parametrize("text", FLAG_CASES)
    def test_step_and_residual_agree_with_the_checked_run(self, monkeypatch, text):
        # with phi = 0, u = alpha (x^2 - x) / 2 runs over [0, -alpha/8]
        grid, cp = Grid(16), _canon(f"f = {text}")
        for alpha in (0.0, -40.0, 40.0, -1e4):
            state = Triplet(GridFunction(grid, np.zeros(17)), alpha, alpha)

            def run():
                out, profile = step(state, cp)
                return [out.source.values, out.alpha, out.beta, profile.u.values,
                        residual(state, cp)]

            self._agree(monkeypatch, run)

    @pytest.mark.parametrize("text", FLAG_CASES)
    def test_solve_agrees_with_the_checked_run(self, monkeypatch, text):
        cp = _canon(f"f = {text}")

        def run():
            try:
                return _digest(solve(cp, SolverConfig(n=16, max_iter=30)))
            except SolverError as err:
                return _digest(err.report) + [type(err), str(err)]

        self._agree(monkeypatch, run)

    @pytest.mark.parametrize("text, checked", [
        ("exp(-1000 + u)", 0), ("1/(1 + u^2)", 0),
        ("exp(-(1e200*(1 + u))^2)", 1), ("1e308*10 + u", 1), ("log(u)", 1),
    ])
    def test_only_a_flag_or_an_inf_constant_runs_f_again(self, monkeypatch, text, checked):
        grid, cp = Grid(16), _canon(f"f = {text}")
        runs, real = [], expr_module._run_checked
        monkeypatch.setattr(expr_module, "_run_checked", lambda *args: runs.append(args) or real(*args))
        program = expr_module._compile(cp.rhs)
        assert program.finite == (text != "1e308*10 + u")
        _outcome(lambda: [solver_module._f(program, grid.nodes, np.zeros(17), None, None, None)])
        assert len(runs) == checked

    @settings(max_examples=300)
    @given(tree=_trees(4, literals=FUZZ_LITERALS, functions=expr_module.FUNCTIONS),
           samples=st.lists(st.tuples(*[st.sampled_from(FUZZ_INPUTS)] * 5), min_size=1, max_size=4))
    def test_random_trees_agree_with_the_checked_run(self, tree, samples):
        # unfolded and folded at x: the same value bit for bit, or the same error
        values = tuple(np.array(column) for column in zip(*samples))
        for program in (expr_module._compile(tree), expr_module._compile(tree, values[0])):
            assert _bits(expr_module._run, program, values) == \
                _bits(expr_module._run_checked, program, values)

    @settings(max_examples=300)
    @given(tree=_trees(4, literals=FUZZ_LITERALS, functions=expr_module.FUNCTIONS),
           axes=st.tuples(*[st.lists(st.sampled_from(FUZZ_INPUTS), min_size=1, max_size=3)] * 5))
    def test_random_trees_agree_with_the_checked_run_on_a_lattice(self, tree, axes):
        # five sparse axes that broadcast to a 5-D block, as analysis._lattice_env
        # shapes them; unfolded and folded at the x axis
        values = tuple(np.array(axis).reshape([-1 if k == i else 1 for k in range(5)])
                       for i, axis in enumerate(axes))
        for program in (expr_module._compile(tree), expr_module._compile(tree, values[0])):
            assert _bits(expr_module._run, program, values) == \
                _bits(expr_module._run_checked, program, values)

    CALLS = {
        "solve": lambda: solve(_canon("f = 24 + sin(x)"), SolverConfig(n=16)),
        "solve-diverges": lambda: solve(_canon("f = 600*u + 1"), SolverConfig(n=16)),
        "solve-overflows": lambda: solve(_canon("f = 1e5*u + 1e300*cos(x)"), SolverConfig(n=16)),
        "solve-start-fails": lambda: solve(_canon("f = log(u)"), SolverConfig(n=16)),
        "step": lambda: step(Triplet(GridFunction(Grid(16), np.zeros(17)), 0.0, 0.0), _canon("f = u + 1")),
        "step-fails": lambda: step(Triplet(GridFunction(Grid(16), np.zeros(17)), 0.0, 0.0),
                                   _canon("f = log(u)")),
        "residual": lambda: residual(Triplet(GridFunction(Grid(16), np.zeros(17)), 0.0, 0.0),
                                     _canon("f = exp(1 + u)")),
        "residual-fails": lambda: residual(Triplet(GridFunction(Grid(16), np.zeros(17)), 0.0, 0.0),
                                           _canon("f = exp(1000 + u)")),
        "check": lambda: check_conditions(parse(get_example(1).rhs_text), get_example(1).M),
        "check-fails": lambda: check_conditions(parse(get_example(5).rhs_text), get_example(5).M),
    }

    @pytest.mark.parametrize("modes", [{}, {"all": "ignore"}, {"under": "ignore", "divide": "ignore"}])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_floating_point_modes_are_kept(self, name, modes):
        # the calls named with a dash raise
        with np.errstate(**modes):
            before = np.geterr()
            try:
                self.CALLS[name]()
            except (SolverError, ValueError):
                assert "-" in name
            else:
                assert "-" not in name
            assert np.geterr() == before


class TestFailureModes:
    def test_slope_overflow_fails_where_it_did(self):
        # f reads only u, yet u''' overflows in diff5's edge rows: the pass
        # must fail there rather than leave the slope unformed
        grid = Grid(8)
        state = Triplet(GridFunction(grid, np.zeros(9)), 1e307, -1e307)
        with pytest.raises(ValueError) as info:
            step(state, _canon("f = sin(u)"))
        assert type(info.value) is ValueError
        assert str(info.value) == "non-finite value at node 0 (x=0.0)"

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

    @pytest.mark.parametrize("n", [100, 200, 400, 1000, 10_000])
    def test_stall_at_the_rounding_floor(self, n):
        # sup|u| is about 6, so e(k) bottoms out near 1e-15..1e-14, at or
        # below the floor 16 eps sup|u| ~ 2.1e-14 but above tol = 1e-15
        with pytest.raises(StallError) as info:
            solve(_canon("f = 2400 + u*z/2 - y*v/4"), SolverConfig(n=n))
        assert isinstance(info.value, IterationLimitError)
        rep = info.value.report
        assert rep.failure == "floor" and not rep.converged
        assert rep.iterations <= 60 and len(rep.e_history) == rep.iterations
        sup_u = float(np.abs(rep.profile.u.values).max())
        floor = solver_module._ROUNDING_FLOOR * max(1.0, sup_u)
        best = rep.e_history.min()
        assert 1e-15 < best <= floor
        # the least e(k) came _STALL_WINDOW iterations before the stop
        assert rep.iterations - 1 - int(rep.e_history.argmin()) == solver_module._STALL_WINDOW
        message = str(info.value)
        assert f"{best:.3e}" in message and f"floor {floor:.3e}" in message
        assert "tol=1e-15" in message

    @pytest.mark.parametrize("text, outcome, iterations, why", [
        ("f = 300*u + 1", None, 90, None),             # contracts slowly
        # barely contracts: its steady rate predicts 35089 more passes, so
        # the run stops long before the budget of 200 runs out
        ("f = 500*u + 1", IterationLimitError, 16,
         "after 16, e(k) falls by 0.99920 per iteration and needs about 35089 more"),
        ("f = 600*u + 1", DivergenceError, None, None),  # expands
    ])
    def test_slow_linear_problems_keep_their_outcome(self, text, outcome, iterations, why):
        cp = _canon(text)
        if outcome is None:
            assert solve(cp, SolverConfig(n=100)).iterations == iterations
            return
        with pytest.raises(SolverError) as info:
            solve(cp, SolverConfig(n=100))
        assert type(info.value) is outcome
        if iterations is not None:
            assert info.value.report.iterations == iterations
        if why is not None:
            assert str(info.value) == f"no convergence to tol=1e-15 within 200 iterations: {why}"

    @pytest.mark.parametrize("text, config, iterations, why", [
        ("f = 500*u + 1", SolverConfig(n=400), 16,
         "after 16, e(k) falls by 0.99920 per iteration and needs about 35076 more"),
        ("f = 480*u + 1", SolverConfig(n=100), 99,
         "after 99, e(k) falls by 0.97525 per iteration and needs about 1017 more"),
        # its rate, about 0.88, keeps tol within reach of the budget, and
        # near rounding level its ratios are no longer steady
        ("f = 400*u + 1", SolverConfig(n=100), 200, "e(k) last fell by 0.84694 per iteration"),
        # too few passes for a window of ratios: the budget runs out
        ("f = 500*u + 1", SolverConfig(n=100, max_iter=5), 5, "e(k) last rose by 1.00596 per iteration"),
    ])
    def test_hopeless_runs_stop_early(self, text, config, iterations, why):
        with pytest.raises(IterationLimitError) as info:
            solve(_canon(text), config)
        assert type(info.value) is IterationLimitError
        rep = info.value.report
        assert rep.failure == "iteration-limit" and not rep.converged
        assert rep.iterations == iterations == len(rep.e_history)
        assert str(info.value) == f"no convergence to tol=1e-15 within {config.max_iter} iterations: {why}"

    def test_slow_run_that_converges_within_its_budget_is_not_stopped(self):
        # nearly as slow as 480*u + 1, yet its rate reaches tol within this budget
        rep = solve(_canon("f = 470*u + 1"), SolverConfig(n=100, max_iter=1000))
        assert rep.converged and rep.iterations == 744

    @pytest.mark.parametrize("text", [f"f = {c}*u + 1" for c in (300, 400, 420, 450, 470, 480, 490, 500)]
                             + ["f = 480*u - 2000*u^3 + 1", "f = 490*u + 1e4*u^2 + 1", "f = 300*sin(u) + 1"])
    @pytest.mark.parametrize("n", [16, 100])
    def test_no_run_that_would_converge_is_stopped(self, text, n):
        # the oracle is step iterated from init_state; whenever it reaches
        # tol within a budget, solve converges with the same K, and any
        # run's e(k) are the oracle's
        cp, grid = _canon(text), Grid(n)
        state, us, e = init_state(cp, grid), [], []
        with np.errstate(over="ignore", invalid="ignore"):
            while len(e) < 200 and not (e and e[-1] <= 1e-15):
                try:
                    state, profile = step(state, cp)
                except ValueError:
                    break
                us.append(profile.u.values)
                if len(us) > 1:
                    e.append(float(np.abs(us[-1] - us[-2]).max()))
        reached = len(e) if e and e[-1] <= 1e-15 else None
        for budget in (30, 50, 100, 200):
            rep = _report_of(cp, SolverConfig(n=n, max_iter=budget))
            assert rep.e_history.tolist() == e[:rep.iterations]
            if reached is not None and reached <= budget:
                assert rep.converged and rep.iterations == reached

    def test_floor_noise_is_not_divergence(self, monkeypatch):
        # e(k) falls to q and then rises ten times in a row, always at or
        # below the floor 16 eps = 256 q: rounding noise, so the run stalls
        # instead of diverging (sums of these multiples of q are exact).
        # Each of solve's passes leaves the new u in the workspace's current pair
        q = 2.0 ** -56
        errors = [2**40, 2**30, 2**20, 2**10] + list(range(1, 12))
        offsets = iter(np.cumsum([0] + errors) * q)
        real_pass = solver_module._pass

        def noisy_pass(ws, phi, alpha, beta):
            out = real_pass(ws, phi, alpha, beta)
            ws.u[:] = next(offsets)
            return out

        monkeypatch.setattr(solver_module, "_pass", noisy_pass)
        with pytest.raises(StallError) as info:
            solve(_canon("f = 24"), SolverConfig(n=16, tol=1e-30))
        assert info.value.report.e_history.tolist() == [k * q for k in errors]

    def test_residual_is_inf_when_the_curvatures_overflow(self):
        # f stays finite on the last state's profile, but the next end
        # curvatures overflow, so the map cannot be applied once more
        cp = _canon("f = 1e5*u + 1e300")
        with pytest.raises(DivergenceError) as info:
            solve(cp, SolverConfig(n=1000))
        assert str(info.value) == "the map broke down after 1 iterations: end curvatures must be finite"
        assert str(info.value.__cause__) == "end curvatures must be finite"
        assert info.value.report.residual == math.inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as raised:
            residual(info.value.report.triplet, cp)
        assert str(raised.value) == "end curvatures must be finite"

    @pytest.mark.parametrize("max_iter", [4, 1])
    def test_iteration_limit_with_report(self, max_iter):
        cp = get_example(2).canonical()
        with pytest.raises(IterationLimitError) as info:
            solve(cp, SolverConfig(n=32, max_iter=max_iter))
        rep = info.value.report
        assert not rep.converged
        assert rep.failure == "iteration-limit"
        assert rep.iterations == max_iter
        message = f"no convergence to tol=1e-15 within {max_iter} iterations"
        if max_iter > 1:  # the message ends with the last ratio e(K)/e(K-1), about 1/4 here
            rate = rep.e_history[-1] / rep.e_history[-2]
            assert 0.2 < rate < 0.3
            message += f": e(k) last fell by {rate:.5f} per iteration"
        assert str(info.value) == message

    @pytest.mark.parametrize("text, iterations", [
        ("f = 1e308", 0), ("f = 1e307*u + 1e307", 0), ("f = 1e5*u + 1e300", 2),
    ])
    def test_overflow_is_divergence_with_report(self, text, iterations):
        # overflow in the second-order solves or in f, on the first pass or
        # later, is typed; the report keeps the last finite state, and its
        # residual is inf, as the map cannot be applied to that state
        cp = _canon(text)
        with pytest.raises(DivergenceError) as info:
            solve(cp, SolverConfig(n=100))
        rep = info.value.report
        assert rep.failure == "divergence" and not rep.converged
        assert rep.iterations == iterations == len(rep.e_history)
        assert rep.residual == math.inf
        state = init_state(cp, Grid(100))
        if iterations == 0:
            assert rep.first_step == math.inf
            prof = rep.profile
            assert all(np.all(g.values == 0.0) for g in (prof.u, prof.du, prof.d2u, prof.d3u))
        else:
            s1, _ = step(state, cp)
            assert rep.first_step == triplet_distance(s1, state)
            state = s1
            for _ in range(iterations):
                state, profile = step(state, cp)
            assert np.array_equal(profile.u.values, rep.profile.u.values)
        assert np.array_equal(state.source.values, rep.triplet.source.values)
        assert (state.alpha, state.beta) == (rep.triplet.alpha, rep.triplet.beta)

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
