"""Expression grammar, evaluation semantics, derivatives and rendering."""

import dataclasses
import gc
import math
import pickle
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clampbeam.expr as expr_module
import clampbeam.solver as solver_module
from clampbeam.analysis import DomainBox, LatticeSpec, _lattice_env, check_conditions
from clampbeam.cli import main
from clampbeam.examples import get_example
from clampbeam.expr import (
    BinOp,
    Call,
    ExprDerivativeError,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    differentiate,
    evaluate,
    parse,
    substitute,
    to_source,
    variables_in,
)
from clampbeam.problem import canonicalize, parse_problem_text
from clampbeam.solver import SolverConfig, solve

GOLDEN_SOURCES = [
    "12 + u*z/2 - y*v/4 + y/4",
    "x + x^2 + u^2*v + y*sin(z)",
    "u^2*sin(u) + sin(x)",
    "u*sin(u) + exp(-x^2)",
    "sqrt(u)*sin(exp(u)) + exp(-x^2)",
    "u^5",
]


class TestParsing:
    def test_precedence_and_associativity(self):
        assert evaluate(parse("-2^2"), 0, 0, 0, 0, 0) == -4.0
        assert evaluate(parse("2^-2"), 0, 0, 0, 0, 0) == 0.25
        assert evaluate(parse("2^3^2"), 0, 0, 0, 0, 0) == 512.0
        assert evaluate(parse("1 - 2 - 3"), 0, 0, 0, 0, 0) == -4.0
        assert evaluate(parse("8/4/2"), 0, 0, 0, 0, 0) == 1.0
        assert evaluate(parse("2 + 3*4"), 0, 0, 0, 0, 0) == 14.0
        assert evaluate(parse("(2 + 3)*4"), 0, 0, 0, 0, 0) == 20.0

    def test_unary_minus_structure(self):
        node = parse("-x^2")
        assert isinstance(node, Neg)
        assert isinstance(node.operand, BinOp) and node.operand.op == "^"

    def test_negative_literal_folded(self):
        assert parse("-3") == Num(-3.0)
        power = parse("u^-2")
        assert power.right == Num(-2.0)

    def test_constants_folded_at_parse(self):
        assert parse("pi") == Num(math.pi)
        assert parse("e") == Num(math.e)
        assert evaluate(parse("cos(pi)"), 0, 0, 0, 0, 0) == pytest.approx(-1.0)

    def test_whitespace_insensitive(self):
        assert parse(" 1+u * 2 ") == parse("1 + u*2")

    def test_variables_in(self):
        assert variables_in(parse(GOLDEN_SOURCES[0])) == {"u", "y", "v", "z"}
        assert variables_in(parse("1 + 2")) == set()
        assert variables_in(parse("x")) == {"x"}

    @pytest.mark.parametrize("source, fragment", [
        ("1 + * 2", "unexpected '*'"),
        ("2x", "implicit multiplication"),
        ("sin(x", "expected ')'"),
        ("foo(x)", "unknown function 'foo'"),
        ("w + 1", "unknown identifier 'w'"),
        ("1e400", "overflows"),
        ("", "end of input"),
        ("1 +", "end of input"),
        ("1 ? 2", "unexpected character"),
    ])
    def test_syntax_errors(self, source, fragment):
        with pytest.raises(ExprSyntaxError, match=fragment.replace("(", "\\(").replace(")", "\\)").replace("?", "\\?").replace("*", "\\*").replace("+", "\\+").replace("'", "'")):
            parse(source)

    def test_error_carries_column(self):
        with pytest.raises(ExprSyntaxError, match="column 5"):
            parse("1 + * 2")


class TestEvaluation:
    def test_scalar_returns_float(self):
        out = evaluate(parse("x + u"), 0.25, 0.5, 0, 0, 0)
        assert isinstance(out, float) and out == 0.75

    def test_array_broadcasting(self):
        x = np.linspace(0, 1, 5)
        out = evaluate(parse("x^2 + u"), x, 1.0, 0, 0, 0)
        np.testing.assert_allclose(out, x**2 + 1.0)

    def test_integer_exponent_negative_base(self):
        assert evaluate(parse("v^3"), 0, 0, 0, -2.0, 0) == -8.0
        assert evaluate(parse("v^-2"), 0, 0, 0, 2.0, 0) == 0.25
        assert evaluate(parse("v^0"), 0, 0, 0, -5.0, 0) == 1.0

    def test_fractional_power_needs_positive_base(self):
        assert evaluate(parse("u^0.5"), 0, 4.0, 0, 0, 0) == 2.0
        with pytest.raises(ExprEvalError, match="positive base"):
            evaluate(parse("u^0.5"), 0, -4.0, 0, 0, 0)

    def test_large_integer_exponent_uses_general_path(self):
        # |exponent| > 9 falls back to pow semantics: positive base required
        assert evaluate(parse("u^12"), 0, 2.0, 0, 0, 0) == 4096.0
        with pytest.raises(ExprEvalError, match="positive base"):
            evaluate(parse("u^12"), 0, -2.0, 0, 0, 0)

    @pytest.mark.parametrize("source, env, fragment", [
        ("1/x", (0.0, 1, 1, 1, 1), "division by zero"),
        ("sqrt(u)", (0, -1.0, 0, 0, 0), "sqrt of a negative"),
        ("log(u)", (0, 0.0, 0, 0, 0), "log of a non-positive"),
        ("asin(x)", (1.5, 0, 0, 0, 0), "asin argument"),
        ("exp(z)", (0, 0, 0, 0, 1e4), "non-finite result"),
        ("u^-2", (0, 0.0, 0, 0, 0), "zero base with negative exponent"),
        # the cube underflows to an exact zero before the reciprocal
        ("u^-3", (0, 1e-134, 0, 0, 0), "power underflow"),
    ])
    def test_domain_errors(self, source, env, fragment):
        with pytest.raises(ExprEvalError, match=fragment):
            evaluate(parse(source), *env)

    def test_domain_error_reports_offending_sample(self):
        u = np.array([1.0, 4.0, -9.0, 16.0])
        with pytest.raises(ExprEvalError, match=r"-9\.0"):
            evaluate(parse("sqrt(u)"), 0.0, u, 0, 0, 0)

    def test_function_values(self):
        env = (0.3, 0.7, -0.2, 1.1, 2.5)
        cases = {
            "sin(x)": math.sin(0.3),
            "cos(y)": math.cos(-0.2),
            "tan(u)": math.tan(0.7),
            "atan(z)": math.atan(2.5),
            "asin(y)": math.asin(-0.2),
            "sinh(x)": math.sinh(0.3),
            "cosh(v)": math.cosh(1.1),
            "exp(y)": math.exp(-0.2),
            "log(v)": math.log(1.1),
            "sqrt(z)": math.sqrt(2.5),
            "abs(y)": 0.2,
        }
        for source, expect in cases.items():
            assert evaluate(parse(source), *env) == pytest.approx(expect, rel=1e-15)


class TestDifferentiate:
    def test_golden_partials(self):
        rhs = parse(GOLDEN_SOURCES[0])
        point = (0.0, 1.5, -0.5, 2.0, 3.0)
        checks = {
            "u": 3.0 / 2.0,         # z/2
            "y": -2.0 / 4.0 + 0.25,  # -v/4 + 1/4
            "v": 0.5 / 4.0,          # -y/4 with y = -0.5
            "z": 1.5 / 2.0,          # u/2
        }
        for var, expect in checks.items():
            val = evaluate(differentiate(rhs, var), *point)
            assert val == pytest.approx(expect, rel=1e-14)

    def test_power_rule_fractional(self):
        d = differentiate(parse("u^0.5"), "u")
        assert evaluate(d, 0, 4.0, 0, 0, 0) == pytest.approx(0.25)

    def test_chain_rules(self):
        point = (0.2, 0.6, 0.3, 0.9, 1.4)
        for source, var in [("sin(u^2)", "u"), ("exp(y*v)", "v"),
                            ("log(1 + z^2)", "z"), ("sqrt(1 + u^2)", "u"),
                            ("tan(y/2)", "y"), ("atan(v)", "v"),
                            ("asin(y)", "y"), ("sinh(z)", "z"), ("cosh(u)", "u")]:
            sym = evaluate(differentiate(parse(source), var), *point)
            names = ["x", "u", "y", "v", "z"]
            idx = names.index(var)
            h = 1e-6
            plus, minus = list(point), list(point)
            plus[idx] += h
            minus[idx] -= h
            fd = (evaluate(parse(source), *plus) - evaluate(parse(source), *minus)) / (2 * h)
            assert sym == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_derivative_of_x_only_rhs_is_zero(self):
        d = differentiate(parse("sin(x) + x^2"), "u")
        assert evaluate(d, 0.7, 1, 1, 1, 1) == 0.0

    def test_abs_has_no_derivative(self):
        with pytest.raises(ExprDerivativeError, match="abs"):
            differentiate(parse("abs(u)"), "u")

    def test_target_restricted(self):
        with pytest.raises(ValueError, match="derivative target"):
            differentiate(parse("x"), "x")

    def test_general_power_derivative(self):
        # d/du u^u = u^u (log u + 1)
        d = differentiate(parse("u^u"), "u")
        u = 1.7
        expect = u**u * (math.log(u) + 1.0)
        assert evaluate(d, 0, u, 0, 0, 0) == pytest.approx(expect, rel=1e-13)


class TestSubstitute:
    def test_simple_replacement(self):
        out = substitute(parse("u + y"), {"u": parse("x^2")})
        assert evaluate(out, 3.0, 0, 5.0, 0, 0) == 14.0

    def test_substitution_is_simultaneous(self):
        out = substitute(parse("u*y"), {"u": Var("y"), "y": Var("u")})
        assert evaluate(out, 0, 7.0, 2.0, 0, 0) == 14.0

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError, match="unknown variable"):
            substitute(parse("u"), {"q": Num(1.0)})

    def test_a_tree_free_of_the_mapped_variables_comes_back_itself(self):
        tree = parse("sin(x)*y + exp(-z^2)/v")
        assert substitute(tree, {"u": parse("x^2")}) is tree
        assert substitute(tree, {}) is tree

    def test_only_the_path_to_a_mapped_variable_is_rebuilt(self):
        tree = parse("sin(x)*y + exp(-z^2)*u")
        out = substitute(tree, {"u": Num(2.0)})
        assert out == parse("sin(x)*y + exp(-z^2)*2")
        assert out.left is tree.left and out.right.left is tree.right.left
        assert out is not tree and out.right is not tree.right


class TestRendering:
    @pytest.mark.parametrize("source", GOLDEN_SOURCES)
    def test_parse_render_fixed_point(self, source):
        tree = parse(source)
        assert parse(to_source(tree)) == tree

    def test_integer_like_numbers_render_bare(self):
        assert to_source(Num(2.0)) == "2"
        assert to_source(Num(1.87)) == "1.87"

    def test_negated_exponent_at_the_nesting_limit_round_trips(self):
        # 100 open groups and 100 tree levels: the rendering must open no more
        source = "u^-" * 50 + "u"
        tree = parse(source)
        assert to_source(tree) == source
        assert parse(to_source(tree)) == tree

    def test_grouping_preserved(self):
        tree = parse("(1 + x)*(2 - y)")
        assert parse(to_source(tree)) == tree
        tree2 = parse("x - (y - v)")
        assert parse(to_source(tree2)) == tree2
        tree3 = parse("(2^x)^y")
        assert parse(to_source(tree3)) == tree3


def _leaf(names="xuyvz", literals=()):
    """A variable of names, or a literal in [-4, 4] or from literals."""
    numbers = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
    if literals:
        numbers = st.one_of(numbers, st.sampled_from(literals))
    return st.one_of(
        numbers.map(lambda v: Num(float(v))),
        st.sampled_from([Var(n) for n in names]),
    )


def _trees(depth=3, names="xuyvz", literals=(),
           functions=("sin", "cos", "exp", "sqrt", "abs", "atan")):
    if depth == 0:
        return _leaf(names, literals)
    sub = _trees(depth - 1, names, literals, functions)
    return st.one_of(
        _leaf(names, literals),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: BinOp(*t)),
        sub.map(Neg),
        st.tuples(st.sampled_from(functions), sub).map(lambda t: Call(*t)),
    )


POINT = (0.37, 0.81, 0.62, 1.13, 0.54)


class TestRenderingProperty:
    @given(tree=_trees())
    def test_rendered_text_reparses_to_same_value(self, tree):
        source = to_source(tree)
        reparsed = parse(source)
        try:
            expect = evaluate(tree, *POINT)
        except ExprEvalError:
            return  # tree hits a domain error at the probe point; nothing to compare
        got = evaluate(reparsed, *POINT)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    @given(tree=_trees())
    def test_text_of_a_parsed_tree_parses_back_to_it(self, tree):
        parsed = parse(to_source(tree))
        assert parse(to_source(parsed)) == parsed

    @given(tree=_trees(2))
    def test_differentiate_matches_finite_differences(self, tree):
        var = "v"
        try:
            d = differentiate(tree, var)
        except ExprDerivativeError:
            return  # abs in the tree
        h = 1e-6
        plus = (POINT[0], POINT[1], POINT[2], POINT[3] + h, POINT[4])
        minus = (POINT[0], POINT[1], POINT[2], POINT[3] - h, POINT[4])
        try:
            sym = evaluate(d, *POINT)
            fd = (evaluate(tree, *plus) - evaluate(tree, *minus)) / (2 * h)
        except ExprEvalError:
            return
        if abs(fd) > 1e6:  # wildly curved near a domain edge; FD unreliable
            return
        assert sym == pytest.approx(fd, rel=5e-4, abs=5e-4)


def _naive_diff(node, var):
    """Reference partial: the rules read directly, asking at every node
    whether its subtree reads var (quadratic in the depth)."""
    m = expr_module
    if var not in variables_in(node):
        return m._num(0.0)
    if isinstance(node, Var):
        return m._num(1.0)
    if isinstance(node, Neg):
        return m._neg(_naive_diff(node.operand, var))
    if isinstance(node, Call):
        rule = m._CHAIN.get(node.fn)
        if rule is None:
            raise ExprDerivativeError(f"no derivative rule for '{node.fn}' in '{to_source(node)}'")
        return m._mul(rule(node.arg), _naive_diff(node.arg, var))
    a, b = node.left, node.right
    da = _naive_diff(a, var)
    if node.op == "^":
        if var not in variables_in(b):
            return m._mul(m._mul(b, m._pow(a, m._sub(b, m._num(1.0)))), da)
        db = _naive_diff(b, var)
        inner = m._add(m._mul(db, Call("log", a)), m._mul(b, m._div(da, a)))
        return m._mul(m._pow(a, b), inner)
    db = _naive_diff(b, var)
    if node.op == "+":
        return m._add(da, db)
    if node.op == "-":
        return m._sub(da, db)
    if node.op == "*":
        return m._add(m._mul(da, b), m._mul(a, db))
    return m._div(m._sub(m._mul(da, b), m._mul(a, db)), m._pow(b, m._num(2.0)))


def _partial_outcome(fn, tree, var):
    """repr of the partial (so -0.0 and 0.0 differ), or the error's type and message."""
    try:
        return repr(fn(tree, var))
    except ExprDerivativeError as err:
        return type(err), str(err)


def _node_count(node) -> int:
    children = {BinOp: ("left", "right"), Neg: ("operand",), Call: ("arg",)}.get(type(node), ())
    return 1 + sum(_node_count(getattr(node, name)) for name in children)


class TestLinearDifferentiate:
    @settings(max_examples=300)
    @given(tree=st.one_of(_trees(), _trees(4),
                          st.tuples(_trees(2), _trees(2)).map(
                              lambda t: substitute(t[0], {"u": t[1], "v": t[1]}))),
           var=st.sampled_from("uyvz"))
    def test_equals_the_naive_rules(self, tree, var):
        assert _partial_outcome(differentiate, tree, var) == _partial_outcome(_naive_diff, tree, var)

    @pytest.mark.parametrize("source", [
        "abs(abs(u) + y)", "abs(x)*u + abs(y)", "sin(abs(v))*abs(u)", "u^abs(y)", "abs(u)^y",
        "u - u", "-0*u", "(u*0)^2", "exp(y)^u", "(u + 1)^(u*0)",
    ])
    def test_fixed_cases_equal_the_naive_rules(self, source):
        for var in "uyvz":
            assert _partial_outcome(differentiate, parse(source), var) == \
                _partial_outcome(_naive_diff, parse(source), var)

    @pytest.mark.parametrize("source", [
        "u" + " + u" * 99, "(" * 45 + "u" + "*y + 1)" * 45, "sin(" * 99 + "u*v" + ")" * 99])
    def test_each_node_is_met_once(self, source, monkeypatch):
        # and no node asks again which variables its subtree reads
        tree = parse(source)
        calls, real = [], expr_module._diff
        monkeypatch.setattr(expr_module, "_diff",
                            lambda node, var: calls.append(node) or real(node, var))
        monkeypatch.setattr(expr_module, "variables_in", None)
        for var in "uyvz":
            calls.clear()
            differentiate(tree, var)
            assert len(calls) == _node_count(tree)


# ---------------------------------------------------------------------------
# Evaluation at a fixed x, as the solver does it


def _outcome(fn, *args):
    """What a call gives, down to the bytes: its value, or its error message."""
    try:
        out = fn(*args)
    except ExprEvalError as err:
        return "error", str(err)
    return type(out), np.asarray(out).shape, np.asarray(out).tobytes()


def _at_x(tree, x):
    """tree as a function of (u, y, v, z), compiled as the solver compiles it:
    folded once with x known, a program the function keeps between calls and
    runs checked, as evaluate does."""
    program = expr_module._compile(tree, x)
    return lambda *env: expr_module._run_checked(program, (x,) + env)


def _assert_fixed_x_matches(tree, x, *envs):
    """Runs of the program folded with x, in order, equal fresh evaluations."""
    at = _at_x(tree, x)
    for env in envs + envs:  # the second round runs on filled x-only values
        assert _outcome(at, *env) == _outcome(evaluate, tree, x, *env)


XS = np.linspace(0.0, 1.0, 41)


def _profile(scale):
    """(u, y, v, z) samples with u > 0 inside, like a solver iterate."""
    bump = XS**2 * (1.0 - XS) ** 2
    return (scale * bump, scale * (2 * XS - 6 * XS**2 + 4 * XS**3),
            scale * (2 - 12 * XS + 12 * XS**2), scale * (-12 + 24 * XS))


SHIFTED_PROBLEMS = [
    "a = 0.5\nb = 1.6\nA1 = 1\nB1 = -0.5\nA2 = 0.3\nB2 = 2\n"
    "f = 12 + u*z/2 - y*v/4 + y/4 + 24 - (x^3 - 2*x + 1)*sin(x)\n",
    "a = -1\nb = 0.2\nA1 = 0.5\nB1 = 1.5\n"
    "f = u^2*sin(u) + sin(x) + 3*x^4 - x^2*exp(-x^2) + u*y - (x + 1)^3\n",
    "b = 1.07\nA1 = 1\nB1 = 1.2\nA2 = -0.1\nB2 = 0.05\n"
    "f = sqrt(u)*sin(exp(u)) + exp(-x^2) + 0.3*(x^2 - 1)^2 - sqrt(x + 4)\n",
]


def _mixed_trees():
    """An x-only subtree next to an arbitrary one, in either order."""
    return st.tuples(st.sampled_from("+-*/^"), _trees(2, "x"), _trees(2), st.booleans()).map(
        lambda t: BinOp(t[0], t[1], t[2]) if t[3] else BinOp(t[0], t[2], t[1]))


class TestFixedX:
    @pytest.mark.parametrize("ident", range(1, 7))
    def test_canonical_examples(self, ident):
        rhs = get_example(ident).canonical().rhs
        _assert_fixed_x_matches(rhs, XS, _profile(0.5), _profile(2.0))

    @pytest.mark.parametrize("text", SHIFTED_PROBLEMS)
    def test_shifted_interval_problems(self, text):
        # canonicalize substitutes P and the map to [0,1]: most of f is x-only
        rhs = canonicalize(parse_problem_text(text).raw).rhs
        _assert_fixed_x_matches(rhs, XS, _profile(0.5), _profile(-1.5), _profile(3.0))

    @pytest.mark.parametrize("source", ["sin(x)", "3", "x", "u"])
    def test_trees_with_nothing_or_everything_to_reuse(self, source):
        _assert_fixed_x_matches(parse(source), XS, _profile(0.5), _profile(2.0))

    def test_earlier_failure_still_wins(self):
        # at u = 0 log(u) fails first although sqrt(x - 2) fails everywhere;
        # once log(u) is defined, the x-only failure surfaces, call after call
        tree = parse("log(u) + sqrt(x - 2)")
        zero, one = (np.zeros_like(XS),) * 4, (np.ones_like(XS),) * 4
        _assert_fixed_x_matches(tree, XS, zero, one)
        at = _at_x(tree, XS)
        with pytest.raises(ExprEvalError, match="log of a non-positive"):
            at(*zero)
        with pytest.raises(ExprEvalError, match="sqrt of a negative"):
            at(*one)

    def test_x_only_subtrees_run_once(self, monkeypatch):
        calls = []
        real = np.sin
        monkeypatch.setitem(expr_module._UFUNCS, "sin",
                            lambda a: calls.append(1) or real(a))
        at = _at_x(parse("sin(x)*u + sin(u)"), XS)
        for scale in (0.5, 1.0, 2.0):
            at(*_profile(scale))
        assert len(calls) == 1 + 3  # sin(x) once, sin(u) on every call

    def test_reused_values_go_with_the_tree(self):
        # they go with the fold that keeps them, here held by at, with no
        # reference cycle holding them until the next garbage collection;
        # with f = sin(x) the value returned is the reused array itself
        gc.disable()
        try:
            tree = parse("sin(x)")
            at = _at_x(tree, XS)
            value = weakref.ref(at(*_profile(1.0)))
            assert value() is at(*_profile(2.0))
            del at, tree
            assert value() is None
        finally:
            gc.enable()

    @given(tree=st.one_of(_trees(), _mixed_trees(), _mixed_trees().map(Neg),
                          _mixed_trees().map(lambda t: Call("atan", t))))
    def test_random_trees(self, tree):
        _assert_fixed_x_matches(tree, XS[::5], tuple(a[::5] for a in _profile(0.7)),
                                tuple(a[::5] for a in _profile(-1.3)))


# ---------------------------------------------------------------------------
# The compiled program behind evaluate and the solver's fold at fixed x


def _count_sin(monkeypatch):
    calls = []
    real = np.sin
    monkeypatch.setitem(expr_module._UFUNCS, "sin", lambda a: calls.append(1) or real(a))
    return calls


# (source, message) of failures on the 5-D lattice of DomainBox(1.0) with
# five points per axis; the first five are the cases of
# tests/test_analysis.py's bad-point test, whose sample indices they repeat
LATTICE_FAILURES = [
    ("log(2.9 - x - 384*u - v)",
     "log of a non-positive value in 'log(2.9 - x - 384*u - v)': "
     "argument -0.10000000000000009 at sample (4, 4, 0, 4, 0)"),
    ("sqrt(2.6 - x - 384*u - v + 0.5*z)",
     "sqrt of a negative value in 'sqrt(2.6 - x - 384*u - v + 0.5*z)': "
     "argument -0.1499999999999999 at sample (1, 4, 0, 4, 0)"),
    ("log(2.4 - x - 125*y - 384*u - 0.05*z)",
     "log of a non-positive value in 'log(2.4 - x - 125*y - 384*u - 0.05*z)': "
     "argument -0.052344217343100394 at sample (2, 4, 4, 0, 0)"),
    ("sqrt(v - 0.3*z + x + 1.2)",
     "sqrt of a negative value in 'sqrt(v - 0.3*z + x + 1.2)': "
     "argument -0.10000000000000009 at sample (0, 0, 0, 0, 4)"),
    ("log(y + 0.01 - u)",
     "log of a non-positive value in 'log(y + 0.01 - u)': "
     "argument -0.0006229204054114695 at sample (0, 4, 0, 0, 0)"),
    ("u^-2 + x",
     "zero base with negative exponent in 'u^-2': argument 0.0 at sample (0, 2, 0, 0, 0)"),
    ("(v - 0.5)^0.5",
     "power with non-integer exponent needs a positive base in '(v - 0.5)^0.5': "
     "argument -1.5 at sample (0, 0, 0, 0, 0)"),
    ("asin(2*v)",
     "asin argument outside [-1,1] in 'asin(2*v)': argument -2.0 at sample (0, 0, 0, 0, 0)"),
    ("exp(800*z)",
     "non-finite result from 'exp(800*z)': argument 800.0 at sample (0, 0, 0, 0, 4)"),
]


def _walk(node, env):
    """Reference semantics: a direct left-to-right post-order walk of the tree."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_walk(node.operand, env)
    if isinstance(node, Call):
        return expr_module._call(_walk(node.arg, env), None, node)
    left = _walk(node.left, env)
    if node.op == "^":
        k = expr_module._int_literal_exponent(node.right)
        if k is not None:
            return expr_module._repeated_power(left, k, node)
    return expr_module._BINARY[node.op](left, _walk(node.right, env), node)


def _walk_evaluate(tree, *args):
    with np.errstate(over="ignore", invalid="ignore"):
        out = _walk(tree, dict(zip("xuyvz", args)))
    return expr_module._result(out, tree)


def _shared_trees():
    """Trees in which one subtree object stands for every u."""
    return st.tuples(_trees(2), _trees(2)).map(lambda t: substitute(t[0], {"u": t[1]}))


def _literal_trees():
    """Trees with literal-only subtrees, which the compiler folds."""
    return st.tuples(_trees(2), st.sampled_from("xuyvz"), _trees(1)).map(
        lambda t: BinOp("+", substitute(t[0], {t[1]: Num(0.5)}), t[2]))


def _colliding_trees():
    """Near-equal siblings over one subtree: what sharing and folding must keep apart."""
    leaf = st.sampled_from([Num(0.0), Num(-0.0), Num(2.0), Var("x"), Var("u")])
    sub = st.one_of(leaf, st.tuples(st.sampled_from("+-*/^"), leaf, leaf).map(lambda t: BinOp(*t)))
    side = st.one_of(
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "log"]), sub).map(lambda t: Call(*t)),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: BinOp(*t)))
    return st.tuples(st.sampled_from("+-*/"), side, side).map(lambda t: BinOp(*t))


class TestCompiledProgram:
    def test_shared_subtree_runs_once(self, monkeypatch):
        calls = _count_sin(monkeypatch)
        tree = parse("sin(u + x^2)*(u + x^2) + sin(u + x^2)")
        profile = _profile(0.5)
        w = profile[0] + XS * XS
        expect = (np.sin(w) * w + np.sin(w)).tobytes()
        assert evaluate(tree, XS, *profile).tobytes() == expect
        assert len(calls) == 1
        at = _at_x(tree, XS)
        for _ in range(3):
            assert at(*profile).tobytes() == expect
        assert len(calls) == 1 + 3

    @pytest.mark.parametrize("source", [
        "sin(u) + cos(u)",            # same argument, different functions
        "u*0*(u*-0)",                 # literals equal under == but not in sign
        "u^2 + u^2.5 + u^(1 + 1)",    # integer and real powers of one base
        "u/0 + 1", "2^u - (0 - 2)^u", "log(u - u) + sqrt(0 - 1)",
    ])
    def test_near_equal_subtrees_stay_apart(self, source):
        tree = parse(source)
        for env in ((0.3, 1.0, 0.5, 0.2, 0.1), (XS,) + _profile(2.0)):
            assert _outcome(evaluate, tree, *env) == _outcome(_walk_evaluate, tree, *env)

    @settings(max_examples=300)
    @given(tree=st.one_of(_trees(), _shared_trees(), _literal_trees(), _colliding_trees()))
    def test_matches_a_direct_tree_walk(self, tree):
        lattice = _lattice_env(DomainBox(1.0), LatticeSpec(points=5))
        for env in (POINT, (XS[::5],) + tuple(a[::5] for a in _profile(-1.3)),
                    tuple(lattice[name] for name in "xuyvz")):
            assert _outcome(evaluate, tree, *env) == _outcome(_walk_evaluate, tree, *env)

    def test_a_subtree_held_twice_is_walked_once(self, monkeypatch):
        shared = parse("sin(u + x^2)")
        tree = BinOp("+", shared, BinOp("*", shared, Var("y")))
        walked, real = [], expr_module._Compiler.walk
        monkeypatch.setattr(expr_module._Compiler, "walk",
                            lambda self, node: walked.append(node) or real(self, node))
        program = expr_module._Compiler(tree).program()
        assert len(walked) == 5  # +, sin, u + x^2, x^2 and *, each once
        copy = parse(to_source(tree))  # the same tree with no subtree held twice
        assert copy == tree and copy.left is not copy.right.left
        assert repr(expr_module._Compiler(copy).program()) == repr(program)

    def test_equal_subtrees_share_one_instruction(self):
        # u + P(x) of a shifted problem appears once per occurrence of u in F
        program = expr_module._compile(parse("(u + x^2)^2 + sin(u + x^2) + (u + x^2)/2"))
        ops = [ins[0] for ins in program.code]
        assert ops.count(expr_module._plus) == 3  # u + x^2 once, then the two sums
        assert ops.count(expr_module._repeated_power) == 2  # x^2 and (u + x^2)^2

    @pytest.mark.parametrize("source, message", LATTICE_FAILURES)
    def test_lattice_failures_keep_sample_and_message(self, source, message):
        env = _lattice_env(DomainBox(1.0), LatticeSpec(points=5))
        with pytest.raises(ExprEvalError) as info:
            evaluate(parse(source), *(env[name] for name in "xuyvz"))
        assert str(info.value) == message

    OPS = {expr_module._plus, expr_module._minus, expr_module._times, expr_module._checked_quotient,
           expr_module._checked_power, expr_module._repeated_power, expr_module._call,
           expr_module._negate, expr_module._fail}

    @settings(max_examples=300)
    @given(tree=st.one_of(_trees(), _shared_trees(), _literal_trees()))
    @example(tree=parse("x + u + -exp(1e308)"))  # a failing constant ahead of the result
    @example(tree=parse("y/4 + 2^u + u/(3 - 1)"))  # checked ops on a known divisor and base
    def test_programs_hold_only_the_compilers_ops(self, tree):
        # the fold runs what it knows and turns a failure into _fail in place;
        # the code after it stays, so each slot is known or written before it
        # is read, and every run either raises or writes its result
        for program, envs in ((expr_module._compile(tree), (POINT, (XS,) + _profile(0.5))),
                              (expr_module._compile(tree, XS), ((XS,) + _profile(0.5),))):
            assert {ins[0] for ins in program.code} <= self.OPS
            written = {s for s, v in enumerate(program.template) if v is not None}
            written.update(range(len(expr_module.VARIABLES)))
            for _, out, a, b, *_ in program.code:
                assert a in written and b in written
                written.add(out)
            assert program.result in written
            for env in envs:
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        out = expr_module._exec(program, env, {})
                except ExprEvalError:
                    continue
                assert out is not None
        assert evaluate(parse("y/4 + 2^u"), 0, 1.0, 2.0, 0, 0) == 2.5

    @pytest.mark.parametrize("source, env, message", [
        ("u/0", (0, 1.0, 0, 0, 0), "division by zero in 'u/0': argument 0.0"),
        ("u/(1 - 1)", (0, 1.0, 0, 0, 0), "division by zero in 'u/(1 - 1)': argument 0.0"),
        ("(0 - 2)^u", (0, 1.0, 0, 0, 0),
         "power with non-integer exponent needs a positive base in '(0 - 2)^u': argument -2.0"),
        ("u + sqrt(0 - 1)", (0, 1.0, 0, 0, 0),
         "sqrt of a negative value in 'sqrt(0 - 1)': argument -1.0"),
        # a failing constant raises only where the walk reaches it
        ("log(u) + u/0", (0, 0.0, 0, 0, 0), "log of a non-positive value in 'log(u)': argument 0.0"),
        ("log(u) + sqrt(0 - 1)", (0, 0.0, 0, 0, 0),
         "log of a non-positive value in 'log(u)': argument 0.0"),
    ])
    def test_constant_failures_raise_in_walk_order(self, source, env, message):
        tree = parse(source)
        for _ in range(2):
            with pytest.raises(ExprEvalError) as info:
                evaluate(tree, *env)
            assert str(info.value) == message

    @pytest.mark.parametrize("source, message", [
        ("u/(x - x)", "division by zero in 'u/(x - x)': argument 0.0 at sample 0"),
        ("(x - 1)^0.5 + u", "power with non-integer exponent needs a positive base in "
                            "'(x - 1)^0.5': argument -1.0 at sample 0"),
    ])
    def test_failures_on_a_known_x_raise_where_the_run_reaches_them(self, source, message):
        # folded at x, the check runs in every run, flagged or checked
        x = np.linspace(0.0, 1.0, 5)
        program = expr_module._compile(parse(source), x)
        for run in (expr_module._run_checked, expr_module._run):
            with pytest.raises(ExprEvalError) as info:
                run(program, (x, x + 0.5, x, x, x))
            assert str(info.value) == message

    def test_each_caller_compiles_what_it_runs(self, monkeypatch):
        # evaluate compiles on each call; a caller that runs a tree many
        # times compiles it once and owns the program, and the tree keeps
        # nothing of either
        compiled = []
        real = expr_module._Compiler
        monkeypatch.setattr(expr_module, "_Compiler", lambda root: compiled.append(root) or real(root))
        tree = parse("sqrt(u)/(x + 1) + 1")
        evaluate(tree, 1.0, 4.0, 0, 0, 0)
        evaluate(tree, 2.0, 4.0, 0, 0, 0)
        at = _at_x(tree, XS)
        for _ in range(3):
            at(*_profile(1.0))
        assert len(compiled) == 3 and all(root is tree for root in compiled)
        program = expr_module._compile(tree)
        assert program.root is tree and program.code[-1][4] is tree  # the root names itself
        fields = {field.name for field in dataclasses.fields(tree)}
        assert set(vars(tree)) == fields
        copy = pickle.loads(pickle.dumps(tree))
        assert copy == tree and set(vars(copy)) == fields

    @pytest.mark.parametrize("source, fragment", [
        ("1/u", "division by zero in '1/u'"),
        ("sqrt(0 - 1)", "sqrt of a negative value in 'sqrt(0 - 1)'"),  # failure at compile time
    ])
    def test_program_does_not_keep_its_root_alive(self, source, fragment):
        # the program evaluate compiles holds the root, and goes with the call
        gc.disable()
        try:
            tree = parse(source)
            with pytest.raises(ExprEvalError, match=re.escape(fragment)):
                evaluate(tree, 0, 0.0, 0, 0, 0)
            root = weakref.ref(tree)
            del tree
            assert root() is None
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# What the fold keeps and frees


def _peak_arrays(fn, size):
    """fn's peak allocation, counted in arrays of size bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / size
    finally:
        tracemalloc.stop()


class TestFold:
    @pytest.mark.parametrize("source", [
        get_example(1).rhs_text,     # x is not read
        "12 + u*z/2 - y*v/4 + x",
    ])
    def test_a_solve_compiles_and_folds_once_at_its_nodes(self, source, monkeypatch):
        # a solve compiles f and folds it at its grid's nodes once, in its
        # workspace, whether or not f reads x; the report's residual runs that
        # program, and the next solve compiles anew
        problem = canonicalize(parse_problem_text(f"f = {source}\n").raw)
        compiled, folded_at = [], []
        real_compiler, real_fold = expr_module._Compiler, expr_module._fold
        monkeypatch.setattr(expr_module, "_Compiler",
                            lambda root: compiled.append(root) or real_compiler(root))
        monkeypatch.setattr(expr_module, "_fold",
                            lambda program, x=None: folded_at.append(x) or real_fold(program, x))
        for solves in (1, 2):
            report = solve(problem, SolverConfig(n=32))
            assert report.converged
            assert len(compiled) == len(folded_at) == solves
            assert compiled[-1] is problem.rhs and folded_at[-1] is report.grid.nodes

    @pytest.mark.parametrize("source", [
        "sin(x)*u + sin(x)^2",   # a kept reader, then a folded one
        "sin(x)^2 + sin(x)*u",   # a folded reader, then a kept one
        "u/sin(x + 1) + sin(x + 1)^2 - sin(x + 1)",
    ])
    def test_a_value_kept_instructions_read_stays(self, source):
        _assert_fixed_x_matches(parse(source), XS, _profile(0.5), _profile(2.0))

    def test_values_are_freed_after_their_last_reader(self):
        # a chain of 20 calls holds about two arrays at a time: the argument
        # and the result of the call that runs
        xs = np.linspace(0.0, 1.0, 10**6)
        u = xs + 0.5

        def chain(var):
            return parse("abs(" * 20 + var + ")" * 20)

        assert _peak_arrays(lambda: evaluate(chain("u"), xs, u, 0, 0, 0), xs.nbytes) < 2.5
        assert _peak_arrays(lambda: _at_x(chain("x"), xs), xs.nbytes) < 2.5
        at = _at_x(chain("u"), xs)
        for _ in range(2):  # the first call and a later one
            assert _peak_arrays(lambda: at(u, 0, 0, 0), xs.nbytes) < 2.5


# ---------------------------------------------------------------------------
# The nesting limit


# sources nested exactly d deep, one kind of nesting each: d open
# parentheses, or d levels of the tree
NESTINGS = {
    "parentheses": lambda d: "(" * d + "u" + ")" * d + " + 1",
    "operators": lambda d: " + ".join(["u/100"] * d),
    "calls": lambda d: "sin(" * (d - 1) + "u" + ")" * (d - 1) + " + 1",
    "minus": lambda d: "-" * (d - 1) + "u + 1",
    "powers": lambda d: "1^" * (d - 1) + "u + 1",
    # each level is a power and a negated exponent, u^-(...)
    "negated powers": lambda d: "1^-" * ((d - 1) // 2) + "-" * ((d - 1) % 2) + "u + 1",
}


class TestNestingLimit:
    @pytest.mark.parametrize("nest", NESTINGS.values(), ids=list(NESTINGS))
    def test_parse_accepts_the_limit_and_rejects_past_it(self, nest):
        tree = parse(nest(expr_module.MAX_DEPTH))
        assert parse(to_source(tree)) == tree
        with pytest.raises(ExprSyntaxError, match=r"nested deeper than 100 levels \(column \d+"):
            parse(nest(expr_module.MAX_DEPTH + 1))

    @pytest.mark.parametrize("nest", NESTINGS.values(), ids=list(NESTINGS))
    def test_deepest_input_runs_through(self, nest):
        # the shift of the interval and the boundary data makes f deeper still
        text = SHIFTED_PROBLEMS[0].split("f =")[0] + f"f = {nest(expr_module.MAX_DEPTH)}\n"
        problem = canonicalize(parse_problem_text(text).raw)
        for var in "uyvz":
            differentiate(problem.rhs, var)
        to_source(problem.rhs)
        assert pickle.loads(pickle.dumps(problem)) == problem
        report = check_conditions(problem.rhs, 1.0, lattice=LatticeSpec(points=5))
        assert all(map(math.isfinite, (report.sup_f,) + report.ks))
        assert solve(problem, SolverConfig(n=32)).converged

    @pytest.mark.parametrize("nest", NESTINGS.values(), ids=list(NESTINGS))
    def test_deeper_input_is_an_input_error(self, nest, tmp_path, capsys):
        path = tmp_path / "problem.txt"
        path.write_text(f"f = {nest(expr_module.MAX_DEPTH + 1)}\n", encoding="utf-8")
        assert main(["solve", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested deeper than" in err
