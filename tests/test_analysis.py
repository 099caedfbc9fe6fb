"""Certification checks: the box, the two conditions, the error envelope.

Lattice suprema are sampled lower bounds of the true suprema.  For
right-hand sides whose partials are attained at box corners (every
registry example except the mixed one, whose sin factor peaks strictly
inside an axis) the estimate can be compared against hand-derived
constants; for the rest we only require a certificate, not tightness.
"""

import itertools
import math
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import clampbeam.expr as expr_module
import clampbeam.solver as solver_module
from clampbeam import analysis
from clampbeam.analysis import (
    ConditionReport,
    DomainBox,
    DomainSamplingError,
    LatticeSpec,
    _lattice_env,
    apriori_bound,
    check_conditions,
    contraction_factor,
    solution_error_bounds,
)
from clampbeam.examples import get_example
from clampbeam.expr import (
    BinOp, Call, ExprDerivativeError, ExprEvalError, Neg, Num, Var, _compile, _run_checked,
    differentiate, evaluate, parse, substitute, variables_in,
)
from clampbeam.problem import canonicalize, parse_problem_text
from clampbeam.kernels import KERNEL_BOUNDS

ROOT3 = math.sqrt(3.0)


def _bits(*values):
    """The bytes of values as doubles, so that 0.0 and -0.0 differ."""
    return struct.pack(f"<{len(values)}d", *values)


class TestDomainBox:
    @staticmethod
    def _expected_half_widths(M):
        scales = (KERNEL_BOUNDS.fourth_order, KERNEL_BOUNDS.fourth_order_dx, 1.0, 1.0)
        return tuple((-M * c, M * c) for c in scales)

    def test_unit_box_matches_kernel_bounds(self):
        ivs = DomainBox(1.0).axis_intervals()[1:]
        assert _bits(*sum(ivs, ())) == _bits(*sum(self._expected_half_widths(1.0), ()))

    def test_scaling(self):
        ivs = DomainBox(36.0).axis_intervals()[1:]
        assert _bits(*sum(ivs, ())) == _bits(*sum(self._expected_half_widths(36.0), ()))

    def test_axis_intervals(self):
        box = DomainBox(5.0)
        ivs = box.axis_intervals()
        assert ivs[0] == (0.0, 1.0)
        for lo, hi in ivs[1:]:
            assert lo == -hi and hi > 0
        assert ivs[3] == (-5.0, 5.0) and ivs[4] == (-5.0, 5.0)

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf"),
                                     "1e-3", None, 1j, True])
    def test_validation(self, bad):
        # True is no M = 1, and a string, None or a complex number no M at all
        with pytest.raises(ValueError) as info:
            DomainBox(bad)
        assert str(info.value) == f"M must be a positive finite number, got {bad!r}"


    def test_m_whose_box_width_overflows_is_rejected(self):
        with pytest.raises(ValueError) as info:
            DomainBox(1e308)
        assert str(info.value) == "M must be at most 8.988465674311579e+307, got 1e+308"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_m_keeps_a_finite_box(self):
        report = check_conditions(parse("v"), 8.9e307)
        assert report.sup_f == 8.9e307 and report.ks == (0.0, 0.0, 1.0, 0.0)


class TestLatticeSpec:
    def test_default(self):
        assert LatticeSpec().points == 9

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            LatticeSpec(points=4)

    def test_non_integer(self):
        with pytest.raises(ValueError, match="must be an integer"):
            LatticeSpec(points=5.5)
        with pytest.raises(ValueError, match="must be an integer, got True"):
            LatticeSpec(points=True)


class TestContractionFactor:
    def test_formula(self):
        q = contraction_factor(384.0, 0.0, 0.0, 0.0)
        assert q == pytest.approx(1.0)
        q = contraction_factor(0.0, 72.0 * ROOT3, 0.0, 0.0)
        assert q == pytest.approx(1.0)
        assert contraction_factor(0.0, 0.0, 0.3, 0.1) == pytest.approx(0.4)
        assert contraction_factor(0.0, 0.0, 0.0, 0.0) == 0.0

    # q from the hand-derived constants shipped with the registry
    @pytest.mark.parametrize("ident, q_expected", [
        (1, 0.24009225573209264),
        (2, 0.04862114873455215),
        (3, 0.00797589619954427),
        (4, 0.0052490234375),
        (6, 0.26822916666666663),
    ])
    def test_registry_constants(self, ident, q_expected):
        ex = get_example(ident)
        assert contraction_factor(*ex.ks) == pytest.approx(q_expected, rel=1e-12)

    @pytest.mark.parametrize("bad", [
        (-1.0, 0, 0, 0), (0, float("nan"), 0, 0), (0, 0, float("inf"), 0),
        ("1", 0, 0, 0), (None, 0, 0, 0), (True, 0, 0, 0), (0, 0, 0, False),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError, match="Lipschitz constants"):
            contraction_factor(*bad)


def _first_failure(expression, points):
    """Brute-force oracle: (index, point, error) of the first of points, pairs
    of an index and a point of numpy scalars, at which the checked run of
    expression, compiled ahead, fails; None when it fails at none."""
    program = _compile(expression)
    for idx, point in points:
        try:
            _run_checked(program, point)
        except ExprEvalError as err:
            return idx, point, err
    return None


def _first_undefined(expression, env):
    """(index, point, error) of the first undefined point of the lattice env
    in C order, each point evaluated on its own; None when all are defined."""
    axes = [np.ravel(env[name]) for name in ("x", "u", "y", "v", "z")]
    return _first_failure(expression, ((idx, tuple(a[i] for a, i in zip(axes, idx)))
                                       for idx in itertools.product(*(range(a.size) for a in axes))))


class TestCheckConditions:
    def test_supplied_constants_certify_examples(self):
        for ident in (1, 2, 3, 4, 6):
            ex = get_example(ident)
            rep = check_conditions(parse(ex.rhs_text), ex.M, ks=ex.ks)
            assert rep.ks_supplied
            assert rep.fd_fallback == ()
            assert rep.bounded and rep.contractive and rep.certified

    def test_sup_f_brackets_known_value(self):
        # the benchmark rhs has f(0,0,0,0,0) = 12; bilinear growth over the
        # box tops out at the corners, well under M/2 = 18
        ex = get_example(1)
        rep = check_conditions(parse(ex.rhs_text), ex.M, ks=ex.ks)
        assert rep.sup_f == pytest.approx(16.35774499500202, rel=1e-12)
        assert 12.0 <= rep.sup_f <= rep.M / 2.0 == 18.0

    def test_estimates_below_hand_constants_at_corners(self):
        # partials of these right-hand sides are maximized at box corners,
        # so the sampled estimate cannot exceed the hand bound
        for ident in (1, 3, 4, 6):
            ex = get_example(ident)
            est = check_conditions(parse(ex.rhs_text), ex.M)
            assert not est.ks_supplied
            assert est.q <= contraction_factor(*ex.ks) + 1e-12
            assert est.certified

    def test_estimate_certifies_mixed_example(self):
        ex = get_example(2)
        est = check_conditions(parse(ex.rhs_text), ex.M)
        assert est.certified

    def test_affine_partials_estimated_exactly(self):
        # for the benchmark rhs each partial is affine, so the lattice
        # (which contains the corners) attains the true supremum
        ex = get_example(1)
        est = check_conditions(parse(ex.rhs_text), ex.M)
        sup = check_conditions(parse(ex.rhs_text), ex.M, ks=ex.ks)
        assert est.q == pytest.approx(sup.q, rel=1e-12)

    def test_nested_lattice_refinement_is_monotone(self):
        # 17 = 2*9 - 1 points contain the 9-point lattice, so suprema grow
        for ident in (1, 2, 3):
            ex = get_example(ident)
            coarse = check_conditions(parse(ex.rhs_text), ex.M,
                                      lattice=LatticeSpec(points=9))
            fine = check_conditions(parse(ex.rhs_text), ex.M,
                                    lattice=LatticeSpec(points=17))
            assert fine.sup_f >= coarse.sup_f - 1e-12
            assert fine.q >= coarse.q - 1e-12
            assert fine.lattice_points == 17

    def test_fd_fallback_only_where_needed(self):
        rep = check_conditions(parse("abs(u) + y"), 4.0)
        assert rep.fd_fallback == ("u",)
        assert rep.ks[0] == pytest.approx(1.0, rel=1e-5)
        assert rep.ks[1] == 1.0
        assert rep.ks[2] == 0.0 and rep.ks[3] == 0.0

    def test_undefined_inside_box(self):
        ex = get_example(5)
        with pytest.raises(DomainSamplingError) as info:
            check_conditions(parse(ex.rhs_text), ex.M)
        point = info.value.point
        assert point[0] == 0.0
        assert point[1] == pytest.approx(-ex.M / 384.0, rel=1e-12)
        assert point[3] == -5.0 and point[4] == -5.0
        assert "sqrt of a negative" in str(info.value)
        assert "u=-0.0130208333" in str(info.value)

    def test_fd_probe_leaving_the_domain_below_names_the_point(self):
        # the box is fine (v + 4 >= 0 on v in [-4, 4]) but the lower
        # finite-difference probe of v is not; the point is the lattice's
        with pytest.raises(DomainSamplingError) as info:
            check_conditions(parse("abs(v) + sqrt(v + 4)"), 4.0)
        assert info.value.point == (0.0, -4.0 / 384.0, -4.0 / (72.0 * ROOT3), -4.0, -4.0)
        assert str(info.value).startswith(
            "finite-difference probe left the domain of f: sqrt of a negative value in "
            "'sqrt(v - 8e-06 + 4)': ")
        assert str(info.value).endswith("v=-4, z=-4)")

    @pytest.mark.parametrize("scale", ["1e308", "1e300"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_fd_probe_names_the_point(self, scale):
        # the probes' difference overflows at u = 0 (1e308), or only its
        # quotient by 2*delta does (1e300)
        with pytest.raises(DomainSamplingError) as info:
            check_conditions(parse(f"abs(u) + {scale}*atan(1e20*u)"), 1.0)
        assert str(info.value).startswith(
            "finite-difference probe left the domain of f: non-finite result from ")
        assert info.value.point == (0.0, 0.0, -1.0 / (72.0 * ROOT3), -1.0, -1.0)

    def test_failing_partial_names_itself(self):
        # f is finite on the whole box; only df/du = 1e308*v overflows
        rhs = parse("1e308*u*v + 1e308*y")
        env = _lattice_env(DomainBox(4.0), LatticeSpec())
        assert math.isfinite(analysis._sup_on_lattice(rhs, env))
        with pytest.raises(DomainSamplingError) as info:
            check_conditions(rhs, 4.0)
        assert str(info.value).startswith(
            "partial derivative df/du undefined inside the box: "
            "non-finite result from '1e+308*v' at (x=0, u=-0.0104166667, ")
        assert info.value.point == (0.0, -4.0 / 384.0, -4.0 / (72.0 * ROOT3), -4.0, -4.0)

    @pytest.mark.parametrize("text, index", [
        ("log(2.9 - x - 384*u - v)", (4, 4, 0, 4, 0)),
        ("sqrt(2.6 - x - 384*u - v + 0.5*z)", (1, 4, 0, 4, 0)),
        ("log(2.4 - x - 125*y - 384*u - 0.05*z)", (2, 4, 4, 0, 0)),
        ("sqrt(v - 0.3*z + x + 1.2)", (0, 0, 0, 0, 4)),
        ("log(y + 0.01 - u)", (0, 4, 0, 0, 0)),
    ])
    def test_bad_point_is_first_in_lattice_order(self, text, index):
        expression = parse(text)
        env = _lattice_env(DomainBox(1.0), LatticeSpec(points=5))
        idx, point, error = _first_undefined(expression, env)
        assert idx == index
        with pytest.raises(DomainSamplingError) as info:
            analysis._sup_on_lattice(expression, env, "undefined")
        labels = ", ".join(f"{n}={p:.9g}" for n, p in zip("xuyvz", point))
        assert info.value.point == point and str(info.value) == f"undefined: {error} at ({labels})"

    @pytest.mark.parametrize("ks", [(1.0, 2.0, 3.0), (1,) * 5, (-0.1, 0, 0, 0),
                                    (0, float("nan"), 0, 0), "1234",
                                    (True, False, "0.5", 0), (1, 0, 0, True), 4.0])
    def test_ks_validation(self, ks, monkeypatch):
        # bad constants are rejected before any of the lattice is evaluated
        calls = []
        monkeypatch.setattr(analysis, "_run", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            check_conditions(parse("u"), 1.0, ks=ks)
        assert calls == []

    @pytest.mark.parametrize("lattice", [9, None, "17", (17,)])
    def test_lattice_validation(self, lattice, monkeypatch):
        # a lattice that is not a LatticeSpec is rejected before any evaluation
        calls = []
        monkeypatch.setattr(analysis, "_run", lambda *args: calls.append(args))
        with pytest.raises(ValueError) as info:
            check_conditions(parse("u"), 1.0, None, lattice)
        assert str(info.value) == f"lattice must be a LatticeSpec, got {lattice!r}"
        assert calls == []


def _outcome(rhs, M, ks, points):
    """A check's report, or its error's type, message and point."""
    try:
        return check_conditions(rhs, M, ks, LatticeSpec(points=points))
    except DomainSamplingError as err:
        return type(err), str(err), err.point


def _failure_message(rhs, what, point):
    """The message of a check that finds rhs undefined at point: the scalar error there."""
    with pytest.raises(ExprEvalError) as info:
        evaluate(rhs, *point)
    labels = ", ".join(f"{n}={p:.9g}" for n, p in zip("xuyvz", point))
    return f"{what}: {info.value} at ({labels})"


def _unblocked(monkeypatch, rhs, M, ks, points):
    """_outcome with the whole lattice evaluated at once."""
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_BLOCK", 2 ** 62)
        return _outcome(rhs, M, ks, points)


def _probe(rhs, var, delta):
    """The centered finite-difference probe of rhs in var, as the check builds it."""
    shifted = [substitute(rhs, {var: BinOp(op, Var(var), Num(delta))}) for op in "+-"]
    return BinOp("/", BinOp("-", *shifted), Num(2.0 * delta))


class TestBlocks:
    """The lattice is evaluated in slabs; results equal one evaluation of it all."""

    @pytest.mark.parametrize("points", [9, 17, 25])
    @pytest.mark.parametrize("supplied", [True, False])
    @pytest.mark.parametrize("ident", range(1, 7))
    def test_examples_match_unblocked(self, ident, supplied, points, monkeypatch):
        ex = get_example(ident)
        rhs = ex.canonical().rhs
        ks = (ex.ks or (1.0, 1.0, 1.0, 1.0)) if supplied else None
        blocked = _outcome(rhs, ex.M, ks, points)
        assert blocked == _unblocked(monkeypatch, rhs, ex.M, ks, points)

    @pytest.mark.parametrize("text, M, fd", [
        ("abs(u - 0.3*v)*y*z + exp(-x^2)", 4.0, ("u", "v")),  # finite differences
        ("sin(x)*u*y*v*z", 1.0, ()),                         # a transcendental on a cut axis
    ])
    def test_five_variable_right_sides_match_unblocked(self, text, M, fd, monkeypatch):
        rhs = parse(text)
        env = _lattice_env(DomainBox(M), LatticeSpec(points=17))
        assert len(analysis._blocks(_compile(rhs).reads, env)) > 1
        blocked = _outcome(rhs, M, None, 17)
        assert blocked.fd_fallback == fd
        assert blocked == _unblocked(monkeypatch, rhs, M, None, 17)

    @pytest.mark.parametrize("text, M, x, what, probe", [
        # only the last slab fails
        ("sqrt(0.95 - x + u*y*v*z)", 1.0, 1.0, "right-hand side undefined inside the box", None),
        # the finite-difference probe in v fails
        ("abs(v) + sqrt(v + 4)*x*u*y*z", 4.0, 0.0, "finite-difference probe left the domain of f",
         ("v", 8e-6)),
    ])
    def test_failure_in_a_slab_names_the_lattice_point(self, text, M, x, what, probe, monkeypatch):
        rhs = parse(text)
        blocked = _outcome(rhs, M, None, 17)
        assert blocked == _unblocked(monkeypatch, rhs, M, None, 17)
        kind, message, point = blocked
        assert kind is DomainSamplingError and point[0] == x
        # the error is that of the point alone, not of the slab or lattice
        failing = rhs if probe is None else _probe(rhs, *probe)
        assert message == _failure_message(failing, what, point)

    def test_slabs_cover_the_lattice_in_order(self):
        rhs = parse("x*u*y*v*z")
        env = _lattice_env(DomainBox(1.0), LatticeSpec(points=17))
        slabs = analysis._blocks(_compile(rhs).reads, env)
        assert len(slabs) > 1
        sizes = [evaluate(rhs, *analysis._slab_args(env, slab)).size for slab in slabs]
        assert max(sizes) <= analysis._BLOCK and sum(sizes) == 17 ** 5
        starts = [tuple(cut.start or 0 for cut in slab) for slab in slabs]
        assert starts == sorted(starts) and len(set(starts)) == len(starts)

    @pytest.mark.parametrize("ident, points, direct", [(1, 9, True), (2, 17, False)])
    def test_a_program_that_fits_runs_once_on_the_whole_lattice(self, ident, points, direct, monkeypatch):
        # example 1's f and partials fit one slab at lattice 9: each runs
        # once, reduced directly; example 2's f reads all five axes, and the
        # range pass folds its leaves over their slabs
        calls = {"_blocks": [], "_slab_extremes": []}
        for name, record in calls.items():
            real = getattr(analysis, name)
            monkeypatch.setattr(analysis, name, lambda *args, real=real, record=record:
                                record.append(1) or real(*args))
        compiled, runs, real_compiler, run = [], [], expr_module._Compiler, analysis._run
        monkeypatch.setattr(expr_module, "_Compiler", lambda root: compiled.append(root) or real_compiler(root))
        monkeypatch.setattr(analysis, "_run", lambda program, values:
                            runs.append(program.root) or run(program, values))
        ex = get_example(ident)
        assert check_conditions(ex.canonical().rhs, ex.M, None, LatticeSpec(points)).certified
        assert bool(calls["_blocks"]) is bool(calls["_slab_extremes"]) is not direct
        if direct:
            assert len(compiled) == 5 and list(map(id, runs)) == list(map(id, compiled))

    @pytest.mark.parametrize("text", ["u*z", "3"])
    def test_a_lattice_that_fits_is_one_slab(self, text):
        env = _lattice_env(DomainBox(1.0), LatticeSpec(points=25))
        assert analysis._blocks(_compile(parse(text)).reads, env) == [None]

    @pytest.mark.parametrize("points", [17, 25])
    def test_memory_does_not_grow_with_the_lattice(self, points):
        # example 2 reads all five variables: one evaluation of the whole
        # lattice holds 11 MB arrays at 17 points and 78 MB ones at 25, a
        # slab at most 512 KiB ones
        ex = get_example(2)
        rhs = ex.canonical().rhs
        tracemalloc.start()
        try:
            check_conditions(rhs, ex.M, lattice=LatticeSpec(points=points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("points", [5, 9])
    @given(parts=st.lists(st.sampled_from([
        "abs(u - 0.3*v)", "abs(y)*z", "exp(-x^2)", "u*v", "sin(y*z)", "abs(x - u*384)*v",
        "z^3", "atan(y*72)", "abs(v*z - 1)", "-2.5", "1e300*u"]), min_size=1, max_size=4),
        ops=st.lists(st.sampled_from("+-*"), min_size=3, max_size=3),
        M=st.sampled_from([1.0, 4.0, 384.0]))
    @settings(max_examples=60, deadline=None)
    def test_fd_estimate_equals_the_difference_of_two_probes(self, points, parts, ops, M):
        # K of a finite-difference variable is max|f(plus) - f(minus)| / (2 delta)
        # on the whole lattice, bit for bit
        text = "abs(u - v) + " + parts[0]
        for op, part in zip(ops, parts[1:]):
            text = f"({text}) {op} {part}"
        rhs = parse(text)
        box = DomainBox(M)
        env = _lattice_env(box, LatticeSpec(points=points))
        try:
            report = check_conditions(rhs, M, lattice=LatticeSpec(points=points))
        except DomainSamplingError:
            report = None
        assume(report is not None)
        assert report.fd_fallback
        intervals = dict(zip("xuyvz", box.axis_intervals()))
        for var in report.fd_fallback:
            lo, hi = intervals[var]
            delta = 1e-6 * (hi - lo)
            plus, minus = dict(env), dict(env)
            plus[var], minus[var] = env[var] + delta, env[var] - delta
            diff = evaluate(rhs, *analysis._slab_args(plus, None)) \
                - evaluate(rhs, *analysis._slab_args(minus, None))
            expected = max(0.0, float(np.max(np.abs(diff)))) / (2.0 * delta)
            assert report.ks["uyvz".index(var)] == expected

    def test_fd_check_keeps_the_slab_memory_bound(self):
        # both probes of the whole 25^5 lattice would hold 78 MB arrays
        rhs = parse("abs(u - 0.3*v)*y*z + exp(-x^2)")
        tracemalloc.start()
        try:
            report = check_conditions(rhs, 4.0, lattice=LatticeSpec(points=25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.fd_fallback == ("u", "v")
        assert peak < 4e6


def _reference_extremes(program, env):
    """(min, max) of program on the lattice env: a fold of its masked runs over
    its slabs.  In a slab where a mask marks a point, _run raises its failure."""
    lo, hi = math.inf, -math.inf
    for slab in analysis._blocks(program.reads, env):
        args = analysis._slab_args(env, slab)
        out, bad = expr_module._run_masked(program, args)
        if bad.any():
            expr_module._run(program, args)
            pytest.fail("a masked run marks a point at which _run passes")
        lo = min(lo, np.minimum.reduce(out, None))
        hi = max(hi, np.maximum.reduce(out, None))
    return lo, hi


def _slab_path(rhs, M, ks, points):
    """_outcome with the lattice extremes taken from the slab fold instead."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_extremes", _reference_extremes)
        return _outcome(rhs, M, ks, points)


def _whole_runs(monkeypatch) -> list:
    """A list that records, for every analysis._run from now on, the root whose
    whole program it ran, or None when it ran a part of one."""
    runs, run = [], analysis._run

    def spy(program, values):
        whole = program.result == _compile(program.root).result
        runs.append(program.root if whole else None)
        return run(program, values)

    monkeypatch.setattr(analysis, "_run", spy)
    return runs


_LITERALS = [0.0, -0.0, 1.0, 2.0, -0.5, 3.75, 1e308, -1e308, 1e-320, 1e-5]


_VARIABLES = st.sampled_from("xuyvz").map(Var)
_OPERANDS = st.recursive(
    st.one_of(_VARIABLES, _VARIABLES, st.sampled_from(_LITERALS).map(Num)),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("*+-/"), sub, sub).map(lambda t: BinOp(*t)),
        st.tuples(sub, st.sampled_from([2, 3, 0, 4, -1, -3])).map(
            lambda t: BinOp("^", t[0], Num(float(t[1])))),
        sub.map(Neg),
        st.tuples(st.sampled_from(["sin", "atan", "exp", "abs", "sqrt", "log"]),
                  sub).map(lambda t: Call(*t)),
    ),
    max_leaves=4)


@st.composite
def _range_trees(draw):
    """Random right sides over x, u, y, v, z: a +, -, * chain over random operands."""
    parts = draw(st.lists(_OPERANDS, min_size=2, max_size=6))
    # shift the variables by one axis per operand, so the operands read
    # several axes, some of them shared
    parts = [substitute(part, {name: Var("xuyvz"[(k + i) % 5]) for k, name in enumerate("xuyvz")})
             for i, part in enumerate(parts)]
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        node = BinOp(draw(st.sampled_from("+-*")), parts[i], parts[i + 1])
        parts[i:i + 2] = [Neg(node) if draw(st.booleans()) else node]
    return parts[0]


class TestRangePass:
    """Extremes carried up the root's +, -, * chain equal a fold over slabs, bit for bit."""

    @pytest.mark.parametrize("points", [17, 25])
    @pytest.mark.parametrize("supplied", [True, False])
    @pytest.mark.parametrize("ident", range(1, 7))
    def test_examples_match_the_slab_path(self, ident, supplied, points, monkeypatch):
        ex = get_example(ident)
        rhs = ex.canonical().rhs
        ks = (ex.ks or (1.0, 1.0, 1.0, 1.0)) if supplied else None
        runs = _whole_runs(monkeypatch)
        assert _outcome(rhs, ex.M, ks, points) == _slab_path(rhs, ex.M, ks, points)
        if ident in (1, 2):  # the examples that read four or five axes
            # a chain was decomposed, and only programs that fit a slab ran whole
            assert None in runs
            assert all(points ** len(_compile(root).reads) <= analysis._BLOCK
                       for root in runs if root is not None)

    @pytest.mark.parametrize("text, M", [
        ("(u*y)*(u*z)", 1.0),             # u is read by both factors
        ("-(u - v)*(y - z)", 4.0),        # negation and differences
        ("u*0 - v*0", 1.0),               # signed zeros
        ("(u + 1)*(u - 1)*y", 1.0),       # u shared: its own corners would be wrong
        ("(x + 1)*(v - 2)", 1.0),         # the extremes sit at the mixed corners
        ("1e308*u*v + 1e308*y", 4.0),     # f finite, df/du overflows
        ("x*u*y*v*z*1e308*1e308", 1.0),   # the extremes overflow
        ("u*y*v*z - x^2*u", 1.0),
        ("(u*y - v)*(u*y - v)", 1.0),     # the chain reads one slot twice
        ("x - x + u*y*v*z", 1.0),         # x read by one leaf only
        ("-(u*y*z)*-(u*y*z) + v", 1.0),   # a negation read twice
        ("(y*v - 1e308*u)*(y*v - 1e308*u)*z", 1.0),  # a square that overflows
    ])
    @pytest.mark.parametrize("points, block", [(5, 2 ** 4), (9, 2 ** 6), (17, 2 ** 8)])
    def test_fixed_cases_match_the_slab_path(self, text, M, points, block, monkeypatch):
        rhs = parse(text)
        monkeypatch.setattr(analysis, "_BLOCK", block)
        runs = _whole_runs(monkeypatch)
        assert _outcome(rhs, M, None, points) == _slab_path(rhs, M, None, points)
        assert runs

    def test_shared_axes_beyond_the_block_run_the_whole_program(self, monkeypatch):
        # every axis is read by two leaves or more, and 17^5 values exceed _BLOCK
        rhs = parse("sin(u*y*v) + cos(u*y*z) + exp(-u*v*z) + atan(y*v*z)"
                    " + sin(x*u*y) + cos(x*v*z) + x")
        runs = _whole_runs(monkeypatch)
        ks = (1.0, 1.0, 0.1, 0.1)
        assert _outcome(rhs, 1.0, ks, 17) == _slab_path(rhs, 1.0, ks, 17)
        assert len(runs) > 1 and all(root is rhs for root in runs)

    @given(tree=_range_trees(), points=st.sampled_from([5, 9, 17]),
           M=st.sampled_from([1.0, 4.0]), scale=st.sampled_from([2, 3, 4]))
    # the fold drops the code after exp(1e308), so no instruction writes the
    # result slot of the leaf -exp(1e308): the flagged run must not return it
    @example(tree=parse("x + u + -exp(1e308)"), points=5, M=1.0, scale=2)
    @settings(max_examples=300)
    def test_random_right_sides_match_the_slab_path(self, tree, points, M, scale):
        # a small block makes the lattice take several slabs, so the range
        # pass runs, and sends its larger leaves through slabs of their own
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_BLOCK", points ** scale // 2)
            assert _outcome(tree, M, None, points) == _slab_path(tree, M, None, points)

    @pytest.mark.parametrize("text, ranged", [
        ("sin(x*u*y*v*z)", False),        # the root is a leaf: run in slabs
        ("sin(x*u*y*v*z) + 1", True),     # a five-axis leaf reduced in slabs
    ])
    def test_memory_stays_within_slabs(self, text, ranged, monkeypatch):
        rhs = parse(text)
        runs = _whole_runs(monkeypatch)
        tracemalloc.start()
        try:
            check_conditions(rhs, 1.0, lattice=LatticeSpec(points=25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert (rhs in runs) is not ranged


def _evaluated_sizes(monkeypatch) -> list:
    """A list that records, for every _run call in analysis from now on, the
    broadcast size of the variables it reads; the check evaluates nothing else."""
    sizes, run = [], analysis._run

    def spy(program, values):
        sizes.append(math.prod(np.broadcast_shapes(*(np.shape(values[k]) for k in program.reads))))
        return run(program, values)

    monkeypatch.setattr(analysis, "_run", spy)
    return sizes


@st.composite
def _failing_trees(draw):
    """Random right sides with a term of sqrt, log, asin or a quotient, often undefined."""
    term = draw(st.one_of(
        st.tuples(st.sampled_from(["sqrt", "log", "asin"]), _OPERANDS).map(lambda t: Call(*t)),
        st.tuples(_OPERANDS, _OPERANDS).map(lambda t: BinOp("/", *t))))
    parts = [draw(_range_trees()), term]
    if draw(st.booleans()):
        parts.reverse()
    return BinOp(draw(st.sampled_from("+-*")), *parts)


class TestFailures:
    """A failing check names the first undefined point, with its own error."""

    def test_failing_check_keeps_the_slab_memory_bound(self):
        # one evaluation of the whole 25^5 lattice holds 78 MB arrays
        rhs = parse("sqrt(0.95 - x + u*y*v*z)")
        tracemalloc.start()
        try:
            with pytest.raises(DomainSamplingError):
                check_conditions(rhs, 1.0, (0, 0, 0, 0), LatticeSpec(points=25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("text, M, ks, what", [
        ("sqrt(0.95 - x + u*y*v*z)", 1.0, (0, 0, 0, 0), "right-hand side"),
        ("sqrt(v + 1)*x*u*y*z", 1.0, None, "partial derivative df/dv"),
        ("abs(v) + sqrt(v + 4)*x*u*y*z", 4.0, None, "finite-difference probe"),
    ])
    def test_each_expression_is_compiled_once(self, text, M, ks, what, monkeypatch):
        # the extremes, and the slab fold that finds the point, both run the
        # one program the check compiled for the expression
        compiled, runs, real, run = [], [], expr_module._Compiler, analysis._run
        monkeypatch.setattr(expr_module, "_Compiler", lambda root: compiled.append(root) or real(root))
        monkeypatch.setattr(analysis, "_run", lambda program, values:
                            runs.append(program.root) or run(program, values))
        masked = _masked_runs(monkeypatch)
        with pytest.raises(DomainSamplingError) as info:
            check_conditions(parse(text), M, ks, LatticeSpec(points=9))
        assert str(info.value).startswith(what)
        # the check stops at its first failure, which its masked run names:
        # no expression is compiled twice
        assert len({id(root) for root in compiled}) == len(compiled)
        assert {id(root) for root in runs} <= {id(root) for root in compiled}
        # the last run and the one masked run, which found the point, are of
        # the program compiled last
        assert len(masked) == 1 and masked[0] is compiled[-1] and runs[-1] is compiled[-1]

    @pytest.mark.parametrize("text, M, ks, points, what", [
        ("sqrt(0.95 - x + u*y*v*z)", 1.0, (0, 0, 0, 0), 25, "right-hand side"),
        ("abs(v) + sqrt(v + 4)*x*u*y*z", 4.0, None, 17, "finite-difference probe"),
        ("sqrt(v + 1)*x*u*y*z", 1.0, None, 17, "partial derivative df/dv"),
    ])
    def test_no_evaluation_exceeds_a_slab(self, text, M, ks, points, what, monkeypatch):
        sizes = _evaluated_sizes(monkeypatch)
        with pytest.raises(DomainSamplingError) as info:
            check_conditions(parse(text), M, ks, LatticeSpec(points=points))
        assert str(info.value).startswith(what)
        assert sizes and max(sizes) <= analysis._BLOCK

    @pytest.mark.parametrize("points", [9, 17])
    def test_message_names_what_fails_at_the_point(self, points):
        # log(0.001 - u) fails only at larger u; the first undefined point
        # has the least u, where sqrt(u) fails and log is defined
        with pytest.raises(DomainSamplingError) as info:
            check_conditions(parse("log(0.001 - u) + sqrt(u)*x*y*v*z"), 1.0, (0, 0, 0, 0),
                             LatticeSpec(points=points))
        assert info.value.point == (0.0, -1 / 384, -1 / (72 * ROOT3), -1.0, -1.0)
        assert str(info.value).startswith(
            "right-hand side undefined inside the box: sqrt of a negative value in "
            "'sqrt(u)': argument -0.0026041666666666665 at (x=0, u=-0.00260416667, ")

    def test_probe_failure_names_the_first_lattice_point(self, monkeypatch):
        # the minus probe leaves [-1, 1] at u = -1, in the first slab; the plus
        # probe only at u = 1, in a later one: the first lattice point is named
        rhs = parse("abs(u) + sqrt(1 - u*u)*x*y*v*z")
        env = _lattice_env(DomainBox(384.0), LatticeSpec(points=17))
        assert len(analysis._blocks(_compile(rhs).reads, env)) > 1
        blocked = _outcome(rhs, 384.0, None, 17)
        assert blocked == _unblocked(monkeypatch, rhs, 384.0, None, 17)
        assert blocked[0] is DomainSamplingError and blocked[2][:2] == (0.0, -1.0)
        assert "'sqrt(1 - (u - 2e-06)*(u - 2e-06))'" in blocked[1]

    @pytest.mark.parametrize("text, M, message, point", [
        # the range pass's pairs overflow
        ("x*u*y*v*z*1e308*1e308", 1.0,
         "non-finite result from 'x*u*y*v*z*1e+308*1e+308' "
         "at (x=0.0625, u=-0.00260416667, y=-0.00801875374, v=-1, z=-1)",
         (0.0625, -1.0 / 384.0, -1.0 / (72.0 * ROOT3), -1.0, -1.0)),
        # a leaf of the range pass fails
        ("1/(2*sqrt(v + 1))*x*u*y*z", 4.0,
         "sqrt of a negative value in 'sqrt(v + 1)': argument -3.0 "
         "at (x=0, u=-0.0104166667, y=-0.032075015, v=-4, z=-4)",
         (0.0, -4.0 / 384.0, -4.0 / (72.0 * ROOT3), -4.0, -4.0)),
    ], ids=["pairs-overflow", "leaf-fails"])
    def test_a_failed_range_pass_falls_back_to_the_programs_slab_fold(self, text, M, message, point,
                                                                      monkeypatch):
        # the fold of the whole program raises that program's failure at its
        # first failing slab, with no failure of the range pass chained to it
        expression = parse(text)
        program = _compile(expression)
        env = _lattice_env(DomainBox(M), LatticeSpec(points=17))
        folded, real = [], analysis._slab_extremes
        monkeypatch.setattr(analysis, "_slab_extremes", lambda program, env:
                            folded.append(program) or real(program, env))
        with pytest.raises(expr_module._Failure) as info:
            analysis._extremes(program, env)
        assert info.value.program is program and folded[-1] is program
        assert info.value.__context__ is None
        with pytest.raises(DomainSamplingError) as info:
            check_conditions(expression, M, None, LatticeSpec(points=17))
        assert str(info.value) == f"right-hand side undefined inside the box: {message}"
        assert _bits(*info.value.point) == _bits(*point)

    @given(tree=_failing_trees(), M=st.sampled_from([1.0, 4.0]),
           block=st.sampled_from([1, 3, 12, 60, 2 ** 62]))
    # (1e200*u)^2 overflows, a flag the checked run clears: false alarms
    # next to the real failures of sqrt, before them in C order for sqrt(-v)
    @example(tree=parse("exp(-(1e200*u)^2) + sqrt(v)"), M=1.0, block=1)
    @example(tree=parse("exp(-(1e200*u)^2) + sqrt(-v)"), M=1.0, block=1)
    @example(tree=parse("exp(-(1e200*u)^2) + sqrt(-v)"), M=1.0, block=2 ** 62)
    # a leaf of the range pass fails, first at x = 0.75, so the slab fold of
    # the whole program finds it in its second slab, x in [0.5, 0.75]
    @example(tree=parse("x*u*y + sqrt(0.5 - x)"), M=1.0, block=60)
    @settings(max_examples=200)
    def test_random_failures_name_the_first_undefined_point(self, tree, M, block):
        # small blocks cut the 5^5 lattice into many slabs, 2^62 into none
        first = _first_undefined(tree, _lattice_env(DomainBox(M), LatticeSpec(points=5)))
        assume(first is not None)
        point = first[1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_BLOCK", block)
            outcome = _outcome(tree, M, (0, 0, 0, 0), 5)
        what = "right-hand side undefined inside the box"
        assert outcome == (DomainSamplingError, _failure_message(tree, what, point), point)


class TestSolveFailures:
    """A solve's f names its failure as a check does: the first failing
    sample's first failing subexpression."""

    @given(tree=_failing_trees(),
           samples=st.lists(st.tuples(*[st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])] * 5),
                            min_size=1, max_size=6))
    @example(tree=parse("sqrt(0.5 - x) + log(x - 0.25) + u"),
             samples=[(x, 0.0, 0.0, 0.0, 0.0) for x in (0.0, 1.0, 0.25)])
    @settings(max_examples=200)
    def test_f_names_the_first_sample_where_the_checked_run_fails(self, tree, samples):
        # on 1-D arrays, folded at x as a solve folds f: the sample named is
        # the first at which the checked run on numpy scalars fails, and the
        # message is that run's, at that sample; an f that reads no variable
        # fails at every sample alike, and names none
        values = tuple(np.array(column) for column in zip(*samples))
        first = _first_failure(tree, enumerate(zip(*values)))
        try:
            solver_module._f(_compile(tree, values[0]), *values)
        except ExprEvalError as err:
            assert first is not None
            where = f" at sample {first[0]}" if variables_in(tree) else ""
            assert str(err) == f"{first[2]}{where}"
        else:
            assert first is None


def _checked_callers(monkeypatch) -> list:
    """A list that records, for every _run_checked call from now on, the name
    of the function that made it."""
    callers, real = [], expr_module._run_checked

    def spy(program, values):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(program, values)

    monkeypatch.setattr(expr_module, "_run_checked", spy)
    return callers


def _masked_runs(monkeypatch) -> list:
    """A list that records, for every masked run from now on, the root of its program."""
    roots, real = [], expr_module._run_masked
    monkeypatch.setattr(expr_module, "_run_masked", lambda program, values:
                        roots.append(program.root) or real(program, values))
    return roots


class TestCheckedRuns:
    """A check runs its lattice flagged, and masked where a flagged run fails;
    only the naming of a failure runs checked ops, at its point, and no
    library code runs _run_checked."""

    @pytest.mark.parametrize("text, M, ks", [
        (get_example(2).rhs_text, get_example(2).M, None),   # slabs and the range pass
        (get_example(1).rhs_text, get_example(1).M, None),
        ("(u*y*v - 1 + x)*(u*y*v - 1 + z)", 1.0, None),      # leaves reduced over shared axes
        ("sin(u*y*v) + cos(u*y*z) + exp(-u*v*z) + atan(y*v*z) + sin(x*u*y) + cos(x*v*z) + x",
         1.0, (1.0, 1.0, 0.1, 0.1)),                          # the whole program in slabs
    ])
    def test_a_check_that_succeeds_runs_nothing_checked(self, text, M, ks, monkeypatch):
        callers = _checked_callers(monkeypatch)
        check_conditions(parse(text), M, ks, LatticeSpec(points=17))
        assert callers == []

    @pytest.mark.parametrize("text, M, ks, points, what, masked_runs", [
        (get_example(5).rhs_text, get_example(5).M, None, 9, "right-hand side", 1),
        ("sqrt(u + 1 - 3*x^2 + 2*x^3)*sin(exp(u)) + exp(-x^2)", 5.0, None, 5, "right-hand side", 1),
        # a leaf of the range pass fails: the whole program's flagged fold finds the slab
        ("sqrt(v + 1)*x*u*y*z", 1.0, None, 17, "partial derivative df/dv", 2),
        ("sqrt(0.95 - x + u*y*v*z)", 1.0, (0, 0, 0, 0), 25, "right-hand side", 1),  # many slabs
    ])
    def test_a_failing_check_runs_checked_only_to_name_the_failure(self, text, M, ks, points, what,
                                                                 masked_runs, monkeypatch):
        callers, masked = _checked_callers(monkeypatch), _masked_runs(monkeypatch)
        with pytest.raises(DomainSamplingError) as info:
            check_conditions(parse(text), M, ks, LatticeSpec(points=points))
        assert str(info.value).startswith(what)
        # only a failing flagged run runs again, masked: the extremes', and
        # the slab fold's when the range pass failed; the last finds the point in
        # its slab, and its replay names the error there, with no checked run
        assert callers == []
        assert len(masked) == masked_runs


def _linspace_env(box, points):
    """The lattice axes as np.linspace builds them, each broadcastable on its own axis."""
    return {name: np.linspace(lo, hi, points).reshape([points if k == i else 1 for k in range(5)])
            for i, (name, (lo, hi)) in enumerate(zip("xuyvz", box.axis_intervals()))}


def _reference_sup(expression, env, what):
    """max |expression| from an evaluation of every lattice point, constants
    included; a failure is named as the check names it."""
    try:
        lo, hi = _reference_extremes(_compile(expression), env)
    except expr_module._Failure:
        return analysis._sup_on_lattice(expression, env, what)  # raises
    return float(max(0.0, hi, -lo))


def _reference_check(rhs, M, points):
    """(sup_f, ks, fd_fallback) from _reference_sup of f and of each partial or
    probe, or the failure's type, message and point."""
    box = DomainBox(M)
    env = _linspace_env(box, points)
    intervals = dict(zip("xuyvz", box.axis_intervals()))
    try:
        sup_f = _reference_sup(rhs, env, "right-hand side undefined inside the box")
        ks, fd = [], []
        for var in "uyvz":
            try:
                partial = differentiate(rhs, var)
                what = f"partial derivative df/d{var} undefined inside the box"
            except ExprDerivativeError:
                lo, hi = intervals[var]
                partial = _probe(rhs, var, 1e-6 * (hi - lo))
                what = "finite-difference probe left the domain of f"
                fd.append(var)
            ks.append(_reference_sup(partial, env, what))
    except DomainSamplingError as err:
        return type(err), str(err), err.point
    return repr(sup_f), repr(tuple(ks)), tuple(fd)


# The certify benchmark's right sides: the examples with coefficients
# shrunk, and the two shapes whose partials need finite differences.
CERTIFY_TEXTS = [
    "f = 12.0 + 0.49*u*z - 0.24*y*v + 0.25*y\nM = 36.0\n",
    "f = 1.0*x + 0.97*x^2 + 0.93*u^2*v + 0.9*y*sin(z)\nM = 5.0\n",
    "f = 0.95*u^2*sin(u) + 0.9*sin(x)\nA1 = 1.0\nM = 6.0\n",
    "f = 0.97*u*sin(u) + 0.93*exp(-x^2)\nA1 = 1.0\nM = 6.0\n",
    "f = 1.0*sqrt(u)*sin(exp(u)) + 1.0*exp(-x^2)\nA1 = 1.0\nM = 5.0\n",
    "f = 0.91*u^5\nB1 = 1.87\nB2 = 5.61\nM = 100.0\n",
    "f = 0.5*abs(y) + 0.75*x\nM = 5.0\n",
    "f = 0.25*abs(u - 0.3*v) + 0.8*exp(-x^2)\nM = 4.0\n",
    "f = sqrt(u + 0.7*(1 - 3*x^2 + 2*x^3))*sin(exp(u + 0.7*(1 - 3*x^2 + 2*x^3))) + exp(-x^2)\n"
    "M = 5.0\n",
]


def _rebuilt(node):
    """An equal tree in which no subtree object is held twice."""
    if isinstance(node, BinOp):
        return BinOp(node.op, _rebuilt(node.left), _rebuilt(node.right))
    if isinstance(node, Neg):
        return Neg(_rebuilt(node.operand))
    if isinstance(node, Call):
        return Call(node.fn, _rebuilt(node.arg))
    return Num(node.value) if isinstance(node, Num) else Var(node.name)


class TestFrontEnd:
    """What a check does before the lattice: axes, partials, constants, probes."""

    @pytest.mark.parametrize("M", [1.0, 4.0, 5.0, 6.0, 36.0, 100.0, 1.0 / 3.0, 1e-300, 1e300])
    def test_lattice_axes_equal_linspace_bit_for_bit(self, M):
        box = DomainBox(M)
        for points in range(5, 70):
            env = _lattice_env(box, LatticeSpec(points=points))
            expected = _linspace_env(box, points)
            for name in "xuyvz":
                assert env[name].shape == expected[name].shape
                assert env[name].tobytes() == expected[name].tobytes()

    @pytest.mark.parametrize("points", [5, 9, 17])
    @pytest.mark.parametrize("source", [f"example:{i}" for i in range(1, 7)] + CERTIFY_TEXTS)
    def test_reports_equal_every_partial_on_the_lattice(self, source, points):
        if source.startswith("example:"):
            ex = get_example(int(source.split(":")[1]))
            rhs, M = ex.canonical().rhs, ex.M
        else:
            loaded = parse_problem_text(source)
            rhs, M = canonicalize(loaded.raw).rhs, loaded.M
        got = _outcome(rhs, M, None, points)
        if isinstance(got, ConditionReport):
            got = repr(got.sup_f), repr(got.ks), got.fd_fallback
        assert got == _reference_check(rhs, M, points)

    def test_a_literal_needs_no_program(self, monkeypatch):
        env = _lattice_env(DomainBox(1.0), LatticeSpec(points=5))
        monkeypatch.setattr(analysis, "_compile", None)  # a compile would fail
        assert repr(analysis._sup_on_lattice(Num(-0.0), env)) == "0.0"
        assert repr(analysis._sup_on_lattice(Num(0.0), env)) == "0.0"
        assert analysis._sup_on_lattice(Num(-2.5), env) == 2.5

    def test_negative_zero_right_side_gives_positive_zero(self):
        report = check_conditions(parse("-0"), 1.0)
        assert repr(report.sup_f) == "0.0" and repr(report.ks) == "(0.0, 0.0, 0.0, 0.0)"

    @pytest.mark.parametrize("source, k1", [
        ("-2.5*u + x", 2.5),                       # a negative literal
        ("u*cos(2) + x", float(abs(np.cos(2.0)))),  # a partial that folds to a literal
    ])
    def test_constant_partials_skip_the_lattice(self, source, k1, monkeypatch):
        rhs = parse(source)
        runs, extremes = [], analysis._extremes
        monkeypatch.setattr(analysis, "_extremes",
                            lambda program, env: runs.append(program.root) or extremes(program, env))
        report = check_conditions(rhs, 1.0)
        assert report.ks == (k1, 0.0, 0.0, 0.0)
        assert runs == [rhs]  # f alone reached the lattice

    def test_an_overflowing_literal_partial_still_fails(self):
        rhs = parse("1e308*u*10")
        assert differentiate(rhs, "u") == Num(math.inf)
        with pytest.raises(DomainSamplingError) as info:
            check_conditions(rhs, 1.0, lattice=LatticeSpec(points=5))
        point = tuple(lo for lo, _ in DomainBox(1.0).axis_intervals())
        assert info.value.point == point
        assert str(info.value) == _failure_message(
            Num(math.inf), "partial derivative df/du undefined inside the box", point)

    @pytest.mark.parametrize("points", [9, 17])
    @pytest.mark.parametrize("text, M", [
        ("0.25*abs(u - 0.3*v) + 0.8*exp(-x^2)", 4.0), ("0.5*abs(y) + 0.75*x", 5.0),
        ("0.2*abs(u - 0.3*v)*y*z + 0.8*exp(-x^2)", 4.0), ("abs(v) + sqrt(v + 4)*x*u*y*z", 4.0),
    ])
    def test_probes_sharing_subtrees_give_the_same_reports(self, text, M, points, monkeypatch):
        rhs = parse(text)
        shared = _outcome(rhs, M, None, points)
        monkeypatch.setattr(analysis, "substitute", lambda e, m: _rebuilt(substitute(e, m)))
        assert repr(_outcome(rhs, M, None, points)) == repr(shared)


class TestConditionReport:
    def test_bounded_but_not_contractive(self):
        rep = check_conditions(parse("0.55*sin(v)"), 2.0)
        assert rep.bounded and not rep.contractive and not rep.certified
        assert rep.q == pytest.approx(0.55)
        text = "\n".join(rep.summary_lines())
        assert "boundedness  PASS" in text
        assert "contraction  FAIL" in text
        assert "uniqueness not established" in text

    def test_not_bounded(self):
        ex = get_example(1)
        rep = check_conditions(parse(ex.rhs_text), 1.0,
                               ks=(18.0, 9.25, 1.0 / (8 * ROOT3), 3.0 / 64.0))
        assert not rep.bounded and not rep.certified
        assert rep.sup_f > 12.0 > 0.5
        text = "\n".join(rep.summary_lines())
        assert "boundedness  FAIL" in text
        assert "verdict      not certified" in text

    def test_certified_summary(self):
        ex = get_example(3)
        rep = check_conditions(parse(ex.rhs_text), ex.M, ks=ex.ks)
        text = "\n".join(rep.summary_lines())
        assert "supplied" in text
        assert "unique solution in the box" in text

    def test_estimated_summary_names_lattice(self):
        rep = check_conditions(parse("sin(u)"), 2.0)
        text = "\n".join(rep.summary_lines())
        assert "lattice estimate, 9 points per axis" in text

    def test_fd_note_in_summary(self):
        rep = check_conditions(parse("abs(u)"), 2.0)
        text = "\n".join(rep.summary_lines())
        assert "finite differences used for u" in text


class TestAprioriBound:
    def test_halving_at_zero_q(self):
        # q = 0 gives p_k = 2 * first / 2^k
        assert apriori_bound(0.0, 3.0, 0) == pytest.approx(6.0)
        assert apriori_bound(0.0, 3.0, 4) == pytest.approx(6.0 / 16.0)

    def test_formula(self):
        q, first, k = 0.24, 0.7, 5
        expected = (q + 0.5) ** k / (0.5 - q) * first
        assert apriori_bound(q, first, k) == pytest.approx(expected, rel=1e-15)

    @given(q=st.floats(min_value=0, max_value=0.49),
           first=st.floats(min_value=0, max_value=1e6),
           k=st.integers(min_value=0, max_value=60))
    @settings(max_examples=40)
    def test_monotone_decreasing_in_k(self, q, first, k):
        assert apriori_bound(q, first, k + 1) <= apriori_bound(q, first, k)

    @pytest.mark.parametrize("args", [
        (0.5, 1.0, 1), (0.7, 1.0, 1), (-0.1, 1.0, 1),
        (0.2, -1.0, 1), (0.2, 1.0, -1), (float("nan"), 1.0, 1),
        ("0.1", 1.0, 3), (None, 1.0, 3), (False, 1.0, 3), (0.1, "1", 3), (0.1, True, 3),
        (0.1, float("inf"), 3), (0.1, 1.0, 2.5), (0.1, 1.0, 2.0), (0.1, 1.0, True),
        (0.1, 1.0, "3"),
    ])
    def test_validation(self, args):
        with pytest.raises(ValueError):
            apriori_bound(*args)

    def test_integer_k_of_numpy(self):
        assert apriori_bound(0.1, 1.0, np.int64(3)) == apriori_bound(0.1, 1.0, 3)


# finite and nonnegative as the validators see it: -0.0 passes 0 <= k
NONNEGATIVE = st.floats(min_value=-0.0, max_value=sys.float_info.max)


class TestScales:
    """q and the error bounds equal the paper's formulas bit for bit."""

    C1, C2 = KERNEL_BOUNDS.fourth_order, KERNEL_BOUNDS.fourth_order_dx

    @given(NONNEGATIVE, NONNEGATIVE, NONNEGATIVE, NONNEGATIVE)
    @example(-0.0, -0.0, -0.0, -0.0)
    def test_contraction_factor(self, k1, k2, k3, k4):
        expected = k1 * self.C1 + k2 * self.C2 + k3 + k4
        assert _bits(contraction_factor(k1, k2, k3, k4)) == _bits(expected)

    @given(NONNEGATIVE)
    @example(-0.0)
    def test_solution_error_bounds(self, p):
        assert _bits(*solution_error_bounds(p)) == _bits(p * self.C1, p * self.C2, p, p)


class TestSolutionErrorBounds:
    def test_values(self):
        bu, by, bv, bz = solution_error_bounds(384.0)
        assert bu == pytest.approx(1.0)
        assert by == pytest.approx(384.0 / (72.0 * ROOT3))
        assert bv == 384.0 and bz == 384.0

    def test_zero(self):
        assert solution_error_bounds(0.0) == (0.0, 0.0, 0.0, 0.0)

    def test_validation(self):
        for bad in (-1.0, float("nan"), float("inf"), None, True, "1"):
            with pytest.raises(ValueError, match="p must be"):
                solution_error_bounds(bad)
