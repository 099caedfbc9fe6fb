"""Certification checks: the box, the two conditions, the error envelope.

Lattice suprema are sampled lower bounds of the true suprema.  For
right-hand sides whose partials are attained at box corners (every
registry example except the mixed one, whose sin factor peaks strictly
inside an axis) the estimate can be compared against hand-derived
constants; for the rest we only require a certificate, not tightness.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clampbeam.analysis import (
    ConditionReport,
    DomainBox,
    DomainSamplingError,
    LatticeSpec,
    _find_bad_point,
    _lattice_env,
    apriori_bound,
    check_conditions,
    contraction_factor,
    solution_error_bounds,
)
from clampbeam.examples import get_example
from clampbeam.expr import ExprEvalError, evaluate, parse
from clampbeam.kernels import KERNEL_BOUNDS

ROOT3 = math.sqrt(3.0)


class TestDomainBox:
    def test_unit_box_matches_kernel_bounds(self):
        box = DomainBox(1.0)
        assert box.u_bound == KERNEL_BOUNDS.fourth_order
        assert box.y_bound == KERNEL_BOUNDS.fourth_order_dx
        assert box.v_bound == 1.0
        assert box.z_bound == 1.0

    def test_scaling(self):
        box = DomainBox(36.0)
        assert box.u_bound == pytest.approx(36.0 / 384.0)
        assert box.y_bound == pytest.approx(36.0 / (72.0 * ROOT3))

    def test_axis_intervals(self):
        box = DomainBox(5.0)
        ivs = box.axis_intervals()
        assert ivs[0] == (0.0, 1.0)
        for lo, hi in ivs[1:]:
            assert lo == -hi and hi > 0
        assert ivs[3] == (-5.0, 5.0) and ivs[4] == (-5.0, 5.0)

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf")])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            DomainBox(bad)


class TestLatticeSpec:
    def test_default(self):
        assert LatticeSpec().points == 9

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            LatticeSpec(points=4)


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
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            contraction_factor(*bad)


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
        axes = [np.ravel(env[name]) for name in ("x", "u", "y", "v", "z")]
        # brute-force oracle: scalar evaluation of every point in C order
        for idx in itertools.product(range(5), repeat=5):
            point = tuple(float(a[i]) for a, i in zip(axes, idx))
            try:
                evaluate(expression, *point)
            except ExprEvalError:
                break
        assert idx == index
        assert _find_bad_point(expression, env) == point

    @pytest.mark.parametrize("ks", [(1.0, 2.0, 3.0), (1,) * 5, (-0.1, 0, 0, 0)])
    def test_ks_validation(self, ks):
        with pytest.raises(ValueError):
            check_conditions(parse("u"), 1.0, ks=ks)


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
    ])
    def test_validation(self, args):
        with pytest.raises(ValueError):
            apriori_bound(*args)


class TestSolutionErrorBounds:
    def test_values(self):
        bu, by, bv, bz = solution_error_bounds(384.0)
        assert bu == pytest.approx(1.0)
        assert by == pytest.approx(384.0 / (72.0 * ROOT3))
        assert bv == 384.0 and bz == 384.0

    def test_zero(self):
        assert solution_error_bounds(0.0) == (0.0, 0.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            solution_error_bounds(-1.0)
