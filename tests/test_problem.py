"""Raw problems, homogenization, the interval transform and problem files.

The Hermite cubic is checked against an independent dense linear solve of
the four interpolation conditions; the variable transform is checked by
direct composition of the raw right-hand side at random points.  The
scalar polynomial composition is checked bit for bit against
numpy.polynomial, which the package itself does not import.
"""

import math
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import clampbeam
import clampbeam.problem as problem_module
from clampbeam.examples import get_example
from clampbeam.expr import evaluate, parse
from clampbeam.numerics import Grid, GridFunction, diff5
from clampbeam.problem import (
    CanonicalProblem,
    CubicInterpolant,
    ProblemFormatError,
    RawProblem,
    RecoveredSolution,
    canonicalize,
    hermite_cubic,
    load_problem_file,
    parse_problem_text,
    recover_solution,
)

DATA = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def _oracle_cubic(a, b, A1, B1, A2, B2):
    """Coefficients from densely solving the interpolation conditions."""
    rows = []
    rhs = []
    for t, val in ((a, A1), (b, B1)):
        rows.append([1.0, t, t**2, t**3])
        rhs.append(val)
    for t, val in ((a, A2), (b, B2)):
        rows.append([0.0, 1.0, 2 * t, 3 * t**2])
        rhs.append(val)
    return np.linalg.solve(np.array(rows), np.array(rhs))


class TestHermiteCubic:
    @given(a=st.floats(min_value=-3, max_value=3), gap=st.floats(min_value=0.5, max_value=4),
           A1=DATA, B1=DATA, A2=DATA, B2=DATA)
    def test_matches_dense_solve(self, a, gap, A1, B1, A2, B2):
        b = a + gap
        got = hermite_cubic(a, b, A1, B1, A2, B2)
        expect = _oracle_cubic(a, b, A1, B1, A2, B2)
        scale = 1.0 + float(np.max(np.abs(expect)))
        np.testing.assert_allclose(got.coeffs, expect, rtol=0, atol=1e-9 * scale)

    @given(A1=DATA, B1=DATA, A2=DATA, B2=DATA)
    def test_interpolation_conditions(self, A1, B1, A2, B2):
        p = hermite_cubic(0.0, 1.0, A1, B1, A2, B2)
        assert p.value(0.0) == pytest.approx(A1, abs=1e-12)
        assert p.value(1.0) == pytest.approx(B1, abs=1e-12)
        assert p.slope(0.0) == pytest.approx(A2, abs=1e-12)
        assert p.slope(1.0) == pytest.approx(B2, abs=1e-12)

    def test_known_shapes(self):
        # data (1,0,0,0) on [0,1] gives (1-t)^2 (2t+1) = 1 - 3t^2 + 2t^3
        assert hermite_cubic(0, 1, 1, 0, 0, 0).coeffs == (1.0, 0.0, -3.0, 2.0)
        # data (0,1.87,0,5.61) on [0,1] gives 1.87 t^3
        assert hermite_cubic(0, 1, 0, 1.87, 0, 5.61).coeffs == (0.0, 0.0, 0.0, 1.87)
        assert hermite_cubic(0, 1, 0, 0, 0, 0).is_zero

    def test_derivative_methods(self):
        p = hermite_cubic(0, 1, 0, 1, 0, 0)
        t = np.linspace(0, 1, 7)
        h = 1e-6
        fd = (p.value(t + h) - p.value(t - h)) / (2 * h)
        np.testing.assert_allclose(p.slope(t), fd, atol=1e-8)
        fd2 = (p.slope(t + h) - p.slope(t - h)) / (2 * h)
        np.testing.assert_allclose(p.curvature(t), fd2, atol=1e-6)
        assert np.all(p.jerk(t) == p.jerk(0.0))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            hermite_cubic(1.0, 1.0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            hermite_cubic(2.0, 1.0, 0, 0, 0, 0)
        # (b-a)^4 overflows, b - a overflows, (b-a)^4 underflows to 0
        for a, b in [(0.0, 1e80), (-1e308, 1e308), (0.0, 1e-90)]:
            with pytest.raises(ValueError, match=r"\(b-a\)\^4 a finite nonzero double"):
                hermite_cubic(a, b, 0, 0, 0, 0)
        # bools and non-numbers get the package's error, not numpy's
        for args in [(0, True, 0, 0, 0, 0), ("0", 1, 0, 0, 0, 0), (0, 1, 0, 0, None, 0),
                     (0, 1, 10**400, 0, 0, 0)]:
            with pytest.raises(ValueError, match="must be a finite number"):
                hermite_cubic(*args)


def _numpy_compose(coeffs, a, L):
    """Coefficients of p(a + L x) composed by numpy.polynomial."""
    composed = Polynomial(list(coeffs))(Polynomial([a, L]))
    out = list(composed.coef) + [0.0] * (len(coeffs) - len(composed.coef))
    return [float(v) for v in out[:len(coeffs)]]


def _numpy_hermite(a, b, A1, B1, A2, B2):
    """hermite_cubic with the Hermite basis expanded by numpy.polynomial."""
    L = b - a
    gap = B1 - A1
    m0 = L * A2
    m1 = L * B2
    in_s = Polynomial([A1, m0, 3.0 * gap - 2.0 * m0 - m1, -2.0 * gap + m0 + m1])
    return CubicInterpolant(*_numpy_compose(in_s.coef, -a / L, 1.0 / L))


def _bits(values):
    return [struct.pack("<d", v) for v in values]


# zeros of both signs and small integers hit the cancellations and the
# signed-zero rules of the composition
COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0]),
                  st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))

SHIFTED_TEXTS = [
    "a = 0.5\nb = 1.6\nA1 = 1\nB1 = -0.5\nA2 = 0.3\nB2 = 2\nf = u*z/2 - y*v/4 + x\n",
    "a = -1\nb = 0.2\nA1 = 0.5\nB1 = 1.5\nf = u^2*sin(u) + sin(x) + u*y\n",
    "b = 1.07\nA1 = 1\nB1 = 1.2\nA2 = -0.1\nB2 = 0.05\nf = sqrt(u)*sin(exp(u)) + exp(-x^2)\n",
    "a = -2\nb = -0.5\nB2 = 3\nf = v + z\n",
]


class TestScalarComposition:
    @given(coeffs=st.lists(COEFF, min_size=1, max_size=4), a=COEFF,
           L=st.floats(min_value=1e-3, max_value=1e3))
    def test_compose_affine_matches_numpy(self, coeffs, a, L):
        got = problem_module._compose_affine(coeffs, a, L)
        assert _bits(got) == _bits(_numpy_compose(coeffs, a, L))

    @given(a=COEFF, width=st.floats(min_value=1e-2, max_value=1e2),
           data=st.tuples(COEFF, COEFF, COEFF, COEFF))
    def test_hermite_cubic_matches_numpy(self, a, width, data):
        b = a + width
        if not a < b:
            return  # the width was absorbed by rounding
        got = hermite_cubic(a, b, *data).coeffs
        assert _bits(got) == _bits(_numpy_hermite(a, b, *data).coeffs)

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 1.0, 0.0, 0.0, 0.0),       # a = 0: the shift -a/L is -0.0
        (0.0, 1.3, 0.0, 2.0, -1.0, 0.0),
        (-1.0, 0.2, 0.5, 1.5, 0.0, 0.0),      # negative a
        (0.5, 1.6, 1.0, -0.5, 0.3, 2.0),      # b != 1
        (-2.0, -0.5, 0.0, 0.0, 0.0, 3.0),
        (0.0, 1.0, 0.0, 1.87, 0.0, 5.61),     # exact-zero coefficients
        (0.0, 2.0, 0.0, 0.0, 0.0, 0.0),
    ])
    def test_edge_cases(self, args):
        assert _bits(hermite_cubic(*args).coeffs) == _bits(_numpy_hermite(*args).coeffs)
        coeffs = hermite_cubic(*args).coeffs
        for c in (coeffs, coeffs[1:], (0.0, -0.0, 2.0), (-0.0,), (0.0, 0.0, 0.0)):
            a, L = args[0], args[1] - args[0]
            assert _bits(problem_module._compose_affine(c, a, L)) == \
                _bits(_numpy_compose(c, a, L))

    @pytest.mark.parametrize("raw", [get_example(i).load().raw for i in range(1, 7)]
                             + [parse_problem_text(t).raw for t in SHIFTED_TEXTS])
    def test_canonical_forms_match_numpy(self, raw, monkeypatch):
        cp = canonicalize(raw)
        monkeypatch.setattr(problem_module, "_compose_affine", _numpy_compose)
        monkeypatch.setattr(problem_module, "hermite_cubic", _numpy_hermite)
        ref = canonicalize(raw)
        assert cp.rhs == ref.rhs and cp.shift == ref.shift
        assert repr(cp.rhs) == repr(ref.rhs) and repr(cp.shift) == repr(ref.shift)

    def test_package_does_not_load_numpy_polynomial(self):
        src = str(Path(clampbeam.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import clampbeam, clampbeam.cli; "
                "print('numpy.polynomial' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestRawProblem:
    def test_validation(self):
        rhs = parse("u")
        with pytest.raises(ValueError, match="a < b"):
            RawProblem(rhs=rhs, a=1.0, b=0.0)
        with pytest.raises(ValueError, match="finite"):
            RawProblem(rhs=rhs, A1=float("inf"))
        with pytest.raises(ValueError, match="variable x"):
            RawProblem(rhs=rhs, exact=parse("x + u"))
        for bad in [dict(b=True), dict(B2=True), dict(a="0"), dict(A1=None), dict(b=10**400)]:
            with pytest.raises(ValueError, match="must be a finite number"):
                RawProblem(rhs=rhs, **bad)
        for bad in [dict(b=1e80), dict(a=-1e308, b=1e308), dict(b=1e-90)]:
            with pytest.raises(ValueError, match=r"\(b-a\)\^4 a finite nonzero double"):
                RawProblem(rhs=rhs, **bad)
        # finite data whose cubic has a NaN or infinite coefficient
        for bad in [dict(b=10.0, A2=1e308), dict(A1=-1.7e308)]:
            with pytest.raises(ValueError, match="the cubic through them does not fit in a double"):
                RawProblem(rhs=rhs, **bad)

    def test_homogeneous_unit_detection(self):
        rhs = parse("u")
        assert RawProblem(rhs=rhs).is_homogeneous_unit
        assert not RawProblem(rhs=rhs, A1=1.0).is_homogeneous_unit
        assert not RawProblem(rhs=rhs, a=-1.0, b=1.0).is_homogeneous_unit


class TestCanonicalize:
    def test_identity_shortcut_keeps_rhs(self):
        raw = RawProblem(rhs=parse("sin(x) + u*v"))
        cp = canonicalize(raw)
        assert cp.rhs is raw.rhs
        assert not cp.is_transformed
        assert cp.length == 1.0 and cp.scale == 1.0

    def test_shifted_problem_is_transformed(self):
        cp = canonicalize(RawProblem(rhs=parse("u"), A1=1.0))
        assert cp.is_transformed
        assert cp.length == 1.0

    @given(a=st.floats(min_value=-2, max_value=2), gap=st.floats(min_value=0.5, max_value=3),
           A1=st.floats(min_value=-2, max_value=2), B1=st.floats(min_value=-2, max_value=2),
           A2=st.floats(min_value=-2, max_value=2), B2=st.floats(min_value=-2, max_value=2),
           x=st.floats(min_value=0, max_value=1), u=DATA, y=DATA, v=DATA, z=DATA)
    def test_transform_matches_direct_composition(self, a, gap, A1, B1, A2, B2, x, u, y, v, z):
        b = a + gap
        raw = RawProblem(rhs=parse("x + 2*u + 3*y + 5*v + 7*z"),
                         a=a, b=b, A1=A1, B1=B1, A2=A2, B2=B2)
        cp = canonicalize(raw)
        L = b - a
        t = a + L * x
        p = cp.shift
        expect = L**4 * (t + 2 * (u + p.value(t)) + 3 * (y / L + p.slope(t))
                         + 5 * (v / L**2 + p.curvature(t)) + 7 * (z / L**3 + p.jerk(t)))
        got = evaluate(cp.rhs, x, u, y, v, z)
        scale = 1.0 + abs(expect)
        assert got == pytest.approx(expect, abs=1e-9 * scale)

    def test_scale_on_unit_data_interval(self):
        # w'''' = 1 on [0,2] becomes u'''' = 16 on [0,1]
        cp = canonicalize(RawProblem(rhs=parse("1"), a=0.0, b=2.0))
        assert evaluate(cp.rhs, 0.5, 0, 0, 0, 0) == pytest.approx(16.0)

    def test_exact_on_grid(self):
        raw = RawProblem(rhs=parse("12 + u*z/2 - y*v/4 + y/4"),
                         exact=parse("x^4/2 - x^3 + x^2/2"))
        cp = canonicalize(raw)
        g = Grid(10)
        ex = cp.exact_on(g)
        expect = g.nodes**4 / 2 - g.nodes**3 + g.nodes**2 / 2
        np.testing.assert_allclose(ex.values, expect, atol=1e-15)

    def test_exact_on_transformed_interval(self):
        # w'''' = 1 on [0,2], w = t^2(2-t)^2/24; canonical u(x) = w(2x)
        raw = RawProblem(rhs=parse("1"), a=0.0, b=2.0,
                         exact=parse("x^2*(2 - x)^2/24"))
        cp = canonicalize(raw)
        g = Grid(8)
        t = 2.0 * g.nodes
        np.testing.assert_allclose(cp.exact_on(g).values,
                                   t**2 * (2 - t) ** 2 / 24.0, atol=1e-15)

    def test_exact_absent(self):
        cp = canonicalize(RawProblem(rhs=parse("1")))
        assert cp.exact_on(Grid(8)) is None


class TestRecoverSolution:
    def test_round_trip_with_slope(self):
        raw = RawProblem(rhs=parse("1"), a=1.0, b=3.0, A1=2.0, B1=4.0, A2=-1.0, B2=0.5)
        cp = canonicalize(raw)
        g = Grid(10)
        u = GridFunction.sample(g, lambda x: x**2 * (1 - x) ** 2)
        du = GridFunction.sample(g, lambda x: 2 * x * (1 - x) * (1 - 2 * x))
        rec = recover_solution(u, cp, du)
        assert rec.t[0] == 1.0 and rec.t[-1] == 3.0
        assert rec.w[0] == pytest.approx(2.0, abs=1e-14)
        assert rec.w[-1] == pytest.approx(4.0, abs=1e-14)
        assert rec.dw[0] == pytest.approx(-1.0, abs=1e-14)
        assert rec.dw[-1] == pytest.approx(0.5, abs=1e-14)

    def test_without_slope(self):
        cp = canonicalize(RawProblem(rhs=parse("1")))
        g = Grid(8)
        rec = recover_solution(GridFunction.sample(g, lambda x: 0.0 * x), cp)
        assert rec.dw is None
        np.testing.assert_array_equal(rec.t, g.nodes)

    @staticmethod
    def _recovered(times=1):
        cp = get_example(3).canonical()
        u = GridFunction.sample(Grid(16), lambda x: x**2 * (1 - x) ** 2)
        return [recover_solution(u, cp, diff5(u)) for _ in range(times)]

    def test_pickled_arrays_stay_read_only(self):
        rec = pickle.loads(pickle.dumps(self._recovered()[0]))
        assert not any(a.flags.writeable for a in (rec.t, rec.w, rec.dw))

    def test_owns_copies_of_the_callers_arrays(self):
        t, w, dw = np.linspace(0.0, 2.0, 9), np.ones(9), np.zeros(9)
        rec = RecoveredSolution(t=t, w=w, dw=dw)
        for mine, kept in ((t, rec.t), (w, rec.w), (dw, rec.dw)):
            assert mine.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(mine, kept)

    def test_equal_only_to_itself(self):
        # ndarray fields would make == ask numpy for a truth value and hash fail
        first, second = self._recovered(times=2)
        assert first == first and second == second
        assert first != second and not first == second
        assert len({first, second, first}) == 2


class TestProblemFiles:
    def test_full_file(self):
        text = """
        # an interval problem with everything set
        a = 1
        b = 3
        A1 = 2.0
        B1 = 4.0
        A2 = -1
        B2 = 0.5
        f = u*v + sin(x)   # rhs
        exact = x^2
        M = 10
        K1 = 0.25
        K3 = 1e-3
        """
        loaded = parse_problem_text(text)
        assert loaded.raw.a == 1.0 and loaded.raw.b == 3.0
        assert loaded.raw.A2 == -1.0
        assert loaded.M == 10.0
        assert loaded.ks == (0.25, 0.0, 1e-3, 0.0)
        assert loaded.raw.exact is not None

    def test_defaults(self):
        loaded = parse_problem_text("f = 24")
        raw = loaded.raw
        assert (raw.a, raw.b) == (0.0, 1.0)
        assert raw.A1 == raw.B1 == raw.A2 == raw.B2 == 0.0
        assert loaded.M is None and loaded.ks is None

    @pytest.mark.parametrize("text, fragment", [
        ("f = u\ngamma = 1", "unknown key 'gamma'"),
        ("f = u\nf = v", "duplicate key 'f'"),
        ("a = 0\nb = 1", "missing required key 'f'"),
        ("f = u\na = zero", "needs a number"),
        ("f = u\nM = -2", "M must be positive"),
        ("f = u\nK2 = -1", "nonnegative"),
        ("f = u\na = 2\nb = 1", "a < b"),
        ("f = u +", "bad f expression"),
        ("f = u\nexact = x + u", "variable x"),
        ("just some text", "expected 'key = value'"),
        ("f = u\na = inf", "must be finite"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(ProblemFormatError, match=fragment.replace("(", "\\(").replace(")", "\\)").replace("+", "\\+")):
            parse_problem_text(text)

    def test_error_reports_line_number(self):
        with pytest.raises(ProblemFormatError, match="line 3"):
            parse_problem_text("f = u\n# fine\ngamma = 1")

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "prob.txt"
        path.write_text("f = 24\nM = 48\n", encoding="utf-8")
        loaded = load_problem_file(path)
        assert loaded.M == 48.0
        assert evaluate(loaded.raw.rhs, 0, 0, 0, 0, 0) == 24.0
