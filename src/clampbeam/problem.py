"""Problem definitions and the reduction to canonical form on [0,1].

A raw problem is

    w''''(t) = F(t, w, w', w'', w''')   on (a,b),
    w(a) = A1,  w(b) = B1,  w'(a) = A2,  w'(b) = B2.

Subtracting the cubic Hermite interpolant P of the boundary data and mapping
t = a + (b-a) x turns this into the canonical homogeneous problem

    u''''(x) = f(x, u, u', u'', u''')   on (0,1),
    u(0) = u(1) = u'(0) = u'(1) = 0,

with

    f(x,u,y,v,z) = (b-a)^4 F(a+(b-a)x, u+P, y/(b-a)+P', v/(b-a)^2+P'', z/(b-a)^3+P''')

where P and its derivatives are evaluated at t = a+(b-a)x.  The derivative
arguments carry the chain-rule scaling, so F sees approximations of the true
w-derivatives.  Solutions transform back by w(t) = u(x) + P(t).

Problem files are plain UTF-8 text, one "key = value" pair per line, with
'#' starting a comment.  Recognized keys: a, b (interval, default [0,1]),
A1, B1, A2, B2 (boundary data, default 0), f (required rhs expression),
exact (optional exact solution, an expression in x only, in raw coordinates),
M (optional domain size for the condition check) and K1..K4 (optional
Lipschitz constants).  Unknown or duplicate keys are errors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import (
    BinOp,
    ExprError,
    Expression,
    Neg,
    Num,
    Var,
    evaluate,
    parse,
    substitute,
    variables_in,
)
from .numerics import Grid, GridFunction, _Frozen, _is_number

__all__ = [
    "RawProblem",
    "CubicInterpolant",
    "hermite_cubic",
    "CanonicalProblem",
    "canonicalize",
    "RecoveredSolution",
    "recover_solution",
    "LoadedProblem",
    "ProblemFormatError",
    "parse_problem_text",
    "load_problem_file",
]


@dataclass(frozen=True)
class RawProblem:
    """A fourth-order problem with general interval and boundary data."""

    rhs: Expression
    a: float = 0.0
    b: float = 1.0
    A1: float = 0.0
    B1: float = 0.0
    A2: float = 0.0
    B2: float = 0.0
    exact: Optional[Expression] = None

    def __post_init__(self):
        hermite_cubic(self.a, self.b, self.A1, self.B1, self.A2, self.B2)  # checks the data
        if self.exact is not None:
            extra = variables_in(self.exact) - {"x"}
            if extra:
                raise ValueError(
                    f"exact solution may only use the variable x, found {sorted(extra)}")

    @property
    def is_homogeneous_unit(self) -> bool:
        """True when the problem is already in canonical form."""
        return (self.a, self.b) == (0.0, 1.0) and \
            self.A1 == self.B1 == self.A2 == self.B2 == 0.0


@dataclass(frozen=True)
class CubicInterpolant:
    """Cubic P(t) = c0 + c1 t + c2 t^2 + c3 t^3 matching four boundary data."""

    c0: float
    c1: float
    c2: float
    c3: float

    @property
    def coeffs(self) -> tuple:
        return (self.c0, self.c1, self.c2, self.c3)

    def value(self, t):
        return ((self.c3 * t + self.c2) * t + self.c1) * t + self.c0

    def slope(self, t):
        return (3.0 * self.c3 * t + 2.0 * self.c2) * t + self.c1

    def curvature(self, t):
        return 6.0 * self.c3 * t + 2.0 * self.c2

    def jerk(self, t):
        return 6.0 * self.c3 + 0.0 * t

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0, 0.0, 0.0, 0.0)


def hermite_cubic(a: float, b: float, A1: float, B1: float, A2: float, B2: float
                  ) -> CubicInterpolant:
    """The unique cubic with P(a)=A1, P(b)=B1, P'(a)=A2, P'(b)=B2.

    Built in the normalized coordinate s = (t-a)/(b-a) from the standard
    Hermite basis, then expanded to monomial coefficients in t.  The data
    must be finite numbers, and the scale (b-a)^4 a finite nonzero double;
    that bound keeps each divisor (b-a)^k, k <= 3, finite and nonzero too.
    The data must also be small enough that every coefficient is finite.
    """
    data = (a, b, A1, B1, A2, B2)  # plain finite floats, as problem files give, pass at once
    if not all(type(val) is float and -math.inf < val < math.inf for val in data):
        for name, val in zip(("a", "b", "A1", "B1", "A2", "B2"), data):
            if not (_is_number(val) and abs(val) <= sys.float_info.max):  # an int may exceed it
                raise ValueError(f"{name} must be a finite number, got {val!r}")
    try:  # b - a overflows to inf, (b - a)^4 to an OverflowError
        ok = a < b and 0.0 < (float(b) - float(a)) ** 4 < math.inf
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"need a < b and (b-a)^4 a finite nonzero double, got a={a!r}, b={b!r}")
    L = b - a
    gap = B1 - A1
    m0 = L * A2
    m1 = L * B2
    in_s = [A1, m0, 3.0 * gap - 2.0 * m0 - m1, -2.0 * gap + m0 + m1]
    coeffs = _compose_affine(in_s, -a / L, 1.0 / L)
    if not all(-math.inf < c < math.inf for c in coeffs):  # NaN fails too
        raise ValueError(f"boundary data A1={A1!r}, B1={B1!r}, A2={A2!r}, B2={B2!r} on "
                         f"[{a!r}, {b!r}]: the cubic through them does not fit in a double")
    return CubicInterpolant(*coeffs)


def _poly_expr(coeffs) -> Expression:
    """Expression for sum(c_k x^k), skipping exact-zero coefficients."""
    terms = []
    for k, c in enumerate(coeffs):
        c = float(c)
        if c == 0.0:
            continue
        if k == 0:
            terms.append((c, Num(abs(c))))
            continue
        xpow = Var("x") if k == 1 else BinOp("^", Var("x"), Num(float(k)))
        terms.append((c, xpow if abs(c) == 1.0 else BinOp("*", Num(abs(c)), xpow)))
    if not terms:
        return Num(0.0)
    sign, node = terms[0]
    if sign < 0:
        node = Num(-node.value) if isinstance(node, Num) else Neg(node)
    for sign, term in terms[1:]:
        node = BinOp("-" if sign < 0 else "+", node, term)
    return node


def _compose_affine(coeffs, a: float, L: float) -> list:
    """Coefficients of p(a + L x) in x, given coefficients of p(t) in t, L > 0.

    Horner steps r <- c_k + r*(a + L x) on Python floats, with the rounding
    of numpy.polynomial's composition: each coefficient of a product is a
    sum started from 0.0, so a zero coefficient is never -0.0.
    """
    a, L = float(a), float(L)
    r = [0.0 + float(coeffs[-1])]
    for c in reversed(coeffs[:-1]):
        r = ([float(c) + (0.0 + r[0] * a)]
             + [0.0 + r[j] * a + r[j - 1] * L for j in range(1, len(r))]
             + [0.0 + r[-1] * L])
    return r


@dataclass(frozen=True)
class CanonicalProblem:
    """Homogeneous clamped problem on [0,1] plus its provenance."""

    rhs: Expression
    raw: RawProblem
    shift: CubicInterpolant
    length: float  # b - a

    @property
    def scale(self) -> float:
        return self.length ** 4

    @property
    def is_transformed(self) -> bool:
        return not self.raw.is_homogeneous_unit

    def exact_on(self, grid: Grid) -> Optional[GridFunction]:
        """Exact canonical solution sampled at the nodes, if one was given."""
        if self.raw.exact is None:
            return None
        t = self.raw.a + self.length * grid.nodes
        w = evaluate(self.raw.exact, t, 0.0, 0.0, 0.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # GridFunction rejects non-finite w - P
            return GridFunction(grid, np.asarray(w, dtype=float) - self.shift.value(t))


def canonicalize(raw: RawProblem) -> CanonicalProblem:
    """Reduce a raw problem to canonical form; identity when already there."""
    L = raw.b - raw.a
    shift = hermite_cubic(raw.a, raw.b, raw.A1, raw.B1, raw.A2, raw.B2)
    if raw.is_homogeneous_unit:
        return CanonicalProblem(rhs=raw.rhs, raw=raw, shift=shift, length=1.0)

    # polynomials P, P', P'', P''' composed with t = a + L x
    p0 = _compose_affine(shift.coeffs, raw.a, L)
    c0, c1, c2, c3 = shift.coeffs
    p1 = _compose_affine([c1, 2.0 * c2, 3.0 * c3], raw.a, L)
    p2 = _compose_affine([2.0 * c2, 6.0 * c3], raw.a, L)
    p3 = [6.0 * c3]

    def shifted(var_name: str, poly_coeffs, power: int) -> Expression:
        var: Expression = Var(var_name)
        if L != 1.0 and power > 0:
            var = BinOp("/", var, Num(float(L ** power)))
        poly = _poly_expr(poly_coeffs)
        if poly == Num(0.0):
            return var
        if isinstance(poly, Num) and poly.value < 0:
            return BinOp("-", var, Num(-poly.value))
        return BinOp("+", var, poly)

    t_of_x = _poly_expr([raw.a, L])
    mapping = {
        "x": t_of_x,
        "u": shifted("u", p0, 0),
        "y": shifted("y", p1, 1),
        "v": shifted("v", p2, 2),
        "z": shifted("z", p3, 3),
    }
    body = substitute(raw.rhs, mapping)
    if L != 1.0:
        body = BinOp("*", Num(float(L ** 4)), body)
    return CanonicalProblem(rhs=body, raw=raw, shift=shift, length=float(L))


@dataclass(frozen=True, eq=False)
class RecoveredSolution(_Frozen):
    """Raw-coordinate samples w(t_i) = u(x_i) + P(t_i), optionally w'."""

    t: np.ndarray
    w: np.ndarray
    dw: Optional[np.ndarray] = None

    def __post_init__(self):
        self._own("t", "w", "dw")


def recover_solution(u: GridFunction, problem: CanonicalProblem,
                     du: Optional[GridFunction] = None) -> RecoveredSolution:
    """Map a canonical solution back to the raw interval and variable.

    When the canonical slope du is supplied, the raw slope
    w'(t) = u'(x)/(b-a) + P'(t) is recovered as well.
    """
    t = problem.raw.a + problem.length * u.grid.nodes
    w = u.values + problem.shift.value(t)
    dw = None
    if du is not None:
        dw = du.values / problem.length + problem.shift.slope(t)
    return RecoveredSolution(t=t, w=w, dw=dw)


# ---------------------------------------------------------------------------
# Problem files


class ProblemFormatError(ValueError):
    """Malformed problem file; the message carries the line number."""


@dataclass(frozen=True)
class LoadedProblem:
    """A parsed problem file: the problem plus optional certification data.

    M and ks describe the canonical problem (domain size and Lipschitz
    constants for the condition check); they are passed through to the
    analysis, not consumed here.
    """

    raw: RawProblem
    M: Optional[float] = None
    ks: Optional[tuple] = None


_NUMERIC_KEYS = ("a", "b", "A1", "B1", "A2", "B2", "M", "K1", "K2", "K3", "K4")
_EXPR_KEYS = ("f", "exact")


def parse_problem_text(text: str) -> LoadedProblem:
    """Parse problem-file text; see the module docstring for the format."""
    seen: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ProblemFormatError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _NUMERIC_KEYS and key not in _EXPR_KEYS:
            raise ProblemFormatError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ProblemFormatError(f"line {lineno}: duplicate key {key!r}")
        if key in _NUMERIC_KEYS:
            try:
                number = float(value)
            except ValueError:
                raise ProblemFormatError(
                    f"line {lineno}: {key} needs a number, got {value!r}") from None
            if not math.isfinite(number):
                raise ProblemFormatError(f"line {lineno}: {key} must be finite")
            seen[key] = number
        else:
            try:
                seen[key] = parse(value)
            except ExprError as err:
                raise ProblemFormatError(f"line {lineno}: bad {key} expression: {err}") from None
    if "f" not in seen:
        raise ProblemFormatError("missing required key 'f'")

    try:
        raw = RawProblem(rhs=seen["f"], exact=seen.get("exact"),
                         **{key: seen[key] for key in _NUMERIC_KEYS[:6] if key in seen})
    except ValueError as err:
        raise ProblemFormatError(str(err)) from None

    M = seen.get("M")
    if M is not None and M <= 0:
        raise ProblemFormatError(f"M must be positive, got {M!r}")
    ks = None
    if any(f"K{i}" in seen for i in (1, 2, 3, 4)):
        ks = tuple(seen.get(f"K{i}", 0.0) for i in (1, 2, 3, 4))
        if any(k < 0 for k in ks):
            raise ProblemFormatError("Lipschitz constants K1..K4 must be nonnegative")
    return LoadedProblem(raw=raw, M=M, ks=ks)


def load_problem_file(path) -> LoadedProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem_text(fh.read())
