"""Right-hand-side expressions: parsing, evaluation, symbolic partials.

The grammar covers what problem files need and nothing more:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          (right associative)
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Variables are exactly x, u, y, v, z (position, solution and its first three
derivatives).  pi and e are built-in constants, folded to literals at parse
time.  Function calls take a single argument; the unary minus binds looser
than '^', so -2^2 evaluates to -4.  There is no implicit multiplication:
"2x" is a parse error.

Evaluation accepts floats or numpy arrays for every variable and broadcasts.
Powers with a literal integer exponent in [-9, 9] are computed by repeated
multiplication, so negative bases work; any other exponent goes through
exp(b*log(a)) and requires a positive base.  The solver evaluates f on a grid
whose x never changes, so there every subtree free of u, y, v and z is
evaluated once per problem and grid and reused on later iterations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "ExprDerivativeError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Expression",
    "VARIABLES",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "differentiate",
    "to_source",
    "variables_in",
    "substitute",
]

VARIABLES = ("x", "u", "y", "v", "z")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = (
    "sin", "cos", "tan", "asin", "atan",
    "sinh", "cosh", "exp", "log", "sqrt", "abs",
)

MAX_INT_EXPONENT = 9


class ExprError(ValueError):
    """Base class for everything this module raises on bad input."""


class ExprSyntaxError(ExprError):
    """Lexical or grammatical error, with the offending position."""

    def __init__(self, message: str, source: str, position: int):
        self.position = position
        self.source = source
        super().__init__(f"{message} (column {position + 1} of {source!r})")


class ExprEvalError(ExprError):
    """Domain error or non-finite result while evaluating a node."""


class ExprDerivativeError(ExprError):
    """The symbolic differentiator has no rule for this node."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Lexer and parser

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", source, pos)
        if m.lastgroup == "number":
            value = float(m.group())
            if not math.isfinite(value):
                raise ExprSyntaxError("number literal overflows a double", source, pos)
            tokens.append(("number", value, pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}, found {tok[1]!r}" if tok[0] != "end"
                                  else f"expected {what}, found end of input",
                                  self.source, tok[2])
        return self.advance()

    def parse(self) -> Expression:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(
                f"unexpected {tok[1]!r} (operators must be explicit; "
                "implicit multiplication is not supported)",
                self.source, tok[2])
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expression:
        if self.peek()[0] == "-":
            self.advance()
            inner = self.factor()
            if isinstance(inner, Num):  # fold -literal so u^-2 sees an integer
                return Num(-inner.value)
            return Neg(inner)
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expression:
        tok = self.peek()
        if tok[0] == "number":
            self.advance()
            return Num(tok[1])
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok[0] == "ident":
            self.advance()
            name = tok[1]
            if self.peek()[0] == "(":
                if name not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {name!r}", self.source, tok[2])
                self.advance()
                arg = self.expr()
                self.expect(")", "')'")
                return Call(name, arg)
            if name in VARIABLES:
                return Var(name)
            if name in CONSTANTS:
                return Num(CONSTANTS[name])
            raise ExprSyntaxError(
                f"unknown identifier {name!r} (variables are x, u, y, v, z)",
                self.source, tok[2])
        if tok[0] == "end":
            raise ExprSyntaxError("unexpected end of input", self.source, tok[2])
        raise ExprSyntaxError(f"unexpected {tok[1]!r}", self.source, tok[2])


def parse(source: str) -> Expression:
    """Parse source text into an expression tree."""
    if not isinstance(source, str):
        raise ExprSyntaxError("expression source must be a string", str(source), 0)
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Evaluation

_UFUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "atan": np.arctan,
    "sinh": np.sinh, "cosh": np.cosh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
}


def _first_bad(mask, arg):
    """Describe the first offending sample for an array domain error."""
    arr = np.asarray(arg)
    if arr.ndim == 0:
        return f"argument {float(arr)!r}"
    idx = np.unravel_index(int(np.argmax(mask)), np.shape(mask))
    value = float(np.broadcast_to(arr, np.shape(mask))[idx])
    flat = tuple(int(i) for i in idx)
    where = flat[0] if len(flat) == 1 else flat
    return f"argument {value!r} at sample {where}"


def _check_domain(fn: str, node, arg):
    if fn == "sqrt":
        bad = np.asarray(arg) < 0.0
        if np.any(bad):
            raise ExprEvalError(f"sqrt of a negative value in '{to_source(node)}': "
                                + _first_bad(bad, arg))
    elif fn == "log":
        bad = np.asarray(arg) <= 0.0
        if np.any(bad):
            raise ExprEvalError(f"log of a non-positive value in '{to_source(node)}': "
                                + _first_bad(bad, arg))
    elif fn == "asin":
        bad = np.abs(np.asarray(arg)) > 1.0
        if np.any(bad):
            raise ExprEvalError(f"asin argument outside [-1,1] in '{to_source(node)}': "
                                + _first_bad(bad, arg))


def _int_literal_exponent(node) -> int | None:
    if isinstance(node, Num) and float(node.value).is_integer() \
            and abs(node.value) <= MAX_INT_EXPONENT:
        return int(node.value)
    return None


def _repeated_power(base, k: int, node):
    if k == 0:
        return base * 0.0 + 1.0
    if k < 0:
        bad = np.asarray(base) == 0.0
        if np.any(bad):
            raise ExprEvalError(f"zero base with negative exponent in '{to_source(node)}': "
                                + _first_bad(bad, base))
        denom = _repeated_power(base, -k, node)
        # a tiny nonzero base can underflow to an exact zero power
        bad = np.asarray(denom) == 0.0
        if np.any(bad):
            raise ExprEvalError(f"power underflow gives a zero divisor in '{to_source(node)}': "
                                + _first_bad(bad, base))
        return 1.0 / denom
    acc = base
    for _ in range(k - 1):
        acc = acc * base
    return acc


def _eval(node, env, memo=None):
    """Value of node; runs under evaluate's errstate.

    memo maps the ids of x-only subtrees to their value, or to None until
    first use; such a subtree is evaluated once and then reused.
    """
    if memo is not None and id(node) in memo:
        value = memo[id(node)]
        if value is None:
            value = memo[id(node)] = _eval(node, env)
        return value
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env, memo)
    if isinstance(node, Call):
        arg = _eval(node.arg, env, memo)
        _check_domain(node.fn, node, arg)
        out = _UFUNCS[node.fn](arg)
        bad = ~np.isfinite(np.asarray(out))
        if np.any(bad):
            raise ExprEvalError(f"non-finite result from '{to_source(node)}': "
                                + _first_bad(bad, arg))
        return out
    if isinstance(node, BinOp):
        left = _eval(node.left, env, memo)
        if node.op == "^":
            k = _int_literal_exponent(node.right)
            if k is not None:
                return _repeated_power(left, k, node)
            right = _eval(node.right, env, memo)
            bad = np.asarray(left) <= 0.0
            if np.any(bad):
                raise ExprEvalError(
                    f"power with non-integer exponent needs a positive base in "
                    f"'{to_source(node)}': " + _first_bad(bad, left))
            out = np.power(left, right)
            bad = ~np.isfinite(np.asarray(out))
            if np.any(bad):
                raise ExprEvalError(f"non-finite result from '{to_source(node)}'")
            return out
        right = _eval(node.right, env, memo)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        bad = np.asarray(right) == 0.0
        if np.any(bad):
            raise ExprEvalError(f"division by zero in '{to_source(node)}': "
                                + _first_bad(bad, right))
        return left / right
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(expr: Expression, x, u, y, v, z):
    """Evaluate expr with the given variable values (scalars or arrays).

    Returns a float when the result is zero-dimensional, otherwise the
    broadcast numpy array.  Domain violations and non-finite intermediate
    results raise ExprEvalError naming the failing subexpression.
    """
    return _evaluate(expr, {"x": x, "u": u, "y": y, "v": v, "z": z}, None)


def _evaluate(expr, env, memo):
    with np.errstate(over="ignore", invalid="ignore"):
        out = _eval(expr, env, memo)
    arr = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ExprEvalError(f"non-finite result from '{to_source(expr)}'")
    if arr.ndim == 0:
        return float(arr)
    return arr


# A module-level walk, not a closure: a recursive closure is a reference
# cycle, which would keep roots and the values later stored in it alive
# until the garbage collector runs.
def _mark_x_only(node, roots: dict) -> bool:
    """Whether node is free of u, y, v, z, in one bottom-up pass.

    The ids of the maximal such subtrees below it, bare leaves left out, go
    into roots mapped to None.
    """
    if isinstance(node, Num):
        return True
    if isinstance(node, Var):
        return node.name == "x"
    if isinstance(node, Neg):
        children = (node.operand,)
    elif isinstance(node, Call):
        children = (node.arg,)
    elif isinstance(node, BinOp):
        children = (node.left, node.right)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    x_only = [_mark_x_only(child, roots) for child in children]
    if all(x_only):
        return True
    for child, free in zip(children, x_only):
        if free and not isinstance(child, (Num, Var)):
            roots[id(child)] = None
    return False


def _at_fixed_x(expr: Expression, x):
    """evaluate(expr, x, u, y, v, z) as a function of (u, y, v, z) for one fixed x.

    Values, errors and the subtree an error names are those of evaluate; the
    x-only subtrees are evaluated on first use and reused afterwards, so the
    returned array may be shared with later calls and must not be written.
    """
    memo = {}
    if _mark_x_only(expr, memo) and not isinstance(expr, (Num, Var)):
        memo[id(expr)] = None

    def at(u, y, v, z):
        return _evaluate(expr, {"x": x, "u": u, "y": y, "v": v, "z": z}, memo)

    return at


# ---------------------------------------------------------------------------
# Symbolic partial derivatives


def variables_in(expr: Expression) -> frozenset:
    if isinstance(expr, Num):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return variables_in(expr.operand)
    if isinstance(expr, BinOp):
        return variables_in(expr.left) | variables_in(expr.right)
    if isinstance(expr, Call):
        return variables_in(expr.arg)
    raise TypeError(f"not an expression node: {expr!r}")


def _num(v: float) -> Num:
    return Num(float(v))


def _is_num(e, v=None) -> bool:
    return isinstance(e, Num) and (v is None or e.value == v)


def _add(a, b):
    if _is_num(a) and _is_num(b):
        return _num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(a) and _is_num(b):
        return _num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a) and _is_num(b):
        return _num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return _num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def _neg(a):
    if _is_num(a):
        return _num(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return _num(1.0)
    return BinOp("^", a, b)


_CHAIN = {
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: _neg(Call("sin", a)),
    "tan": lambda a: _div(_num(1.0), _pow(Call("cos", a), _num(2.0))),
    "asin": lambda a: _div(_num(1.0), Call("sqrt", _sub(_num(1.0), _pow(a, _num(2.0))))),
    "atan": lambda a: _div(_num(1.0), _add(_num(1.0), _pow(a, _num(2.0)))),
    "sinh": lambda a: Call("cosh", a),
    "cosh": lambda a: Call("sinh", a),
    "exp": lambda a: Call("exp", a),
    "log": lambda a: _div(_num(1.0), a),
    "sqrt": lambda a: _div(_num(1.0), _mul(_num(2.0), Call("sqrt", a))),
}


def differentiate(expr: Expression, var: str) -> Expression:
    """Symbolic partial derivative with respect to u, y, v or z.

    Results are lightly folded (zeros and literal arithmetic) but not
    otherwise simplified.  abs has no derivative rule; differentiating a
    subtree that contains abs of the target raises ExprDerivativeError
    rather than returning something silently wrong at 0, while subtrees
    free of the target differentiate to zero regardless.
    """
    if var not in ("u", "y", "v", "z"):
        raise ValueError(f"derivative target must be one of u, y, v, z, got {var!r}")
    return _diff(expr, var)


def _diff(node, var):
    if var not in variables_in(node):
        # a subtree free of the target differentiates to zero, even when
        # it contains functions with no pointwise rule (abs)
        return _num(0.0)
    if isinstance(node, Var):
        return _num(1.0)
    if isinstance(node, Neg):
        return _neg(_diff(node.operand, var))
    if isinstance(node, Call):
        rule = _CHAIN.get(node.fn)
        if rule is None:
            raise ExprDerivativeError(
                f"no derivative rule for '{node.fn}' in '{to_source(node)}'")
        return _mul(rule(node.arg), _diff(node.arg, var))
    if isinstance(node, BinOp):
        a, b = node.left, node.right
        da = _diff(a, var)
        if node.op == "^":
            if var not in variables_in(b):
                # power rule: the exponent does not involve the target variable
                return _mul(_mul(b, _pow(a, _sub(b, _num(1.0)))), da)
            db = _diff(b, var)
            # general case via exp(b*log(a)); defined for a > 0
            inner = _add(_mul(db, Call("log", a)), _mul(b, _div(da, a)))
            return _mul(_pow(a, b), inner)
        db = _diff(b, var)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, _num(2.0)))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Substitution and printing


def substitute(expr: Expression, mapping: dict) -> Expression:
    """Replace variables by expressions, rebuilding the tree."""
    for key in mapping:
        if key not in VARIABLES:
            raise ValueError(f"cannot substitute unknown variable {key!r}")
    return _subst(expr, mapping)


def _subst(node, mapping):
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(_subst(node.operand, mapping))
    if isinstance(node, BinOp):
        return BinOp(node.op, _subst(node.left, mapping), _subst(node.right, mapping))
    if isinstance(node, Call):
        return Call(node.fn, _subst(node.arg, mapping))
    raise TypeError(f"not an expression node: {node!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2.5, "^": 3, "atom": 4}


def _prec(node) -> float:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    if isinstance(node, Num) and node.value < 0:
        return _PREC["neg"]
    return _PREC["atom"]


def to_source(expr: Expression) -> str:
    """Render the tree back to parseable text (round-trips by value)."""
    if isinstance(expr, Num):
        value = expr.value
        if float(value).is_integer() and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_source(expr.operand)
        if _prec(expr.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Call):
        return f"{expr.fn}({to_source(expr.arg)})"
    if isinstance(expr, BinOp):
        op = expr.op
        lsrc = to_source(expr.left)
        rsrc = to_source(expr.right)
        if op == "^":
            if _prec(expr.left) <= _PREC["^"]:
                lsrc = f"({lsrc})"
            if _prec(expr.right) < _PREC["^"]:
                rsrc = f"({rsrc})"
        else:
            if _prec(expr.left) < _PREC[op]:
                lsrc = f"({lsrc})"
            if _prec(expr.right) <= _PREC[op]:
                rsrc = f"({rsrc})"
        if op in ("+", "-"):
            return f"{lsrc} {op} {rsrc}"
        return f"{lsrc}{op}{rsrc}"
    raise TypeError(f"not an expression node: {expr!r}")
