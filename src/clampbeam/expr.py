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
np.power and requires a positive base.

An expression compiles into a flat instruction list, in which equal
subexpressions share one instruction, and a fold then runs every
instruction whose operands are all known (literals, and x if given).  The
program belongs to its caller; trees keep nothing.  evaluate compiles on
each call; the solver compiles f once per solve, folded at its grid's
nodes.  Values, errors and the subtree an error names are those of a
left-to-right walk of the tree.  One loop, _exec, runs every program, its
arithmetic a table: success paths run flagged (_run, IEEE 754-2019 flags
for the checks' scans), evaluate and failures checked.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "ExprDerivativeError",
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
# Deepest nesting parse accepts, both in levels of the tree and in groups
# open at once (parentheses, calls, unary minus, exponents).  Parsing,
# rendering, differentiation and compilation recurse once per level, so a
# deeper input would exhaust the interpreter's stack instead of failing as
# bad input.
MAX_DEPTH = 100


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
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(source: str):
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind, pos = m.lastgroup, m.start()
        if kind == "number":
            value = float(m.group())
            if not math.isfinite(value):
                raise ExprSyntaxError("number literal overflows a double", source, pos)
            tokens.append(("number", value, pos))
        elif kind == "ident":
            tokens.append(("ident", m.group(), pos))
        elif kind == "op":
            tokens.append((m.group(), m.group(), pos))
        elif kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", source, pos)
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0  # groups open around the token being read

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

    def deeper(self, depth: int, pos: int) -> int:
        """depth + 1, the level of the node or group at pos; past MAX_DEPTH an error."""
        if depth >= MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                  self.source, pos)
        return depth + 1

    def descend(self, parse, pos: int):
        """parse() inside the group that opens at pos."""
        self.depth = self.deeper(self.depth, pos)  # fails before the recursion is too deep
        out = parse()
        self.depth -= 1
        return out

    # expr, term, factor, power and atom return a node and its tree's depth.

    def parse(self) -> Expression:
        node, _ = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(
                f"unexpected {tok[1]!r} (operators must be explicit; "
                "implicit multiplication is not supported)",
                self.source, tok[2])
        return node

    def expr(self):
        node, depth = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            right, right_depth = self.term()
            node, depth = BinOp(op, node, right), self.deeper(max(depth, right_depth), pos)
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            right, right_depth = self.factor()
            node, depth = BinOp(op, node, right), self.deeper(max(depth, right_depth), pos)
        return node, depth

    def factor(self):
        if self.peek()[0] == "-":
            pos = self.advance()[2]
            inner, depth = self.descend(self.factor, pos)
            if isinstance(inner, Num):  # fold -literal so u^-2 sees an integer
                return Num(-inner.value), 0
            return Neg(inner), self.deeper(depth, pos)
        return self.power()

    def power(self):
        base, depth = self.atom()
        if self.peek()[0] == "^":
            pos = self.advance()[2]
            exponent, exponent_depth = self.descend(self.factor, pos)
            return BinOp("^", base, exponent), self.deeper(max(depth, exponent_depth), pos)
        return base, depth

    def atom(self):
        tok = self.peek()
        if tok[0] == "number":
            self.advance()
            return Num(tok[1]), 0
        if tok[0] == "(":
            self.advance()
            node, depth = self.descend(self.expr, tok[2])
            self.expect(")", "')'")
            return node, depth
        if tok[0] == "ident":
            self.advance()
            name = tok[1]
            if self.peek()[0] == "(":
                if name not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {name!r}", self.source, tok[2])
                self.advance()
                arg, depth = self.descend(self.expr, tok[2])
                self.expect(")", "')'")
                return Call(name, arg), self.deeper(depth, tok[2])
            if name in VARIABLES:
                return Var(name), 0
            if name in CONSTANTS:
                return Num(CONSTANTS[name]), 0
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
# Evaluation: an expression compiles into a flat instruction list

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


def _reject(bad, what: str, node, arg):
    """Raise ExprEvalError naming node and the first sample where bad holds."""
    if bad.any():
        raise ExprEvalError(f"{what} '{to_source(node)}': " + _first_bad(bad, arg))


# functions defined on part of the real line: a mask of the samples outside
# it, and the wording of the error
_DOMAINS = {
    "sqrt": (lambda a: a < 0.0, "sqrt of a negative value in"),
    "log": (lambda a: a <= 0.0, "log of a non-positive value in"),
    "asin": (lambda a: np.abs(a) > 1.0, "asin argument outside [-1,1] in"),
}


def _int_literal_exponent(node) -> int | None:
    if isinstance(node, Num) and float(node.value).is_integer() \
            and abs(node.value) <= MAX_INT_EXPONENT:
        return int(node.value)
    return None


def _repeated_power(base, k: int, node):
    if k == 0:
        return base * 0.0 + 1.0
    if k < 0:
        _reject(np.asarray(base) == 0.0, "zero base with negative exponent in", node, base)
        denom = _repeated_power(base, -k, node)
        # a tiny nonzero base can underflow to an exact zero power
        _reject(np.asarray(denom) == 0.0, "power underflow gives a zero divisor in", node, base)
        return 1.0 / denom
    acc = base
    for _ in range(k - 1):
        acc = acc * base
    return acc


def _check_divisor(right, node):
    _reject(np.asarray(right) == 0.0, "division by zero in", node, right)


def _check_power_base(left, node):
    _reject(np.asarray(left) <= 0.0,
            "power with non-integer exponent needs a positive base in", node, left)


# Instructions: op(a, b, node) with the values of two slots and the node an
# error names.  Unary ops ignore b.

def _plus(a, b, node):
    return a + b


def _minus(a, b, node):
    return a - b


def _times(a, b, node):
    return a * b


def _checked_quotient(a, b, node):
    _check_divisor(b, node)
    return a / b


def _negate(a, b, node):
    return -a


def _checked_power(a, b, node):
    _check_power_base(a, node)
    out = np.power(a, b)
    if not np.isfinite(out).all():
        raise ExprEvalError(f"non-finite result from '{to_source(node)}'")
    return out


def _call(a, b, node):
    domain = _DOMAINS.get(node.fn)
    if domain is not None:
        _reject(domain[0](np.asarray(a)), domain[1], node, a)
    out = _UFUNCS[node.fn](a)
    _reject(~np.isfinite(out), "non-finite result from", node, a)
    return out


def _fail(message, b, node):  # a failure the fold decided
    raise ExprEvalError(message)


# What _run runs in place of a checked op: its arithmetic, whose failures on
# finite operands raise a flag, and a real power's base check, as 0^0.5 raises none.
_FLAGGED = {_checked_quotient: lambda a, b, node: a / b,
            _checked_power: lambda a, b, node: _check_power_base(a, node) or np.power(a, b),
            _repeated_power: lambda a, k, node: (_repeated_power(a, k, node) if k >= 0
                                                 else 1.0 / _repeated_power(a, -k, node)),
            _call: lambda a, b, node: _UFUNCS[node.fn](a)}

_BINARY = {"+": _plus, "-": _minus, "*": _times, "/": _checked_quotient, "^": _checked_power}
_VARIABLE_SLOTS = {name: i for i, name in enumerate(VARIABLES)}


class _Program(NamedTuple):
    """An expression compiled to a flat list of instructions over value slots.

    root is the expression it came from; the caller that compiled it owns it.
    Slots 0-4 hold x, u, y, v, z; the others hold constants or instruction
    outputs, and no two instructions write one slot.  Instructions (op, out,
    a, b, node, drops) appear in the order in which a left-to-right post-order
    walk of the tree first meets each distinct subtree, so the first failure
    is the walk's.  op is one of nine: the compiler's _plus, _minus, _times,
    _checked_quotient, _checked_power, _repeated_power, _call and _negate, and
    the fold's _fail.  drops lists the outputs whose last reader the
    instruction is, so a run frees intermediate arrays about when a tree walk
    would.
    """

    root: Expression
    template: list  # slot values known before a run, None for the others
    code: list
    result: int
    reads: tuple    # the variable slots the code or the result reads, ascending (after _fold)
    finite: bool = False  # every value the template keeps is finite (after _fold)


class _Compiler:
    """Builds the unfolded _Program of one root; _fold fills in its reads.

    Equal subtrees, found by value, share one slot; a subtree the tree holds
    more than once is walked once.  Each instruction names its own node.
    """

    def __init__(self, root: Expression):
        self.root = root
        self.template: list = [None] * len(VARIABLES)
        self.code: list = []
        self.keys: dict = {}
        self.walked: dict = {}  # id(node): its slot

    def program(self) -> _Program:
        return _Program(self.root, self.template, self.code, self.slot(self.root), ())

    def emit(self, key, op=None, a=0, b=0, node=None, value=None) -> int:
        """The slot of key, made on first use.

        op writes it from slots a and b, or else it holds value.
        """
        slot = self.keys.get(key)
        if slot is None:
            slot = self.keys[key] = len(self.template)
            self.template.append(value)
            if op is not None:
                self.code.append((op, slot, a, b, node, ()))
        return slot

    def slot(self, node) -> int:
        if isinstance(node, Var):
            return _VARIABLE_SLOTS[node.name]
        if isinstance(node, Num):
            return self.emit((type(node.value), repr(node.value)), value=node.value)
        slot = self.walked.get(id(node))
        if slot is None:
            slot = self.walked[id(node)] = self.walk(node)
        return slot

    def walk(self, node) -> int:
        if isinstance(node, BinOp):
            a = self.slot(node.left)
            if node.op == "^":
                k = _int_literal_exponent(node.right)
                if k is not None:
                    k_slot = self.emit(("k", k), value=k)
                    return self.emit(("^k", a, k), _repeated_power, a, k_slot, node)
            b = self.slot(node.right)
            return self.emit((node.op, a, b), _BINARY[node.op], a, b, node)
        if isinstance(node, Call):
            a = self.slot(node.arg)
            return self.emit((node.fn, a), _call, a, a, node)
        if isinstance(node, Neg):
            a = self.slot(node.operand)
            return self.emit(("neg", a), _negate, a, a, node)
        raise TypeError(f"not an expression node: {node!r}")


def _fold(program: _Program, x=None) -> _Program:
    """program with what its known values decide done ahead of any run.

    Known are the template's values and x, unless it is None.  Every
    instruction whose operands are all known runs now; one that fails becomes
    a _fail that raises the same error, and the code after it stays.  A known
    value stays in the template only while an instruction left to run reads
    it, or it is the result; the others are freed once their last folded
    reader has run.  Values, errors and named subtrees stay those of
    evaluate, but a run may return a value the fold keeps, which must not be
    written, and a failure the fold decides raises after the instructions
    ahead of it, which win.  The fold is a new program, owned by its caller,
    as is the one folded.
    """
    vals = program.template.copy()
    vals[0] = x
    last_read = {}
    for i, ins in enumerate(program.code):
        last_read[ins[2]] = last_read[ins[3]] = i
    code, read = [], {program.result}  # read: what the code left reads
    with np.errstate(over="ignore", invalid="ignore"):  # as in _run_checked
        for i, (op, out, a, b, node, _) in enumerate(program.code):
            if vals[a] is not None and vals[b] is not None:
                try:
                    vals[out] = op(vals[a], vals[b], node)
                except ExprEvalError as err:
                    vals.append(str(err))
                    op, a, b = _fail, len(vals) - 1, len(vals) - 1
                else:
                    for s in {a, b} - read:
                        if last_read[s] == i:
                            vals[s] = None
                    continue
            code.append((op, out, a, b, node))
            read.update((a, b))
    last_read = {}
    for i, (op, out, a, b, node) in enumerate(code):
        last_read[a] = last_read[b] = i
    drops: list = [() for _ in code]  # each output goes after its last reader
    for op, out, a, b, node in code:
        if out in last_read:
            drops[last_read[out]] += (out,)
    for s in range(len(vals)):
        if s not in last_read and s != program.result:
            vals[s] = None
    reads = tuple([s for s in range(len(VARIABLES)) if s in last_read or s == program.result])
    finite = all(np.isfinite(v).all() if isinstance(v, np.ndarray) else math.isfinite(v)
                 for v in vals if v is not None and not isinstance(v, str))
    return _Program(program.root, vals, [ins + (d,) for ins, d in zip(code, drops)],
                    program.result, reads, finite)


def _compile(expr: Expression, x=None) -> _Program:
    """expr compiled anew and folded, with x known unless it is None."""
    return _fold(_Compiler(expr).program(), x)


def _exec(program: _Program, values, table: dict):
    """The result slot of program run on values, then its template, each op as table.get(op, op)."""
    vals = list(values) + program.template[len(values):]
    for op, out, a, b, node, drops in program.code:
        vals[out] = table.get(op, op)(vals[a], vals[b], node)
        for s in drops:
            vals[s] = None
    return vals[program.result]


def _run_checked(program: _Program, values: tuple):
    """program's result on values in the variable slots, every check scanned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _result(_exec(program, values, {}), program.root)


def _run(program: _Program, values: tuple):
    """_run_checked's value on finite numpy values, with numpy's floating-point
    flags for the checks' scans: on finite operands each check but _FLAGGED's
    one fails only with a flag.  A run that raises, or of a program not finite,
    falls back."""
    if program.finite:
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return _exec(program, values, _FLAGGED)
        except (FloatingPointError, ExprEvalError):
            pass
    return _run_checked(program, values)


def _result(out, expr):
    arr = np.asarray(out, dtype=float)
    if not np.isfinite(arr).all():
        raise ExprEvalError(f"non-finite result from '{to_source(expr)}'")
    return float(arr) if arr.ndim == 0 else arr


def evaluate(expr: Expression, x, u, y, v, z):
    """Evaluate expr with the given variable values (scalars or arrays).

    Returns a float when the result is zero-dimensional, otherwise the
    broadcast numpy array.  Domain violations and non-finite intermediate
    results raise ExprEvalError naming the failing subexpression.  Each call
    compiles expr.
    """
    return _run_checked(_compile(expr), (x, u, y, v, z))


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
    partial = _diff(expr, var)
    return _num(0.0) if partial is None else partial


def _diff(node, var):
    """d node / d var, or None when node does not read var.

    One walk: a node learns whether it reads var from its operands' results,
    and a subtree free of the target differentiates to zero, even when it
    contains functions with no pointwise rule (abs).
    """
    if isinstance(node, BinOp):
        a, b = node.left, node.right
        da, db = _diff(a, var), _diff(b, var)
        if da is None and db is None:
            return None
        if node.op == "^" and db is None:
            # power rule: the exponent does not involve the target variable
            return _mul(_mul(b, _pow(a, _sub(b, _num(1.0)))), da)
        da, db = (_num(0.0) if d is None else d for d in (da, db))
        if node.op == "^":
            # general case via exp(b*log(a)); defined for a > 0
            inner = _add(_mul(db, Call("log", a)), _mul(b, _div(da, a)))
            return _mul(_pow(a, b), inner)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, _num(2.0)))
    if isinstance(node, Var):
        return _num(1.0) if node.name == var else None
    if isinstance(node, Num):
        return None
    if isinstance(node, Call):
        rule = _CHAIN.get(node.fn)
        if rule is None:  # the argument is not walked again below, so this stays linear
            if var in variables_in(node.arg):
                raise ExprDerivativeError(
                    f"no derivative rule for '{node.fn}' in '{to_source(node)}'")
            return None
        d = _diff(node.arg, var)
        return None if d is None else _mul(rule(node.arg), d)
    if isinstance(node, Neg):
        d = _diff(node.operand, var)
        return None if d is None else _neg(d)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Substitution and printing


def substitute(expr: Expression, mapping: dict) -> Expression:
    """Replace variables by expressions, rebuilding the subtrees that change.

    A subtree that reads no mapped variable is shared with expr, so expr
    itself comes back when it reads none.
    """
    for key in mapping:
        if key not in VARIABLES:
            raise ValueError(f"cannot substitute unknown variable {key!r}")
    return _subst(expr, mapping)


def _subst(node, mapping):
    """node with the mapped variables replaced; a subtree nothing in changes is kept."""
    if isinstance(node, BinOp):
        left, right = _subst(node.left, mapping), _subst(node.right, mapping)
        if left is node.left and right is node.right:
            return node
        return BinOp(node.op, left, right)
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Num):
        return node
    if isinstance(node, Call):
        arg = _subst(node.arg, mapping)
        return node if arg is node.arg else Call(node.fn, arg)
    if isinstance(node, Neg):
        operand = _subst(node.operand, mapping)
        return node if operand is node.operand else Neg(operand)
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
    """Render the tree back to parseable text (round-trips by value).

    Text rendered from a tree that ``parse`` built parses back to an equal
    tree: it opens no more groups than the source did.
    """
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
            # the exponent is a factor, so u^-v needs no group; one would
            # push text rendered from the deepest trees past MAX_DEPTH
            if _prec(expr.right) < _PREC["neg"]:
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
