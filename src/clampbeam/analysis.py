"""Existence, uniqueness and a-priori error certification.

The solvability theory lives on the box

    D_M = { (x,u,y,v,z) : x in [0,1], |u| <= M/384, |y| <= M/(72 sqrt 3),
            |v| <= M, |z| <= M }.

Two conditions are checked there:

  boundedness   sup |f| <= M/2          (existence of a solution, and the
                                         iteration stays inside the box),
  contraction   q = K1/384 + K2/(72 sqrt 3) + K3 + K4 < 1/2
                                         (uniqueness in the box),

where K1..K4 bound |df/du|, |df/dy|, |df/dv|, |df/dz| on D_M.  The factors
(1/384, 1/(72 sqrt 3), 1, 1) are _SCALES, the one source of the box's
half-widths, of q's weights and of solution_error_bounds.  When the
constants are not supplied they are estimated by maximizing the symbolic
partial derivatives over a tensor lattice covering the box; right-hand
sides that cannot be differentiated symbolically (abs) fall back to a
centered finite-difference probe, itself one expression, on the same lattice.

sup|f| and K1..K4 are each the largest |value| of one expression on the
lattice, read off its exact least and greatest values.  A constant partial
(a literal, or one that folds to a finite literal c) needs no lattice: its
sup is |c|.  Where the expression spans more than _BLOCK values, the chain
of +, -, * and unary minus at the root of its program is not evaluated
point by point but run on pairs (lo, hi), in _PAIRS' arithmetic, over its
shared axes, those it reads through more than one leaf.  The one invariant:

  with the shared axes held fixed, every other axis occurs once, and then
  interval evaluation gives the exact range (Moore, Kearfott & Cloud,
  Introduction to Interval Analysis, SIAM 2009); rounded +, - and * are
  monotone in each operand, so every lo and hi, taken at endpoints or
  corners, is a value one evaluation of the whole lattice computes too.

Each leaf runs only on the sub-lattice of the axes it reads, yet the result
equals the whole lattice's bit for bit.  All else, and the whole program
when its shared axes exceed _BLOCK values, runs in slabs of at most _BLOCK
values (512 KiB) folded into running extremes: memory stays a few such
arrays.  Every such run is expr._run's: a failing one gives its first
undefined point, and the first slab whose run fails holds the lattice's.
That run's _Failure names the error there, on its masked run's operands.

Lattice estimates are sampled lower bounds of true suprema, so a computed
certificate is evidence, not proof; supply hand-derived constants when a
rigorous statement is wanted.

apriori_bound's envelope needs a map with Lipschitz constant q + 1/2 in the
triplet norm; the implemented sweep's quotients are 0.773, 0.942 and 1.286
on examples 1, 2 and 6, above q + 1/2 (ROADMAP item 16).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import (
    BinOp,
    ExprDerivativeError,
    Expression,
    Num,
    Var,
    VARIABLES,
    _compile,
    _exec,
    _Failure,
    _minus,
    _negate,
    _plus,
    _Program,
    _run,
    _times,
    differentiate,
    substitute,
)
from .kernels import KERNEL_BOUNDS
from .numerics import _is_number

__all__ = [
    "DomainBox",
    "LatticeSpec",
    "DomainSamplingError",
    "ConditionReport",
    "contraction_factor",
    "check_conditions",
    "apriori_bound",
    "solution_error_bounds",
]

# Most values one evaluation on the lattice yields: 512 KiB of float64, so
# f's temporaries stay in cache.  Timed on a Xeon with 2 MiB of L2 per core:
# on the mix of the certify benchmark 2^16 and 2^17 tie and 2^14, 2^15 and
# 2^18 are slower; 2^16 takes fewer page faults on the small checks.
_BLOCK = 2 ** 16
# The scale factors of the axes u, y, v, z, that is of u and its first three
# derivatives: the kernel bounds 1/384 and 1/(72 sqrt 3), then 1 and 1.  The
# half-widths of D_M are M times them, q weighs K1..K4 by them, and
# solution_error_bounds scales a triplet-norm bound p by them.
_SCALES = (KERNEL_BOUNDS.fourth_order, KERNEL_BOUNDS.fourth_order_dx, 1.0, 1.0)


@dataclass(frozen=True)
class DomainBox:
    """The certification box for a given curvature scale M."""

    M: float

    def __post_init__(self):
        if not (_is_number(self.M) and 0 < self.M < math.inf):
            raise ValueError(f"M must be a positive finite number, got {self.M!r}")
        if self.M > sys.float_info.max / 2:  # the box width 2M must be finite
            raise ValueError(f"M must be at most {sys.float_info.max / 2!r}, got {self.M!r}")

    def axis_intervals(self) -> tuple:
        """(lo, hi) per axis in the order (x, u, y, v, z)."""
        return ((0.0, 1.0),) + tuple((-self.M * c, self.M * c) for c in _SCALES)


@dataclass(frozen=True)
class LatticeSpec:
    """Tensor sampling lattice: points per axis (endpoints always included)."""

    points: int = 9

    def __post_init__(self):
        if isinstance(self.points, bool) or not isinstance(self.points, (int, np.integer)):
            raise ValueError(f"lattice points must be an integer, got {self.points!r}")
        if self.points < 5:
            raise ValueError(f"need at least 5 lattice points per axis, got {self.points!r}")


class DomainSamplingError(ValueError):
    """The right-hand side is undefined somewhere in the box.

    .point holds an offending (x, u, y, v, z) sample.
    """

    def __init__(self, message: str, point: tuple):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the certification check on D_M."""

    M: float
    sup_f: float
    ks: tuple
    ks_supplied: bool
    fd_fallback: tuple
    lattice_points: int

    @property
    def q(self) -> float:
        return contraction_factor(*self.ks)

    @property
    def bounded(self) -> bool:
        """sup|f| <= M/2: a solution exists and iterates stay in the box."""
        return self.sup_f <= self.M / 2.0

    @property
    def contractive(self) -> bool:
        return self.q < 0.5

    @property
    def certified(self) -> bool:
        """Both conditions hold: unique solution in the box, geometric rate."""
        return self.bounded and self.contractive

    def summary_lines(self) -> list:
        k_note = "supplied" if self.ks_supplied else \
            f"lattice estimate, {self.lattice_points} points per axis"
        if self.fd_fallback:
            k_note += f"; finite differences used for {', '.join(self.fd_fallback)}"
        lines = [
            f"M            {self.M:.17g}",
            f"sup|f|       {self.sup_f:.17g}",
            f"M/2          {self.M / 2.0:.17g}",
            "K1..K4       " + ", ".join(f"{k:.17g}" for k in self.ks) + f"  ({k_note})",
            f"q            {self.q:.17g}",
            f"boundedness  {'PASS' if self.bounded else 'FAIL'} (need sup|f| <= M/2)",
            f"contraction  {'PASS' if self.contractive else 'FAIL'} (need q < 1/2)",
        ]
        if self.certified:
            lines.append("verdict      unique solution in the box; iteration converges geometrically")
        elif self.bounded:
            lines.append("verdict      a solution exists in the box; uniqueness not established")
        else:
            lines.append("verdict      not certified")
        return lines


def contraction_factor(k1: float, k2: float, k3: float, k4: float) -> float:
    """q = K1/384 + K2/(72 sqrt 3) + K3 + K4; the map contracts when q < 1/2."""
    ks = (k1, k2, k3, k4)
    if not all(_is_number(k) and 0 <= k < math.inf for k in ks):
        raise ValueError(f"Lipschitz constants must be finite and nonnegative numbers, got {ks!r}")
    return sum((k * c for k, c in zip(ks, _SCALES)), -0.0)  # -0.0 + x is x, even for x = -0.0


def _lattice_env(box: DomainBox, spec: LatticeSpec) -> dict:
    """Sparse broadcastable lattice axes, one array of spec.points per axis.

    The axes take memory linear in points, but evaluating f on all of them at
    once broadcasts to points^k values for the k axes f reads; _blocks cuts
    that evaluation into slabs.
    """
    steps = np.arange(spec.points)
    env = {}
    for idx, (name, (lo, hi)) in enumerate(zip(VARIABLES, box.axis_intervals())):
        pts = steps * ((hi - lo) / (spec.points - 1)) + lo  # np.linspace, bit for bit
        pts[-1] = hi
        shape = [1] * len(VARIABLES)
        shape[idx] = spec.points
        env[name] = pts.reshape(shape)
    return env


def _find_bad_point(program: _Program, env: dict, failure: Optional[_Failure] = None) -> tuple:
    """First undefined point of the lattice env in C order, and the error there.

    failure is that of a run of program, or of a part of it, on env.  A run
    of program itself is of the first slab that fails, and names the point
    and the error; otherwise a sweep of runs over the slabs finds that run.
    """
    if failure is None or failure.program is not program:
        for slab in _blocks(program.reads, env):
            try:
                _run(program, _slab_args(env, slab))
            except _Failure as err:
                failure = err
                break
        else:
            raise RuntimeError("the lattice failed but no slab of it does")
    point, err = failure.error()
    return tuple(map(float, point)), err


def _slab_args(env: dict, slab: Optional[tuple]) -> list:
    """The axes x, u, y, v, z of the lattice env, each cut to slab unless it is None."""
    args = [env[name] for name in VARIABLES]
    if slab is None:
        return args
    return [a[(slice(None),) * k + (cut,)] for k, (a, cut) in enumerate(zip(args, slab))]


def _blocks(reads: tuple, env: dict) -> list:
    """Slabs of the lattice, in C order, on which a program yields <= _BLOCK values.

    reads is the program's tuple of variable slots, ascending.  A slab is
    one slice per axis.  Only the axes read are cut: the fewest leading ones
    whose cut leaves the rest within _BLOCK, the last of them into runs of
    points and the others point by point.  A lattice that fits is the single
    slab None, the whole lattice.
    """
    sizes = [env[VARIABLES[k]].size for k in reads]
    cut, rest = len(reads), 1
    while cut and rest * sizes[cut - 1] <= _BLOCK:
        cut -= 1
        rest *= sizes[cut]
    if not cut:
        return [None]
    step = _BLOCK // rest
    slabs = []
    for index in itertools.product(*map(range, sizes[:cut - 1])):
        for start in range(0, sizes[cut - 1], step):
            slab = [slice(None)] * len(VARIABLES)
            for k, i in zip(reads, index):
                slab[k] = slice(i, i + 1)
            slab[reads[cut - 1]] = slice(start, start + step)
            slabs.append(tuple(slab))
    return slabs


def _slab_extremes(run, slabs: list) -> tuple:
    """(min, max) of run(slab) over the slabs, each folded into running extremes."""
    lo, hi = math.inf, -math.inf
    for slab in slabs:
        vals = run(slab)
        # the reductions also take the float a constant expression evaluates to
        lo = min(lo, np.minimum.reduce(vals, None))
        hi = max(hi, np.maximum.reduce(vals, None))
    return lo, hi


def _hull(*corners) -> tuple:
    return functools.reduce(np.minimum, corners), functools.reduce(np.maximum, corners)


# The instructions whose extremes on a product of value sets follow from the
# extremes of their operands, each monotone in one operand while the other is
# held fixed: their arithmetic on pairs (lo, hi).
_PAIRS = {_plus: lambda a, b, node: (a[0] + b[0], a[1] + b[1]),
          _minus: lambda a, b, node: (a[0] - b[1], a[1] - b[0]),
          _times: lambda a, b, node: _hull(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]),
          _negate: lambda a, b, node: (-a[1], -a[0])}


def _extremes(program: _Program, env: dict) -> tuple:
    """Exact (min, max) of program on the lattice env, or a _Failure.

    The chain is the +, -, * and unary minus instructions on more than
    _BLOCK values reached from the root through such instructions; its
    other operands are leaves.  Invariant: with the axes the chain reads
    through more than one leaf held fixed, every other axis occurs once, so
    one pass of pairs (lo, hi) up the chain, at endpoints or corners, is
    exact.  When there is no chain, or its shared axes exceed _BLOCK values,
    all runs in slabs, the first failing slab's run raising.
    """
    points = [env[name].size for name in VARIABLES]

    def size(axes) -> int:
        return math.prod(points[k] for k in axes)

    def in_slabs(leaf: _Program) -> tuple:
        return _slab_extremes(lambda slab: _run(leaf, _slab_args(env, slab)), _blocks(leaf.reads, env))

    if size(program.reads) <= _BLOCK:
        return in_slabs(program)
    axes = [frozenset((k,)) for k in range(len(VARIABLES))]
    axes += [frozenset()] * (len(program.template) - len(axes))
    for _, out, a, b, *_ in program.code:
        axes[out] = axes[a] | axes[b]
    uses = [0] * len(axes)  # occurrences of each slot in the chain, counted along the DAG
    uses[program.result] = 1
    chain = {}  # out: its instruction, in reverse code order
    for ins in reversed(program.code):
        op, out, a, b = ins[:4]
        if uses[out] and op in _PAIRS and size(axes[out]) > _BLOCK:
            chain[out] = ins
            uses[a] += uses[out]
            uses[b] += 0 if op is _negate else uses[out]
    if not chain:
        return in_slabs(program)
    leaves = [s for s, n in enumerate(uses) if n and s not in chain]
    shared = {k for k in range(len(VARIABLES)) if sum(uses[s] for s in leaves if k in axes[s]) > 1}
    if size(shared) > _BLOCK or any(axes[s] & shared and size(axes[s]) > _BLOCK for s in leaves):
        return in_slabs(program)
    pairs = [None] * len(program.template)
    for s in leaves:
        need = {s}  # the slots s is computed from; code is in post-order
        for _, out, a, b, *_ in reversed(program.code):
            if out in need:
                need.update((a, b))
        leaf = _Program(program.root, program.template, [ins for ins in program.code if ins[1] in need],
                        s, tuple(sorted(axes[s])), program.finite)
        if axes[s] & shared:
            vals, cut = _run(leaf, _slab_args(env, None)), tuple(sorted(axes[s] - shared))
            pairs[s] = (np.minimum.reduce(vals, cut, keepdims=True),
                        np.maximum.reduce(vals, cut, keepdims=True))
        else:
            pairs[s] = in_slabs(leaf)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below sees overflow
        lo, hi = _exec(program._replace(code=list(reversed(chain.values()))), pairs, _PAIRS)
        lo, hi = np.minimum.reduce(lo, None), np.maximum.reduce(hi, None)
    # Every pair is a value the whole-lattice run computes, under only +, -, *
    # and negation, so one not finite means that run fails too (_find_bad_point).
    if math.isfinite(lo) and math.isfinite(hi):
        return lo, hi
    raise _Failure()


def _sup_on_lattice(expression: Expression, env: dict,
                    what: str = "right-hand side undefined inside the box") -> float:
    """max |expression| on the lattice env, from its exact extremes.

    expression is compiled once for the extremes and, when they fail, the
    search for the first undefined point in C order.  An expression
    that is, or folds to, a finite constant c needs no lattice: its sup is
    |c|, and a literal needs no program.
    """
    program = None if isinstance(expression, Num) else _compile(expression)
    # a fold knows the result only when it computed all of it
    c = expression.value if program is None else program.template[program.result]
    if c is not None and math.isfinite(c):
        return float(max(0.0, c, -c))  # as below, -0.0 gives +0.0
    program = program or _compile(expression)
    try:
        lo, hi = _extremes(program, env)
    except _Failure as failure:
        point, err = _find_bad_point(program, env, failure)
        labels = ", ".join(f"{n}={p:.9g}" for n, p in zip(VARIABLES, point))
        raise DomainSamplingError(f"{what}: {err} at ({labels})", point) from err
    # 0.0 first, so an f that is zero everywhere gives +0.0, not -0.0
    return float(max(0.0, hi, -lo))


def _fd_partial_sup(expression: Expression, env: dict, var: str, width: float) -> float:
    """Centered-difference bound estimate for |df/dvar| on the lattice.

    The probe (f(var + delta) - f(var - delta)) / (2 delta) is one
    expression, so a failure of either term, or an overflow, names a point.
    """
    delta = 1e-6 * width if width > 0 else 1e-6
    shifted = [substitute(expression, {var: BinOp(op, Var(var), Num(delta))}) for op in "+-"]
    probe = BinOp("/", BinOp("-", *shifted), Num(2.0 * delta))
    return _sup_on_lattice(probe, env, "finite-difference probe left the domain of f")


def check_conditions(rhs: Expression, M: float, ks: Optional[tuple] = None,
                     lattice: LatticeSpec = LatticeSpec()) -> ConditionReport:
    """Check boundedness and contraction for a canonical right-hand side.

    ks, when given, must be the four Lipschitz bounds (K1, K2, K3, K4) valid
    on D_M; otherwise they are estimated on the lattice.  Raises
    DomainSamplingError when f, or a partial derivative or finite-difference
    probe the estimate needs, cannot be evaluated throughout the box; its
    message names which one.
    """
    box = DomainBox(M)
    supplied = ks is not None
    if supplied:
        if not isinstance(ks, (tuple, list, np.ndarray)) or len(ks) != 4:
            raise ValueError(f"ks must be a sequence of four numbers, got {ks!r}")
        contraction_factor(*ks)  # rejects non-numbers, non-finite or negative constants
        ks = tuple(float(k) for k in ks)
    env = _lattice_env(box, lattice)
    sup_f = _sup_on_lattice(rhs, env)

    fd_used: list = []
    if not supplied:
        intervals = dict(zip(VARIABLES, box.axis_intervals()))
        estimated = []
        for var in ("u", "y", "v", "z"):
            lo, hi = intervals[var]
            try:
                partial = differentiate(rhs, var)
            except ExprDerivativeError:
                estimated.append(_fd_partial_sup(rhs, env, var, hi - lo))
                fd_used.append(var)
            else:
                what = f"partial derivative df/d{var} undefined inside the box"
                estimated.append(_sup_on_lattice(partial, env, what))
        ks = tuple(estimated)

    return ConditionReport(
        M=float(M),
        sup_f=sup_f,
        ks=ks,
        ks_supplied=supplied,
        fd_fallback=tuple(fd_used),
        lattice_points=lattice.points,
    )


def apriori_bound(q: float, first_step: float, k: int) -> float:
    """Theoretical envelope p_k for the k-th successive-iterate error.

    p_k = (q + 1/2)^k / (1/2 - q) * (distance between the first two
    iteration states).  Requires q < 1/2; the bound is vacuous otherwise.
    It bounds a map with Lipschitz constant q + 1/2 in the triplet norm,
    which the implemented sweep does not meet (see the module docstring):
    for solve's iterates it is an estimate, not a proven bound.
    """
    if not (_is_number(q) and 0.0 <= q < 0.5):
        raise ValueError(f"need 0 <= q < 1/2 for the envelope, got q={q!r}")
    if not (_is_number(first_step) and 0 <= first_step < math.inf):
        raise ValueError(f"first_step must be a finite nonnegative number, got {first_step!r}")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    return (q + 0.5) ** k / (0.5 - q) * first_step


def solution_error_bounds(p: float) -> tuple:
    """Bounds on (u, u', u'', u''') errors implied by a triplet-norm bound p."""
    if not (_is_number(p) and 0 <= p < math.inf):
        raise ValueError(f"p must be a finite nonnegative number, got {p!r}")
    return tuple(p * c for c in _SCALES)
