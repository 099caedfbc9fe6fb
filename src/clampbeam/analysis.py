"""Existence, uniqueness and a-priori error certification.

The solvability theory lives on the box

    D_M = { (x,u,y,v,z) : x in [0,1], |u| <= M/384, |y| <= M/(72 sqrt 3),
            |v| <= M, |z| <= M }.

Two conditions are checked there:

  boundedness   sup |f| <= M/2          (existence of a solution, and the
                                         iteration stays inside the box),
  contraction   q = K1/384 + K2/(72 sqrt 3) + K3 + K4 < 1/2
                                         (uniqueness in the box, and a
                                         geometric error envelope),

where K1..K4 bound |df/du|, |df/dy|, |df/dv|, |df/dz| on D_M.  When the
constants are not supplied they are estimated by maximizing the symbolic
partial derivatives over a tensor lattice covering the box; right-hand
sides that cannot be differentiated symbolically (abs) fall back to a
centered finite-difference estimate on the same lattice.

Lattice estimates are sampled lower bounds of true suprema, so a computed
certificate is evidence, not proof; supply hand-derived constants when a
rigorous statement is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import (
    ExprDerivativeError,
    ExprEvalError,
    Expression,
    differentiate,
    evaluate,
)
from .kernels import KERNEL_BOUNDS

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

_AXES = ("x", "u", "y", "v", "z")


@dataclass(frozen=True)
class DomainBox:
    """The certification box for a given curvature scale M."""

    M: float

    def __post_init__(self):
        if not (np.isfinite(self.M) and self.M > 0):
            raise ValueError(f"M must be a positive finite number, got {self.M!r}")

    @property
    def u_bound(self) -> float:
        return self.M * KERNEL_BOUNDS.fourth_order

    @property
    def y_bound(self) -> float:
        return self.M * KERNEL_BOUNDS.fourth_order_dx

    @property
    def v_bound(self) -> float:
        return self.M

    @property
    def z_bound(self) -> float:
        return self.M

    def axis_intervals(self) -> tuple:
        """(lo, hi) per axis in the order (x, u, y, v, z)."""
        return (
            (0.0, 1.0),
            (-self.u_bound, self.u_bound),
            (-self.y_bound, self.y_bound),
            (-self.v_bound, self.v_bound),
            (-self.z_bound, self.z_bound),
        )


@dataclass(frozen=True)
class LatticeSpec:
    """Tensor sampling lattice: points per axis (endpoints always included)."""

    points: int = 9

    def __post_init__(self):
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
    if any(not np.isfinite(k) or k < 0 for k in ks):
        raise ValueError(f"Lipschitz constants must be finite and nonnegative, got {ks!r}")
    return (k1 * KERNEL_BOUNDS.fourth_order
            + k2 * KERNEL_BOUNDS.fourth_order_dx
            + k3 + k4)


def _lattice_env(box: DomainBox, spec: LatticeSpec) -> dict:
    """Sparse broadcastable lattice axes; memory stays linear in points."""
    env = {}
    for idx, (name, (lo, hi)) in enumerate(zip(_AXES, box.axis_intervals())):
        pts = np.linspace(lo, hi, spec.points)
        shape = [1] * len(_AXES)
        shape[idx] = spec.points
        env[name] = pts.reshape(shape)
    return env


def _find_bad_point(expression: Expression, env: dict) -> tuple:
    """First undefined sample in lattice (C) order, one axis at a time.

    Evaluation is pointwise, so on each axis the first value whose slab
    (earlier axes pinned, later ones free) fails is the point's coordinate.
    """
    args = [env[name] for name in _AXES]
    for k, axis in enumerate(args):
        for value in np.ravel(axis):
            args[k] = value
            try:
                evaluate(expression, *args)
            except ExprEvalError:
                break
        else:
            raise RuntimeError("vectorized evaluation failed but no lattice slab does")
    return tuple(float(p) for p in args)


def _sup_on_lattice(expression: Expression, env: dict) -> float:
    try:
        vals = evaluate(expression, *(env[name] for name in _AXES))
    except ExprEvalError as err:
        point = _find_bad_point(expression, env)
        labels = ", ".join(f"{n}={p:.9g}" for n, p in zip(_AXES, point))
        raise DomainSamplingError(
            f"right-hand side undefined inside the box: {err} at ({labels})",
            point) from err
    return float(np.max(np.abs(vals)))


def _fd_partial_sup(expression: Expression, env: dict, var: str, width: float) -> float:
    """Centered-difference bound estimate for |df/dvar| on the lattice."""
    delta = 1e-6 * width if width > 0 else 1e-6
    shifted_plus = dict(env)
    shifted_minus = dict(env)
    shifted_plus[var] = env[var] + delta
    shifted_minus[var] = env[var] - delta
    try:
        hi = evaluate(expression, *(shifted_plus[name] for name in _AXES))
        lo = evaluate(expression, *(shifted_minus[name] for name in _AXES))
    except ExprEvalError as err:
        point = _find_bad_point(expression, shifted_plus)
        labels = ", ".join(f"{n}={p:.9g}" for n, p in zip(_AXES, point))
        raise DomainSamplingError(
            f"finite-difference probe left the domain of f: {err} at ({labels})",
            point) from err
    return float(np.max(np.abs(hi - lo)) / (2.0 * delta))


def check_conditions(rhs: Expression, M: float, ks: Optional[tuple] = None,
                     lattice: LatticeSpec = LatticeSpec()) -> ConditionReport:
    """Check boundedness and contraction for a canonical right-hand side.

    ks, when given, must be the four Lipschitz bounds (K1, K2, K3, K4) valid
    on D_M; otherwise they are estimated on the lattice.  Raises
    DomainSamplingError when f cannot even be evaluated throughout the box.
    """
    box = DomainBox(M)
    env = _lattice_env(box, lattice)
    sup_f = _sup_on_lattice(rhs, env)

    fd_used: list = []
    if ks is not None:
        ks = tuple(float(k) for k in ks)
        if len(ks) != 4:
            raise ValueError(f"ks must have four entries, got {len(ks)}")
        if any(not np.isfinite(k) or k < 0 for k in ks):
            raise ValueError(f"Lipschitz constants must be finite and nonnegative, got {ks!r}")
        supplied = True
    else:
        supplied = False
        intervals = dict(zip(_AXES, box.axis_intervals()))
        estimated = []
        for var in ("u", "y", "v", "z"):
            lo, hi = intervals[var]
            try:
                partial = differentiate(rhs, var)
            except ExprDerivativeError:
                estimated.append(_fd_partial_sup(rhs, env, var, hi - lo))
                fd_used.append(var)
            else:
                estimated.append(_sup_on_lattice(partial, env))
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
    """
    if not (np.isfinite(q) and 0.0 <= q < 0.5):
        raise ValueError(f"need 0 <= q < 1/2 for the envelope, got q={q!r}")
    if not (np.isfinite(first_step) and first_step >= 0):
        raise ValueError(f"first_step must be nonnegative, got {first_step!r}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k!r}")
    return (q + 0.5) ** k / (0.5 - q) * first_step


def solution_error_bounds(p: float) -> tuple:
    """Bounds on (u, u', u'', u''') errors implied by a triplet-norm bound p."""
    if not (np.isfinite(p) and p >= 0):
        raise ValueError(f"p must be nonnegative, got {p!r}")
    return (
        p * KERNEL_BOUNDS.fourth_order,
        p * KERNEL_BOUNDS.fourth_order_dx,
        p,
        p,
    )
