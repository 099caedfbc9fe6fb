"""Fixed-point iteration for the canonical clamped fourth-order problem.

The unknown is the triplet (phi, alpha, beta): the source phi(x) = u''''(x)
together with the end curvatures alpha = u''(0) and beta = u''(1).  One
iteration maps a triplet to the next by

  1. solving v'' = phi with v(0) = alpha, v(1) = beta        (v plays u''),
  2. solving u'' = v with u(0) = u(1) = 0,
  3. the slopes y = u' and z = u''' as diff5 of u and v; the profile forms
     each on first read, so a pass forms only those f reads,
  4. refreshing the source, phi_new = f(x, u, y, v, z),
  5. refreshing the curvatures from weighted integrals of phi_new,
     using the already-updated alpha when computing beta.

Under the contraction conditions (see analysis.check_conditions) the map has
a unique fixed point and the iterates converge geometrically; the errors
e(k) = max_i |u_k(x_i) - u_{k-1}(x_i)| then shrink to rounding level.  A run
whose least e(k) sits at that level, above tol, for _STALL_WINDOW passes
stops there: more passes cannot lower it.

step runs steps 1-3 through the public, allocating solve_second_order_bvp
and diff5, and residual through step.  solve runs every pass through _pass,
on raw arrays in a _Workspace that it allocates once, as one block: the
(u, v) pairs, the slopes f reads and one scratch array, written in place by
numerics' kernels _bvp_into and _diff5_into.  Steps 4-5 (_f and
_curvatures) are shared by step and _pass, so each pass does the same
arithmetic; solve wraps arrays in Triplet and IterateProfile only for its
report, which takes over the workspace's last pair and with it the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .expr import _program, _run
from .numerics import (
    Grid,
    GridFunction,
    _bvp_into,
    _checked_sup,
    _diff5_finite,
    _diff5_into,
    _Frozen,
    _is_number,
    _simpson,
    diff5,
    solve_second_order_bvp,
    sup_norm,
)
from .problem import CanonicalProblem

__all__ = [
    "Triplet",
    "triplet_norm",
    "triplet_distance",
    "IterateProfile",
    "SolverConfig",
    "SolveReport",
    "SolverError",
    "DivergenceError",
    "IterationLimitError",
    "StallError",
    "init_state",
    "step",
    "residual",
    "solve",
]

# Consecutive growing e(k), above the rounding floor, after which the
# iteration counts as diverging.
_DIVERGENCE_WINDOW = 5
# Iterations without a new least e(k), once that least is at or below the
# rounding floor _ROUNDING_FLOOR * max(1, sup|u_k|) (Higham 1993), after which
# the iteration stops: more passes cannot lower e(k) to a tol below the floor.
_STALL_WINDOW = 10
_ROUNDING_FLOOR = 16.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class Triplet:
    """Iteration state: grid samples of the source plus the end curvatures."""

    source: GridFunction
    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("end curvatures must be finite")


def triplet_norm(state: Triplet) -> float:
    """Norm used by the contraction argument: sup|phi| + |alpha| + |beta|."""
    return sup_norm(state.source) + abs(state.alpha) + abs(state.beta)


def triplet_distance(s1: Triplet, s2: Triplet) -> float:
    return (
        float(np.abs(s1.source.values - s2.source.values).max())
        + abs(s1.alpha - s2.alpha)
        + abs(s1.beta - s2.beta)
    )


@dataclass(frozen=True)
class IterateProfile(_Frozen):
    """The candidate solution an iteration state induces: u and u''.

    The slopes du = u' and d3u = u''' are diff5 of u and d2u, plain
    GridFunctions formed on first read and then kept.
    """

    u: GridFunction
    d2u: GridFunction

    @cached_property
    def du(self) -> GridFunction:
        return diff5(self.u)

    @cached_property
    def d3u(self) -> GridFunction:
        return diff5(self.d2u)


@dataclass(frozen=True)
class SolverConfig:
    n: int = 100
    tol: float = 1e-15
    max_iter: int = 200

    def __post_init__(self):
        Grid(self.n)  # borrow the grid-size rule (even, >= 8)
        if not (_is_number(self.tol) and 0 < self.tol < math.inf):
            raise ValueError(f"tol must be a positive number, got {self.tol!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


@dataclass(frozen=True, eq=False)
class SolveReport(_Frozen):
    """Outcome of a solve: final iterate, history and diagnostics.

    e_history[k-1] holds e(k) for k = 1..iterations; eu_history lines up
    with it and holds max-node errors against the exact solution when one
    is known.  first_step is the triplet distance after the very first
    application of the map, the quantity the a-priori error envelope needs.
    residual is residual() of the triplet, or inf when the map cannot be
    applied to it once more.

    On failure profile and triplet are the last finite ones; when the very
    first application fails, init_state's triplet and the zero profile, and
    first_step is inf.  The profile forms a slope f did not read on first
    read, as step's does.

    failure names why a failed run stopped: "divergence" (e(k) grew above
    the rounding floor, or the map could not be evaluated or overflowed),
    "iteration-limit" (max_iter passes without reaching tol) or "floor"
    (e(k) stalled at the rounding floor, above tol).  It is None on success.
    A report owns read-only copies of its histories and is equal only to itself.
    """

    converged: bool
    iterations: int
    e_history: np.ndarray
    eu_history: Optional[np.ndarray]
    profile: IterateProfile
    triplet: Triplet
    residual: float
    first_step: float
    failure: Optional[str] = None

    def __post_init__(self):
        self._own("e_history", "eu_history")

    @property
    def grid(self) -> Grid:
        return self.profile.u.grid

    @property
    def final_e(self) -> float:
        """e(K), or nan when no pass completed."""
        return float(self.e_history[-1]) if len(self.e_history) else float("nan")

    @property
    def final_eu(self) -> Optional[float]:
        """eu(K); None without an exact solution, nan when no pass completed."""
        if self.eu_history is None:
            return None
        return float(self.eu_history[-1]) if len(self.eu_history) else float("nan")


class SolverError(RuntimeError):
    """Iteration failed; .report holds the partial run for inspection, and
    the class's failure names the report's failure."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


class DivergenceError(SolverError):
    failure = "divergence"


class IterationLimitError(SolverError):
    failure = "iteration-limit"


class StallError(IterationLimitError):
    """e(k) stalled at its rounding floor above tol: more passes cannot reach tol."""

    failure = "floor"


def _f(program, rhs, nodes: np.ndarray, u, du, v, d3u) -> np.ndarray:
    """f at the nodes from the node values of u, u', u'' and u''' (None for a
    slope f does not read).  Never one of those arrays, but it may be a value
    the fold keeps, so it must not be written."""
    out = _run(program, (nodes, u, du, v, d3u), rhs)
    if isinstance(out, float):  # f is constant
        return np.full(len(nodes), out)
    if out is u or out is du or out is v or out is d3u:  # f is one of them
        return out.copy()
    return out


def _moments(grid: Grid, phi: np.ndarray, scratch: np.ndarray) -> tuple:
    """The Simpson integrals of phi against the two slope kernels, formed in scratch."""
    w_left, w_right = grid.slope_weights
    i_left = _simpson(np.multiply(w_left, phi, out=scratch), grid.h)
    return i_left, _simpson(np.multiply(w_right, phi, out=scratch), grid.h)


def _curvatures(grid: Grid, phi: np.ndarray, beta: float, scratch: np.ndarray) -> tuple:
    """The new (alpha, beta) from the new source and the old beta, alpha first."""
    i_left, i_right = _moments(grid, phi, scratch)
    alpha = 3.0 * i_left - beta / 2.0
    beta = 3.0 * i_right - alpha / 2.0
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("end curvatures must be finite")
    return alpha, beta


def init_state(problem: CanonicalProblem, grid: Grid) -> Triplet:
    """Starting triplet: source f(x,0,0,0,0), zero end curvatures."""
    zero = np.zeros(grid.n + 1)
    phi = _f(_program(problem.rhs, grid.nodes), problem.rhs, grid.nodes, zero, zero, zero, zero)
    return Triplet(GridFunction._adopt(grid, np.array(phi), finite=True), 0.0, 0.0)


def step(state: Triplet, problem: CanonicalProblem) -> tuple:
    """One application of the fixed-point map; also returns the profile used.

    Only the slopes f reads are differentiated during the pass; the profile
    forms the others on first read, with the same values.
    """
    grid = state.source.grid
    v = solve_second_order_bvp(state.source, state.alpha, state.beta)
    profile = IterateProfile(u=solve_second_order_bvp(v, 0.0, 0.0), d2u=v)
    for of, slope in ((profile.u, "du"), (v, "d3u")):
        if not _diff5_finite(grid.n, of._sup):  # f may not read it, but the pass fails where it always did
            getattr(profile, slope)
    program = _program(problem.rhs, grid.nodes)
    du = profile.du.values if 2 in program.reads else None
    d3u = profile.d3u.values if 4 in program.reads else None
    phi = np.array(_f(program, problem.rhs, grid.nodes, profile.u.values, du, v.values, d3u))
    alpha, beta = _curvatures(grid, phi, state.beta, np.empty(grid.n + 1))
    return Triplet(GridFunction._adopt(grid, phi, finite=True), alpha, beta), profile


def residual(state: Triplet, problem: CanonicalProblem) -> float:
    """How far a triplet is from being a fixed point of the map.

    Sum of the sup defect in the source equation and the absolute defects
    in the two curvature equations.  The source defect takes f from
    step(state), so residual raises wherever step does: where the map
    cannot be applied once more.
    """
    grid = state.source.grid
    f_vals = step(state, problem)[0].source.values
    src_defect = float(np.abs(state.source.values - f_vals).max())
    del f_vals
    i_left, i_right = _moments(grid, state.source.values, np.empty(grid.n + 1))
    left_defect = abs(i_left - (state.beta / 6.0 + state.alpha / 3.0))
    right_defect = abs(-i_right + (state.beta / 3.0 + state.alpha / 6.0))
    return src_defect + left_defect + right_defect


class _Workspace:
    """What solve's passes reuse: f's program folded at the grid's nodes and
    n+1-value arrays for the current (u, v = u'') pair, the spare pair the
    next pass writes, the slopes f reads (None for the others) and one
    scratch array that the kernels, the quadrature and the error norms
    share.  sup_u is sup|u| of the current pair, which starts as zeros: the
    profile of no pass, which a report holds when pass 0 fails.

    The arrays are the rows of one block, which the report's profile keeps
    and frees as one piece.  As separate arrays, some freed with the
    workspace and some with the report, they left the heap fragmented in a
    way that varied from run to run, and with it the peak RSS of a process
    that solves large grids and then reads large files.
    """

    def __init__(self, problem: CanonicalProblem, grid: Grid):
        self.grid, self.sup_u = grid, 0.0
        self.rhs, self.program = problem.rhs, _program(problem.rhs, grid.nodes)
        reads = [slot in self.program.reads for slot in (2, 4)]
        rows = iter(np.zeros((5 + sum(reads), grid.n + 1)))
        self.u, self.v, self.u_old, self.v_old, self.scratch = (next(rows) for _ in range(5))
        self.du, self.d3u = (next(rows) if read else None for read in reads)

    def profile(self, slopes: bool) -> IterateProfile:
        """The current pair as a profile, which takes over its arrays; with
        slopes, the du and d3u the last pass formed from it are its slopes."""
        profile = IterateProfile(u=GridFunction._adopt(self.grid, self.u),
                                 d2u=GridFunction._adopt(self.grid, self.v))
        for name in ("du", "d3u"):
            if slopes and getattr(self, name) is not None:
                profile.__dict__[name] = GridFunction._adopt(self.grid, getattr(self, name), finite=True)
        return profile


def _gap(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> float:
    """max|a - b|, formed in scratch."""
    d = np.subtract(a, b, out=scratch)
    return float(np.abs(d, out=d).max())


def _pass(ws: _Workspace, phi: np.ndarray, alpha: float, beta: float) -> tuple:
    """One application of the map on raw arrays, with step's arithmetic.

    u and v go into ws's spare pair, which becomes the current one on
    success, and the slopes f reads into ws.du and ws.d3u.  Returns the next
    (phi, alpha, beta), phi as _f gives it.  A pass that fails leaves the
    current pair as it was.
    """
    grid, s = ws.grid, ws.scratch
    u, v = ws.u_old, ws.v_old
    _bvp_into(v, phi, alpha, beta, s)
    sup_v = _checked_sup(grid, v)
    _bvp_into(u, v, 0.0, 0.0, s)
    sup_u = _checked_sup(grid, u)
    for of, out, sup in ((u, ws.du, sup_u), (v, ws.d3u, sup_v)):
        bounded = _diff5_finite(grid.n, sup)
        if out is None and bounded:
            continue
        if out is None:  # f does not read it, but the pass fails where it always did
            out = np.empty_like(of)
        _diff5_into(out, of, s)
        if not bounded:
            _checked_sup(grid, out)
    phi = _f(ws.program, ws.rhs, grid.nodes, u, ws.du, v, ws.d3u)
    alpha, beta = _curvatures(grid, phi, beta, s)
    ws.u, ws.u_old, ws.v, ws.v_old, ws.sup_u = u, ws.u, v, ws.v, sup_u
    return phi, alpha, beta


# Overflow only ever yields non-finite values, which are reported as divergence.
@np.errstate(over="ignore", invalid="ignore")
def solve(problem: CanonicalProblem, config: SolverConfig = SolverConfig(),
          exact: Optional[GridFunction] = None) -> SolveReport:
    """Iterate to a fixed point; raises on divergence or iteration budget.

    exact, when given, is the exact solution's samples on the solve's grid,
    a GridFunction on config.n intervals; the solve runs on that grid and
    tracks eu(k) against them.  With None it tracks the problem's own exact
    solution, if there is one.

    Every pass runs on _pass in one _Workspace, pass 0 from its zero pair,
    and the report wraps the last state and profile; its residual is one
    more application of the map, through step.
    """
    grid = Grid(config.n) if exact is None else exact.grid
    if grid.n != config.n:
        raise ValueError(f"exact samples on a grid of n={grid.n}, but the solve has n={config.n}")
    if exact is None:
        exact = problem.exact_on(grid)
    e_hist: list = []
    eu_hist: Optional[list] = [] if exact is not None else None
    phi0 = phi = init_state(problem, grid).source.values
    alpha = beta = 0.0
    ws = _Workspace(problem, grid)
    first_step = prev_e = best_e = float("inf")
    increases = best_k = 0
    error = cause = message = None
    for k in range(config.max_iter + 1):
        try:
            phi, alpha, beta = _pass(ws, phi, alpha, beta)
        except ValueError as err:  # ExprEvalError, or a non-finite value rejected
            error, cause = DivergenceError, err
            message = f"the map broke down after {len(e_hist)} iterations: {err}"
            break
        if k == 0:  # the first triplet, and init_state's profile: no e(k) yet
            first_step = _gap(phi, phi0, ws.scratch) + abs(alpha) + abs(beta)
            phi0 = None  # init_state's source goes before the next pass
            continue
        e = _gap(ws.u, ws.u_old, ws.scratch)
        e_hist.append(e)
        if eu_hist is not None:
            eu_hist.append(_gap(ws.u, exact.values, ws.scratch))
        if e <= config.tol:
            break
        floor = _ROUNDING_FLOOR * max(1.0, ws.sup_u)
        if e < best_e:
            best_e, best_k = e, k
        increases = increases + 1 if e > max(prev_e, floor) else 0
        prev_e = e
        if increases >= _DIVERGENCE_WINDOW:
            error = DivergenceError
            message = f"diverged: successive-iterate errors grew for {increases} consecutive iterations"
            break
        if k - best_k >= _STALL_WINDOW and best_e <= floor:
            error = StallError
            message = (f"stalled at the rounding floor: the best e(k) {best_e:.3e} is at or below "
                       f"the floor {floor:.3e} but above tol={config.tol:g}, and no e(k) has gone "
                       f"below it for {k - best_k} iterations")
            break
    else:
        error = IterationLimitError
        message = f"no convergence to tol={config.tol:g} within {config.max_iter} iterations"
    state = Triplet(GridFunction._adopt(grid, np.array(phi), finite=True), alpha, beta)
    profile = ws.profile(slopes=cause is None)
    del ws, phi, phi0, exact  # the f values and the exact samples go before the residual's pass
    try:
        res = residual(state, problem)
    except ValueError:  # ExprEvalError, or a non-finite value rejected
        res = float("inf")
    report = SolveReport(converged=error is None, iterations=len(e_hist), e_history=e_hist,
                         eu_history=eu_hist, profile=profile, triplet=state, residual=res,
                         first_step=first_step, failure=error and error.failure)
    if error is None:
        return report
    raise error(message, report) from cause
