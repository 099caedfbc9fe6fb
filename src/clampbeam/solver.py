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
    _diff5_finite,
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
    """Iteration failed; .report holds the partial run for inspection."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


class DivergenceError(SolverError):
    pass


class IterationLimitError(SolverError):
    pass


class StallError(IterationLimitError):
    """e(k) stalled at its rounding floor above tol: more passes cannot reach tol."""


def _source(problem: CanonicalProblem, grid: Grid, arg) -> np.ndarray:
    """f at the nodes, a fresh array; arg(name) gives the node values of the
    profile's u, du, d2u or d3u (f's u, y, v, z), asked only for what f reads."""
    program = _program(problem.rhs, grid.nodes)
    args = [arg(name) if slot in program.reads else None
            for slot, name in enumerate(("u", "du", "d2u", "d3u"), 1)]
    out = _run(program, [grid.nodes] + args, problem.rhs)
    if isinstance(out, float):  # f is constant
        return np.full(grid.n + 1, out)
    return out.copy()  # the fold's kept values may be shared


def _apply(state: Triplet, problem: CanonicalProblem) -> tuple:
    """The first half of a pass: (phi, profile), f at the nodes of the profile
    state induces, as a fresh array, and that profile."""
    v = solve_second_order_bvp(state.source, state.alpha, state.beta)
    profile = IterateProfile(u=solve_second_order_bvp(v, 0.0, 0.0), d2u=v)
    for of, slope in ((profile.u, "du"), (v, "d3u")):
        if not _diff5_finite(of):  # f may not read it, but the pass fails where it always did
            getattr(profile, slope)
    phi = _source(problem, state.source.grid, lambda name: getattr(profile, name).values)
    return phi, profile


def init_state(problem: CanonicalProblem, grid: Grid) -> Triplet:
    """Starting triplet: source f(x,0,0,0,0), zero end curvatures."""
    zero = np.zeros(grid.n + 1)
    phi = _source(problem, grid, lambda name: zero)
    return Triplet(GridFunction._adopt(grid, phi, finite=True), 0.0, 0.0)


def step(state: Triplet, problem: CanonicalProblem) -> tuple:
    """One application of the fixed-point map; also returns the profile used.

    Only the slopes f reads are differentiated during the pass; the profile
    forms the others on first read, with the same values.
    """
    f_vals, profile = _apply(state, problem)
    grid = state.source.grid
    phi = GridFunction._adopt(grid, f_vals, finite=True)
    w_left, w_right = grid.slope_weights
    alpha = 3.0 * _simpson(w_left * phi.values, grid.h) - state.beta / 2.0
    beta = 3.0 * _simpson(w_right * phi.values, grid.h) - alpha / 2.0
    return Triplet(phi, alpha, beta), profile


def residual(state: Triplet, problem: CanonicalProblem) -> float:
    """How far a triplet is from being a fixed point of the map.

    Sum of the sup defect in the source equation and the absolute defects
    in the two curvature equations.
    """
    grid = state.source.grid
    f_vals, _ = _apply(state, problem)
    src_defect = float(np.abs(state.source.values - f_vals).max())
    w_left, w_right = grid.slope_weights
    i_left = _simpson(w_left * state.source.values, grid.h)
    i_right = _simpson(w_right * state.source.values, grid.h)
    left_defect = abs(i_left - (state.beta / 6.0 + state.alpha / 3.0))
    right_defect = abs(-i_right + (state.beta / 3.0 + state.alpha / 6.0))
    return src_defect + left_defect + right_defect


# Overflow only ever yields non-finite values, which are reported as divergence.
@np.errstate(over="ignore", invalid="ignore")
def solve(problem: CanonicalProblem, config: SolverConfig = SolverConfig(),
          exact: Optional[GridFunction] = None) -> SolveReport:
    """Iterate to a fixed point; raises on divergence or iteration budget.

    exact, when given, is the exact solution's samples on the solve's grid,
    a GridFunction on config.n intervals; the solve runs on that grid and
    tracks eu(k) against them.  With None it tracks the problem's own exact
    solution, if there is one.
    """
    grid = Grid(config.n) if exact is None else exact.grid
    if grid.n != config.n:
        raise ValueError(f"exact samples on a grid of n={grid.n}, but the solve has n={config.n}")
    if exact is None:
        exact = problem.exact_on(grid)

    state = init_state(problem, grid)
    zero = GridFunction(grid, np.zeros(grid.n + 1))
    profile = IterateProfile(u=zero, d2u=zero)
    first_step = float("inf")
    e_hist: list = []
    eu_hist: Optional[list] = [] if exact is not None else None
    prev_e = best_e = float("inf")
    increases = best_k = 0

    def _report(failure: Optional[str] = None) -> SolveReport:
        try:
            res = residual(state, problem)
        except ValueError:  # ExprEvalError, or a non-finite profile
            res = float("inf")
        return SolveReport(
            converged=failure is None,
            iterations=len(e_hist),
            e_history=e_hist,
            eu_history=eu_hist,
            profile=profile,
            triplet=state,
            residual=res,
            first_step=first_step,
            failure=failure,
        )

    for k in range(config.max_iter + 1):
        prev_state, prev_u = state, profile.u.values
        try:
            state, profile = step(state, problem)
        except ValueError as err:  # ExprEvalError, or a non-finite value rejected
            raise DivergenceError(f"the map broke down after {len(e_hist)} iterations: {err}",
                                  _report("divergence")) from err
        if k == 0:
            first_step = triplet_distance(state, prev_state)
            continue
        e = float(np.abs(profile.u.values - prev_u).max())
        e_hist.append(e)
        if eu_hist is not None:
            eu_hist.append(float(np.abs(profile.u.values - exact.values).max()))
        if e <= config.tol:
            return _report()
        floor = _ROUNDING_FLOOR * max(1.0, profile.u._sup)  # u's sup, recorded by its check
        if e < best_e:
            best_e, best_k = e, k
        increases = increases + 1 if e > max(prev_e, floor) else 0
        prev_e = e
        if increases >= _DIVERGENCE_WINDOW:
            raise DivergenceError(
                f"diverged: successive-iterate errors grew for {increases} consecutive iterations",
                _report("divergence"))
        if k - best_k >= _STALL_WINDOW and best_e <= floor:
            raise StallError(
                f"stalled at the rounding floor: the best e(k) {best_e:.3e} is at or below "
                f"the floor {floor:.3e} but above tol={config.tol:g}, and no e(k) has gone "
                f"below it for {k - best_k} iterations", _report("floor"))
    raise IterationLimitError(
        f"no convergence to tol={config.tol:g} within {config.max_iter} iterations",
        _report("iteration-limit"))
