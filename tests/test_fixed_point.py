"""The discrete fixed point as an oracle: Newton on F(x) = x - T(x).

T is one application of the fixed-point map, step, on the vector
x = (phi_0, ..., phi_n, alpha, beta).  Newton's method with a
central-difference Jacobian (Kelley, Iterative Methods for Linear and
Nonlinear Equations, SIAM 1995, ch. 5 and 6) finds the fixed point x*
without solve's sweep, so it checks that solve stops on x* and how close.
"""

import numpy as np
import pytest

from clampbeam.examples import get_example
from clampbeam.expr import _compile
from clampbeam.numerics import Grid, GridFunction
from clampbeam.solver import SolverConfig, Triplet, init_state, solve, step


def _vector(state: Triplet) -> np.ndarray:
    return np.concatenate([state.source.values, [state.alpha, state.beta]])


def _map(problem, grid: Grid):
    """T on vectors; f is compiled once, at the grid's nodes, for all its calls."""
    program = _compile(problem.rhs, grid.nodes)
    return lambda x: _vector(step(Triplet(GridFunction(grid, x[:-2]), x[-2], x[-1]),
                                  problem, program=program)[0])


def _newton(T, x: np.ndarray, tol: float, steps: int = 8) -> tuple:
    """(x, sup|x - T(x)|) after Newton steps from x, until that sup is at most tol."""
    for _ in range(steps):
        defect = x - T(x)
        if np.abs(defect).max() <= tol:
            break
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        jacobian = np.empty((x.size, x.size))
        for j in range(x.size):  # 2(n + 3) calls of T
            e = np.zeros(x.size)
            e[j] = h[j]
            jacobian[:, j] = (2.0 * e - T(x + e) + T(x - e)) / (2.0 * h[j])
        x = x - np.linalg.solve(jacobian, defect)
    return x, float(np.abs(x - T(x)).max())


@pytest.mark.parametrize("ident", range(1, 7))
def test_solve_lands_on_the_discrete_fixed_point(ident):
    problem, grid = get_example(ident).canonical(), Grid(32)
    fixed, defect = _newton(_map(problem, grid), _vector(init_state(problem, grid)), 1e-14)
    assert defect <= 1e-14
    report = solve(problem, SolverConfig(n=32))
    scale = max(1.0, float(np.abs(fixed[:-2]).max()))
    assert np.abs(_vector(report.triplet) - fixed).max() <= 2e-15 * scale
