"""Solver for clamped fully fourth-order two-point boundary value problems.

The equation w'''' = F(t, w, w', w'', w''') on [a, b] with w, w' prescribed
at both ends is reduced to a homogeneous canonical problem on [0, 1] and
solved by a geometrically convergent fixed-point iteration on the triplet
(source profile, left end curvature, right end curvature).  The analysis
module certifies existence and uniqueness on a box via boundedness and
contraction conditions, and provides the a-priori error envelope.
"""

from .analysis import (
    ConditionReport,
    DomainBox,
    DomainSamplingError,
    LatticeSpec,
    apriori_bound,
    check_conditions,
    contraction_factor,
    solution_error_bounds,
)
from .examples import EXAMPLES, BuiltinExample, get_example
from .expr import (
    ExprDerivativeError,
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    differentiate,
    evaluate,
    parse,
    substitute,
    to_source,
    variables_in,
)
from .kernels import (
    KERNEL_BOUNDS,
    KernelBounds,
    SLOPE_KERNEL_INTEGRAL,
    green2,
    green4,
    green4_dx,
    slope_kernel_left,
    slope_kernel_right,
)
from .numerics import (
    Grid,
    GridFunction,
    diff5,
    simpson,
    solve_second_order_bvp,
    sup_norm,
)
from .problem import (
    CanonicalProblem,
    CubicInterpolant,
    LoadedProblem,
    ProblemFormatError,
    RawProblem,
    RecoveredSolution,
    canonicalize,
    hermite_cubic,
    load_problem_file,
    parse_problem_text,
    recover_solution,
)
from .solver import (
    DivergenceError,
    IterateProfile,
    IterationLimitError,
    SolveReport,
    SolverConfig,
    SolverError,
    StallError,
    Triplet,
    init_state,
    residual,
    solve,
    step,
    triplet_distance,
    triplet_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionReport", "DomainBox", "DomainSamplingError", "LatticeSpec",
    "apriori_bound", "check_conditions", "contraction_factor",
    "solution_error_bounds",
    "EXAMPLES", "BuiltinExample", "get_example",
    "ExprDerivativeError", "ExprError", "ExprEvalError", "ExprSyntaxError",
    "differentiate", "evaluate", "parse", "substitute", "to_source",
    "variables_in",
    "KERNEL_BOUNDS", "KernelBounds", "SLOPE_KERNEL_INTEGRAL",
    "green2", "green4", "green4_dx", "slope_kernel_left", "slope_kernel_right",
    "Grid", "GridFunction", "diff5", "simpson", "solve_second_order_bvp",
    "sup_norm",
    "CanonicalProblem", "CubicInterpolant", "LoadedProblem",
    "ProblemFormatError", "RawProblem", "RecoveredSolution", "canonicalize",
    "hermite_cubic", "load_problem_file", "parse_problem_text",
    "recover_solution",
    "DivergenceError", "IterateProfile", "IterationLimitError", "SolveReport",
    "SolverConfig", "SolverError", "StallError", "Triplet", "init_state", "residual",
    "solve", "step", "triplet_distance", "triplet_norm",
    "__version__",
]
