"""The package's public names: each library module's __all__, and nothing else.

The expected list is written out once, here; the package itself only
gathers the modules' lists.
"""

from collections import Counter

import clampbeam
from clampbeam import analysis, examples, expr, kernels, numerics, problem, solver

PUBLIC = [
    "BuiltinExample", "CanonicalProblem", "ConditionReport", "CubicInterpolant",
    "DivergenceError", "DomainBox", "DomainSamplingError", "EXAMPLES",
    "ExprDerivativeError", "ExprError", "ExprEvalError", "ExprSyntaxError",
    "Grid", "GridFunction", "IterateProfile", "IterationLimitError",
    "KERNEL_BOUNDS", "KernelBounds", "LatticeSpec", "LoadedProblem",
    "ProblemFormatError", "RawProblem", "RecoveredSolution", "SLOPE_KERNEL_INTEGRAL",
    "SolveReport", "SolverConfig", "SolverError", "StallError", "Triplet",
    "__version__", "apriori_bound", "canonicalize", "check_conditions",
    "contraction_factor", "diff5", "differentiate", "evaluate", "get_example",
    "green2", "green4", "green4_dx", "hermite_cubic", "init_state",
    "load_problem_file", "parse", "parse_problem_text", "recover_solution",
    "residual", "simpson", "slope_kernel_left", "slope_kernel_right",
    "solution_error_bounds", "solve", "solve_second_order_bvp", "step",
    "substitute", "sup_norm", "to_source", "triplet_distance", "triplet_norm",
    "variables_in",
]
LIBRARY = (analysis, examples, expr, kernels, numerics, problem, solver)


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 61
    assert sorted(clampbeam.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from clampbeam import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(clampbeam, name) for name in PUBLIC)


def test_no_two_modules_export_one_name():
    counts = Counter(name for module in LIBRARY for name in module.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_expression_nodes_stay_in_expr():
    assert not hasattr(clampbeam, "Num")
