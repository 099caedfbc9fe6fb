"""Command-line front end: solve, check, table and examples workflows.

Problems come either from a file (see below) or from the built-in registry
via the syntax ``example:N``.  Artifacts are CSV files (comma separator,
header row, LF line endings, 17-significant-digit numbers so doubles
round-trip exactly) plus a plain-text condition report:

    convergence.csv   k, e(k) and, when an exact solution is known, eu(k)
    solution.csv      x, u, du, d2u, d3u and, for transformed problems,
                      the raw-coordinate samples t, w
    table.csv         N, K, eu(K), e(K) for a list of grid sizes
    conditions.txt    the certification report of the check subcommand

Output goes to --out-dir, else the CLAMPBEAM_OUT_DIR environment variable,
else the current directory.  Exit status: 0 converged or certified,
1 failed condition check or divergence, 2 input error.

Problem-file format: UTF-8 text, one ``key = value`` pair per line, ``#``
starts a comment.  Keys: a, b (interval, default [0,1]); A1, B1, A2, B2
(boundary values and slopes, default 0); f (required right-hand side in
the variables x, u, y, v, z, meaning t, w, w', w'', w''' of the raw
problem); exact (optional closed-form solution in x); M, K1..K4 (optional
certification inputs).  Expressions use +, -, *, /, ^ (right associative),
parentheses, the functions sin, cos, tan, asin, atan, sinh, cosh, exp,
log, sqrt, abs, and the constants pi and e.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from .analysis import (
    DomainSamplingError,
    LatticeSpec,
    check_conditions,
    contraction_factor,
)
from .examples import EXAMPLES, get_example
from .expr import ExprError
from .problem import (
    CanonicalProblem,
    LoadedProblem,
    ProblemFormatError,
    canonicalize,
    load_problem_file,
    recover_solution,
)
from .solver import SolveReport, SolverConfig, SolverError, solve

__all__ = ["main", "entry"]


class _InputError(Exception):
    pass


def _out_dir(args) -> str:
    path = args.out_dir or os.environ.get("CLAMPBEAM_OUT_DIR") or "."
    os.makedirs(path, exist_ok=True)
    return path


_CSV_CHUNK_ROWS = 1024
_CSV_FORMATS = {"U": "%s", "i": "%d"}


def _write_csv(path: str, header, columns) -> None:
    """Write equal-length columns as CSV, streamed in bounded row chunks.

    Strings are written as they are, integers in decimal and everything
    else as float with 17 significant digits (round-trips exactly).  Fields
    are never quoted: the artifacts hold only numbers and status words.
    """
    columns = [np.asarray(col) for col in columns]
    line = ",".join(_CSV_FORMATS.get(col.dtype.kind, "%.17g") for col in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            rows = zip(*(col[start:start + _CSV_CHUNK_ROWS].tolist() for col in columns))
            fh.write("".join([line % row for row in rows]))


def _resolve_problem(ref: str) -> tuple:
    """Returns (LoadedProblem, label) for a path or ``example:N``."""
    if ref.startswith("example:"):
        ident_text = ref.split(":", 1)[1]
        try:
            ident = int(ident_text)
        except ValueError:
            raise _InputError(f"bad example id {ident_text!r}") from None
        try:
            return get_example(ident).load(), f"example {ident}"
        except KeyError as err:
            raise _InputError(str(err.args[0])) from None
    try:
        return load_problem_file(ref), ref
    except OSError as err:
        raise _InputError(f"cannot read problem file: {err}") from None
    except ProblemFormatError as err:
        raise _InputError(f"{ref}: {err}") from None


def _config_from(args) -> SolverConfig:
    try:
        return SolverConfig(n=args.n, tol=args.tol, max_iter=args.max_iter)
    except ValueError as err:
        raise _InputError(str(err)) from None


def _write_solve_artifacts(report: SolveReport, problem: CanonicalProblem,
                           out_dir: str, prefix: str = "") -> list:
    conv_path = os.path.join(out_dir, prefix + "convergence.csv")
    sol_path = os.path.join(out_dir, prefix + "solution.csv")
    ks = range(1, report.iterations + 1)
    if report.eu_history is not None:
        _write_csv(conv_path, ["k", "e", "eu"], [ks, report.e_history, report.eu_history])
    else:
        _write_csv(conv_path, ["k", "e"], [ks, report.e_history])

    prof = report.profile
    nodes = report.grid.nodes
    columns = [nodes, prof.u.values, prof.du.values, prof.d2u.values, prof.d3u.values]
    header = ["x", "u", "du", "d2u", "d3u"]
    if problem.is_transformed:
        rec = recover_solution(prof.u, problem)
        columns += [rec.t, rec.w]
        header += ["t", "w"]
    _write_csv(sol_path, header, columns)
    return [conv_path, sol_path]


def _print_summary(report: SolveReport) -> None:
    if report.eu_history is not None:
        print("N,K,eu,e")
        print(f"{report.grid.n},{report.iterations},"
              f"{report.final_eu:.6e},{report.final_e:.6e}")
    else:
        print("N,K,e")
        print(f"{report.grid.n},{report.iterations},{report.final_e:.6e}")


def cmd_solve(args) -> int:
    loaded, label = _resolve_problem(args.problem)
    problem = canonicalize(loaded.raw)
    config = _config_from(args)
    out_dir = _out_dir(args)
    code = 0
    try:
        report = solve(problem, config)
        print(f"{label}: converged in {report.iterations} iterations, "
              f"residual {report.residual:.3e}")
    except SolverError as err:
        report = err.report
        print(f"warning: {label}: {err}", file=sys.stderr)
        code = 1
    _print_summary(report)
    for path in _write_solve_artifacts(report, problem, out_dir, prefix=args.prefix):
        print(f"wrote {path}")
    return code


def _ks_from_flags(args) -> Optional[tuple]:
    flags = (args.K1, args.K2, args.K3, args.K4)
    if all(k is None for k in flags):
        return None
    return tuple(0.0 if k is None else k for k in flags)


def _run_check(loaded: LoadedProblem, problem: CanonicalProblem, args,
               out_dir: str, prefix: str = "") -> int:
    M = args.M if args.M is not None else loaded.M
    if M is None:
        raise _InputError("no M given: pass --M or put an M key in the problem file")
    ks = _ks_from_flags(args)
    if ks is None:
        ks = loaded.ks
    try:
        lattice = LatticeSpec(points=args.lattice)
        report = check_conditions(problem.rhs, M, ks, lattice)
    except DomainSamplingError as err:
        point = ", ".join(f"{p:.9g}" for p in err.point)
        lines = [f"not certified: {err}", f"offending sample: ({point})"]
        for line in lines:
            print(line)
        _write_text(os.path.join(out_dir, prefix + "conditions.txt"), lines)
        return 1
    except ValueError as err:
        raise _InputError(str(err)) from None
    lines = report.summary_lines()
    for line in lines:
        print(line)
    path = os.path.join(out_dir, prefix + "conditions.txt")
    _write_text(path, lines)
    print(f"wrote {path}")
    return 0 if report.certified else 1


def _write_text(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_check(args) -> int:
    loaded, _ = _resolve_problem(args.problem)
    problem = canonicalize(loaded.raw)
    return _run_check(loaded, problem, args, _out_dir(args), prefix=args.prefix)


def cmd_table(args) -> int:
    loaded, label = _resolve_problem(args.problem)
    problem = canonicalize(loaded.raw)
    try:
        grids = [int(part) for part in args.grids.split(",") if part.strip()]
    except ValueError:
        raise _InputError(f"bad --grids list {args.grids!r}") from None
    if not grids:
        raise _InputError("empty --grids list")
    out_dir = _out_dir(args)

    rows = []
    has_exact = None
    all_ok = True
    for n in sorted(grids):
        try:
            config = SolverConfig(n=n, tol=args.tol, max_iter=args.max_iter)
        except ValueError as err:
            raise _InputError(str(err)) from None
        try:
            report = solve(problem, config)
            status = "converged"
        except SolverError as err:
            report = err.report
            status = report.failure or "failed"
            all_ok = False
        has_exact = report.eu_history is not None
        rows.append((n, report.iterations, report.final_eu, report.final_e, status))

    ns, ks, eus, es, statuses = zip(*rows)
    header = ["N", "K"] + (["eu"] if has_exact else []) + ["e"]
    columns = [ns, ks] + ([eus] if has_exact else []) + [es]
    if not all_ok:
        header += ["status"]
        columns += [statuses]
    for row in zip(*columns):
        print(",".join(f"{v:.6e}" if isinstance(v, float) else str(v) for v in row))
    path = os.path.join(out_dir, args.prefix + "table.csv")
    _write_csv(path, header, columns)
    print(f"wrote {path}")
    return 0 if all_ok else 1


def cmd_examples(args) -> int:
    if args.list:
        for ex in EXAMPLES:
            print(f"example {ex.ident} ({ex.slug})")
            print(f"  equation: w'''' = {ex.rhs_text}")
            print(f"  data:     {ex.data_line}")
            if ex.ks is not None:
                q = contraction_factor(*ex.ks)
                ktext = ", ".join(f"{k:.6g}" for k in ex.ks)
                print(f"  certified: M={ex.M:g}, K=({ktext}), q={q:.6f}")
            elif ex.M is not None:
                print(f"  certified: M={ex.M:g} (existence only)")
            if ex.exact_text:
                print(f"  exact:    {ex.exact_text}")
            if ex.note:
                print(f"  note:     {ex.note}")
        return 0

    try:
        ex = get_example(args.run)
    except KeyError as err:
        raise _InputError(str(err.args[0])) from None
    loaded = ex.load()
    problem = canonicalize(loaded.raw)
    out_dir = _out_dir(args)
    prefix = f"example{ex.ident}_"

    print(f"== check (example {ex.ident}: {ex.slug}) ==")
    check_code = _run_check(loaded, problem, args, out_dir, prefix=prefix)
    if check_code != 0:
        print("warning: conditions not certified; attempting the solve anyway",
              file=sys.stderr)

    print(f"== solve (example {ex.ident}: {ex.slug}) ==")
    config = _config_from(args)
    code = 0
    try:
        report = solve(problem, config)
        print(f"converged in {report.iterations} iterations, "
              f"residual {report.residual:.3e}")
    except SolverError as err:
        report = err.report
        print(f"warning: {err}", file=sys.stderr)
        code = 1
    _print_summary(report)
    for path in _write_solve_artifacts(report, problem, out_dir, prefix=prefix):
        print(f"wrote {path}")
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clampbeam",
        description="Solver for clamped fourth-order problems "
                    "w'''' = f(x, w, w', w'', w''') via contraction iteration.",
        epilog="PROBLEM is a problem-file path or example:N (N = 1..6). "
               "See the module documentation for the file format.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_solver_flags(p):
        p.add_argument("--n", type=int, default=100, help="grid intervals (even, >= 8)")
        p.add_argument("--tol", type=float, default=1e-15,
                       help="stop when e(k) <= tol (default 1e-15)")
        p.add_argument("--max-iter", type=int, default=200)

    def common_out_flags(p):
        p.add_argument("--out-dir", default=None,
                       help="artifact directory (default: $CLAMPBEAM_OUT_DIR or .)")
        p.add_argument("--prefix", default="", help=argparse.SUPPRESS)

    def common_check_flags(p):
        p.add_argument("--M", type=float, default=None,
                       help="box size for the condition check")
        for i in (1, 2, 3, 4):
            p.add_argument(f"--K{i}", type=float, default=None,
                           help=f"Lipschitz bound K{i} (unset K's default to 0)")
        p.add_argument("--lattice", type=int, default=9,
                       help="sampling points per axis for estimates (default 9)")

    p_solve = sub.add_parser("solve", help="solve a problem and write CSV artifacts")
    p_solve.add_argument("problem")
    common_solver_flags(p_solve)
    common_out_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="run the existence/uniqueness check")
    p_check.add_argument("problem")
    common_check_flags(p_check)
    common_out_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser("table", help="grid-refinement table over several n")
    p_table.add_argument("problem")
    p_table.add_argument("--grids", default="100,200,500,1000",
                         help="comma-separated grid sizes")
    p_table.add_argument("--tol", type=float, default=1e-15)
    p_table.add_argument("--max-iter", type=int, default=200)
    common_out_flags(p_table)
    p_table.set_defaults(func=cmd_table)

    p_ex = sub.add_parser("examples", help="list or run the built-in benchmarks")
    group = p_ex.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--run", type=int, metavar="N")
    common_solver_flags(p_ex)
    common_check_flags(p_ex)
    p_ex.add_argument("--out-dir", default=None)
    p_ex.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ExprError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
