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

Numbers are written byte for byte as Python's ``'%.17g' % v`` writes them,
integers in decimal.  The writer formats whole columns with numpy: an exact
double-double product yields the 17 digits of each double, and every value
that kernel cannot decide (zero, infinities, NaN, subnormal or extreme
magnitudes, rounding near a tie) is formatted by Python itself, so the
bytes never rest on the fast path.

Output goes to --out-dir, else the CLAMPBEAM_OUT_DIR environment variable,
else the current directory, created only once every input is resolved and
validated, so an input error creates nothing.  Exit status: 0 converged or
certified, 1 failed condition check or divergence, 2 input error.

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
import ctypes
import functools
import os
import sys

import numpy as np

from .analysis import (
    DomainBox,
    DomainSamplingError,
    LatticeSpec,
    check_conditions,
    contraction_factor,
)
from .examples import EXAMPLES, get_example
from .expr import ExprError
from .numerics import Grid
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
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise _InputError(f"cannot create output directory {path!r}: {err}") from None
    return path


_CSV_CHUNK_ROWS = 4096


def _write_csv(path: str, header, columns) -> None:
    """Write equal-length columns as CSV, streamed in bounded row chunks.

    A column holds floats, integers or strings: strings are written as they
    are, integers in decimal and floats as ``'%.17g' % v`` (round-trips
    exactly).  Fields are never quoted: the artifacts hold only numbers and
    status words.  Each column of a chunk becomes one zero-padded block of
    ASCII bytes; the blocks are interleaved with the separators and the
    padding is dropped on write.
    """
    columns = [np.asarray(col) for col in columns]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            blocks = [_csv_field_block(col[start:start + _CSV_CHUNK_ROWS]) for col in columns]
            line = np.empty((len(blocks[0]), sum(b.shape[1] + 1 for b in blocks)), np.uint8)
            at = 0
            for block in blocks:
                line[:, at:at + block.shape[1]] = block
                at += block.shape[1] + 1
                line[:, at - 1] = ord(",")
            line[:, -1] = ord("\n")
            flat = line.reshape(-1)
            fh.write(flat[flat != 0])


def _csv_field_block(col: np.ndarray) -> np.ndarray:
    """The fields of one column as rows of ASCII bytes, padded with zero bytes."""
    kind = col.dtype.kind
    if kind == "f":
        return _format_floats(col.astype(np.float64, copy=False))
    if kind == "i":
        text = col.astype(bytes)
    else:  # status words
        text = np.char.encode(col, "utf-8")
    return text.view(np.uint8).reshape(len(col), text.dtype.itemsize)


# '%.17g' of a double, vectorized.  A value v with 1e-270 <= |v| <= 1e270 has
# 17 significant digits D = round(|v| 10^(16-k)), k = floor(log10 |v|).  The
# product is formed exactly as a double-double: Dekker's two-product with a
# correctly rounded hi + lo pair for 10^(16-k).  Its error is below 1e-14, so
# a rounding fraction further than 1e-9 from 1/2 decides D exactly.  Rows the
# kernel cannot decide (0, non-finite or subnormal values, |v| out of range,
# a near-tie, or a k that log10 got wrong) take Python's own '%.17g'.
#
# The text is laid out in little-endian 64-bit words, one row of words per
# word position so that every operation runs along the values: three words
# hold the sign, the "0.000" prefix, the digits and the dot; the fourth holds
# the exponent.  Absent characters are zero bytes.
_FLOAT_FIELD = 29                # 24 bytes of mantissa text, then "e-308";
                                 # Python's '%.17g' needs 24 at most
_X_MIN, _X_MAX = -272, 272       # decimal exponents the tables cover
_SPLIT = 134217729.0             # 2^27 + 1, Veltkamp's splitting constant
_U64 = np.uint64
_WORD = np.dtype("<u8")          # byte i of the text is bits 8i..8i+7


@functools.lru_cache(maxsize=None)
def _float_tables() -> dict:
    """Lookup tables of the float kernel, indexed by k - _X_MIN; built on first use."""
    xs = np.arange(_X_MIN, _X_MAX + 1)
    hi, lo = [], []
    for x in xs.tolist():
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        h = num / den                        # int division rounds correctly
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)

    def as_words(texts):
        return np.array(texts, dtype="S8").view(_WORD)

    # '%.17g' is fixed-point for -4 <= k < 17, scientific otherwise
    prefix = [("0." + "0" * (-x - 1)) if -4 <= x < 0 else "" for x in xs.tolist()]
    prefix += ["-" + p for p in prefix]
    exponent = ["" if -4 <= x < 17 else f"e{x:+03d}" for x in xs.tolist()]
    # the dot goes after the integer digits of a fixed-point number, after
    # the first digit in scientific notation, and before the digits (-1) of
    # 0.000ddd, whose "0." is in the prefix
    dot = np.array([x + 1 if 0 <= x < 17 else -1 if -4 <= x < 0 else 1 for x in xs.tolist()])
    byte = np.arange(24)
    below = np.where(byte < dot[:, None], 0xFF, 0).astype(np.uint8)
    # 0x10 is set in every ASCII digit and clear in a zero byte
    at = np.where(byte == dot[:, None], 0x10, 0).astype(np.uint8)

    # four ASCII digits per entry; the second half of the table writes
    # trailing zeros as zero bytes, for the last nonzero group of D
    group = np.arange(10000, dtype=np.uint16)[:, None]
    chars = (group // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(np.uint8)
    # digit j is a trailing zero when the group is a multiple of 10^(4-j)
    trailing = group % np.array([10000, 1000, 100, 10], np.uint16) == 0
    digits = np.concatenate([chars, chars * ~trailing])
    tables = {
        "hi": hi, "hh": hh, "hl": hi - hh, "lo": np.array(lo),
        "prefix": as_words(prefix),
        "shift": np.array([8 * len(p) for p in prefix], dtype=_U64),
        "exponent": as_words(exponent),
        "below": below.view(_WORD).T.copy(),
        "at": at.view(_WORD).T.copy(),
        "groups": digits.view("<u4")[:, 0],
        "last": as_words([""] + [str(i) for i in range(1, 10)]),
    }
    for table in tables.values():
        table.setflags(write=False)
    return tables


def _format_floats(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each float64 as a row of at most _FLOAT_FIELD bytes, zero-padded."""
    t = _float_tables()
    a = np.abs(values)
    fast = (a >= 1e-270) & (a <= 1e270)
    a[~fast] = 1.0
    xi = np.floor(np.log10(a)).astype(np.intp)
    xi -= _X_MIN

    # a 10^(16-k) = p + r exactly (two-product), then + a lo, rounded once
    hh, hl = t["hh"][xi], t["hl"][xi]
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    p = a * t["hi"][xi]
    r = ah * hh - p
    r += ah * hl
    r += al * hh
    r += al * hl
    r += a * t["lo"][xi]
    whole = np.floor(r)
    r -= whole
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    fast &= (d >= 10**16) & (np.abs(r - 0.5) > 1e-9)
    d += r > 0.5
    fast &= d < 10**17
    d[~fast] = 10**16

    # D is the digit groups g0 g1 g2 g3 and the last digit; a group whose
    # later digits are all zero comes from the half of the table that drops
    # its own trailing zeros
    high = d // 10**9
    low = d - high * 10**9
    g0 = high // 10**4
    g1 = high - g0 * 10**4
    g23 = low // 10
    last = low - g23 * 10
    g2 = g23 // 10**4
    g3 = g23 - g2 * 10**4
    g3 += 10000 * (last == 0)
    g2 += 10000 * (g3 == 10000)
    g1 += 10000 * (low == 0)
    g0 += 10000 * (g1 == 10000)
    groups = t["groups"]
    digits = np.empty((3, len(d)), _U64)
    for word, (left, right) in enumerate([(g0, g1), (g2, g3)]):
        upper = np.left_shift(groups[right], _U64(32), dtype=_U64)
        np.bitwise_or(groups[left], upper, out=digits[word])
    digits[2] = t["last"][last]

    # integer digits stay even when zero; the fraction digits move up one
    # byte for the dot, which is written only when a fraction digit follows
    below = np.take(t["below"], xi, axis=1)
    text = (digits | (below & _U64(0x3030303030303030))) & below
    text |= ((digits & np.take(t["at"], xi, axis=1)) >> _U64(4)) * _U64(0x2E)
    after = digits & ~below
    text |= after << _U64(8)
    text[1:] |= after[:-1] >> _U64(56)
    # the sign and the "0.000" prefix go in front
    sign = np.signbit(values) * len(t["exponent"]) + xi
    shift = t["shift"][sign]
    words = np.empty((4, len(d)), _WORD)
    np.left_shift(text, shift, out=words[:3])
    words[1:3] |= text[:-1] >> (_U64(64) - shift)
    words[0] |= t["prefix"][sign]
    words[3] = t["exponent"][xi]
    # without an exponent in the chunk, its bytes need not be copied and dropped
    width = _FLOAT_FIELD if words[3].any() else 24
    out = np.ascontiguousarray(words.T).view(np.uint8)[:, :width]
    slow = np.flatnonzero(~fast)
    if len(slow):
        fallback = np.array([b"%.17g" % v for v in values[slow].tolist()], dtype=f"S{width}")
        out[slow] = fallback.view(np.uint8).reshape(-1, width)
    return out


def _load(ref: str) -> tuple:
    """Returns (LoadedProblem, CanonicalProblem, label) for a path or ``example:N``."""
    if ref.startswith("example:"):
        ident_text = ref.split(":", 1)[1]
        try:
            example = get_example(int(ident_text))
        except ValueError:
            raise _InputError(f"bad example id {ident_text!r}") from None
        except KeyError as err:
            raise _InputError(str(err.args[0])) from None
        loaded, label = example.load(), f"example {example.ident}"
    else:
        try:
            loaded, label = load_problem_file(ref), ref
        except OSError as err:
            raise _InputError(f"cannot read problem file: {err}") from None
        except UnicodeDecodeError as err:
            raise _InputError(f"cannot read problem file: {ref!r} is not UTF-8 text: {err}") from None
        except ProblemFormatError as err:
            raise _InputError(f"{ref}: {err}") from None
    return loaded, canonicalize(loaded.raw), label


def _config_from(args, n: int, problem: CanonicalProblem) -> tuple:
    """(config, exact): the solver flags for n intervals, checked, and the exact
    solution's samples on that grid, or None when the problem has none."""
    try:
        config = SolverConfig(n=n, tol=args.tol, max_iter=args.max_iter)
    except ValueError as err:
        raise _InputError(str(err)) from None
    try:
        return config, problem.exact_on(Grid(n))
    except ValueError as err:  # an ExprEvalError too
        raise _InputError(f"exact solution undefined on the n={n} grid: {err}") from None


def _solve(problem: CanonicalProblem, config: SolverConfig, exact) -> tuple:
    """Returns (report, error): the partial report and the SolverError on failure."""
    try:
        return solve(problem, config, exact), None
    except SolverError as err:
        return err.report, err


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


def _run_solve(problem: CanonicalProblem, inputs: list, out_dir: str,
               prefix: str = "", tag: str = "") -> int:
    """Solve, print the outcome (tagged) and the summary, write the artifacts.

    inputs holds the one (config, exact) pair of _config_from; it is popped,
    so the exact samples are freed once the solve ends.
    """
    report, err = _solve(problem, *inputs.pop())
    if err is None:
        print(f"{tag}converged in {report.iterations} iterations, "
              f"residual {report.residual:.3e}")
    else:
        print(f"warning: {tag}{err}", file=sys.stderr)
    if report.eu_history is not None:
        print("N,K,eu,e")
        print(f"{report.grid.n},{report.iterations},"
              f"{report.final_eu:.6e},{report.final_e:.6e}")
    else:
        print("N,K,e")
        print(f"{report.grid.n},{report.iterations},{report.final_e:.6e}")
    for path in _write_solve_artifacts(report, problem, out_dir, prefix=prefix):
        print(f"wrote {path}")
    return 0 if err is None else 1


def cmd_solve(args) -> int:
    _, problem, label = _load(args.problem)
    inputs = [_config_from(args, args.n, problem)]
    return _run_solve(problem, inputs, _out_dir(args), tag=f"{label}: ")


def _check_inputs(loaded: LoadedProblem, args) -> tuple:
    """(M, ks, lattice) from the flags or else the problem, checked as check_conditions would."""
    M = args.M if args.M is not None else loaded.M
    if M is None:
        raise _InputError("no M given: pass --M or put an M key in the problem file")
    flags = (args.K1, args.K2, args.K3, args.K4)
    ks = loaded.ks if all(k is None for k in flags) else tuple(0.0 if k is None else k for k in flags)
    try:
        lattice = LatticeSpec(points=args.lattice)
        DomainBox(M)
        if ks is not None:
            contraction_factor(*ks)
    except ValueError as err:
        raise _InputError(str(err)) from None
    return M, ks, lattice


def _run_check(problem: CanonicalProblem, inputs: tuple, out_dir: str, prefix: str = "") -> int:
    try:
        report = check_conditions(problem.rhs, *inputs)
        lines, code = report.summary_lines(), 0 if report.certified else 1
    except DomainSamplingError as err:
        point = ", ".join(f"{p:.9g}" for p in err.point)
        lines, code = [f"not certified: {err}", f"offending sample: ({point})"], 1
    for line in lines:
        print(line)
    path = os.path.join(out_dir, prefix + "conditions.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return code


def cmd_check(args) -> int:
    loaded, problem, _ = _load(args.problem)
    inputs = _check_inputs(loaded, args)
    return _run_check(problem, inputs, _out_dir(args))


def cmd_table(args) -> int:
    _, problem, _ = _load(args.problem)
    try:
        grids = [int(part) for part in args.grids.split(",") if part.strip()]
    except ValueError:
        raise _InputError(f"bad --grids list {args.grids!r}") from None
    if not grids:
        raise _InputError("empty --grids list")
    repeated = sorted({n for n in grids if grids.count(n) > 1})
    if repeated:
        raise _InputError(f"repeated grid size in --grids: {', '.join(map(str, repeated))}")
    configs = [_config_from(args, n, problem) for n in sorted(grids)]  # every size, before any solve
    out_dir = _out_dir(args)

    rows = []
    has_exact = problem.raw.exact is not None
    all_ok = True
    while configs:  # a grid's samples are freed once its solve ends
        report, err = _solve(problem, *configs.pop(0))
        status = "converged" if err is None else report.failure or "failed"
        all_ok = all_ok and err is None
        rows.append((report.grid.n, report.iterations, report.final_eu, report.final_e, status))

    ns, ks, eus, es, statuses = zip(*rows)
    header = ["N", "K"] + (["eu"] if has_exact else []) + ["e"]
    columns = [ns, ks] + ([eus] if has_exact else []) + [es]
    if not all_ok:
        header += ["status"]
        columns += [statuses]
    for row in zip(*columns):
        print(",".join(f"{v:.6e}" if isinstance(v, float) else str(v) for v in row))
    path = os.path.join(out_dir, "table.csv")
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

    loaded, problem, _ = _load(f"example:{args.run}")
    inputs = _check_inputs(loaded, args)
    solve_inputs = [_config_from(args, args.n, problem)]
    out_dir = _out_dir(args)
    ex = get_example(args.run)
    prefix = f"example{ex.ident}_"

    print(f"== check (example {ex.ident}: {ex.slug}) ==")
    if _run_check(problem, inputs, out_dir, prefix=prefix) != 0:
        print("warning: conditions not certified; attempting the solve anyway",
              file=sys.stderr)

    print(f"== solve (example {ex.ident}: {ex.slug}) ==")
    return _run_solve(problem, solve_inputs, out_dir, prefix)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clampbeam",
        description="Solver for clamped fourth-order problems "
                    "w'''' = f(x, w, w', w'', w''') via contraction iteration.",
        epilog="PROBLEM is a problem-file path or example:N (N = 1..6). "
               "See the module documentation for the file format.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_solver_flags(p, grid_size=True):
        if grid_size:
            p.add_argument("--n", type=int, default=100, help="grid intervals (even, >= 8)")
        p.add_argument("--tol", type=float, default=1e-15,
                       help="stop when e(k) <= tol (default 1e-15)")
        p.add_argument("--max-iter", type=int, default=200)

    def common_out_flags(p):
        p.add_argument("--out-dir", default=None,
                       help="artifact directory (default: $CLAMPBEAM_OUT_DIR or .)")

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
    common_solver_flags(p_table, grid_size=False)
    common_out_flags(p_table)
    p_table.set_defaults(func=cmd_table)

    p_ex = sub.add_parser("examples", help="list or run the built-in benchmarks")
    group = p_ex.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--run", type=int, metavar="N")
    common_solver_flags(p_ex)
    common_check_flags(p_ex)
    common_out_flags(p_ex)
    p_ex.set_defaults(func=cmd_examples)

    return parser


@functools.lru_cache(maxsize=None)
def _malloc_trim():
    """The C library's malloc_trim, or None where it has none (glibc has it)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        # glibc keeps what a solve at n = 10^5 frees (some 15 MB) in its heap,
        # and whether a later large allocation fits there depends on where
        # small blocks landed meanwhile: a process that called main again and
        # again peaked up to 9 MB higher from one run to the next.
        trim = _malloc_trim()
        if trim is not None:
            trim(0)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
