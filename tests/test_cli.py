"""Command-line workflows, exercised in process through main(argv), and
the module entry points in a child process.

Artifact contracts checked here: CSV numbers carry 17 significant digits
so doubles survive a write/read cycle, runs are byte-deterministic, and a
solution file alone is enough to reconstruct the discrete state and check
its residual.
"""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clampbeam
from clampbeam import cli
from clampbeam.cli import _CSV_CHUNK_ROWS, _write_csv, main
from clampbeam.expr import evaluate
from clampbeam.numerics import Grid, GridFunction, diff5
from clampbeam.problem import CanonicalProblem, canonicalize, parse_problem_text
from clampbeam.solver import SolverConfig, Triplet, residual, solve
from clampbeam.examples import get_example


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert "\r" not in text
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# fails on its first pass (log of a negative value) and has an exact solution
LOG_BLOWUP = "f = log(1 + 1000000*u) + 5000\nexact = 0\n"
# e(k) stalls at its rounding floor (sup|u| ~ 6) above the default tol
STALL = "f = 2400 + u*z/2 - y*v/4\n"
# problem files named in the argv of an input-error case
BAD_INPUT_FILES = {
    "no-m": "f = sin(u)\n",
    # log(x) is undefined at the node x = 0
    "log-exact": "f = u + 1\nexact = log(x)\n",
    # the shift P is finite, but w - P overflows at t = 0
    "overflowing-exact": "f = u\nA1 = -5e307\nexact = 1.5e308 + x\n",
}
LOG_EXACT_ERROR = ("exact solution undefined on the n=100 grid: log of a non-positive value "
                   "in 'log(x)': argument 0.0 at sample 0")
OVERFLOWING_EXACT_ERROR = "exact solution undefined on the n=100 grid: non-finite value at node 0 (x=0.0)"


def _problem_file(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSolve:
    def test_benchmark_artifacts(self, tmp_path, capsys):
        code = main(["solve", "example:1", "--out-dir", str(tmp_path), "--n", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged in" in out
        assert "N,K,eu,e" in out
        header, rows = _read_csv(tmp_path / "convergence.csv")
        assert header == ["k", "e", "eu"]
        assert int(rows[0][0]) == 1 and int(rows[-1][0]) == len(rows)
        header, rows = _read_csv(tmp_path / "solution.csv")
        assert header == ["x", "u", "du", "d2u", "d3u"]
        assert len(rows) == 51
        assert float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 0.0

    def test_transformed_problem_gets_raw_columns(self, tmp_path):
        assert main(["solve", "example:3", "--out-dir", str(tmp_path), "--n", "50"]) == 0
        header, rows = _read_csv(tmp_path / "solution.csv")
        assert header == ["x", "u", "du", "d2u", "d3u", "t", "w"]
        # raw boundary data: w(0) = 1, w(1) = 0
        assert float(rows[0][6]) == pytest.approx(1.0, abs=1e-15)
        assert float(rows[-1][6]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_rhs(self, tmp_path, capsys):
        path = _problem_file(tmp_path, "f = 0\n")
        assert main(["solve", path, "--out-dir", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "convergence.csv")
        assert header == ["k", "e"]
        assert len(rows) == 1 and float(rows[0][1]) == 0.0
        _, sol = _read_csv(tmp_path / "solution.csv")
        assert all(float(r[1]) == 0.0 for r in sol)

    def test_deterministic_artifacts(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["solve", "example:2", "--out-dir", str(d), "--n", "60"]) == 0
        for name in ("convergence.csv", "solution.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_e_column_round_trips_exactly(self, tmp_path):
        assert main(["solve", "example:4", "--out-dir", str(tmp_path), "--n", "40"]) == 0
        _, rows = _read_csv(tmp_path / "convergence.csv")
        written = np.array([float(r[1]) for r in rows])
        report = solve(canonicalize(get_example(4).load().raw), SolverConfig(n=40))
        assert len(written) == report.iterations
        assert np.array_equal(written, report.e_history)

    def test_solution_file_reconstructs_state(self, tmp_path):
        # 17 significant digits must be enough to rebuild the discrete
        # state from the file and pass a residual check
        assert main(["solve", "example:2", "--out-dir", str(tmp_path), "--n", "80"]) == 0
        _, rows = _read_csv(tmp_path / "solution.csv")
        cols = np.array([[float(v) for v in row] for row in rows]).T
        x, u, du, d2u, d3u = cols
        problem = canonicalize(get_example(2).load().raw)
        phi = evaluate(problem.rhs, x, u, du, d2u, d3u)
        state = Triplet(GridFunction(Grid(80), phi), d2u[0], d2u[-1])
        assert residual(state, problem) <= 1e-8

    @pytest.mark.parametrize("ident", [1, 3, 6])
    def test_slope_columns_are_diff5(self, ident, tmp_path):
        # 17 digits round-trip exactly, so the columns read back are the
        # profile's arrays bit for bit, whether or not f reads the slopes
        assert main(["solve", f"example:{ident}", "--out-dir", str(tmp_path), "--n", "100"]) == 0
        header, rows = _read_csv(tmp_path / "solution.csv")
        cols = dict(zip(header, np.array([[float(v) for v in row] for row in rows]).T))
        for slope, of in (("du", "u"), ("d3u", "d2u")):
            expect = diff5(GridFunction(Grid(100), cols[of])).values
            assert cols[slope].tobytes() == expect.tobytes()

    def test_divergent_solve_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        # relative names keep the test's own name out of the message checked
        monkeypatch.chdir(tmp_path)
        _problem_file(tmp_path, "f = 600*u + 1\n")
        code = main(["solve", "problem.txt", "--out-dir", ".", "--n", "32"])
        assert code == 1
        captured = capsys.readouterr()
        assert "problem.txt: diverged: " in captured.err
        _, rows = _read_csv(tmp_path / "convergence.csv")
        assert len(rows) >= 5
        assert (tmp_path / "solution.csv").exists()

    def test_floor_stall_warns_and_writes_artifacts(self, tmp_path, capsys):
        path = _problem_file(tmp_path, STALL)
        assert main(["solve", path, "--out-dir", str(tmp_path)]) == 1
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "stalled at the rounding floor" in warnings[0] and "tol=1e-15" in warnings[0]
        _, rows = _read_csv(tmp_path / "convergence.csv")
        assert 10 < len(rows) <= 60
        _, sol = _read_csv(tmp_path / "solution.csv")
        assert len(sol) == 101

    def test_overflow_on_first_pass_writes_artifacts(self, tmp_path, capsys):
        path = _problem_file(tmp_path, "f = 1e308\n")
        assert main(["solve", path, "--out-dir", str(tmp_path)]) == 1
        assert "broke down after 0 iterations" in capsys.readouterr().err
        header, rows = _read_csv(tmp_path / "convergence.csv")
        assert header == ["k", "e"] and rows == []
        _, sol = _read_csv(tmp_path / "solution.csv")
        assert len(sol) == 101 and all(float(r[1]) == 0.0 for r in sol)

    def test_first_pass_failure_with_exact_reports_nan(self, tmp_path, capsys):
        path = _problem_file(tmp_path, LOG_BLOWUP)
        assert main(["solve", path, "--out-dir", str(tmp_path), "--n", "16"]) == 1
        assert "16,0,nan,nan" in capsys.readouterr().out.splitlines()
        assert (tmp_path / "convergence.csv").read_bytes() == b"k,e,eu\n"

    def test_odd_grid_rejected(self, tmp_path, capsys):
        assert main(["solve", "example:1", "--out-dir", str(tmp_path), "--n", "33"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCheck:
    def test_certified_example(self, tmp_path, capsys):
        assert main(["check", "example:3", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "boundedness  PASS" in out
        assert "contraction  PASS" in out
        assert "unique solution in the box" in out
        text = (tmp_path / "conditions.txt").read_text(encoding="utf-8")
        assert "unique solution in the box" in text

    def test_m_override_can_break_boundedness(self, tmp_path, capsys):
        code = main(["check", "example:1", "--M", "1", "--out-dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "boundedness  FAIL" in out
        assert (tmp_path / "conditions.txt").exists()

    def test_sampling_failure_names_the_point(self, tmp_path, capsys):
        code = main(["check", "example:5", "--out-dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "sqrt of a negative" in out
        assert "offending sample" in out
        assert out.endswith(f"wrote {tmp_path / 'conditions.txt'}\n")
        text = (tmp_path / "conditions.txt").read_text(encoding="utf-8")
        assert "offending sample" in text

    def test_bad_k_flag_is_an_input_error_before_sampling(self, tmp_path, capsys):
        # example 5 is undefined in its box, but the constants are checked first
        code = main(["check", "example:5", "--K1=-1", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "Lipschitz constants must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "conditions.txt").exists()

    def test_k_flags_supply_constants(self, tmp_path, capsys):
        code = main(["check", "example:1", "--K1", "100",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "conditions.txt").read_text(encoding="utf-8")
        assert "100, 0, 0, 0" in text
        assert "supplied" in text

    def test_failing_partial_is_named(self, tmp_path, capsys):
        # f is finite in the box; only df/du = 1e308*v overflows
        path = _problem_file(tmp_path, "f = 1e308*u*v + 1e308*y\n")
        assert main(["check", path, "--M", "4", "--out-dir", str(tmp_path)]) == 1
        lines = [
            "not certified: partial derivative df/du undefined inside the box: "
            "non-finite result from '1e+308*v' at "
            "(x=0, u=-0.0104166667, y=-0.032075015, v=-4, z=-4)",
            "offending sample: (0, -0.0104166667, -0.032075015, -4, -4)",
        ]
        assert capsys.readouterr().out.splitlines()[:2] == lines
        text = (tmp_path / "conditions.txt").read_text(encoding="utf-8")
        assert text == "\n".join(lines) + "\n"

    # the difference of the two probes overflows at u = 0 (1e308), or only
    # its quotient by 2*delta does (1e300)
    @pytest.mark.parametrize("scale", ["1e308", "1e300"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_finite_difference_names_the_probe(self, scale, tmp_path, capsys):
        path = _problem_file(tmp_path, f"f = abs(u) + {scale}*atan(1e20*u)\n")
        assert main(["check", path, "--M", "1", "--out-dir", str(tmp_path)]) == 1
        first, second = capsys.readouterr().out.splitlines()[:2]
        assert first.startswith("not certified: finite-difference probe left the domain of f: "
                                "non-finite result from ")
        assert second == "offending sample: (0, 0, -0.00801875374, -1, -1)"


class TestTable:
    def test_sorted_rows_match_solver(self, tmp_path, capsys):
        code = main(["table", "example:1", "--grids", "20,10",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        header, rows = _read_csv(tmp_path / "table.csv")
        assert header == ["N", "K", "eu", "e"]
        assert [int(r[0]) for r in rows] == [10, 20]
        for row in rows:
            n = int(row[0])
            report = solve(canonicalize(get_example(1).load().raw), SolverConfig(n=n))
            assert int(row[1]) == report.iterations
            assert float(row[3]) == report.final_e

    def test_no_exact_drops_eu_column(self, tmp_path):
        assert main(["table", "example:2", "--grids", "10",
                     "--out-dir", str(tmp_path)]) == 0
        header, _ = _read_csv(tmp_path / "table.csv")
        assert header == ["N", "K", "e"]

    def test_failed_row_adds_status_column(self, tmp_path):
        path = _problem_file(tmp_path, "f = 600*u + 1\n")
        code = main(["table", path, "--grids", "10,12", "--out-dir", str(tmp_path)])
        assert code == 1
        header, rows = _read_csv(tmp_path / "table.csv")
        assert header[-1] == "status"
        assert all(r[-1] == "divergence" for r in rows)

    def test_floor_stall_rows(self, tmp_path):
        # at n = 1000 one e(k) once fell below tol by luck; now both rows stall
        path = _problem_file(tmp_path, STALL)
        code = main(["table", path, "--grids", "100,1000", "--out-dir", str(tmp_path)])
        assert code == 1
        header, rows = _read_csv(tmp_path / "table.csv")
        assert header == ["N", "K", "e", "status"]
        assert [(r[0], r[-1]) for r in rows] == [("100", "floor"), ("1000", "floor")]
        assert all(int(r[1]) <= 60 for r in rows)

    def test_first_pass_failure_with_exact_writes_nan(self, tmp_path, capsys):
        path = _problem_file(tmp_path, LOG_BLOWUP)
        code = main(["table", path, "--grids", "16,32", "--out-dir", str(tmp_path)])
        assert code == 1
        rows = ["16,0,nan,nan,divergence", "32,0,nan,nan,divergence"]
        assert capsys.readouterr().out.splitlines()[:2] == rows
        expect = "\n".join(["N,K,eu,e,status"] + rows) + "\n"
        assert (tmp_path / "table.csv").read_text(encoding="utf-8") == expect

    @pytest.mark.parametrize("grids", ["16,16", "32,16,32"])
    def test_repeated_grid_size_is_an_input_error(self, grids, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "_solve", lambda *args: solves.append(args))
        assert main(["table", "example:1", "--grids", grids, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: repeated grid size in --grids: ")
        assert solves == [] and not (tmp_path / "table.csv").exists()

    def test_every_grid_size_is_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "_solve", lambda *args: solves.append(args))
        code = main(["table", "example:1", "--grids", "100000,100001", "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: grid size must be even and >= 8, got 100001\n"
        assert solves == [] and not (tmp_path / "table.csv").exists()

    def test_bad_grid_list(self, tmp_path, capsys):
        assert main(["table", "example:1", "--grids", "ten",
                     "--out-dir", str(tmp_path)]) == 2
        assert "bad --grids" in capsys.readouterr().err


class TestCsvWriter:
    @staticmethod
    def _reference_bytes(path, header, rows):
        # the csv module with 17-digit formatting is the oracle
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([v if isinstance(v, str) else format(v, ".17g")
                                 for v in row])
        with open(path, "rb") as fh:
            return fh.read()

    def test_matches_csv_module_on_edge_values(self, tmp_path):
        floats = [-0.0, 5e-324, 1e300, 0.1, -1.5e-300, 2.0 / 3.0]
        ints = list(range(-2, len(floats) - 2))
        status = ["converged", "divergence", "iteration-limit"] * 2
        header = ["N", "e", "status"]
        rows = list(zip(ints, floats, status))
        _write_csv(str(tmp_path / "new.csv"), header, [ints, np.array(floats), status])
        expect = self._reference_bytes(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == expect

    def test_chunked_rows_match_csv_module(self, tmp_path):
        n = 2 * _CSV_CHUNK_ROWS + 17
        rng = np.random.default_rng(7)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        ks = range(1, n + 1)
        _write_csv(str(tmp_path / "new.csv"), ["k", "v"], [ks, values])
        expect = self._reference_bytes(tmp_path / "ref.csv", ["k", "v"],
                                       zip(ks, values.tolist()))
        assert (tmp_path / "new.csv").read_bytes() == expect

    def test_header_only_when_no_rows(self, tmp_path):
        _write_csv(str(tmp_path / "empty.csv"), ["k", "e"], [range(1, 1), []])
        assert (tmp_path / "empty.csv").read_bytes() == b"k,e\n"


def _per_row_csv(path, header, columns):
    """The writer the vectorized one replaced, one '%' per row: the byte oracle."""
    columns = [np.asarray(col) for col in columns]
    line = ",".join({"U": "%s", "i": "%d"}.get(col.dtype.kind, "%.17g")
                    for col in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*(col.tolist() for col in columns)))


def _fields(values):
    block = cli._format_floats(np.array(values, dtype=np.float64))
    return [bytes(row[row != 0]) for row in block]


def _bits(pattern):
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


def _tie(s, q):
    # m 2^-s = m 5^s 10^-s with m = 2q + 1 odd: when m 5^s has 18 digits,
    # the last is 5 and 17 digits round half to even
    return math.ldexp(2 * q + 1, -s)


def _ties():
    # 10^17 <= m 5^s < 10^18 and m < 2^53 leave room for s = 2..25
    def at(s):
        lo, hi = -(-10**17 // 5**s), min(2**53, 10**18 // 5**s)
        return st.integers(lo // 2, (hi - 2) // 2).map(lambda q: _tie(s, q))
    return st.integers(2, 25).flatmap(at)


_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
          2.225073858507201e-308, 1.7976931348623157e308, 1e-270, 1e270,
          1e-5, 1e-4, 1e16, 1e17, 1.0, 0.1, 1234567890123456.75]


def _near_powers_of_ten():
    def around(j, step, sign):
        v = 10.0 ** j
        for _ in range(abs(step)):
            v = math.nextafter(v, math.inf if step > 0 else 0.0)
        return sign * v
    return st.builds(around, st.integers(-323, 308), st.integers(-1, 1), st.sampled_from([1.0, -1.0]))


_DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_EDGES).flatmap(lambda v: st.sampled_from(
        [v, -v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)])),
    _near_powers_of_ten(),
    _ties(),
)


class TestFloatFormatter:
    @given(values=st.lists(_DOUBLES, min_size=1, max_size=40))
    def test_matches_percent_17g(self, values):
        assert _fields(values) == [b"%.17g" % v for v in values]

    def test_ties_fall_back_to_round_half_even(self):
        # 1234567890123456.75 and 2^-25 end in ...75 and ...125 at 18 digits
        values = [1234567890123456.75, -1234567890123456.25, 2.0 ** -25, _tie(2, 4 * 10**15)]
        assert _fields(values) == [b"%.17g" % v for v in values]
        assert _fields([1234567890123456.75]) == [b"1234567890123456.8"]

    def test_layout_boundaries(self):
        values = [1e-5, 9.9999999999999995e-5, 1e-4, 1e16, 9.9999999999999998e16, 1e17,
                  100.0, 120.0, 1e15 + 0.5, 0.5, 12345.0, -0.001]
        assert _fields(values) == [b"%.17g" % v for v in values]

    @pytest.mark.parametrize("ident", range(1, 7))
    def test_artifacts_equal_the_per_row_writer(self, ident, tmp_path, monkeypatch):
        problem = canonicalize(get_example(ident).load().raw)
        report = solve(problem, SolverConfig(n=20000))
        written = cli._write_solve_artifacts(report, problem, str(tmp_path), "new_")
        monkeypatch.setattr(cli, "_write_csv", _per_row_csv)
        oracle = cli._write_solve_artifacts(report, problem, str(tmp_path), "old_")
        for new, old in zip(written, oracle):
            with open(new, "rb") as fa, open(old, "rb") as fb:
                assert fa.read() == fb.read(), new

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        rng = np.random.default_rng(3)

        def peak(n):
            columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n) for _ in range(7)]
            tracemalloc.start()
            try:
                _write_csv(str(tmp_path / "big.csv"), list("abcdefg"), columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cli._float_tables()   # built once per process, on first use
        small, large = peak(10**4), peak(10**5)
        assert large <= 1.1 * small + 65536, (small, large)


class TestExamples:
    def test_list_enumerates_registry(self, capsys):
        assert main(["examples", "--list"]) == 0
        out = capsys.readouterr().out
        for ident in range(1, 7):
            assert f"example {ident} (" in out
        assert "quartic-benchmark" in out
        assert "w'''' = u^5" in out
        assert "q=" in out

    def test_run_executes_check_then_solve(self, tmp_path, capsys):
        code = main(["examples", "--run", "1", "--out-dir", str(tmp_path),
                     "--n", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("== check") < out.index("== solve")
        for name in ("conditions.txt", "convergence.csv", "solution.csv"):
            assert (tmp_path / f"example1_{name}").exists()

    def test_run_continues_past_failed_check(self, tmp_path, capsys):
        code = main(["examples", "--run", "5", "--out-dir", str(tmp_path),
                     "--n", "50"])
        assert code == 0
        captured = capsys.readouterr()
        assert "attempting the solve anyway" in captured.err
        assert "converged in" in captured.out
        text = (tmp_path / "example5_conditions.txt").read_text(encoding="utf-8")
        assert "offending sample" in text

    def test_unknown_id(self, tmp_path, capsys):
        assert main(["examples", "--run", "9", "--out-dir", str(tmp_path)]) == 2
        assert "no built-in example 9" in capsys.readouterr().err


class TestExactSamples:
    @pytest.mark.parametrize("argv, calls", [
        (["solve", "example:1", "--n", "64"], 1),
        (["table", "example:1", "--grids", "16,32"], 2),
        (["examples", "--run", "1", "--n", "64"], 1),
    ], ids=["solve", "table", "examples"])
    def test_each_grid_is_sampled_once(self, argv, calls, tmp_path, capsys, monkeypatch):
        # the samples that validate exact are the ones the solve tracks eu against
        grids = []
        real = CanonicalProblem.exact_on

        def spy(problem, grid):
            grids.append(grid.n)
            return real(problem, grid)

        monkeypatch.setattr(CanonicalProblem, "exact_on", spy)
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert len(grids) == calls and len(set(grids)) == calls


class TestInputHandling:
    def test_missing_file(self, capsys):
        assert main(["solve", "/no/such/file.txt"]) == 2
        assert "cannot read problem file" in capsys.readouterr().err

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "problem.txt"
        path.write_bytes(b"f = u\xff + 1\n")
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read problem file") and "not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    @pytest.mark.parametrize("command", [
        ["solve", "example:1"], ["check", "example:1"],
        ["table", "example:1", "--grids", "16,32"], ["examples", "--run", "1"],
    ], ids=["solve", "check", "table", "examples"])
    def test_out_dir_that_is_a_file(self, command, below, tmp_path, capsys, monkeypatch):
        # an input error before any solve or check runs, and nothing written
        monkeypatch.chdir(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        target = taken / "sub" if below else taken
        assert main(command + ["--out-dir", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot create output directory '{target}'")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("argv, message", [
        # above float_info.max / 2 the axes of v and z would hold NaN
        (["check", "example:1", "--M", "1e308"], "M must be at most 8.988465674311579e+307, got 1e+308"),
        (["check", "example:1", "--K1=-1"],
         "Lipschitz constants must be finite and nonnegative numbers, got (-1.0, 0.0, 0.0, 0.0)"),
        (["check", "example:1", "--lattice", "3"], "need at least 5 lattice points per axis, got 3"),
        (["check", "no-m"], "no M given: pass --M or put an M key in the problem file"),
        (["examples", "--run", "1", "--n", "7"], "grid size must be even and >= 8, got 7"),
        (["examples", "--run", "1", "--tol", "-1"], "tol must be a positive number, got -1.0"),
        (["examples", "--run", "1", "--max-iter", "0"], "max_iter must be at least 1, got 0"),
        (["examples", "--run", "1", "--lattice", "3"], "need at least 5 lattice points per axis, got 3"),
        (["examples", "--run", "1", "--M", "1e308"], "M must be at most 8.988465674311579e+307, got 1e+308"),
        (["solve", "log-exact"], LOG_EXACT_ERROR),
        (["table", "log-exact"], LOG_EXACT_ERROR),
        (["solve", "overflowing-exact"], OVERFLOWING_EXACT_ERROR),
        (["table", "overflowing-exact"], OVERFLOWING_EXACT_ERROR),
    ], ids=["check-M", "check-K1", "check-lattice", "check-no-M", "examples-n", "examples-tol",
            "examples-max-iter", "examples-lattice", "examples-M", "solve-log-exact",
            "table-log-exact", "solve-overflowing-exact", "table-overflowing-exact"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_input_error_creates_nothing(self, argv, message, tmp_path, capsys):
        # every input is resolved before --out-dir is created or anything runs
        argv = [_problem_file(tmp_path, BAD_INPUT_FILES[arg], f"{arg}.txt")
                if arg in BAD_INPUT_FILES else arg for arg in argv]
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("interval", ["b = 1e80", "a = -1e308\nb = 1e308"],
                             ids=["scale-overflows", "length-overflows"])
    def test_interval_too_long(self, interval, tmp_path, capsys):
        # (b-a)^4 or b - a overflows: an input error, before canonicalize
        path = _problem_file(tmp_path, f"f = u + 1\n{interval}\n")
        out = tmp_path / "out"
        assert main(["solve", path, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(b-a)^4 a finite nonzero double" in err
        assert not out.exists()

    def test_unknown_key_named_with_line(self, tmp_path, capsys):
        path = _problem_file(tmp_path, "f = u\ngamma = 2\n")
        assert main(["solve", path, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "gamma" in err

    def test_bad_example_ids(self, capsys):
        assert main(["solve", "example:0"]) == 2
        assert main(["solve", "example:seven"]) == 2
        err = capsys.readouterr().err
        assert "no built-in example 0" in err
        assert "bad example id" in err

    def test_out_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "fromenv"
        monkeypatch.setenv("CLAMPBEAM_OUT_DIR", str(target))
        assert main(["solve", "example:1", "--n", "20"]) == 0
        assert (target / "convergence.csv").exists()
        assert (target / "solution.csv").exists()

    def test_flag_overrides_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CLAMPBEAM_OUT_DIR", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        assert main(["solve", "example:1", "--n", "20",
                     "--out-dir", str(chosen)]) == 0
        assert (chosen / "solution.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestHeapTrim:
    @pytest.mark.parametrize("argv, code", [
        (["solve", "example:1", "--n", "20"], 0),
        (["solve", "example:0"], 2),
    ], ids=["solve", "input-error"])
    def test_main_trims_the_heap_once_per_command(self, argv, code, tmp_path, capsys, monkeypatch):
        pads = []
        monkeypatch.setattr(cli, "_malloc_trim", lambda: pads.append)
        assert main(argv + ["--out-dir", str(tmp_path)]) == code
        assert pads == [0]

    def test_main_runs_without_malloc_trim(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_malloc_trim", lambda: None)
        assert main(["solve", "example:1", "--n", "20", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "solution.csv").exists()

    def test_malloc_trim_is_callable_or_absent(self):
        trim = cli._malloc_trim()
        assert trim is None or trim(0) in (0, 1)


def _run_module(*args):
    """python -m args in a child process that imports this checkout's clampbeam."""
    src = str(Path(clampbeam.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["clampbeam", "clampbeam.cli"])
    def test_examples_list(self, module):
        out = _run_module(module, "examples", "--list")
        assert out.returncode == 0
        assert "example 1" in out.stdout

    @pytest.mark.parametrize("module", ["clampbeam", "clampbeam.cli"])
    def test_missing_problem_file_is_an_input_error(self, module, tmp_path):
        out = _run_module(module, "check", str(tmp_path / "missing.txt"), "--out-dir", str(tmp_path))
        assert out.returncode == 2
        assert out.stderr.startswith("error:") and out.stdout == ""
