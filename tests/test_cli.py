"""Command-line workflows, exercised in process through main(argv).

Artifact contracts checked here: CSV numbers carry 17 significant digits
so doubles survive a write/read cycle, runs are byte-deterministic, and a
solution file alone is enough to reconstruct the discrete state and check
its residual.
"""

import csv

import numpy as np
import pytest

from clampbeam.cli import _CSV_CHUNK_ROWS, _write_csv, main
from clampbeam.expr import evaluate
from clampbeam.numerics import Grid, GridFunction
from clampbeam.problem import canonicalize, parse_problem_text
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

    def test_divergent_solve_writes_artifacts(self, tmp_path, capsys):
        path = _problem_file(tmp_path, "f = 600*u + 1\n")
        code = main(["solve", path, "--out-dir", str(tmp_path), "--n", "32"])
        assert code == 1
        captured = capsys.readouterr()
        assert "diverg" in captured.err
        _, rows = _read_csv(tmp_path / "convergence.csv")
        assert len(rows) >= 5
        assert (tmp_path / "solution.csv").exists()

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
        text = (tmp_path / "conditions.txt").read_text(encoding="utf-8")
        assert "offending sample" in text

    def test_missing_m_is_an_input_error(self, tmp_path, capsys):
        path = _problem_file(tmp_path, "f = sin(u)\n")
        assert main(["check", path, "--out-dir", str(tmp_path)]) == 2
        assert "no M given" in capsys.readouterr().err

    def test_k_flags_supply_constants(self, tmp_path, capsys):
        code = main(["check", "example:1", "--K1", "100",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "conditions.txt").read_text(encoding="utf-8")
        assert "100, 0, 0, 0" in text
        assert "supplied" in text


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


class TestInputHandling:
    def test_missing_file(self, capsys):
        assert main(["solve", "/no/such/file.txt"]) == 2
        assert "cannot read problem file" in capsys.readouterr().err

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
