"""Tests of the benchmark itself (not of clampbeam).

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    gen = workloads.GENERATORS[name]
    first = [repr(gen(7, i)) for i in range(40)]
    assert first == [repr(gen(7, i)) for i in range(40)]
    assert first != [repr(gen(8, i)) for i in range(40)]


def test_cost_schedule_does_not_depend_on_seed():
    for i in range(48):
        a, b = workloads.sweep_small_op(1, i), workloads.sweep_small_op(2, i)
        assert (a.n, a.kind == "hard") == (b.n, b.kind == "hard")
        c, d = workloads.certify_op(1, i), workloads.certify_op(2, i)
        assert (c.lattice, c.kind == "domain") == (d.lattice, d.kind == "domain")
        e, f = workloads.refine_large_op(1, i), workloads.refine_large_op(2, i)
        assert e.argv[0] == f.argv[0] and e.repeat_of == f.repeat_of
        assert all(abs(g - h) <= h // 50 + 2 for g, h in zip(e.grids, f.grids))  # +-1% each


def test_metric_names_and_declared_sets():
    declared_e2e = [m["name"] for m in SPEC["end_to_end"]]
    declared_layer = [m["name"] for m in SPEC["per_layer"]]
    for name in declared_e2e + declared_layer + [w["name"] for w in SPEC["workloads"]]:
        assert NAME_RE.fullmatch(name), name
    assert len(set(declared_e2e + declared_layer)) == len(declared_e2e) + len(declared_layer)
    out = run.Outcome()
    out.record(0.01, True, False, "")
    out.factors.append(1.0)
    assert list(run.end_to_end(out, [0.2])) == declared_e2e
    assert list(tracer.layer_metrics(tracer.Tracer(), 1, 0.0)) == declared_layer
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, (_, unit) in tracer.layer_metrics(tracer.Tracer(), 1, 0.0).items():
        assert units[name] == unit


def test_self_time_arithmetic():
    # A [0,100] holds B [10,30] and C [40,90]; C holds D [50,60]; E stands alone.
    start = np.array([0, 10, 40, 50, 200])
    end = np.array([100, 30, 90, 60, 210])
    parent = np.array([-1, 0, 0, 2, -1])
    assert list(tracer.self_times(parent, end - start)) == [30, 20, 40, 10, 10]


def test_self_time_from_recorded_spans():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(1000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    stats = tr.per_name()
    calls, total, own = stats["outer"]
    assert calls == 1 and stats["inner"][0] == 3
    assert own == pytest.approx(total - stats["inner"][1])


def test_host_speed_scale_is_a_plausible_ratio():
    host = run.HostSpeed()
    scales = [host.factor(host.mark()) for _ in range(20)]
    assert all(0.1 < f < 10.0 for f in scales)
    with host:                      # timer samples land inside a long stretch
        mark, paused = host.mark(), host.paused_s
        time.sleep(0.5)
        assert len(host.samples) - 1 - mark >= 1 and host.paused_s > paused
        assert 0.1 < host.factor(mark) < 10.0


def test_floor_iterations():
    e = [1e-3, 1e-9, 1e-14, 3e-15, 2e-15, 1e-16]
    assert tracer.floor_iterations(e, 0.5) == 2          # floor 16 eps = 3.6e-15
    assert tracer.floor_iterations(e, 6.0) == 3          # floor grows with sup|u|
    assert tracer.floor_iterations([1.0, 0.5], 1.0) == 0


def test_tracer_restores_functions():
    import clampbeam.solver as solver
    import clampbeam.numerics as numerics
    before = (solver.solve, solver.diff5, numerics.GridFunction.__post_init__)
    tr = tracer.Tracer()
    tr.install()
    assert solver.diff5 is not before[1]
    tr.uninstall()
    assert (solver.solve, solver.diff5, numerics.GridFunction.__post_init__) == before


def _run_ops(name, count, tr=None):
    wl = run.Workload(name, seed=3)
    wl.tracer = tr
    return run.run_ops(wl, count)


def test_correct_outputs_pass():
    out = _run_ops("sweep-small", 7)
    assert (out.ok, out.failed, out.wrong) == (7, 0, 0)


def test_wrong_output_is_a_failure(monkeypatch):
    import clampbeam.solver as solver
    real = solver.solve

    def wrong(problem, config=solver.SolverConfig(), exact=None):
        report = real(problem, config, exact)
        u = report.profile.u
        bent = dataclasses.replace(u, values=u.values + 1e-6)
        return dataclasses.replace(report, profile=dataclasses.replace(report.profile, u=bent))

    monkeypatch.setattr(solver, "solve", wrong)
    out = _run_ops("sweep-small", 7)
    assert out.failed > 0 and out.wrong == out.failed
    assert run.end_to_end(out, [0.2])["ok_frac"][0] < 1.0


def test_wrong_offending_point_is_a_failure():
    op = workloads.certify_op(0, 6)
    assert op.kind == "domain"
    good = workloads.expected_bad_point(op)
    assert workloads.check_domain_failure(op, good)[0]
    moved = (good[0], -good[1]) + good[2:]
    assert not workloads.check_domain_failure(op, moved)[0]


def test_known_defects_count_as_failures():
    hard = [i for i in range(48) if workloads.sweep_small_op(0, i).kind == "hard"]
    out = run.Outcome()
    wl = run.Workload("sweep-small", seed=0)
    for i in hard[:3]:
        wl.run(i, out)
    # the stall at n=100 and 500*u + 1 fail; 300*u + 1 converges
    assert (out.ok, out.failed, out.wrong) == (1, 2, 0)


def test_traced_run_counts_layers():
    tr = tracer.Tracer()
    tr.install()
    try:
        _run_ops("sweep-small", 3, tr)
    finally:
        tr.uninstall()
    metrics = tracer.layer_metrics(tr, 3, 0.0)
    assert metrics["solver.step.calls"][0] > 0
    assert metrics["numerics.solve_second_order_bvp.nodes"][0] > 0
    assert metrics["solver.converged_frac"][0] == 1.0
    assert metrics["analysis.check_conditions.calls"][0] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "no clampbeam sources" in proc.stderr
    assert "correct" not in proc.stdout
