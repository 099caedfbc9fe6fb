"""Spans and counts around clampbeam's public functions, from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every
name that refers to it in every loaded ``clampbeam`` module, so calls made
inside the package (``solver.step`` calling ``numerics.diff5``, say) are seen
too.  Each call records one span (name, start, end, parent span, operation
id) into flat integer arrays kept in memory; ``write`` saves them at the
end.  Some wrappers also record counts taken from their arguments or
results: nodes solved, elements evaluated, iterations, verdicts.
``uninstall`` puts the original functions back.

Self time of a span is its duration minus the durations of its direct
children.  Calls are nested and single-threaded, so children never overlap
and always lie inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function, span name).  Both slope kernels share one name.
TARGETS = (
    ("expr", "parse", "expr.parse"),
    ("expr", "evaluate", "expr.evaluate"),
    ("expr", "differentiate", "expr.differentiate"),
    ("numerics", "solve_second_order_bvp", "numerics.solve_second_order_bvp"),
    ("numerics", "diff5", "numerics.diff5"),
    ("numerics", "simpson", "numerics.simpson"),
    ("kernels", "slope_kernel_left", "kernels.slope_kernel"),
    ("kernels", "slope_kernel_right", "kernels.slope_kernel"),
    ("problem", "parse_problem_text", "problem.parse_problem_text"),
    ("problem", "canonicalize", "problem.canonicalize"),
    ("problem", "recover_solution", "problem.recover_solution"),
    ("solver", "init_state", "solver.init_state"),
    ("solver", "step", "solver.step"),
    ("solver", "residual", "solver.residual"),
    ("solver", "solve", "solver.solve"),
    ("analysis", "check_conditions", "analysis.check_conditions"),
    ("cli", "main", "cli.main"),
)

OP_SPAN = "bench.op"
EPS = float(np.finfo(float).eps)
FLOOR_MULTIPLE = 16.0    # rounding floor of e(k): 16 eps max(1, sup|u|)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its children."""
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=np.int64)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    return duration - children.astype(np.int64)


def floor_iterations(e_history, sup_u: float) -> int:
    """Iterations run after e(k) first reached its rounding floor."""
    e = np.asarray(e_history, dtype=float)
    below = np.flatnonzero(e <= FLOOR_MULTIPLE * EPS * max(1.0, sup_u))
    return 0 if below.size == 0 else int(e.size - 1 - below[0])


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> int:
        now = time.perf_counter_ns()
        self.end[idx] = now
        self._stack.pop()
        return now - self.start[idx]

    def wrap(self, name: str, fn, before=None, after=None, failed=None):
        """A traced stand-in for fn.

        before(args) runs ahead of the call; after(args, result, ns) and
        failed(args, exc, ns) see the outcome and the span's duration.
        """
        name_id = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ns = self.close(idx)
                if failed is not None:
                    failed(args, exc, ns)
                raise
            ns = self.close(idx)
            if after is not None:
                after(args, result, ns)
            return result

        return traced

    # -- counts taken at the boundaries -------------------------------------

    def _count_evaluate(self, args, result, ns) -> None:
        c = self.counts
        if isinstance(result, float):
            c["analysis.scalar_evals"] += 1
            c["expr.evaluate.elems"] += 1
        else:
            c["expr.evaluate.elems"] += result.size

    def _evaluate_failed(self, args, exc, ns) -> None:
        if all(isinstance(a, float) for a in args[1:]):
            self.counts["analysis.scalar_evals"] += 1

    def _count_bvp(self, args) -> None:
        self.counts["numerics.solve_second_order_bvp.nodes"] += args[0].values.size

    def _count_report(self, report) -> None:
        c = self.counts
        c["solver.solves"] += 1
        c["solver.iterations"] += report.iterations
        c["solver.converged"] += bool(report.converged)
        sup_u = float(np.max(np.abs(report.profile.u.values)))
        c["solver.floor_iterations"] += floor_iterations(report.e_history, sup_u)
        if not report.converged:
            return
        c["solver.residual_max"] = max(c["solver.residual_max"], report.residual)
        if report.final_eu is not None:
            c["solver.eu_max"] = max(c["solver.eu_max"], report.final_eu)

    def _solve_failed(self, args, exc, ns) -> None:
        report = getattr(exc, "report", None)
        if report is not None:
            self._count_report(report)

    def _check_failed(self, args, exc, ns) -> None:
        if type(exc).__name__ == "DomainSamplingError":
            self.counts["analysis.domain_fails"] += 1
            self.counts["analysis.domain_fail_ns"] += ns

    def _count_created(self, original):
        counts = self.counts

        @functools.wraps(original)
        def post_init(obj):
            counts["numerics.GridFunction.created"] += 1
            original(obj)

        return post_init

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it in every loaded clampbeam module."""
        hooks = {
            "expr.evaluate": dict(after=self._count_evaluate, failed=self._evaluate_failed),
            "numerics.solve_second_order_bvp": dict(before=self._count_bvp),
            "solver.solve": dict(after=lambda a, r, ns: self._count_report(r),
                                 failed=self._solve_failed),
            "analysis.check_conditions": dict(failed=self._check_failed),
        }
        replacements = {}
        for module_name, func_name, span_name in TARGETS:
            module = importlib.import_module(f"clampbeam.{module_name}")
            original = getattr(module, func_name)
            replacements[id(original)] = (original, self.wrap(
                span_name, original, **hooks.get(span_name, {})))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "clampbeam" and not mod_name.startswith("clampbeam."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        numerics = importlib.import_module("clampbeam.numerics")
        cls = numerics.GridFunction
        original = cls.__post_init__
        cls.__post_init__ = self._count_created(original)
        self._patched.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_name(self) -> dict:
        """{name: (calls, total ns, self ns)} over all recorded spans."""
        arr = self.arrays()
        duration = arr["end"] - arr["start"]
        own = self_times(arr["parent"], duration)
        k = len(self.names)
        calls = np.bincount(arr["name_id"], minlength=k)
        total = np.bincount(arr["name_id"], weights=duration, minlength=k)
        self_ns = np.bincount(arr["name_id"], weights=own, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(self_ns[i]))
                for i, name in enumerate(self.names)}


def layer_metrics(tracer: Tracer, ops: int, overhead_frac: float) -> dict:
    """Per-layer metrics of a traced run, normalized per operation."""
    stats = tracer.per_name()
    c = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0] / ops

    def self_ms(name):
        return stats.get(name, (0, 0.0, 0.0))[2] / 1e6 / ops

    solves = c["solver.solves"]
    iterations = c["solver.iterations"]
    fails = c["analysis.domain_fails"]
    return {
        "numerics.solve_second_order_bvp.calls": (calls("numerics.solve_second_order_bvp"), "count/op"),
        "numerics.solve_second_order_bvp.self_ms": (self_ms("numerics.solve_second_order_bvp"), "ms/op"),
        "numerics.solve_second_order_bvp.nodes": (c["numerics.solve_second_order_bvp.nodes"] / ops, "count/op"),
        "numerics.GridFunction.created": (c["numerics.GridFunction.created"] / ops, "count/op"),
        "numerics.diff5.self_ms": (self_ms("numerics.diff5"), "ms/op"),
        "numerics.simpson.self_ms": (self_ms("numerics.simpson"), "ms/op"),
        "kernels.slope_kernel.calls": (calls("kernels.slope_kernel"), "count/op"),
        "kernels.slope_kernel.self_ms": (self_ms("kernels.slope_kernel"), "ms/op"),
        "expr.evaluate.calls": (calls("expr.evaluate"), "count/op"),
        "expr.evaluate.self_ms": (self_ms("expr.evaluate"), "ms/op"),
        "expr.evaluate.elems": (c["expr.evaluate.elems"] / ops, "count/op"),
        "expr.parse.self_ms": (self_ms("expr.parse"), "ms/op"),
        "solver.solve.self_ms": (self_ms("solver.solve"), "ms/op"),
        "solver.step.calls": (calls("solver.step"), "count/op"),
        "solver.step.self_ms": (self_ms("solver.step"), "ms/op"),
        "solver.residual.self_ms": (self_ms("solver.residual"), "ms/op"),
        "solver.iterations": (iterations / solves if solves else 0.0, "count/solve"),
        "solver.floor_iter_frac": (c["solver.floor_iterations"] / iterations if iterations else 0.0, "frac"),
        "solver.converged_frac": (c["solver.converged"] / solves if solves else 0.0, "frac"),
        "solver.eu_max": (c["solver.eu_max"], "1"),
        "solver.residual_max": (c["solver.residual_max"], "1"),
        "problem.parse_problem_text.self_ms": (self_ms("problem.parse_problem_text"), "ms/op"),
        "problem.canonicalize.self_ms": (self_ms("problem.canonicalize"), "ms/op"),
        "problem.recover_solution.self_ms": (self_ms("problem.recover_solution"), "ms/op"),
        "analysis.check_conditions.calls": (calls("analysis.check_conditions"), "count/op"),
        "analysis.check_conditions.self_ms": (self_ms("analysis.check_conditions"), "ms/op"),
        "analysis.domain_fail_ms": (c["analysis.domain_fail_ns"] / 1e6 / fails if fails else 0.0, "ms/check"),
        "analysis.scalar_evals": (c["analysis.scalar_evals"] / ops, "count/op"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms/op"),
        "cli.bytes_written": (c["cli.bytes_written"] / ops, "B/op"),
        "trace.op_ms": (stats.get(OP_SPAN, (0, 0.0, 0.0))[1] / 1e6 / ops, "ms/op"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
