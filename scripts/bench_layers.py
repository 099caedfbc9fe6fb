#!/usr/bin/env python3
"""Layer-by-layer timings of clampbeam, each next to what the same run computed.

Run from anywhere; clampbeam is imported from the src/ of this checkout:

    python scripts/bench_layers.py --label NAME [--repeats 15] [--out-dir .]

writes BENCH_<label>.json.  For every layer it holds the median and the
interquartile range, in microseconds per call, of --repeats timings, each
the mean of enough calls to take a few milliseconds:

  - the front end on the six built-in examples: parse_problem_text,
    canonicalize, differentiate (f's four partials), the compiler walk and
    the fold of f and its partials without x, and the fold of f at a grid's
    nodes (n = 100 and 10^5), as a solve folds it;
  - analysis._extremes of a program that fits one slab and of one that
    runs in slabs;
  - check_conditions at lattices 9, 17 and 33, and two checks that fail:
    example 5 at lattice 9, and one at lattice 17 where a leaf of the
    range pass fails;
  - solver._pass and solve() on example 1 at n = 100, 10^3, 10^4, 10^5,
    next to K, e(K), eu(K) and the residual of that solve.

Beside the timings the file holds what the runs computed (programs' sizes,
extremes, reports, the failures' messages and points, the solves' accuracy)
and a SHA-256 over those fields.  The hash shows whether two runs, or two
versions of the code, computed the same; numpy's transcendentals may round
differently on another CPU, so it is only comparable on one machine.
Timings also depend on the machine, and are recorded with its Python,
numpy and core count.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from clampbeam import analysis, expr, solver  # noqa: E402
from clampbeam.examples import EXAMPLES  # noqa: E402
from clampbeam.numerics import Grid  # noqa: E402
from clampbeam.problem import canonicalize, parse_problem_text  # noqa: E402

SIZES = (100, 1000, 10000, 100000)
LATTICES = (9, 17, 33)
MIN_REPEAT_S = 0.002  # each timing is the mean of as many calls as fill this


def _text(example) -> str:
    """example as the text of a problem file, without its hand constants."""
    keys = ("a", "b", "A1", "B1", "A2", "B2", "M")
    return "".join(f"{key} = {getattr(example, key)!r}\n" for key in keys) + f"f = {example.rhs_text}\n"


def _partials(rhs) -> list:
    return [expr.differentiate(rhs, var) for var in "uyvz"]


def _timing(fn, repeats: int) -> dict:
    """Median and IQR, in µs per call, of repeats means of fn() over a few ms each."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - start >= MIN_REPEAT_S:
            break
        loops *= 2
    samples = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for _ in range(loops):
                fn()
            samples.append((time.perf_counter_ns() - start) / 1e3 / loops)
    finally:
        gc.enable()
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_us": statistics.median(samples), "iqr_us": q3 - q1, "loops": loops}


def _program(program) -> dict:
    return {"code": len(program.code), "reads": list(program.reads), "finite": program.finite}


def _front_end(layers: dict, results: dict) -> None:
    texts = [_text(ex) for ex in EXAMPLES]
    loaded = [parse_problem_text(text) for text in texts]
    rhs = [canonicalize(problem.raw).rhs for problem in loaded]
    trees = [tree for f in rhs for tree in [f] + _partials(f)]
    unfolded = [expr._Compiler(tree).program() for tree in trees]
    fs = [expr._Compiler(f).program() for f in rhs]
    what = "the six built-in examples"
    layers["front.parse_problem_text"] = (lambda: [parse_problem_text(t) for t in texts], what)
    layers["front.canonicalize"] = (lambda: [canonicalize(p.raw) for p in loaded], what)
    layers["front.differentiate"] = (lambda: [_partials(f) for f in rhs], f"f's four partials, {what}")
    layers["front.compile_walk"] = (lambda: [expr._Compiler(t).program() for t in trees],
                                    f"f and its partials, {what}")
    layers["front.fold_x_none"] = (lambda: [expr._fold(p) for p in unfolded], f"f and its partials, {what}")
    results["programs_x_none"] = [_program(expr._fold(p)) for p in unfolded]
    for n in (100, 100000):
        nodes = Grid(n).nodes
        layers[f"front.fold_nodes_{n}"] = (lambda nodes=nodes: [expr._fold(p, nodes) for p in fs],
                                           f"f at the grid's nodes, {what}")
        results[f"programs_nodes_{n}"] = [_program(expr._fold(p, nodes)) for p in fs]


def _lattice(layers: dict, results: dict) -> None:
    box = analysis.DomainBox(6.0)
    one = expr._compile(EXAMPLES[2].canonical().rhs)  # two axes: 289 values
    many = expr._compile(expr.parse("sin(x*u*y*v*z)"))  # five axes: 17^5 values in slabs
    env = analysis._lattice_env(box, analysis.LatticeSpec(17))
    for name, program in (("one_slab", one), ("slabs", many)):
        slabs = len(analysis._blocks(program.reads, env))
        layers[f"lattice.extremes_{name}"] = (lambda program=program: analysis._extremes(program, env),
                                             f"{expr.to_source(program.root)} at lattice 17, {slabs} slab(s)")
        results[f"extremes_{name}"] = [float(v) for v in analysis._extremes(program, env)]


def _checks(layers: dict, results: dict) -> None:
    for ident in (2, 3):
        ex = EXAMPLES[ident - 1]
        rhs = ex.canonical().rhs
        for points in LATTICES:
            spec = analysis.LatticeSpec(points)
            layers[f"check.example{ident}_lattice{points}"] = (
                lambda rhs=rhs, M=ex.M, spec=spec: analysis.check_conditions(rhs, M, None, spec),
                f"example {ident}, K1..K4 estimated")
            report = analysis.check_conditions(rhs, ex.M, None, spec)
            results[f"check_example{ident}_lattice{points}"] = {
                "sup_f": report.sup_f, "ks": list(report.ks), "q": report.q, "certified": report.certified}
    failing = {"example5_lattice9_fails": (EXAMPLES[4].canonical().rhs, EXAMPLES[4].M, 9,
                                           "example 5, undefined in the box"),
               # a leaf of the range pass fails; the whole program's slab fold names the point
               "leaf_fails_lattice17": (expr.parse("1/(2*sqrt(v + 1))*x*u*y*z"), 4.0, 17,
                                        "1/(2*sqrt(v + 1))*x*u*y*z, M = 4, a leaf undefined in the box")}
    for name, (rhs, M, points, what) in failing.items():
        def fails(rhs=rhs, M=M, spec=analysis.LatticeSpec(points)):
            try:
                analysis.check_conditions(rhs, M, None, spec)
            except analysis.DomainSamplingError as err:
                return err
            raise RuntimeError(f"the check of {expr.to_source(rhs)} passed")

        layers[f"check.{name}"] = (fails, what)
        err = fails()
        results[f"check_{name}"] = {"message": str(err), "point": list(err.point)}


def _solves(layers: dict, results: dict) -> None:
    problem = EXAMPLES[0].canonical()
    for n in SIZES:
        grid = Grid(n)
        ws = solver._Workspace(problem, grid)
        phi = ws.start
        layers[f"solver.pass_n{n}"] = (lambda ws=ws, phi=phi: solver._pass(ws, phi, 0.0, 0.0),
                                       "example 1, the first pass")
        config = solver.SolverConfig(n=n)
        layers[f"solver.solve_n{n}"] = (lambda config=config: solver.solve(problem, config), "example 1")
        report = solver.solve(problem, config)
        results[f"solve_n{n}"] = {"K": report.iterations, "e_K": report.final_e, "eu_K": report.final_eu,
                                  "residual": report.residual, "converged": report.converged}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--repeats", type=int, default=15, help="timings per layer (default 15)")
    parser.add_argument("--out-dir", default=".", help="where to write the file (default: here)")
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    layers, results = {}, {}
    _front_end(layers, results)
    _lattice(layers, results)
    _checks(layers, results)
    _solves(layers, results)
    timings = {}
    for name, (fn, what) in layers.items():
        timings[name] = {"what": what, **_timing(fn, args.repeats)}
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    record = {
        "label": args.label,
        "repeats": args.repeats,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cores": os.cpu_count(), "processor": platform.machine()},
        "layers": timings,
        "results": results,
        "results_sha256": digest,
    }
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, timing in timings.items():
        print(f"{name:36s} {timing['median_us']:12.1f} us  (IQR {timing['iqr_us']:.1f})")
    print(f"results sha256 {digest}")
    print(f"wrote {path}")
    return 0 if all(math.isfinite(t["median_us"]) for t in timings.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
