#!/usr/bin/env python3
"""Benchmark for clampbeam: one seeded workload, one closed-loop client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout; nothing needs to be
installed.  A run works for ``--seconds`` and then finishes the current
schedule period of its workload.  With ``--trace 0`` the run is untraced and
reports the end-to-end metrics.  With ``--trace 1`` it first runs untraced
for half the time, then repeats the same operations with every public
function of clampbeam wrapped in a span, and reports per-layer metrics plus
the tracing overhead (traced time over untraced time, minus one).  Every output is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, spans and
the environment go to ``.perfbench_out/`` in the checkout.

BLAS and OpenMP pools are pinned to one thread before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _probe(workload: str) -> int:
    """Import what the workload needs, then say so; the parent times this."""
    sys.path.insert(0, str(SRC))
    import clampbeam  # noqa: F401
    if workload == "refine-large":
        import clampbeam.cli  # noqa: F401
    print("ready", flush=True)
    return 0


def measure_setup(workload: str, host: "HostSpeed") -> list:
    """Seconds from spawning a fresh interpreter until clampbeam is ready.

    Each probe's time is scaled by HostSpeed like an operation's.  The
    probes inherit a single-core affinity, so they and the kernel samples
    taken around them run on the same core; call this with the HostSpeed
    timer stopped.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        host.factor(host.mark())    # a fresh sample on this core
        return [_probe_once(workload, host) for _ in range(SETUP_PROBES)]
    finally:
        os.sched_setaffinity(0, cpus)


def _probe_once(workload: str, host: "HostSpeed") -> float:
    mark = host.mark()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--probe", workload],
        stdout=subprocess.PIPE, cwd=str(ROOT), text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return elapsed * host.factor(mark)


def environment() -> dict:
    llc = "unknown"
    try:
        llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache": llc,
        "threads": "BLAS/OpenMP pinned to 1; single client, single process",
        "bytes_note": "byte counts are computed from sizes, not measured traffic; "
                      "no bandwidth is claimed (arrays at n=1e5 are 0.8 MB)",
    }


class HostSpeed:
    """Scales measured times to a reference speed of the host.

    The machine this benchmark was written on shares its cores: identical
    work runs up to 2x faster or slower from one stretch of seconds to the
    next.  A fixed kernel of interpreter and small-numpy work, which never
    calls clampbeam, is timed (best of three) after every operation and,
    while the object is entered as a context manager, every INTERVAL_S from
    a timer signal, also inside long operations.  An operation's time is
    multiplied by REFERENCE_S over the mean kernel time from the sample
    before it to the sample after it, and the time spent sampling inside it
    is taken out.  Reported times are therefore those of a host on which the
    kernel takes REFERENCE_S; raw times are kept in the record.
    """

    REFERENCE_S = 0.0006
    INTERVAL_S = 0.2

    def __init__(self):
        import numpy
        self._grid = numpy.linspace(0.0, 1.0, 201)
        self._sum = numpy.sum
        self._sampling = False
        self.paused_s = 0.0          # time spent sampling from the timer
        self.samples = [self._sample()]

    def _kernel(self) -> float:
        acc = 0.0
        for k in range(50):
            b = self._grid * 1.0001 + k
            acc += float(self._sum(b[1:-1:2]))
            for j in range(20):
                acc += j * 0.5
        return acc

    def _sample(self) -> float:
        self._sampling = True
        try:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                self._kernel()
                best = min(best, time.perf_counter() - t0)
            return best
        finally:
            self._sampling = False

    def _on_timer(self, signum, frame) -> None:
        if self._sampling:
            return
        t0 = time.perf_counter()
        self.samples.append(self._sample())
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """Scale for the time since mark, closing it with a fresh sample."""
        self.samples.append(self._sample())
        window = self.samples[mark:]
        return self.REFERENCE_S * len(window) / sum(window)


class Outcome:
    """Tally of one phase: latencies, pass/fail, accuracy seen."""

    def __init__(self):
        self.latencies: list = []      # raw seconds
        self.factors: list = []        # HostSpeed scale of each operation
        self.ok = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()
        self.eu_max = None
        self.residual_max = None

    def note_accuracy(self, eu, residual) -> None:
        """Largest error against an exact solution and residual of passed solves."""
        if eu is not None:
            self.eu_max = max(eu, self.eu_max or 0.0)
        if residual is not None:
            self.residual_max = max(residual, self.residual_max or 0.0)

    @property
    def scaled(self) -> list:
        return [t * f for t, f in zip(self.latencies, self.factors)]

    def record(self, latency: float, ok: bool, wrong: bool, reason: str) -> None:
        self.latencies.append(latency)
        if ok:
            self.ok += 1
        else:
            self.failed += 1
            self.wrong += bool(wrong)
            self.reasons[reason[:100]] += 1


class Workload:
    """Runs operation i of a seeded stream and checks what came back."""

    def __init__(self, name: str, seed: int):
        import clampbeam
        self.w = workloads
        self.cb = clampbeam
        self.name = name
        self.seed = seed
        self.generate = workloads.GENERATORS[name]
        self.hashes: dict = {}
        self.tracer = None
        self.host = HostSpeed()

    def run(self, i: int, outcome: Outcome) -> None:
        op = self.generate(self.seed, i)
        mark = self.host.mark()
        getattr(self, "_" + self.name.replace("-", "_"))(i, op, outcome)
        outcome.factors.append(self.host.factor(mark))

    def _timed(self, fn):
        """(result, exception, seconds) of fn; one bench.op span when traced.

        Seconds exclude time the HostSpeed timer spent sampling meanwhile.
        """
        tracer = self.tracer
        span = tracer.open(tracer.name_index(tracing.OP_SPAN)) if tracer else None
        paused = self.host.paused_s
        t0 = time.perf_counter()
        result = exc = None
        try:
            result = fn()
        except Exception as err:  # recorded as a failed operation
            exc = err
        dt = time.perf_counter() - t0 - (self.host.paused_s - paused)
        if tracer:
            tracer.close(span)
        return result, exc, dt

    # Operations reach clampbeam through module attributes at call time, so
    # the tracer's rebinding is seen.

    def _sweep_small(self, i, op, out: Outcome) -> None:
        cb = self.cb

        def work():
            loaded = cb.problem.parse_problem_text(op.text)
            problem = cb.problem.canonicalize(loaded.raw)
            return cb.solver.solve(problem, cb.solver.SolverConfig(n=op.n))

        report, exc, dt = self._timed(work)
        if exc is not None:
            known = isinstance(exc, cb.solver.SolverError)
            out.record(dt, False, not known, f"{type(exc).__name__}: {op.kind}")
            return
        ok, reason, eu = self.w.check_solve(op, report)
        if ok:
            out.note_accuracy(eu, report.residual)
        out.record(dt, ok, not ok, reason)

    def _certify(self, i, op, out: Outcome) -> None:
        cb = self.cb

        def work():
            loaded = cb.problem.parse_problem_text(op.text)
            problem = cb.problem.canonicalize(loaded.raw)
            return cb.analysis.check_conditions(
                problem.rhs, loaded.M, loaded.ks, cb.analysis.LatticeSpec(op.lattice))

        report, exc, dt = self._timed(work)
        if isinstance(exc, cb.analysis.DomainSamplingError):
            ok, reason = self.w.check_domain_failure(op, exc.point)
        elif exc is not None:
            ok, reason = False, f"{type(exc).__name__}: {exc}"
        else:
            ok, reason = self.w.check_condition_report(op, report)
        out.record(dt, ok, not ok, reason)

    def _refine_large(self, i, op, out: Outcome) -> None:
        cb = self.cb
        work_dir = OUT / "work" / f"op{i}"
        shutil.rmtree(work_dir, ignore_errors=True)
        argv = list(op.argv) + ["--out-dir", str(work_dir)]
        text = io.StringIO()

        def work():
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                return cb.cli.main(argv)

        code, exc, dt = self._timed(work)
        if exc is not None:
            out.record(dt, False, True, f"{type(exc).__name__}: {exc}")
            shutil.rmtree(work_dir, ignore_errors=True)
            return
        files = {p.name: p for p in sorted(work_dir.iterdir())} if work_dir.is_dir() else {}
        if self.tracer is not None:
            self.tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in files.values())
        digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in files.items()}
        try:
            ok, reason, eu, res = self.w.check_cli_artifacts(op, code, text.getvalue(), files)
        except (KeyError, ValueError, IndexError) as err:
            ok, reason, eu, res = False, f"artifacts unreadable: {type(err).__name__}: {err}", None, None
        if ok and op.repeat_of is not None and digests != self.hashes.get(op.repeat_of):
            ok, reason = False, "repeated run wrote different artifacts"
        if ok:
            out.note_accuracy(eu, res)
        self.hashes[i] = digests
        out.record(dt, ok, not ok, reason)
        shutil.rmtree(work_dir, ignore_errors=True)


def run_for(workload: Workload, seconds: float) -> Outcome:
    """Run operations until the time is up and the schedule period is whole."""
    out = Outcome()
    period = workload.w.PERIODS[workload.name]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        workload.run(i, out)
        i += 1
        if i % period == 0 and time.perf_counter() >= deadline:
            return out


def run_ops(workload: Workload, count: int) -> Outcome:
    out = Outcome()
    for i in range(count):
        if workload.tracer is not None:
            workload.tracer.current_op = i
        workload.run(i, out)
    return out


def end_to_end(out: Outcome, setup_times: list) -> dict:
    lat = out.scaled
    attempted = len(lat)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (attempted / sum(lat), "1/s"),
        "latency_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "ok_frac": (out.ok / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_untraced(workload: Workload, seconds: float) -> tuple:
    setup_times = measure_setup(workload.name, workload.host)
    with workload.host:
        out = run_for(workload, seconds)
    info = {"setup_probes_s": setup_times, "latency_tail": tail(out.scaled),
            "eu_max": out.eu_max, "residual_max": out.residual_max,
            "raw_latency_ms.p50": statistics.median(out.latencies) * 1e3,
            "raw_ops_per_s": len(out.latencies) / sum(out.latencies),
            "latencies_s": out.latencies, "host_factors": out.factors}
    return [out], end_to_end(out, setup_times), info


def measure_traced(workload: Workload, seconds: float, tag: str) -> tuple:
    """Untraced for half the time, then the same operations traced."""
    with workload.host:
        plain = run_for(workload, seconds / 2.0)
        ops = len(plain.latencies)
        workload.hashes.clear()
        tr = tracing.Tracer()
        workload.tracer = tr
        tr.install()
        try:
            traced = run_ops(workload, ops)
        finally:
            tr.uninstall()
            workload.tracer = None
    overhead = sum(traced.scaled) / sum(plain.scaled) - 1.0
    tr.write(OUT / f"{tag}-spans.npz")
    info = {"ops_traced": ops, "spans": len(tr.start),
            "untraced_s": sum(plain.scaled), "traced_s": sum(traced.scaled),
            "raw_untraced_s": sum(plain.latencies), "raw_traced_s": sum(traced.latencies)}
    return [plain, traced], tracing.layer_metrics(tr, ops, overhead), info


def tail(lat: list) -> dict:
    """p90 when at least ten samples lie beyond it, else only the count."""
    info = {"samples": len(lat)}
    if len(lat) >= 2:
        p90 = statistics.quantiles(lat, n=10)[8]
        beyond = sum(1 for x in lat if x > p90)
        if beyond >= 10:
            info.update(p90_ms=p90 * 1e3, beyond_p90=beyond)
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=workloads.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "clampbeam" / "__init__.py").is_file():
        print(f"error: no clampbeam sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        return _probe(args.probe)
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    import clampbeam
    if Path(clampbeam.__file__).resolve().parent != (SRC / "clampbeam").resolve():
        print(f"error: imported clampbeam from {clampbeam.__file__}", file=sys.stderr)
        return 2
    import clampbeam.cli  # noqa: F401  (binds cb.cli)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = Workload(args.workload, args.seed)
    if args.trace == 0:
        phases, metrics, info = measure_untraced(workload, args.seconds)
    else:
        phases, metrics, info = measure_traced(workload, args.seconds, tag)

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    reasons = sum((p.reasons for p in phases), Counter())
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = environment()
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, info=info,
                  failure_reasons=dict(reasons))
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} attempted, {failed} failed, {wrong} wrong")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"last-level cache {env['last_level_cache']}; {env['threads']}")
    for reason, count in reasons.most_common():
        print(f"#   failed x{count}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:42s} {value:.6g} {unit}")
    for key, value in info.items():
        if key not in ("latencies_s", "host_factors"):
            print(f"# {key}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
