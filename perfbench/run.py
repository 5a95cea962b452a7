#!/usr/bin/env python3
"""commsym benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread (BLAS is pinned to one thread), one client
in a closed loop: each operation starts when the previous one has ended.
Rounds of operations run whole until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics: set-up time (median of several
fresh processes that import, generate the inputs and warm up), operations
per second, and median and tail latency per operation.  ``--trace 1`` runs
the workload untraced, then replays the same operations with every public
entry point of the program wrapped in a span, and prints the per-layer
metrics, the tracing overhead, the wrong-verdict ratio and the per-suite
latencies of the untraced pass; the spans are written to
``.perfbench/spans-<workload>.npz``.

All times are expressed at nominal machine speed (see calibration.py): each
measured time is scaled by a reference kernel timed next to it, because the
host's CPU speed drifts by up to 1.5x for seconds at a time.

Every operation's output is checked against its known answer (oracle.py);
a sample of operations is run twice and must give byte-identical output, and
every traced operation must give the bytes of its untraced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS thread; must be set before numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

SETUP_PROBES = 5
PROBE_KERNELS = 3  # kernel timings a set-up probe takes before and after set-up
# every IDENTITY_STRIDE-th operation keeps its output and is re-run, within
# IDENTITY_BUDGET x --seconds, for the byte-identity check
IDENTITY_STRIDE = 17
IDENTITY_BUDGET = 0.1
# kernel timing interval inside long operations; not used while tracing, so
# that no kernel time falls inside a span
SAMPLE_S = 0.05
# share of --seconds the traced run spends untraced before the traced replay
TRACE_BASE_SHARE = 0.4
# per-suite latencies the traced run reports from its untraced pass
SUITE_METRICS = {
    "dalembert": ("dalembert_p50_ms", "ms"),
    "schrodinger": ("schrodinger_p50_ms", "ms"),
    "maxwell": ("maxwell_p50_ms", "ms"),
    "composition": ("composition_p50_ms", "ms"),
    "igl": ("igl_p50_ms", "ms"),
    "deg1": ("search_deg1_s", "s"),
    "deg2": ("search_deg2_s", "s"),
    "deg3": ("search_deg3_s", "s"),
}


def import_program() -> None:
    """Put the checkout's src/ first on the path and import commsym from it."""
    if not (SRC / "commsym" / "__init__.py").is_file():
        raise SystemExit(f"error: no commsym source under {SRC}")
    sys.path.insert(0, str(SRC))
    import commsym

    if Path(commsym.__file__).resolve().parent != SRC / "commsym":
        raise SystemExit(f"error: commsym imported from {commsym.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up and warm up only, then exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Run:
    """One workload's operations, timings and verdicts."""

    def __init__(self, workload: str, seed: int, sample_s: float | None = None):
        import numpy as np
        import workloads

        if workload not in workloads.WORKLOADS:
            raise SystemExit(f"error: unknown workload {workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        index = list(workloads.WORKLOADS).index(workload)
        # warm-up inputs do not depend on the seed: set-up is the same work every run
        for op in workloads.warmup_ops(workload, np.random.default_rng([index, 0, 1])):
            op.run()
        self.rounds = workloads.WORKLOADS[workload](np.random.default_rng([index, seed]))
        self.ops: list = []
        self.latency: list[float] = []
        self.outputs: dict[int, bytes] = {}
        self.speed = calibration.SpeedLog(sample_s=sample_s)
        self.wrong = 0
        self.failed = 0
        self.causes: dict[str, int] = {}

    def execute(self, op, keep: bool) -> bytes | None:
        """Run one operation timed, then judge it untimed; return its output."""
        self.speed.tick(len(self.ops))
        i = len(self.ops)
        self.ops.append(op)
        try:
            with self.speed.operation():
                out = op.run()
        except Exception:  # the loop must go on; the operation counts as failed
            self.latency.append(self.speed.last_seconds)
            traceback.print_exc(file=sys.stderr)
            self.wrong += 1
            self.failed += 1
            return None
        self.latency.append(self.speed.last_seconds)
        if keep:
            self.outputs[i] = out
        verdict = op.judge(out)
        self.wrong += not verdict.ok
        if verdict.failed:
            print(f"unexplained wrong verdict: {op.kind} {getattr(op, 'argv', '')} "
                  f"{verdict.wrong}", file=sys.stderr)
            self.failed += 1
        elif verdict.cause:
            self.causes[verdict.cause] = self.causes.get(verdict.cause, 0) + 1
        return out

    def loop(self, seconds: float, keep_all: bool) -> None:
        """Whole rounds until ``seconds`` of wall time have passed."""
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            for op in next(self.rounds):
                self.execute(op, keep_all or len(self.ops) % IDENTITY_STRIDE == 0)
        self.speed.tick(len(self.ops), force=True)

    def scaled(self) -> list[float]:
        """Operation latencies at nominal machine speed."""
        factors = self.speed.factors(len(self.latency))
        return [t * f for t, f in zip(self.latency, factors)]

    def rerun(self, i: int) -> tuple[bool, float]:
        """Run operation i again; (same bytes as before, wall seconds taken)."""
        t0 = time.perf_counter()
        try:
            same = self.ops[i].run() == self.outputs[i]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            same = False
        return same, time.perf_counter() - t0


def time_setup(args) -> float:
    """Median set-up time of fresh processes that start, import, generate
    the inputs and warm up, as the measuring process does before its first
    timed operation; at nominal speed, from kernel timings around each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        kernel = json.loads(probe.stdout.splitlines()[-1])
        # the kernel timings are subtracted: they are not set-up work
        times.append((wall - sum(kernel)) * calibration.NOMINAL_S / statistics.median(kernel))
    return statistics.median(times)


def end_to_end(args) -> tuple[Run, dict, str]:
    setup_s = time_setup(args)
    run = Run(args.workload, args.seed, sample_s=SAMPLE_S)
    run.loop(args.seconds, keep_all=False)
    run.speed.close()
    latency = run.scaled()

    budget, spent, checked = IDENTITY_BUDGET * args.seconds, 0.0, 0
    for i in sorted(run.outputs):
        same, dt = run.rerun(i)
        checked += 1
        if not same:
            print(f"byte mismatch on re-run of operation {i}", file=sys.stderr)
            run.failed += 1
        spent += dt
        if spent >= budget:
            break

    import numpy as np
    import workloads

    p = workloads.TAIL_PERCENTILE[args.workload]
    tail_s = float(np.percentile(latency, p))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latency) / sum(latency), "1/s"),
        "op_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
    }
    beyond = sum(t > tail_s for t in latency)
    return run, metrics, (f"tail at p{p:g} with {beyond} samples beyond; "
                          f"{checked} operations re-run byte-identical")


def per_layer(args) -> tuple[Run, dict, str]:
    import tracing

    run = Run(args.workload, args.seed)
    run.loop(TRACE_BASE_SHARE * args.seconds, keep_all=True)
    base = len(run.ops)

    tracer = tracing.Tracer()
    tracer.install()
    mismatches = 0
    try:
        for i in range(base):
            tracer.op_id = i
            out = run.execute(run.ops[i], keep=False)
            if out is not None and out != run.outputs.get(i):
                print(f"traced output of operation {i} differs from untraced", file=sys.stderr)
                mismatches += 1
    finally:
        tracer.restore()
    run.speed.tick(len(run.ops), force=True)
    run.failed += mismatches
    latency = run.scaled()

    SPAN_DIR.mkdir(exist_ok=True)
    tracer.save(SPAN_DIR / f"spans-{args.workload}.npz")

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (sum(latency[base:]) / sum(latency[:base]), "ratio")
    metrics["oracle.wrong_verdict_ratio"] = (run.wrong / len(run.ops), "ratio")
    kinds: dict[str, list[float]] = {}
    for op, dt in zip(run.ops[:base], latency[:base]):
        kinds.setdefault(op.kind, []).append(dt)
    for kind, (name, unit) in SUITE_METRICS.items():
        scale = 1e3 if unit == "ms" else 1.0
        metrics[name] = (statistics.median(kinds[kind]) * scale if kind in kinds else 0.0, unit)
    note = (f"{len(tracer.start)} spans; {base} operations replayed traced, "
            f"{base - mismatches} byte-identical to untraced")
    return run, metrics, note


def setup_probe(args) -> None:
    """Set up as a measuring run does, and print the kernel timings taken
    before and after, so the caller can scale this process's wall time."""
    kernel = [calibration.kernel_seconds() for _ in range(PROBE_KERNELS)]
    import_program()
    Run(args.workload, args.seed)
    kernel += [calibration.kernel_seconds() for _ in range(PROBE_KERNELS)]
    print(json.dumps(kernel))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_program()

    run, metrics, note = (per_layer if args.trace else end_to_end)(args)
    causes = ", ".join(f"{k} {v}" for k, v in sorted(run.causes.items())) or "none"
    print(f"# {args.workload} seed {args.seed}: {len(run.ops)} operations, "
          f"{run.wrong} wrong verdicts (known defects: {causes}), {run.failed} failed; {note}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
