"""Run one workload in this interpreter and print its raw result as JSON.

``run.py`` starts this script in a fresh child process for every
workload, so that peak RSS belongs to that workload alone.  It is not
meant to be run by hand; see ``run.py --help``.

The untraced run times each operation and computes the end-to-end
metrics.  The traced run (``--trace 1``) additionally replays every
operation with spans around each layer call, times direct probe calls
into ``numerics`` on the operation's own frame, measures import in fresh
interpreters, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import require
from tracer import Tracer
from workloads import WORKLOADS, environment, probe, run_child

SETUP_REPEATS = 5
IMPORT_REPEATS = 5

# Spans around the benchmark's calls into each layer, reported as
# <name>.calls, <name>.busy_s and <name>.self_s.
LAYER_SPANS = (
    "documents.parse",
    "documents.build",
    "documents.serialize",
    "fusion.classify",
    "fusion.operator",
    "fusion.redundancy_samples",
    "fusion.erasure_greedy",
    "fusion.erasure_exhaustive",
    "duality.canonical_dual",
    "duality.ratio_bounds",
    "duality.verify",
    "systems.additivity",
    "systems.parseval",
    "systems.redundancy_one",
    "numerics.eigenrange",
    "numerics.solve",
    "numerics.kernel_dimension",
    "numerics.orthonormalize",
    "numerics.sample_unit_vectors",
)
COUNTERS = (
    "documents.parse.bytes",
    "documents.serialize.bytes",
    "fusion.operator.bytes_computed",
    "fusion.redundancy_samples.flops_computed",
    "fusion.erasure_exhaustive.subsets_max",
)
MAXIMA = ("duality.verify.residual_max",)
CLI_SUBCOMMANDS = ("analyze", "dual", "verify-dual", "erasure", "system")


def import_metrics() -> dict:
    """Bare interpreter start, and ``import ffk.cli`` timed inside a fresh one."""
    timed_import = "import time; t = time.perf_counter(); import ffk.cli; print(time.perf_counter() - t)"
    bare, cli = [], []
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        run_child([sys.executable, "-c", "pass"])
        bare.append(perf_counter() - start)
        cli.append(float(run_child([sys.executable, "-c", timed_import]).stdout))
    return {
        "import.python_bare_ms": 1e3 * statistics.median(bare),
        "import.ffk_cli_ms": 1e3 * statistics.median(cli),
    }


def timed_replay(workload, op, tracer) -> float:
    start = perf_counter()
    workload.replay(op, tracer)
    return perf_counter() - start


def traced_replay(workload, op, tracer):
    """Replay ``op`` under an "op" span; return its frame and the time taken."""
    start = perf_counter()
    with tracer.span("op"):
        frame = workload.replay(op, tracer)
    return frame, perf_counter() - start


class Run:
    """Counts and timings gathered by one run's loop."""

    def __init__(self):
        self.latencies: list[float] = []  # operations that passed their checks
        self.durations: list[float] = []  # every operation that returned
        self.failures: list[str] = []
        self.outputs: dict[str, bytes] = {}
        self.attempted = 0
        self.measured = 0.0
        self.plain_total = 0.0
        self.traced_total = 0.0
        self.walls = defaultdict(list)
        self.process_overheads: list[float] = []
        self.truncated = False


def run_op(workload, op, run: Run, off: Tracer, tracer: Tracer | None, probe_rng) -> None:
    """One operation, its checks, and in a traced run its replays and probes."""
    key = workload.key(op)
    start = perf_counter()
    result = workload.run(op, off)
    elapsed = perf_counter() - start
    run.measured += elapsed
    run.durations.append(elapsed)
    output = workload.output_bytes(result)
    if key in run.outputs:
        require(output == run.outputs[key], "output differs from an earlier run of the same input")
    else:
        workload.check(op, result)
        run.outputs[key] = output
    run.latencies.append(elapsed)
    if tracer is None:
        return
    tracer.op_id = run.attempted
    if workload.in_process:
        plain = elapsed
        frame, traced_time = traced_replay(workload, op, tracer)
    else:
        # The replay that follows a child process finds colder caches,
        # so the untraced and traced replays take turns going first.
        if run.attempted % 2:
            plain = timed_replay(workload, op, off)
            frame, traced_time = traced_replay(workload, op, tracer)
        else:
            frame, traced_time = traced_replay(workload, op, tracer)
            plain = timed_replay(workload, op, off)
        run.measured += plain
        run.walls[op[0]].append(elapsed)
        run.process_overheads.append(elapsed - plain)
    run.measured += traced_time
    run.plain_total += plain
    run.traced_total += traced_time
    probe(frame, tracer, probe_rng)


def loop(workload, seconds: float, tracer: Tracer | None, probe_rng) -> Run:
    """Whole cycles over the input set until ``seconds`` of operation time.

    Whole cycles make every input weigh the same in every run.  The cap
    bounds a run on a machine far slower than usual.
    """
    run = Run()
    off = Tracer(enabled=False)
    hard_cap = max(2.0 * seconds, seconds + 30.0)
    start = perf_counter()
    while not run.truncated and (run.attempted == 0 or run.measured < seconds):
        for op in workload.ops:
            if perf_counter() - start > hard_cap:
                run.truncated = True
                break
            run.attempted += 1
            try:
                run_op(workload, op, run, off, tracer, probe_rng)
            except Exception as exc:  # one failed operation must not end the run
                run.failures.append(f"{workload.key(op)}: {type(exc).__name__}: {exc}")
    return run


def layer_metrics(run: Run, tracer: Tracer) -> dict:
    values = {}
    stats = tracer.layer_stats()
    for name in LAYER_SPANS:
        for stat, value in stats.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}).items():
            values[f"{name}.{stat}"] = value
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    for name in MAXIMA:
        values[name] = tracer.maxima.get(name, 0.0)
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.wall_ms"] = 1e3 * statistics.median(run.walls[sub]) if run.walls[sub] else 0.0
    values["cli.process_overhead_ms"] = (
        1e3 * statistics.median(run.process_overheads) if run.process_overheads else 0.0
    )
    values["trace.overhead_ratio"] = run.traced_total / run.plain_total if run.plain_total else 0.0
    return values


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup(args.seed, args.workdir, args.smoke)
        setup_times.append(perf_counter() - start)

    tracer = Tracer() if args.trace else None
    metrics = import_metrics() if args.trace else {}
    loop_start = perf_counter()
    run = loop(workload, args.seconds, tracer, np.random.default_rng([args.seed, 99]))
    loop_wall = perf_counter() - loop_start

    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    metrics["setup_s"] = statistics.median(setup_times)
    # With no correct operation at all, the percentiles fall back to every
    # operation that returned; the result then reads correct: false.
    times = run.latencies or run.durations or [0.0]
    p90 = float(np.percentile(times, 90))
    metrics["ops_per_s"] = len(run.latencies) / run.measured if run.measured else 0.0
    metrics["op_p50_ms"] = 1e3 * float(np.percentile(times, 50))
    metrics["op_p90_ms"] = 1e3 * p90
    if tracer is not None:
        metrics.update(layer_metrics(run, tracer))
        if args.spans is not None:
            tracer.write(args.spans)

    outputs_sha256 = hashlib.sha256(
        b"".join(key.encode() + b"\0" + run.outputs[key] for key in sorted(run.outputs))
    ).hexdigest()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:10],
        "metrics": metrics,
        "info": {
            "error_rate": len(run.failures) / run.attempted if run.attempted else 1.0,
            "samples": len(run.latencies),
            "samples_beyond_p90": sum(1 for x in run.latencies if x > p90),
            "measured_s": run.measured,
            "loop_wall_s": loop_wall,
            "truncated": run.truncated,
            "setup_runs_s": setup_times,
            "outputs_sha256": outputs_sha256,
            "environment": environment(),
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
