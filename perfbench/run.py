"""Benchmark for ffk: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the directory holding ``src/``
and ``BENCHMARK.json``)::

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload library-large --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --compare before.jsonl after.jsonl
    python3 perfbench/run.py --self-test

Each workload runs in a fresh child interpreter (``worker.py``) with
``src/`` on its path.  The BLAS thread variables are passed through as
found and never set.  Human-readable lines come first on stdout; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
``end_to_end`` ones of ``BENCHMARK.json``, with ``--trace 1`` the
``per_layer`` ones.  ``--out FILE`` appends the full result (with the
environment block) as one JSON line, the input to ``--compare``.

Exit status: 0 when a result was printed, 1 when a workload crashed,
2 when the checkout lacks ``src/ffk`` or ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-small", "library-large", "erasure-exhaustive")
WORKER_TIMEOUT_S = 170
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"


class CheckoutError(Exception):
    pass


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ffk" / "__init__.py").is_file():
        raise CheckoutError(f"no ffk sources under {ROOT / 'src'}: run from a source checkout")
    if not spec_path.is_file():
        raise CheckoutError(f"{spec_path} is missing")
    return json.loads(spec_path.read_text(encoding="utf-8"))


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Run one workload in a fresh interpreter; return its raw result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir),
    ]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        argv += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")]
    if smoke:
        argv.append("--smoke")
    # The worker gets its own process group, so that a timeout also ends
    # the ffk processes it may have running.
    worker = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with code {worker.returncode}")
    return json.loads(lines[-1])


def with_units(raw: dict, definitions: list) -> dict:
    metrics = {}
    for definition in definitions:
        name = definition["name"]
        if name not in raw["metrics"]:
            raise RuntimeError(f"{raw['workload']}: metric {name} was not measured")
        metrics[name] = {"value": raw["metrics"][name], "unit": definition["unit"]}
    return metrics


def report(raw: dict, metrics: dict) -> None:
    info = raw["info"]
    print(
        f"# {raw['workload']}  seed={raw['seed']}  trace={raw['trace']}  "
        f"attempted={raw['attempted']}  failed={raw['failed']}  "
        f"error_rate={info['error_rate']:.4g} (ratio)  samples={info['samples']} "
        f"({info['samples_beyond_p90']} beyond p90)"
    )
    for failure in raw["failures"]:
        print(f"#   FAILED {failure}")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"workload": raw["workload"], "info": info}))


def run(args, spec: dict) -> int:
    definitions = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            raw = run_worker(workload, args.seed, args.seconds, args.trace)
            metrics = with_units(raw, definitions)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(raw, metrics)
        if args.out:
            record = {
                "workload": workload, "seed": args.seed, "trace": args.trace,
                "attempted": raw["attempted"], "failed": raw["failed"],
                "metrics": metrics, "info": raw["info"],
            }
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        combined["correct"] = combined["correct"] and raw["failed"] == 0
        combined["attempted"] += raw["attempted"]
        combined["failed"] += raw["failed"]
        prefix = "" if len(names) == 1 else f"{workload}."
        for name, metric in metrics.items():
            combined["metrics"][prefix + name] = metric
    print(json.dumps(combined))
    return 0


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    """Median and quartiles per workload and metric in two result files."""
    def load(path):
        groups = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    for name, metric in record["metrics"].items():
                        groups.setdefault((record["workload"], name, metric["unit"]), []).append(metric["value"])
        return groups

    a, b = load(path_a), load(path_b)
    print(f"{'workload':20s} {'metric':44s} {'A median [q1, q3] (n)':>34s} {'B median [q1, q3] (n)':>34s} {'B/A':>8s}")
    for key in sorted(set(a) | set(b)):
        workload, name, unit = key
        cells = []
        for group in (a, b):
            values = group.get(key)
            if values:
                q1, q2, q3 = quartiles(values)
                cells.append((q2, f"{q2:.5g} [{q1:.5g}, {q3:.5g}] ({len(values)})"))
            else:
                cells.append((None, "-"))
        (ma, ca), (mb, cb) = cells
        ratio = f"{mb / ma:.4f}" if ma and mb is not None and math.isfinite(mb / ma) else "-"
        print(f"{workload:20s} {name + ' [' + unit + ']':44s} {ca:>34s} {cb:>34s} {ratio:>8s}")
    return 0


def self_test(spec: dict) -> int:
    """Smoke-sized run of every workload, traced and untraced, on seed 0.

    Asserts that every metric named in BENCHMARK.json appears with its
    unit and a finite value, that end-to-end metrics are positive, and
    that no operation failed.
    """
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            known = len(problems)
            try:
                raw = run_worker(workload, 0, 1, trace, smoke=True)
                metrics = with_units(raw, spec[key])
            except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
                problems.append(f"{workload} trace={trace}: {exc}")
                continue
            for name, metric in metrics.items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{workload}: {name} = {value!r}")
                elif key == "end_to_end" and value <= 0:
                    problems.append(f"{workload}: {name} = {value!r} is not positive")
            if raw["failed"] or raw["info"]["error_rate"] != 0:
                problems.append(f"{workload} trace={trace}: error_rate {raw['info']['error_rate']}: {raw['failures']}")
            print(f"{'FAIL' if len(problems) > known else 'ok  '} {workload} trace={trace}: {len(metrics)} metrics, "
                  f"{raw['attempted']} operations")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each workload's full result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    try:
        spec = load_spec()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
