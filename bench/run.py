"""weylinv benchmark: one seeded workload, end-to-end or traced.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  certify   certify --out then verify --cert on seeded rank 3-5 elements, then
            on the longest elements of D4, B4 and A5
  audit     audit --json on A3, B3, C3, G2, D4, then B4, in one process
  analyze   analyze --json on seeded words in A4, D4, 6 x B4, F4 and D5

--seconds sets the work, not a deadline: a run attempts round(seconds x
ROUNDS_PER_S) rounds of seeded items (at least one where the rate is not 0),
then the workload's fixed items.  The same seed and --seconds always give the
same inputs, so a faster program does the same work in less time.  The fixed
items are the longest elements for certify and the whole ladder for audit,
which has no seeded rounds.  At the baseline, on 2 cores with Python 3.11,
--seconds 10 makes runs of about 28 s (certify), 38 s (analyze) and 43 s
(audit), long enough for short changes in the host's speed to average out.

Each run starts fresh worker processes (bench/worker.py), one at a time,
because weylinv's caches are process-global.  With --trace 0 it reports the
end-to-end metrics of one run; setup_s is the median over SETUP_PROBES extra
set-up-only processes and the run's own set-up.  With --trace 1 it runs the
same work twice, untraced and then with boundary wrappers (bench/tracer.py),
and reports the per-layer metrics and trace.overhead_ratio.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it records the inputs digest, item counts, failed_ratio, Python
version and nproc.  The latency percentiles are taken over "attempted"
samples: one per item, or one per group element for audit, whose call time is
spread evenly over its elements.  B4 holds more than half of audit's
elements, so its p50 and p90 are both B4's time per element.  A failed item
is an exception, a refusal where an answer is due, a wrong answer, or an
audit counterexample; "correct" is false when an oracle found a wrong answer.
Exits 1 without a result when a worker fails, and 2 when there are no weylinv
sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("certify", "audit", "analyze")
SETUP_PROBES = 5
ROUNDS_PER_S = {"certify": 10.0, "audit": 0.0, "analyze": 0.1}
DEADLINE_S = 170
AUDIT_DEFECT = ("known defect: auditing B4 after D4 in one process reports 2 false "
                "supersolvable counterexamples (WeylElement equality ignores the group and "
                "smoothness._complete_fail is process-global); they count as failed items")


class WorkerError(Exception):
    pass


def run_worker(deadline: float, *args) -> dict:
    cmd = [sys.executable, WORKER, *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise WorkerError(f"exit {proc.returncode}: {' '.join(cmd)}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def item_latencies_ms(run: dict):
    """Per-item latency; an audit call's time is spread over its elements."""
    out = []
    for seconds, size in zip(run["latencies_s"], run["sizes"]):
        out += [1000 * seconds / size] * size
    return out


def rounds_for(workload: str, seconds: int) -> int:
    rate = ROUNDS_PER_S[workload]
    return max(1, round(seconds * rate)) if rate else 0


def end_to_end(workload: str, seed: int, rounds: int, deadline: float):
    args = ("--workload", workload, "--seed", seed)
    probes = [run_worker(deadline, *args, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    run = run_worker(deadline, *args, "--rounds", rounds)
    lat = item_latencies_ms(run)
    metrics = {
        "setup_s": (statistics.median(probes + [run["setup_s"]]), "s"),
        "items_per_s": (run["attempted"] / run["wall_s"], "1/s"),
        "item_p50_ms": (statistics.median(lat), "ms"),
        "item_p90_ms": (statistics.quantiles(lat, n=10)[8], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return run, metrics


def traced(workload: str, seed: int, rounds: int, deadline: float):
    args = ("--workload", workload, "--seed", seed, "--rounds", rounds)
    plain = run_worker(deadline, *args)
    run = run_worker(deadline, *args, "--trace")
    if run["inputs_digest"] != plain["inputs_digest"]:
        raise WorkerError("traced and untraced runs attempted different inputs")
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in run["layers"].items()}
    metrics["trace.overhead_ratio"] = (run["wall_s"] / plain["wall_s"], "ratio")
    return run, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="weylinv benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "weylinv", "__init__.py")):
        print("weylinv sources not found under src/", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    rounds = rounds_for(args.workload, args.seconds)
    try:
        if args.trace:
            run, metrics = traced(args.workload, args.seed, rounds, deadline)
        else:
            run, metrics = end_to_end(args.workload, args.seed, rounds, deadline)
    except WorkerError as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1

    info = {k: run[k] for k in ("workload", "seed", "python", "nproc", "inputs_digest",
                                "items", "attempted", "failed", "wrong", "reasons")}
    info["failed_ratio"] = run["failed"] / run["attempted"]
    if "spans_file" in run:
        info["spans_file"] = run["spans_file"]
    if args.workload == "audit":
        info["note"] = AUDIT_DEFECT
    print(json.dumps(info))
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
