"""Benchmark entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures the end-to-end metrics: it starts PROBES fresh
processes that only set up, then one workload process that sets up, runs
closed-loop rounds for S seconds and checks its outputs. setup_s is the
median set-up time of all of them. With --trace 1 it runs the traced entry
point (tracing.py) instead and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("membership-exact", "membership-float", "mc-sweep", "sweep-closed")

#: set-up-only processes per run, besides the workload process
PROBES = 6

#: a workload process that outlives this is stopped and the run fails
CHILD_TIMEOUT_S = 170.0


class ChildError(RuntimeError):
    pass


def start_child(script: str, args: list[str]):
    """Start a child and time it from start to its "ready" line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise ChildError(f"{script} did not set up (exit {proc.returncode})")
    return proc, ready


def finish(proc) -> str:
    """Wait for the child and return the last line it printed."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError("child timed out")
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def end_to_end(workload: str, seed: int, seconds: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(PROBES):
        proc, ready = start_child("worker.py", [*common, "--probe"])
        finish(proc)
        setups.append(ready)
    proc, ready = start_child("worker.py", [*common, "--seconds", str(seconds)])
    setups.append(ready)
    raw = json.loads(finish(proc))
    for problem in raw["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    lat = raw["latencies"]
    fails = raw["failures"]
    # a failed operation misses any latency limit, so it sorts last
    ranked = [float("inf") if bad else dt for dt, bad in zip(lat, fails)]
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(ranked), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {
        "correct": not raw["problems"],
        "attempted": len(lat),
        "failed": sum(fails),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(workload: str, seed: int, seconds: int) -> dict:
    proc, _ = start_child("tracing.py", ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(seconds)])
    return json.loads(finish(proc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "bellpoly" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = traced if args.trace else end_to_end
    try:
        result = run(args.workload, args.seed, args.seconds)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
