"""One workload process: set-up, timed closed-loop rounds, then checks.

    python3 benchmark/worker.py --workload NAME --seed N --seconds S [--probe]

Prints "ready" once set-up is done (the coordinator times process start to
that line), then, unless --probe, one JSON line with the raw measurements.
The order is fixed: set-up, every timed round, the peak-RSS reading, checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup(name: str, seed: int):
    """Import the program, write the seeded inputs and warm up; returns the
    workload and the time of each step."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import bellpoly.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    from workloads import WORKLOADS, warm_up

    workload = WORKLOADS[name](seed)
    t2 = time.perf_counter()
    warm_up(workload.dir)
    t3 = time.perf_counter()
    return workload, {"import_s": t1 - t0, "inputs_s": t2 - t1, "warm_s": t3 - t2}


def run_op(workload, argv, key):
    """(latency in s, failed, problem or None) of one operation."""
    from workloads import call_cli

    t = time.perf_counter()
    try:
        code, stdout = call_cli(argv)
    except Exception as exc:  # a crash of the program is a failed operation
        dt = time.perf_counter() - t
        if key is not None and key is workload.known_failure:
            return dt, True, None
        return dt, True, f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t
    workload.record(key, code, stdout)
    return dt, False, None


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--probe", action="store_true", help="set up, then exit")
    args = parser.parse_args(argv)

    workload, setup_times = setup(args.workload, args.seed)
    print("ready", flush=True)
    if args.probe:
        return 0

    latencies, failures, problems = [], [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        for op_argv, key in workload.ops(r):
            dt, bad, problem = run_op(workload, op_argv, key)
            latencies.append(dt)
            failures.append(bad)
            if problem:
                problems.append(problem)
        r += 1
    busy = time.perf_counter() - start
    rss = peak_rss_mb()
    problems += workload.check()
    print(json.dumps({
        "rounds": r, "latencies": latencies, "failures": failures, "busy_s": busy,
        "peak_rss_mb": rss, "problems": problems, **setup_times,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
