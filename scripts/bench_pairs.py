#!/usr/bin/env python3
"""Interleaved benchmark pairs of two checkouts.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload NAME --seeds 7200-7209
        [--seconds 20] [--trace 0|1] [--json FILE]

PARENT and CHANGE are the roots of two checkouts of this repository. For each
seed, `benchmark/run.py` runs once in each checkout, from that checkout's root
and with its own benchmark files; the parent runs first on even-numbered pairs
(the first pair is number 0) and the change first on odd ones, so a drift in
the machine's speed falls on both sides alike.

For every metric that BENCHMARK.json lists (the end-to-end metrics, or the
per-layer ones with --trace 1), it prints each side's median and quartiles
(statistics.quantiles, inclusive method) and the number of pairs in which the
change is better, ties counting for neither side. A gain counts as shown when
the change wins at least nine tenths of the pairs and the medians differ by
more than the distance between the parent's quartiles. It also counts, per
side, the runs that reported `correct: false`, such as a traced run whose
self-time sums fail their check. With --json, FILE holds every run's result,
the summary, that count, the machine (CPUs usable, Python and numpy versions)
and each checkout's `src/` line count; it is rewritten after each pair, so a
run that fails leaves the pairs before it on record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One `benchmark/run.py` run in checkout `root`; its JSON result line."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def machine() -> dict:
    """The CPUs this process may use and the versions the runs import."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": cpus, "python": platform.python_version(), "numpy": metadata.version("numpy")}


def src_lines(root: Path) -> int:
    """Lines of the Python files under the checkout's `src/`."""
    return sum(len(path.read_bytes().splitlines()) for path in (root / "src").rglob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's median and quartiles, the change's wins over the
    pairs that report it, and whether that shows a gain."""
    summary = {}
    for name, direction in better.items():
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                 for r in runs
                 if name in r["parent"]["metrics"] and name in r["change"]["metrics"]]
        if not pairs:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        stats = {side: quartiles([pair[k] for pair in pairs]) for k, side in enumerate(SIDES)}
        (p_q1, p_med, p_q3), (_, c_med, _) = stats["parent"], stats["change"]
        summary[name] = {
            **{side: dict(zip(("q1", "median", "q3"), stats[side])) for side in SIDES},
            "wins": wins,
            "pairs": len(pairs),
            "gain_shown": wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1,
        }
    return summary


def incorrect(runs: list[dict]) -> dict[str, int]:
    """Per side, the runs that reported `correct: false`."""
    return {side: sum(not r[side]["correct"] for r in runs) for side in SIDES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="N or FIRST-LAST")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write the runs so far here after each pair")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    record = {"workload": args.workload, "trace": args.trace, "machine": machine(),
              "src_lines": {side: src_lines(roots[side]) for side in SIDES}}

    runs = []
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_once(roots[side], args.workload, seed, args.seconds, args.trace)
        runs.append(run)
        print(f"seed {seed}: " + "; ".join(
            f"{side} correct={run[side]['correct']} failed={run[side]['failed']}"
            f"/{run[side]['attempted']}" for side in SIDES), flush=True)
        if args.json:
            args.json.write_text(json.dumps({**record, "runs": runs, "incorrect": incorrect(runs),
                                             "summary": summarize(runs, better)}, indent=1) + "\n")

    summary = summarize(runs, better)
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"{name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"change better in {s['wins']}/{s['pairs']}"
              + ("  gain shown" if s["gain_shown"] else ""))
    print("runs reporting correct: false: " + "; ".join(
        f"{side} {count}/{len(runs)}" for side, count in incorrect(runs).items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
