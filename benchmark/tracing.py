"""Traced run: per-layer times and counts of one workload.

    python3 benchmark/tracing.py --workload NAME --seed N --seconds S

Runs the same set-up and rounds as worker.py; each round runs once untraced
and once traced. During a traced pass, timing wrappers from this file sit
around the module-level names through which one layer of bellpoly calls the
next; the program's source is not touched. A wrapped name that no longer
exists is reported on stderr and its metrics are left out; its time then
shows in the self time of the layer that called it.

Prints one JSON line: correct, attempted, failed and the per-layer metrics,
each a mean per traced operation unless its unit says otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import worker

#: per traced operation, the layer self times must add up to the operation's
#: wall time within this share; the rest is harness time outside cli.main
SELF_SUM_TOLERANCE = 0.01

_MISSING = object()


class Tracer:
    """Spans at layer boundaries, kept in memory as per-layer sums."""

    def __init__(self):
        self.total = defaultdict(float)  # span time per layer
        self.self_time = defaultdict(float)  # span time minus child spans
        self.counts = defaultdict(int)
        self.absent = set()  # wrapped names that bellpoly no longer has
        self._stack = []  # child time accumulated inside each open span
        self._patches = []

    def wrap(self, owner, attr: str, layer: str, after=None, on_error=None):
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            self.absent.add(attr)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(tracer, exc)
                raise
            finally:
                span = time.perf_counter() - t0
                children = tracer._stack.pop()
                tracer.total[layer] += span
                tracer.self_time[layer] += span - children
                if tracer._stack:
                    tracer._stack[-1] += span
            if after:
                after(tracer, result, args, kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        import bellpoly.cli as cli
        import bellpoly.epsrho as epsrho
        import bellpoly.pitowsky as pitowsky

        def columns(tr, problem, args, kwargs):
            shape = getattr(getattr(problem, "a", None), "shape", None)
            tr.counts["pitowsky.columns"] += shape[1] if shape else 0

        def stall(tr, exc):
            if type(exc).__name__ == "DegeneracyError":
                tr.counts["simplex.stalls"] += 1

        def trials(tr, result, args, kwargs):
            tr.counts["epsrho.mc_trials"] += int(args[3] if len(args) > 3 else kwargs["trials"])

        self.wrap(cli, "main", "cli")
        self.wrap(cli, "load_scenario", "scenario_io.load")
        self.wrap(cli, "membership", "pitowsky.membership")
        self.wrap(pitowsky, "enumerate_vertices", "pitowsky.enumerate")
        self.wrap(pitowsky, "membership_problem", "pitowsky.lp_build", after=columns)
        self.wrap(pitowsky, "lp_feasible", "simplex.lp", on_error=stall)
        result_cls = getattr(pitowsky, "MembershipResult", None)
        self.wrap(result_cls, "reconstruction_error", "pitowsky.cert_check")
        self.wrap(cli, "cmd_sweep", "cli.sweep_command")
        self.wrap(cli, "sweep", "epsrho.sweep")
        self.wrap(epsrho, "_product_sum", "epsrho.mc_kernel", after=trials)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def layer_metrics(tr: Tracer, ops: int, faults: int, csv_bytes: int, setup: dict) -> dict:
    """The per-layer metrics, each per traced operation unless noted."""
    t, s, c = tr.total, tr.self_time, tr.counts
    mc_s = t["epsrho.mc_kernel"]
    metrics = {
        "setup.import_s": (setup["import_s"], "s"),
        "setup.inputs_s": (setup["inputs_s"], "s"),
        "scenario_io.load_s": (t["scenario_io.load"] / ops, "s", "load_scenario"),
        "pitowsky.enumerate_s": (t["pitowsky.enumerate"] / ops, "s", "enumerate_vertices"),
        "pitowsky.lp_build_s": (t["pitowsky.lp_build"] / ops, "s", "membership_problem"),
        "pitowsky.columns": (c["pitowsky.columns"] / ops, "count/op", "membership_problem"),
        "simplex.lp_s": (t["simplex.lp"] / ops, "s", "lp_feasible"),
        "simplex.stalls": (c["simplex.stalls"] / ops, "count/op", "lp_feasible"),
        "pitowsky.cert_check_s": (t["pitowsky.cert_check"] / ops, "s", "reconstruction_error"),
        "pitowsky.self_s": (s["pitowsky.membership"] / ops, "s", "membership"),
        "epsrho.sweep_s": (t["epsrho.sweep"] / ops, "s", "sweep"),
        "epsrho.mc_kernel_s": (mc_s / ops, "s", "_product_sum"),
        "epsrho.mc_trials_per_s": (c["epsrho.mc_trials"] / mc_s if mc_s else 0.0, "1/s",
                                   "_product_sum"),
        "epsrho.minor_faults": (faults / ops, "count/op", "sweep"),
        "epsrho.closed_form_s": (s["epsrho.sweep"] / ops, "s", "sweep"),
        "cli.csv_s": (s["cli.sweep_command"] / ops, "s", "cmd_sweep"),
        "cli.csv_bytes": (csv_bytes / ops, "B/op", "cmd_sweep"),
        "cli.self_s": (s["cli"] / ops, "s", "main"),
    }
    return {
        name: {"value": entry[0], "unit": entry[1]}
        for name, entry in metrics.items()
        if len(entry) == 2 or entry[2] not in tr.absent
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    workload, setup = worker.setup(args.workload, args.seed)
    print("ready", flush=True)
    tracer = Tracer()
    busy = {False: 0.0, True: 0.0}
    attempted = failed = traced_ops = faults = csv_bytes = 0
    worst_gap = 0.0
    problems = []
    start = time.perf_counter()
    r = 0
    # every round runs untraced and traced, in alternating order, so the
    # overhead compares the same operations
    while r == 0 or time.perf_counter() - start < args.seconds:
        for on in ((False, True) if r % 2 == 0 else (True, False)):
            if on:
                tracer.install()
            for op_argv, key in workload.ops(r):
                before = dict(tracer.self_time)
                f0 = minor_faults()
                dt, bad, problem = worker.run_op(workload, op_argv, key)
                busy[on] += dt
                attempted += 1
                failed += bad
                if problem:
                    problems.append(problem)
                if not on:
                    continue
                traced_ops += 1
                if op_argv[0] == "sweep":
                    faults += minor_faults() - f0
                    csv_bytes += Path(op_argv[op_argv.index("--out") + 1]).stat().st_size
                covered = sum(v - before.get(k, 0.0) for k, v in tracer.self_time.items())
                worst_gap = max(worst_gap, abs(dt - covered) / dt)
            if on:
                tracer.uninstall()
        r += 1

    if worst_gap > SELF_SUM_TOLERANCE:
        problems.append(f"layer self times miss an operation's time by {worst_gap:.1%}")
    problems += workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in sorted(tracer.absent):
        print(f"absent layer: {name} no longer exists; its metrics are left out",
              file=sys.stderr)
    metrics = layer_metrics(tracer, traced_ops, faults, csv_bytes, setup)
    overhead = busy[True] / busy[False] - 1.0
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    metrics["trace.self_sum_gap_pct"] = {"value": 100.0 * worst_gap, "unit": "%"}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
