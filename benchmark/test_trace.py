"""The traced run's wrappers: self times add up, absent layers are skipped.

    python3 -m pytest benchmark/test_trace.py -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bellpoly.epsrho  # noqa: E402
import tracing  # noqa: E402
from workloads import call_cli  # noqa: E402

SETUP = {"import_s": 0.1, "inputs_s": 0.1}


def test_self_times_add_up_to_the_operation(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        code, _ = call_cli(["sweep", "--rho-steps", "5", "--eps-steps", "5",
                            "--trials", "1000", "--out", str(tmp_path / "s.csv")])
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert code == 0
    covered = sum(tracer.self_time.values())
    assert abs(wall - covered) <= tracing.SELF_SUM_TOLERANCE * wall + 1e-3
    assert tracer.counts["epsrho.mc_trials"] == 25 * 4 * 1000
    assert tracer.total["epsrho.sweep"] >= tracer.total["epsrho.mc_kernel"] > 0


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.delattr(bellpoly.epsrho, "_product_sum")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"_product_sum"}
    metrics = tracing.layer_metrics(tracer, 1, 0, 0, SETUP)
    assert "epsrho.mc_kernel_s" not in metrics
    assert "epsrho.mc_trials_per_s" not in metrics
    assert "epsrho.sweep_s" in metrics


def test_uninstall_restores_the_program():
    original = bellpoly.epsrho._product_sum
    tracer = tracing.Tracer()
    tracer.install()
    assert bellpoly.epsrho._product_sum is not original
    tracer.uninstall()
    assert bellpoly.epsrho._product_sum is original
