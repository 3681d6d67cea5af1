import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(latency, rss):
    return {"metrics": {"latency_p50_s": {"value": latency}, "peak_rss_mb": {"value": rss}}}


def test_seed_range():
    assert bench_pairs.seed_range("7200-7203") == [7200, 7201, 7202, 7203]
    assert bench_pairs.seed_range("5") == [5]
    with pytest.raises(Exception):
        bench_pairs.seed_range("9-3")


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    runs = [{"parent": run(0.50 + k / 100, 38.0), "change": run(0.38 + k / 100, 38.5 - k / 10)}
            for k in range(10)]
    runs[3]["change"] = run(0.60, 38.0)  # a lost pair; rss ties with the parent
    s = bench_pairs.summarize(runs, {"latency_p50_s": "lower", "peak_rss_mb": "lower",
                                     "absent": "lower"})
    assert set(s) == {"latency_p50_s", "peak_rss_mb"}
    lat = s["latency_p50_s"]
    assert (lat["wins"], lat["pairs"]) == (9, 10)
    assert lat["parent"]["median"] == pytest.approx(0.545)
    assert lat["gain_shown"]  # 9 of 10, and 0.125 s apart against a 0.045 s spread
    rss = s["peak_rss_mb"]
    assert rss["wins"] == 4  # 38.5 - k/10 beats 38.0 for k >= 6; k = 3 and k = 5 tie
    assert not rss["gain_shown"]


def checkout(root, src_text):
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text(src_text)
    (root / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "latency_p50_s", "better": "lower"}], "per_layer": []}')
    return root


def test_json_keeps_the_pairs_before_a_failed_run(tmp_path, monkeypatch):
    parent = checkout(tmp_path / "parent", "a = 1\nb = 2\n")
    change = checkout(tmp_path / "change", "a = 1\n")
    calls = []

    def run_once(root, workload, seed, seconds, trace):
        calls.append((root.name, seed))
        if seed == 12:
            raise RuntimeError("benchmark/run.py exited 1")
        latency = 0.5 if root.name == "parent" else 0.4
        return {"correct": True, "failed": 0, "attempted": 3, **run(latency, 38.0)}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    with pytest.raises(RuntimeError):
        bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "10-13",
                          "--json", str(out)])
    assert calls == [("parent", 10), ("change", 10), ("change", 11), ("parent", 11),
                     ("parent", 12)]
    record = json.loads(out.read_text())
    assert [r["seed"] for r in record["runs"]] == [10, 11]
    assert record["summary"]["latency_p50_s"]["wins"] == 2


def test_json_records_the_machine_and_src_lines(tmp_path, monkeypatch):
    parent = checkout(tmp_path / "parent", "a = 1\nb = 2\n")
    change = checkout(tmp_path / "change", "a = 1\n")
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: {
        "correct": True, "failed": 0, "attempted": 3, **run(0.5, 38.0)})
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "10",
                             "--json", str(out)]) == 0
    record = json.loads(out.read_text())
    assert (record["workload"], record["trace"], len(record["runs"])) == ("w", 0, 1)
    assert record["src_lines"] == {"parent": 2, "change": 1}
    assert set(record["machine"]) == {"nproc", "python", "numpy"}
    assert record["machine"]["nproc"] >= 1
    assert record["machine"]["numpy"] == np.__version__


def test_runs_reporting_incorrect_are_counted_per_side(tmp_path, monkeypatch, capsys):
    parent = checkout(tmp_path / "parent", "a = 1\n")
    change = checkout(tmp_path / "change", "a = 1\n")
    monkeypatch.setattr(bench_pairs, "run_once", lambda root, workload, seed, *rest: {
        "correct": root.name == "parent" or seed != 11, "failed": 0, "attempted": 3,
        **run(0.5, 38.0)})
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "10-12",
                             "--json", str(out)]) == 0
    assert json.loads(out.read_text())["incorrect"] == {"parent": 0, "change": 1}
    assert "runs reporting correct: false: parent 0/3; change 1/3\n" in capsys.readouterr().out
