import importlib.util
from pathlib import Path

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
