"""`tools/bench_pairs.py` summarises alternated parent/change runs in the
layout of the checked-in BENCH files: fed the per-run values of
`BENCH_hop_node.json`, it gives back that file's quartiles, ratios, wins
and gaps."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
try:
    import bench_pairs
finally:
    sys.path.remove(str(ROOT / "tools"))

SUMMARY = ("before_q25_median_q75", "after_q25_median_q75", "median_ratio",
           "after_wins", "median_gap_over_parent_iqr",
           "parent_iqr_over_median")


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1400-1403,7") == [1400, 1401, 1402,
                                                      1403, 7]


def test_reproduces_checked_in_summary():
    doc = json.loads((ROOT / "BENCH_hop_node.json").read_text())
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    n = 0
    for workload in doc["workloads"].values():
        for name, m in workload["metrics"].items():
            got = bench_pairs.summarise(m["before"], m["after"], m["better"],
                                        bounds[name])
            for key in SUMMARY:
                assert got[key] == pytest.approx(m[key], abs=0.011), \
                    (name, key)
            n += 1
    assert n == 12


def run(seed, correct=True, value=1.0):
    return {"seed": seed, "result": {
        "correct": correct, "attempted": 3, "failed": 0 if correct else 1,
        "metrics": {"ex_per_s": {"value": value, "unit": "ex/s"}}}}


def test_workload_record_counts_and_pairs():
    spec = [{"name": "ex_per_s", "unit": "ex/s", "better": "higher",
             "bound": 0.25}]
    runs = {"before": [run(0, value=10.0), run(1, value=12.0),
                       run(2, value=11.0)],
            "after": [run(0, value=20.0), {"seed": 1, "error": "boom"},
                      run(2, correct=False, value=9.0)]}
    rec = bench_pairs.workload_record(runs, [0, 1, 2], spec)
    assert rec["attempted"] == {"before": 9, "after": 6}
    assert rec["failed"] == {"before": 0, "after": 1}
    assert rec["correct"] is False
    assert rec["runs_that_failed"]["after"][0]["error"] == "boom"
    m = rec["metrics"]["ex_per_s"]
    # the pair with a failed process is left out of every metric
    assert (m["before"], m["after"], m["after_wins"]) == ([10.0, 11.0],
                                                          [20.0, 9.0], 1)
