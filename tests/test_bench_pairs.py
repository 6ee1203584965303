"""`tools/bench_pairs.py` summarises alternated parent/change runs in the
layout of the checked-in BENCH files: fed the per-run values of
`BENCH_hop_node.json`, it gives back that file's quartiles, ratios, wins
and gaps."""

import json
import subprocess
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


@pytest.mark.parametrize("better,before,after,want", [
    # parent median 100, IQR 4 (4% of the median), bound 10%
    ("higher", [98, 99, 100, 101, 102], [103, 104, 101, 99, 105], "better"),
    ("higher", [98, 99, 100, 101, 102], [92, 95, 93, 94, 99], "no worse"),
    ("higher", [98, 99, 100, 101, 102], [80, 85, 89, 70, 101], "worse"),
    ("lower", [98, 99, 100, 101, 102], [80, 85, 89, 70, 101], "better"),
    ("lower", [98, 99, 100, 101, 102], [105, 110, 108, 103, 99], "no worse"),
    ("lower", [98, 99, 100, 101, 102], [111, 120, 115, 99, 130], "worse"),
    # parent IQR 20% of its median: too wide to tell, unless every change
    # run beats every parent run
    ("higher", [80, 90, 100, 110, 120], [60, 70, 80, 90, 100], "unresolved"),
    ("higher", [80, 90, 100, 110, 120], [101, 105, 115, 130, 125],
     "unresolved"),
    ("higher", [80, 90, 100, 110, 120], [121, 125, 122, 130, 140], "better"),
    ("lower", [80, 90, 100, 110, 120], [50, 60, 70, 75, 79], "better"),
])
def test_verdict(better, before, after, want):
    """A verdict per metric against a bound of 10% of the parent median."""
    got = bench_pairs.summarise(before, after, better, 0.1)
    assert got["verdict"] == want


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


NAMES = ["train-h16", "train-h256", "eval-sweep-long"]


def test_pick_workloads():
    assert bench_pairs.pick_workloads(NAMES, None) == NAMES
    assert bench_pairs.pick_workloads(NAMES, "train-h256") == ["train-h256"]
    assert bench_pairs.pick_workloads(
        NAMES, "eval-sweep-long,train-h16") == ["eval-sweep-long",
                                                "train-h16"]
    with pytest.raises(ValueError, match="unknown workload 'train-h32'"):
        bench_pairs.pick_workloads(NAMES, "train-h16,train-h32")


def test_main_runs_only_the_named_workloads(tmp_path, monkeypatch):
    """`--workloads train-h256` runs that workload's pairs and no other,
    and the BENCH file holds it alone, with the CPUs each run could use and
    the load before and after it; an unknown name exits 2 before any
    run."""
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    calls = []

    def fake_run_once(checkout, command, workload, seed, seconds):
        calls.append((workload, seed))
        r = run(seed)
        r["result"]["metrics"] = {
            m: {"value": 1.0, "unit": ""} for m in
            ("ex_per_s", "eval_ex_per_s", "setup_s", "peak_rss_mb")}
        r["provenance"] = {
            "git_commit": None, "src_sha256": "x", "nproc": 2,
            "cpus_allowed": 1 + len(calls) % 2,
            "loadavg_1m_before": 0.5 * seed,
            "loadavg_1m_after": 0.5 * seed + 0.25, "python": "3",
            "numpy": "2", "blas": "b", "blas_threads": 1,
            "blas_threads_set_by": "run.py"}
        return r

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    args = ["--parent", str(tmp_path), "--change", str(tmp_path), "--topic",
            "t", "--seeds", "1-2"]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(args + ["--workloads", "train-h32"])
    assert exit_info.value.code == 2 and not calls
    assert bench_pairs.main(args + ["--workloads", "train-h256"]) == 0
    assert calls == [("train-h256", 1)] * 2 + [("train-h256", 2)] * 2
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(doc["workloads"]) == ["train-h256"]
    # seed 1 runs the change first, seed 2 the parent; the fake gives the
    # first run of a pair 2 CPUs and the second 1
    assert doc["workloads"]["train-h256"]["provenance"] == {
        "before": {"src_sha256": ["x"], "cpus_allowed": [1, 2],
                   "loadavg_1m_before": [0.5, 1.0],
                   "loadavg_1m_after": [0.75, 1.25]},
        "after": {"src_sha256": ["x"], "cpus_allowed": [2, 1],
                  "loadavg_1m_before": [0.5, 1.0],
                  "loadavg_1m_after": [0.75, 1.25]}}
    assert doc["checkouts"]["after"] == {"checkout": str(tmp_path.resolve()),
                                         "tree": "not a git checkout"}


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                    "-c", "user.email=t@example.com", *args],
                   check=True, capture_output=True)


def test_tree_state(tmp_path):
    """A committed tree reads as its commit, an edited or added file marks
    it uncommitted, and neither a plain directory nor a directory inside a
    repository is a checkout of its own."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("x = 1\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "a")
    sha = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    assert len(sha) == 40
    assert bench_pairs.tree_state(repo) == sha
    (repo / "src" / "a.py").write_text("x = 2\n")
    assert bench_pairs.tree_state(repo) == f"{sha} + uncommitted changes"
    git(repo, "checkout", "-q", "--", "src/a.py")
    (repo / "new.py").write_text("")
    assert bench_pairs.tree_state(repo) == f"{sha} + uncommitted changes"
    assert bench_pairs.tree_state(repo / "src") == "not a git checkout"
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pairs.tree_state(plain) == "not a git checkout"
