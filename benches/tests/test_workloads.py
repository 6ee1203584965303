"""Tiny-size runs of each workload's set-up, timed operation, check and
traced per-layer metrics, plus the command-line contract."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tr
import workloads as wls

from conftest import BENCH_DIR

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = {
    "train-h16": wls.TrainWorkload("train-h16", wls.learn_config, n_train=32,
                                   n_dev=4, pin_training=True,
                                   interpreter_bound=True),
    "train-h256": wls.TrainWorkload("train-h256", wls.default_config,
                                    n_train=4, n_dev=2, pin_training=False,
                                    interpreter_bound=False),
    "eval-sweep-long": wls.EvalSweepWorkload(n_dev=3),
}


def test_tiny_workloads_cover_benchmark_json():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(wls.WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_checks_and_traces(name, tmp_path):
    wl = TINY[name]
    setup_tracer = tr.Tracer()
    with setup_tracer.installed():
        state = wl.setup(5, tmp_path)
    ref = wl.reference(state)
    untraced = wl.run(state)
    assert wl.check(state, untraced, ref) == []
    if wl.has_probe:
        assert wl.check_probe(state, ref) == []

    loop_tracer = tr.Tracer()
    with loop_tracer.installed():
        traced = wl.run(state)
    assert wl.check(state, traced, ref) == []
    m = tr.layer_metrics(setup_tracer, loop_tracer, [traced.wall],
                         [untraced.wall])
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}
    assert m["trace.coverage"] == pytest.approx(1.0, abs=0.02)
    assert all(m[f"{layer}.errors"] == 0 for layer in tr.LAYERS)
    assert m["support.pairs"] > 0 and m["encoder.gru_steps"] > 0
    if name.startswith("train"):
        assert m["autograd.tape_nodes"] > 0 and m["train.adam_steps"] >= 1
    else:
        assert m["autograd.tape_nodes"] == 0 and m["train.adam_ms"] == 0
        assert m["hops.hops"] == pytest.approx(sum(wls.HOP_SWEEP) / 6)


def test_check_rejects_a_changed_loss(tmp_path):
    wl = TINY["train-h16"]
    state = wl.setup(0, tmp_path)
    ref = wl.reference(state)
    rep = wl.run(state)
    bad = dict(ref, step_losses=[x * (1 + 1e-7) for x in ref["step_losses"]])
    assert wl.check(state, rep, bad) == [
        "per-step losses differ from the reference"]


def test_references_cover_every_seed():
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    assert refs["ref_seeds"] == wls.REF_SEEDS
    for name in wls.WORKLOADS:
        assert sorted(refs["workloads"][name], key=int) == [
            str(s) for s in range(wls.REF_SEEDS)]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benches/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_result_line(trace):
    out = _run(BENCH_DIR.parent, "--workload", "train-h16", "--seed", "37",
               "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        # a 1 s run times one operation: its rate times its speed index
        info = json.loads(out.stdout.strip().splitlines()[-2])["info"]
        (index,) = info["speed_index_s"]
        assert result["metrics"]["ex_per_s"]["value"] == pytest.approx(
            info["unscaled"]["ex_per_s"] * index / run.INDEX_REF_S)


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benches",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "train-h16", "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
