import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hopqa.checkpoint import load_checkpoint, save_checkpoint
from hopqa.cli import main
from hopqa.model import init_params

GEN_CFG = {"n_entities": 12, "n_relations": 2, "chain_length": 1,
           "n_distractor_facts": 1, "n_examples": 16, "n_dev": 8,
           "n_test": 4, "seed": 11}
# `hopqa inspect` output for TestInspect.test_output_pinned, recorded from
# the code that copied the span list into every hop's trace
INSPECT_PINNED = (
    "example 0: gold=e02 predicted=e02 [answer gates: 0.520, 0.520, 0.521]\n"
    "  hop 1: eta=0.253 g_a=0.520 g_q_mean=0.512  e02@7:0.255  e01@5:0.249  "
    "e08@3:0.248  e10@1:0.248\n"
    "  hop 2: eta=0.253 g_a=0.520 g_q_mean=0.506  e02@7:0.252  e01@5:0.250  "
    "e08@3:0.249  e10@1:0.249\n"
    "  hop 3: eta=0.253 g_a=0.521 g_q_mean=0.502  e02@7:0.251  e01@5:0.250  "
    "e08@3:0.250  e10@1:0.250\n"
    "trace written to {trace}\n")
TRACE_SHA256 = \
    "c3069d3029e618de6196ffeb12844b01bd7335edc6398f88908942c82d21ffd2"
TRAIN_CFG = {"h": 4, "hops": 1, "batch_size": 4, "checkpoint_every": 100,
             "max_epochs": 2, "dropout": 0.0, "seed": 0}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Generated data plus one trained run, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    gen_cfg = write_json(root / "gen.json", GEN_CFG)
    assert main(["gen", "--config", gen_cfg, "--out", str(root / "data")]) == 0
    train_cfg = write_json(root / "train.json", TRAIN_CFG)
    assert main(["train", "--config", train_cfg, "--data", str(root / "data"),
                 "--out", str(root / "run")]) == 0
    return root


class TestGen:
    def test_writes_all_splits_and_manifest(self, workdir):
        data = workdir / "data"
        for split in ("train", "dev", "test"):
            assert (data / f"{split}.jsonl").exists()
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["files"]["train"]["examples"] == 16
        assert manifest["files"]["dev"]["examples"] == 8

    def test_deterministic_across_runs(self, workdir, tmp_path):
        gen_cfg = write_json(tmp_path / "gen.json", GEN_CFG)
        assert main(["gen", "--config", gen_cfg,
                     "--out", str(tmp_path / "data2")]) == 0
        m1 = json.loads((workdir / "data" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "data2" / "manifest.json").read_text())
        for split in ("train", "dev", "test"):
            assert m1["files"][split]["sha256"] == m2["files"][split]["sha256"]

    def test_seed_flag_changes_content(self, workdir, tmp_path):
        gen_cfg = write_json(tmp_path / "gen.json", GEN_CFG)
        assert main(["gen", "--config", gen_cfg, "--seed", "99",
                     "--out", str(tmp_path / "data3")]) == 0
        m1 = json.loads((workdir / "data" / "manifest.json").read_text())
        m3 = json.loads((tmp_path / "data3" / "manifest.json").read_text())
        assert (m1["files"]["train"]["sha256"]
                != m3["files"]["train"]["sha256"])

    def test_infeasible_config_exit_2(self, tmp_path, capsys):
        cfg = dict(GEN_CFG, n_entities=5)
        gen_cfg = write_json(tmp_path / "gen.json", cfg)
        assert main(["gen", "--config", gen_cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        gen_cfg = write_json(tmp_path / "gen.json", {"bogus_key": 1})
        assert main(["gen", "--config", gen_cfg,
                     "--out", str(tmp_path / "x")]) == 2


class TestTrain:
    def test_outputs_exist(self, workdir):
        run = workdir / "run"
        for name in ("best.ckpt", "last.ckpt", "metrics.jsonl",
                     "manifest.json"):
            assert (run / name).exists()
        rows = [json.loads(l) for l in
                (run / "metrics.jsonl").read_text().splitlines()]
        assert all({"step", "lr", "dev_acc"} <= set(r) for r in rows)

    def test_missing_data_dir_exit_2(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "run")]) == 2

    def test_bad_config_value_exit_2(self, workdir, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", dict(TRAIN_CFG, dropout=2.0))
        assert main(["train", "--config", cfg,
                     "--data", str(workdir / "data"),
                     "--out", str(tmp_path / "run")]) == 2

    def test_negative_dev_subsample_exit_2(self, workdir, tmp_path, capsys):
        assert main(["train", "--data", str(workdir / "data"),
                     "--dev-subsample", "-7",
                     "--out", str(tmp_path / "run")]) == 2
        assert "dev_subsample" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resume_matches_straight_run(self, workdir, tmp_path):
        """1 epoch + resume for a 2nd epoch reproduces a straight 2-epoch run
        bit-exactly."""
        data = str(workdir / "data")
        cfg1 = write_json(tmp_path / "c1.json", dict(TRAIN_CFG, max_epochs=1))
        cfg2 = write_json(tmp_path / "c2.json", dict(TRAIN_CFG, max_epochs=2))
        assert main(["train", "--config", cfg1, "--data", data,
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", cfg2, "--data", data,
                     "--resume", str(tmp_path / "a" / "last.ckpt"),
                     "--out", str(tmp_path / "a2")]) == 0
        assert main(["train", "--config", cfg2, "--data", data,
                     "--out", str(tmp_path / "b")]) == 0
        resumed = load_checkpoint(tmp_path / "a2" / "last.ckpt")
        straight = load_checkpoint(tmp_path / "b" / "last.ckpt")
        for (n1, t1), (n2, t2) in zip(resumed.params.named(),
                                      straight.params.named()):
            assert np.array_equal(t1.data, t2.data), n1


class TestEval:
    def test_reproduces_logged_dev_accuracy(self, workdir, capsys):
        best = load_checkpoint(workdir / "run" / "best.ckpt")
        assert main(["eval", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl")]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "hops\taccuracy"
        hops, acc = lines[1].split("\t")
        assert float(acc) == pytest.approx(best.meta["dev_acc"], abs=5e-5)

    def test_hop_sweep_table(self, workdir, capsys):
        assert main(["eval", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--hop-sweep", "1..3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [l.split("\t")[0] for l in lines[1:]] == ["1", "2", "3"]

    def test_bad_sweep_exit_2(self, workdir, capsys):
        assert main(["eval", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--hop-sweep", "3..1"]) == 2

    def test_missing_checkpoint_exit_1(self, workdir, capsys):
        assert main(["eval", "--checkpoint", str(workdir / "nope.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl")]) == 1

    def test_hops_with_hop_sweep_exit_2(self, workdir, capsys):
        assert main(["eval", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--hops", "5", "--hop-sweep", "1..2"]) == 2
        captured = capsys.readouterr()
        assert "--hops" in captured.err and "--hop-sweep" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [["--hops", "0"], ["--hops", "-1"],
                                       ["--limit", "-3"], ["--limit", "0"]])
    def test_nonpositive_flag_exit_2(self, workdir, capsys, flags):
        assert main(["eval", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl")]
                    + flags) == 2
        assert f"{flags[0]} must be at least 1" in capsys.readouterr().err


class TestInspect:
    def test_prints_trace(self, workdir, capsys):
        assert main(["inspect",
                     "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--example", "0"]) == 0
        out = capsys.readouterr().out
        assert "gold=" in out and "predicted=" in out
        assert "hop 1:" in out and "eta=" in out

    def test_trace_file_is_json_lines(self, workdir, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["inspect",
                     "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--example", "1", "--hops", "2",
                     "--out", str(trace)]) == 0
        rows = [json.loads(l) for l in trace.read_text().splitlines()]
        assert [r["hop"] for r in rows] == [1, 2]
        for r in rows:
            assert abs(sum(r["alpha"]) - 1.0) < 1e-9
            assert 0.0 < r["g_a"] < 1.0

    def test_output_pinned(self, workdir, tmp_path, capsys):
        """Stdout and trace file of an untrained model, byte for byte, as
        they were when each hop copied the span list. W_q = [I I] makes
        every span query a sum of two states, exact in any summation order,
        so the bytes do not depend on how the span queries are batched."""
        bundle = load_checkpoint(workdir / "run" / "best.ckpt")
        params = init_params(4, bundle.vocab.size, bundle.vocab.n_answers,
                             np.random.default_rng(7))
        params.W_q.data[...] = np.concatenate([np.eye(4), np.eye(4)], axis=1)
        ckpt = tmp_path / "fixed.ckpt"
        save_checkpoint(ckpt, config=bundle.config, params=params,
                        vocab=bundle.vocab)
        trace = tmp_path / "trace.jsonl"
        assert main(["inspect", "--checkpoint", str(ckpt),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--example", "0", "--hops", "3",
                     "--out", str(trace)]) == 0
        assert capsys.readouterr().out == INSPECT_PINNED.format(trace=trace)
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_SHA256
        rows = [json.loads(l) for l in trace.read_text().splitlines()]
        assert [r["spans"] for r in rows] == [[[1, 1], [3, 3], [5, 5],
                                               [7, 7]]] * 3

    def test_ablation_prints_both(self, workdir, capsys):
        assert main(["inspect",
                     "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--example", "0", "--ablate-query-gate"]) == 0
        assert "query gate ablated" in capsys.readouterr().out

    @pytest.mark.parametrize("hops", ["0", "-2"])
    def test_nonpositive_hops_exit_2(self, workdir, capsys, hops):
        assert main(["inspect",
                     "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--example", "0", "--hops", hops]) == 2
        assert "--hops must be at least 1" in capsys.readouterr().err

    def test_example_out_of_range_exit_2(self, workdir, capsys):
        assert main(["inspect",
                     "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--example", "999"]) == 2
