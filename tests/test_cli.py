import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hopqa
import hopqa.train as train_module
from hopqa import cli
from hopqa.checkpoint import load_checkpoint, save_checkpoint
from hopqa.cli import build_parser, main
from hopqa.data import load_dataset
from hopqa.model import init_params
from hopqa.train import TrainConfig, evaluate, example_loss

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


def no_support_record(line: str) -> str:
    """A JSONL record with every candidate occurrence dropped from its
    document, so it has no support pair."""
    record = json.loads(line)
    record["document"] = [t for t in record["document"]
                          if t not in record["candidates"]]
    return json.dumps(record)


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

    @pytest.mark.parametrize("field,value", [("n_examples", 3.5),
                                             ("seed", "1"), ("n_dev", True)])
    def test_non_integer_config_value_exit_2(self, tmp_path, capsys, field,
                                             value):
        gen_cfg = write_json(tmp_path / "gen.json",
                             dict(GEN_CFG, **{field: value}))
        assert main(["gen", "--config", gen_cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert f"error: {field} must be int" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_out_is_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        gen_cfg = write_json(tmp_path / "gen.json", GEN_CFG)
        assert main(["gen", "--config", gen_cfg, "--out", str(out)]) == 2
        assert f"cannot create output directory {out}" in \
            capsys.readouterr().err

    def test_config_not_object_exit_2(self, tmp_path, capsys):
        gen_cfg = write_json(tmp_path / "gen.json", [1, 2])
        assert main(["gen", "--config", gen_cfg, "--seed", "3",
                     "--out", str(tmp_path / "x")]) == 2
        assert "is not a JSON object" in capsys.readouterr().err


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

    @pytest.mark.parametrize("field,value,kind", [
        ("h", 4.5, "int"), ("hops", 1.5, "int"), ("batch_size", "4", "int"),
        ("max_epochs", True, "int"), ("identity_eo", "yes", "bool"),
        ("lr0", "0.1", "float")])
    def test_wrong_config_type_exit_2(self, workdir, tmp_path, capsys, field,
                                      value, kind):
        cfg = write_json(tmp_path / "bad.json",
                         dict(TRAIN_CFG, **{field: value}))
        assert main(["train", "--config", cfg,
                     "--data", str(workdir / "data"),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"error: {field} must be {kind}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_dev_subsample_exit_2(self, workdir, tmp_path, capsys):
        cfg = write_json(tmp_path / "neg.json",
                         dict(TRAIN_CFG, dev_subsample=-7))
        assert main(["train", "--config", cfg, "--data", str(workdir / "data"),
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
        for name in ("last.ckpt", "best.ckpt"):
            resumed = load_checkpoint(tmp_path / "a2" / name)
            straight = load_checkpoint(tmp_path / "b" / name)
            for (n1, t1), (n2, t2) in zip(resumed.params.named(),
                                          straight.params.named()):
                assert np.array_equal(t1.data, t2.data), (name, n1)
        assert ([resumed.meta[k] for k in ("dev_acc", "step", "epoch")]
                == [straight.meta[k] for k in ("dev_acc", "step", "epoch")])

    def test_resume_from_best_ckpt_exit_2(self, workdir, tmp_path, capsys):
        assert main(["train", "--config", str(workdir / "train.json"),
                     "--data", str(workdir / "data"),
                     "--resume", str(workdir / "run" / "best.ckpt"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "last.ckpt" in capsys.readouterr().err

    def test_resume_other_config_exit_2(self, workdir, tmp_path, capsys):
        cfg = write_json(tmp_path / "h8.json", dict(TRAIN_CFG, h=8))
        assert main(["train", "--config", cfg,
                     "--data", str(workdir / "data"),
                     "--resume", str(workdir / "run" / "last.ckpt"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "'E_i' has shape (17, 4), expected (17, 8)" in \
            capsys.readouterr().err

    def test_resume_config_drift_exit_2(self, workdir, tmp_path, capsys):
        """Every changed field but max_epochs is named; the checkpoint's Adam
        state would otherwise keep its own learning rate unseen."""
        cfg = write_json(tmp_path / "drift.json", dict(
            TRAIN_CFG, hops=3, batch_size=2, dropout=0.5, lr0=0.5,
            max_epochs=5))
        assert main(["train", "--config", cfg,
                     "--data", str(workdir / "data"),
                     "--resume", str(workdir / "run" / "last.ckpt"),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert ("config differs from the checkpoint's: hops 1 -> 3, "
                "lr0 0.001 -> 0.5, batch_size 4 -> 2, dropout 0.0 -> 0.5;"
                in err)
        assert "max_epochs 2" not in err

    def test_resume_int_lr0(self, workdir, tmp_path):
        """An int `lr0` is a valid config value, so the `last.ckpt` it
        writes (learning rate saved as the int 1) must resume."""
        data = str(workdir / "data")
        cfg1 = write_json(tmp_path / "c1.json",
                          dict(TRAIN_CFG, lr0=1, max_epochs=1))
        cfg2 = write_json(tmp_path / "c2.json", dict(TRAIN_CFG, lr0=1))
        assert main(["train", "--config", cfg1, "--data", data,
                     "--out", str(tmp_path / "a")]) == 0
        last = tmp_path / "a" / "last.ckpt"
        assert json.loads(str(np.load(last)["header"]))["optimizer"]["lr"] == 1
        assert main(["train", "--config", cfg2, "--data", data,
                     "--resume", str(last),
                     "--out", str(tmp_path / "a2")]) == 0

    def test_resume_without_config_uses_checkpoint_config(self, workdir,
                                                          tmp_path, capsys):
        """No --config: the run continues under the config in last.ckpt,
        not the TrainConfig defaults (h=256)."""
        last = workdir / "run" / "last.ckpt"
        assert main(["train", "--data", str(workdir / "data"),
                     "--resume", str(last),
                     "--out", str(tmp_path / "run")]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"] == load_checkpoint(last).config.__dict__
        assert manifest["config"]["h"] == TRAIN_CFG["h"]

    def test_out_is_file_exit_2_before_training(self, workdir, tmp_path,
                                                capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "train", lambda *a, **kw: calls.append(a))
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["train", "--config", str(workdir / "train.json"),
                     "--data", str(workdir / "data"),
                     "--out", str(out)]) == 2
        assert calls == []
        assert f"cannot create output directory {out}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("out", ["left", "left/deeper"])
    def test_refused_run_leaves_no_out_dir(self, workdir, tmp_path, capsys,
                                           out):
        """`--out` is created before `train()` can refuse the run; every
        directory the command created goes again."""
        cfg = write_json(tmp_path / "drift.json", dict(TRAIN_CFG, hops=3))
        assert main(["train", "--config", cfg,
                     "--data", str(workdir / "data"),
                     "--resume", str(workdir / "run" / "last.ckpt"),
                     "--out", str(tmp_path / "runs" / out)]) == 2
        assert "config differs from the checkpoint's" in \
            capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_refused_run_keeps_existing_out_dir(self, workdir, tmp_path,
                                                capsys):
        out = tmp_path / "existing"
        out.mkdir()
        cfg = write_json(tmp_path / "drift.json", dict(TRAIN_CFG, hops=3))
        assert main(["train", "--config", cfg,
                     "--data", str(workdir / "data"),
                     "--resume", str(workdir / "run" / "last.ckpt"),
                     "--out", str(out)]) == 2
        assert "config differs from the checkpoint's" in \
            capsys.readouterr().err
        assert out.is_dir()

    def test_resume_other_dataset_exit_2(self, workdir, tmp_path, capsys):
        """Data with another seed has a vocab of the same size but in
        another order, so the shapes alone would let it resume."""
        gen_cfg = write_json(tmp_path / "gen.json", dict(GEN_CFG, seed=12))
        assert main(["gen", "--config", gen_cfg,
                     "--out", str(tmp_path / "data")]) == 0
        assert main(["train", "--config", str(workdir / "train.json"),
                     "--data", str(tmp_path / "data"),
                     "--resume", str(workdir / "run" / "last.ckpt"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "vocab" in capsys.readouterr().err

    def resume_damaged(self, workdir, tmp_path, monkeypatch, edit):
        """`train --resume` from a copy of the run's last.ckpt with `edit`
        applied to its arrays; training itself must not start."""
        arrays = dict(np.load(workdir / "run" / "last.ckpt"))
        edit(arrays)
        bad = tmp_path / "last.ckpt"
        with open(bad, "wb") as f:
            np.savez(f, **arrays)

        def no_training(*args, **kwargs):
            raise AssertionError("training started")
        monkeypatch.setattr(cli, "train", no_training)
        code = main(["train", "--data", str(workdir / "data"),
                     "--resume", str(bad), "--out", str(tmp_path / "run")])
        assert not (tmp_path / "run").exists()
        return code, bad

    def test_resume_missing_adam_moment_exit_2(self, workdir, tmp_path,
                                               monkeypatch, capsys):
        code, bad = self.resume_damaged(
            workdir, tmp_path, monkeypatch,
            lambda arrays: arrays.pop("adam_m/E_i"))
        assert code == 2
        assert (f"{bad}: checkpoint lacks array adam_m/E_i"
                in capsys.readouterr().err)

    def test_resume_wrong_best_shape_exit_2(self, workdir, tmp_path,
                                            monkeypatch, capsys):
        """A best-dev snapshot of the wrong shape would otherwise train and
        fail only at the end, if no new best replaced it."""
        def cut(arrays):
            arrays["best/E_i"] = arrays["best/E_i"][:, :3]
        code, bad = self.resume_damaged(workdir, tmp_path, monkeypatch, cut)
        assert code == 2
        assert (f"{bad}: checkpoint array best/E_i has shape (17, 3), "
                f"expected (17, 4)" in capsys.readouterr().err)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["run"].update(bogus=1),
         "checkpoint header key run.bogus: unknown"),
        (lambda h: h["optimizer"].pop("t"),
         "checkpoint header key optimizer.t: missing"),
        (lambda h: h["optimizer"].update(t="12"),
         "checkpoint header key optimizer.t: bad value '12'"),
        (lambda h: h["run"].update(rng_state=None),
         "checkpoint header key run.rng_state: bad value None"),
    ], ids=["extra_run_key", "missing_optimizer_t", "string_t",
            "no_rng_state"])
    def test_resume_bad_header_exit_2(self, workdir, tmp_path, monkeypatch,
                                      capsys, edit, message):
        """A damaged `optimizer` or `run` header is refused before any
        training, naming the file and the key."""
        def edit_header(arrays):
            header = json.loads(str(arrays["header"]))
            edit(header)
            arrays["header"] = np.array(json.dumps(header))
        code, bad = self.resume_damaged(workdir, tmp_path, monkeypatch,
                                        edit_header)
        assert code == 2
        assert f"{bad}: {message}" in capsys.readouterr().err


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

    def test_missing_checkpoint_exit_2(self, workdir, capsys):
        assert main(["eval", "--checkpoint", str(workdir / "nope.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl")]) == 2
        assert "nope.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["text", "npz-without-header"])
    def test_not_a_checkpoint_exit_2(self, workdir, tmp_path, capsys, kind):
        ckpt = tmp_path / "bad.ckpt"
        if kind == "text":
            ckpt.write_text("not a checkpoint")
        else:
            with open(ckpt, "wb") as f:
                np.savez(f, weights=np.zeros(3))
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(workdir / "data" / "dev.jsonl")]) == 2
        assert "bad.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["not-json", "not-object", "no-version",
                                      "no-config", "no-vocab", "float-h",
                                      "bad-vocab"])
    def test_bad_checkpoint_header_exit_2(self, workdir, tmp_path, capsys,
                                          case):
        """A header that is not JSON, lacks a required key or holds a bad
        config exits 2 naming the checkpoint, before any output."""
        with np.load(workdir / "run" / "best.ckpt") as npz:
            arrays = dict(npz)
        rec = json.loads(str(arrays["header"]))
        if case.startswith("no-"):
            del rec[case[3:]]
        if case == "float-h":
            rec["config"]["h"] = 4.5
        if case == "bad-vocab":
            rec["vocab"] = {}
        header = {"not-json": "{not json",
                  "not-object": json.dumps(list(rec))}.get(case)
        arrays["header"] = np.array(header or json.dumps(rec))
        ckpt = tmp_path / "bad.ckpt"
        with open(ckpt, "wb") as f:
            np.savez(f, **arrays)
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(workdir / "data" / "dev.jsonl")]) == 2
        want = {"not-json": "checkpoint header is not JSON",
                "float-h": "bad checkpoint config or vocab: h must be int",
                "bad-vocab": "bad checkpoint config or vocab: 'tokens'"}.get(
                    case, "checkpoint header lacks version, config or vocab")
        captured = capsys.readouterr()
        assert f"error: {ckpt}: {want}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    @pytest.mark.parametrize("case", ["unseen-token", "new-candidate",
                                      "no-examples"])
    def test_input_checked_before_output(self, workdir, tmp_path, capsys,
                                         command, case):
        """A file the checkpoint has no embedding rows for, or one with
        nothing to score, exits 2 before anything is printed."""
        lines = (workdir / "data" / "dev.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        if case == "unseen-token":
            record["document"] += ["zzz", "."]
        elif case == "new-candidate":
            record["candidates"].append(".")
        data = tmp_path / "case.jsonl"
        data.write_text("" if case == "no-examples"
                        else json.dumps(record) + "\n")
        argv = [command, "--checkpoint", str(workdir / "run" / "best.ckpt"),
                "--data", str(data)]
        if command == "inspect":
            argv += ["--example", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        want = {"unseen-token": "'zzz'", "new-candidate": "'.'",
                "no-examples": "no examples"}[case]
        assert want in captured.err

    def test_no_support_example_abstains(self, workdir, tmp_path, capsys):
        """An example none of whose candidates occurs in its document is
        counted wrong; stdout keeps its table and stderr names the count."""
        lines = (workdir / "data" / "dev.jsonl").read_text().splitlines()
        data = tmp_path / "holes.jsonl"
        data.write_text("\n".join([no_support_record(lines[0])]
                                  + lines[:4]) + "\n")
        scored = tmp_path / "scored.jsonl"
        scored.write_text("\n".join(lines[:4]) + "\n")
        ckpt = str(workdir / "run" / "best.ckpt")
        assert main(["eval", "--checkpoint", ckpt, "--data", str(scored),
                     "--hop-sweep", "1..2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        accs = [float(l.split("\t")[1])
                for l in captured.out.splitlines()[1:]]
        assert main(["eval", "--checkpoint", ckpt, "--data", str(data),
                     "--hop-sweep", "1..2"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "hops\taccuracy"
        assert [l.split("\t")[0] for l in lines[1:]] == ["1", "2"]
        for line, acc in zip(lines[1:], accs):
            assert float(line.split("\t")[1]) == pytest.approx(acc * 4 / 5,
                                                                abs=1e-4)
        assert "abstained: 1 of 5 examples" in captured.err

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_data_directory_exit_2(self, workdir, capsys, command):
        data = workdir / "data"
        argv = [command, "--checkpoint", str(workdir / "run" / "best.ckpt"),
                "--data", str(data)]
        if command == "inspect":
            argv += ["--example", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot read dataset {data}" in captured.err

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

    def test_out_is_directory_exit_2(self, workdir, tmp_path, capsys):
        """A trace path that cannot be written is refused before any
        output."""
        assert main(["inspect",
                     "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--example", "0", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write trace {tmp_path}" in captured.err

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

    def test_no_support_example_exit_2(self, workdir, tmp_path, capsys):
        lines = (workdir / "data" / "dev.jsonl").read_text().splitlines()
        data = tmp_path / "holes.jsonl"
        data.write_text(lines[0] + "\n" + no_support_record(lines[1]) + "\n")
        assert main(["inspect",
                     "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(data), "--example", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "example 1 has no support pair" in captured.err

    def test_example_out_of_range_exit_2(self, workdir, capsys):
        assert main(["inspect",
                     "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "data" / "dev.jsonl"),
                     "--example", "999"]) == 2


def test_no_support_examples_agree(workdir, tmp_path, capsys, monkeypatch):
    """`train()` leaves out, `evaluate()` abstains on and `inspect` refuses
    exactly the examples whose `positions` is empty."""
    lines = (workdir / "data" / "dev.jsonl").read_text().splitlines()[:6]
    data = tmp_path / "holes.jsonl"
    data.write_text("".join((no_support_record(l) if i in (1, 4) else l)
                            + "\n" for i, l in enumerate(lines)))
    ckpt = str(workdir / "run" / "best.ckpt")
    bundle = load_checkpoint(ckpt)
    dataset = load_dataset(data, vocab=bundle.vocab, name="holes")
    empty = [i for i, ex in enumerate(dataset.examples) if not ex.positions]
    assert empty == [1, 4]

    index = {id(ex): i for i, ex in enumerate(dataset.examples)}
    trained = []

    def spy(example, *args, **kwargs):
        trained.append(index[id(example)])
        return example_loss(example, *args, **kwargs)

    monkeypatch.setattr(train_module, "example_loss", spy)
    res = train_module.train(TrainConfig(**dict(TRAIN_CFG, max_epochs=1)),
                             dataset, dataset, evaluator=lambda p: 0.0)
    assert res.skipped == len(empty)
    assert sorted(trained) == [i for i in range(6) if i not in empty]

    ev = evaluate(bundle.params, dataset, 1)
    assert ev.abstained == len(empty)
    assert [i for i, p in enumerate(ev.predictions) if p is None] == empty

    refused = [i for i in range(6)
               if main(["inspect", "--checkpoint", ckpt, "--data", str(data),
                        "--example", str(i)]) == 2]
    assert refused == empty
    assert capsys.readouterr().err.count("has no support pair") == 2


CBT_CANDIDATES = ["mat", "dog", "hat", "sun"]


def cbt_passage(answer: str, support: bool = True) -> str:
    """A passage in the CBT layout: 20 numbered context lines, then the
    cloze line with answer and candidates. Its context names every
    candidate unless `support` is False."""
    lines = [f"{i} the {CBT_CANDIDATES[i % 4]} was here ." if support
             else f"{i} nothing was here ." for i in range(1, 21)]
    lines.append(f"21 the XXXXX was here .\t{answer}\t\t"
                 + "|".join(CBT_CANDIDATES))
    return "\n".join(lines)


def test_cbt_data_dir_end_to_end(tmp_path, capsys):
    """A data dir in the CBT layout, one of whose passages has no support
    pair, trains, evaluates and inspects with no format flag."""
    data = tmp_path / "cbt"
    data.mkdir()
    train_passages = [cbt_passage(CBT_CANDIDATES[i % 4]) for i in range(7)]
    train_passages.insert(3, cbt_passage("dog", support=False))
    (data / "train.jsonl").write_text("\n\n".join(train_passages) + "\n")
    (data / "dev.jsonl").write_text("\n\n".join(
        cbt_passage(a) for a in CBT_CANDIDATES) + "\n")
    cfg = write_json(tmp_path / "train.json", TRAIN_CFG)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", str(data),
                 "--out", str(run)]) == 0
    captured = capsys.readouterr()
    assert ("skipped: 1 of 8 training examples have no support pair"
            in captured.err)
    assert json.loads((run / "manifest.json").read_text())["skipped"] == 1
    ckpt = str(run / "best.ckpt")
    assert main(["eval", "--checkpoint", ckpt,
                 "--data", str(data / "train.jsonl")]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "hops\taccuracy"
    assert "abstained: 1 of 8 examples" in captured.err
    assert main(["inspect", "--checkpoint", ckpt,
                 "--data", str(data / "dev.jsonl"), "--example", "0"]) == 0
    assert "hop 1:" in capsys.readouterr().out


def test_readme_cli_lines_parse():
    """Every `hopqa ...` line of README's CLI block is a valid command, so a
    removed flag cannot linger in the docs."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    commands = [line.split() for line in block.split("```", 1)[0].splitlines()
                if line.startswith("hopqa ")]
    assert len(commands) >= 4
    parser = build_parser()
    for words in commands:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {' '.join(words)}")


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def train_in_subprocess(workdir, out, **blas_env):
    """`hopqa train` in a fresh interpreter whose environment holds no BLAS
    variable but `blas_env`; returns the BLAS variables it saw once
    `hopqa.cli` was imported, and the run's manifest."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas_env)
    env["PYTHONPATH"] = str(Path(hopqa.__file__).resolve().parents[1])
    code = ("import json, os, sys\n"
            "from hopqa.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_VARS}}}))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "train",
         "--config", str(workdir / "train.json"),
         "--data", str(workdir / "data"), "--out", str(out)],
        env=env, capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    return seen, json.loads((out / "manifest.json").read_text())


def test_blas_threads_pinned_to_one(workdir, tmp_path):
    """With no BLAS variable set, importing hopqa sets each to 1 before
    numpy loads, and the manifest says hopqa set them."""
    seen, manifest = train_in_subprocess(workdir, tmp_path / "run")
    assert seen == dict.fromkeys(BLAS_VARS, "1")
    assert manifest["blas_threads"] == {
        k: {"value": "1", "set_by": "hopqa"} for k in BLAS_VARS}


def test_blas_threads_user_value_kept(workdir, tmp_path):
    seen, manifest = train_in_subprocess(workdir, tmp_path / "run",
                                         OPENBLAS_NUM_THREADS="2")
    assert seen == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}
    assert manifest["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": {"value": "2", "set_by": "user"},
        "OMP_NUM_THREADS": {"value": "1", "set_by": "hopqa"},
        "MKL_NUM_THREADS": {"value": "1", "set_by": "hopqa"}}
