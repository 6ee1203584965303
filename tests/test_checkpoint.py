import json
import re
from dataclasses import replace

import numpy as np
import pytest

from hopqa.checkpoint import load_checkpoint, save_checkpoint
from hopqa.data import SynthConfig, generate_splits
from hopqa.exceptions import ConfigError, DataError
from hopqa.model import init_params
from hopqa.train import Adam, RunState, TrainConfig, evaluate, train


@pytest.fixture(scope="module")
def tiny():
    cfg = SynthConfig(n_entities=12, n_relations=2, chain_length=1,
                      n_distractor_facts=1, n_examples=6, n_dev=6, n_test=2,
                      seed=5)
    return generate_splits(cfg)


def make_state(tiny, identity_eo=False, with_opt=True):
    tr, _, _ = tiny
    config = TrainConfig(h=4, hops=2, batch_size=4, identity_eo=identity_eo)
    params = init_params(4, tr.vocab.size, tr.vocab.n_answers,
                         np.random.default_rng(9), identity_eo=identity_eo)
    opt = None
    if with_opt:
        opt = Adam(list(params.trainable()))
        rng = np.random.default_rng(3)
        for t in range(1, 4):
            for _, p in params.trainable():
                p.grad[...] = rng.normal(size=p.data.shape)
            opt.step(t, 0.001)
    return config, params, tr.vocab, opt


def recorded_run(params, **scalars):
    """A `RunState` at step 3 (the steps `make_state` takes) that recorded
    one measurement, so it holds the best snapshot a resumable checkpoint
    needs."""
    run = RunState(**{"step": 3, "rng_state": np.random.default_rng(3)
                      .bit_generator.state, **scalars})
    run.record(0.5, True, params)
    return run


class TestRoundTrip:
    def test_params_bit_exact(self, tiny, tmp_path):
        config, params, vocab, opt = make_state(tiny)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab,
                        optimizer=opt, run=recorded_run(params),
                        meta={"step": 3})
        bundle = load_checkpoint(path)
        for (n1, t1), (n2, t2) in zip(params.named(),
                                      bundle.params.named()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data), n1

    def test_optimizer_moments_bit_exact(self, tiny, tmp_path):
        config, params, vocab, opt = make_state(tiny)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab,
                        optimizer=opt, run=recorded_run(params))
        bundle = load_checkpoint(path)
        assert bundle.run.step == 3
        assert bundle.run.lr == 0.001
        for name in opt.m:
            assert np.array_equal(bundle.optimizer_state["m"][name],
                                  opt.m[name])
            assert np.array_equal(bundle.optimizer_state["v"][name],
                                  opt.v[name])

    def test_config_vocab_meta_roundtrip(self, tiny, tmp_path):
        config, params, vocab, _ = make_state(tiny, with_opt=False)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab,
                        meta={"note": "x", "dev_acc": 0.5})
        bundle = load_checkpoint(path)
        assert bundle.config == config
        assert bundle.vocab == vocab
        assert bundle.meta == {"note": "x", "dev_acc": 0.5}
        assert bundle.optimizer_state is None
        assert bundle.run is None

    def test_run_state_bit_exact(self, tiny, tmp_path):
        config, params, vocab, opt = make_state(tiny)
        run = RunState(step=7, epochs_run=2, last_ckpt_acc=0.25,
                       prev_epoch_acc=None, best_acc=0.5, best_step=4,
                       best_epoch=1,
                       rng_state=np.random.default_rng(3).bit_generator.state)
        run.record(0.75, True, params)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab,
                        optimizer=opt, run=run)
        loaded = load_checkpoint(path).run
        assert loaded.best.keys() == run.best.keys()
        for name, a in run.best.items():
            assert np.array_equal(loaded.best[name], a), name
        loaded.best = run.best = None
        assert loaded == run

    def test_int_rate_and_accuracies_load(self, tiny, tmp_path):
        """An int learning rate (from an int `lr0`) and int accuracies (from
        a custom evaluator) are numbers the header check takes."""
        config, params, vocab, _ = make_state(tiny, with_opt=False)
        opt = Adam(list(params.trainable()))
        run = RunState(lr=1,
                       rng_state=np.random.default_rng(3).bit_generator.state)
        run.record(0, True, params)
        run.record(1, False, params)
        assert (run.last_ckpt_acc, run.prev_epoch_acc, run.best_acc) == \
            (1, 0, 1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab,
                        optimizer=opt, run=run)
        bundle = load_checkpoint(path)
        assert bundle.run.lr == 1
        bundle.run.best = run.best = None
        assert bundle.run == run

    def test_identity_mode_preserved(self, tiny, tmp_path):
        config, params, vocab, opt = make_state(tiny, identity_eo=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab,
                        optimizer=opt, run=recorded_run(params))
        bundle = load_checkpoint(path)
        assert bundle.params.identity_eo
        assert np.array_equal(bundle.params.E_o.data,
                              np.eye(vocab.n_answers))
        assert "E_o" not in bundle.optimizer_state["m"]

    def test_evaluation_identical_after_roundtrip(self, tiny, tmp_path):
        _, dev, _ = tiny
        config, params, vocab, _ = make_state(tiny, with_opt=False)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab)
        bundle = load_checkpoint(path)
        before = evaluate(params, dev, hops=2)
        after = evaluate(bundle.params, dev, hops=2)
        assert before.accuracy == after.accuracy
        assert before.predictions == after.predictions


class TestAtomicWrite:
    def test_failed_write_keeps_old_file(self, tiny, tmp_path, monkeypatch):
        """`np.savez` raising after it wrote part of the arrays leaves the
        previous checkpoint byte-identical and no temporary file behind."""
        config, params, vocab, opt = make_state(tiny)
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab)
        old = path.read_bytes()
        real_savez = np.savez

        def savez_then_fail(f, **arrays):
            real_savez(f, **dict(list(arrays.items())[:3]))
            assert f.tell() > 0
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, config=config, params=params, vocab=vocab,
                            optimizer=opt, run=recorded_run(params))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_overwrite_replaces_whole_file(self, tiny, tmp_path):
        config, params, vocab, opt = make_state(tiny)
        path = tmp_path / "last.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab)
        save_checkpoint(str(path), config=config, params=params, vocab=vocab,
                        optimizer=opt, run=recorded_run(params))
        assert load_checkpoint(path).run.step == 3
        assert [p.name for p in tmp_path.iterdir()] == ["last.ckpt"]


class TestValidation:
    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_unsupported_version(self, tiny, tmp_path, version):
        """Version 1 kept the step count and learning rate in an
        `optimizer` header part, and versions 1 and 2 stored the GRU as
        nine per-gate arrays per direction; no reader is kept for them."""
        config, params, vocab, _ = make_state(tiny, with_opt=False)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab)
        # rewrite the header with another version
        arrays = dict(np.load(path, allow_pickle=False))
        header = json.loads(str(arrays["header"]))
        header["version"] = version
        arrays["header"] = np.array(json.dumps(header))
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        with pytest.raises(ValueError, match=f"version {version}"):
            load_checkpoint(path)

    def test_optional_header_keys(self, tiny, tmp_path):
        """Only version, config and vocab are required; a header without
        run or meta loads as a checkpoint with none of them."""
        config, params, vocab, _ = make_state(tiny, with_opt=False)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab)
        arrays = dict(np.load(path, allow_pickle=False))
        header = json.loads(str(arrays["header"]))
        for key in ("run", "meta"):
            del header[key]
        arrays["header"] = np.array(json.dumps(header))
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        bundle = load_checkpoint(path)
        assert (bundle.optimizer_state, bundle.run, bundle.meta) == \
            (None, None, {})
        assert bundle.config == config and bundle.vocab == vocab

    @pytest.mark.parametrize("given", ["optimizer", "run", "unrecorded"])
    def test_resumable_parts_saved_together(self, tiny, tmp_path, given):
        """The run header, the best snapshot and the Adam moments are
        written together or not at all: a save with only some of them, or
        with a run that recorded no measurement, writes nothing."""
        config, params, vocab, opt = make_state(tiny)
        parts = {"optimizer": {"optimizer": opt},
                 "run": {"run": recorded_run(params)},
                 "unrecorded": {"optimizer": opt, "run": RunState()}}[given]
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="resumable checkpoint needs"):
            save_checkpoint(path, config=config, params=params, vocab=vocab,
                            **parts)
        assert list(tmp_path.iterdir()) == []

    def test_resume_requires_optimizer(self, tiny, tmp_path):
        tr, dev, _ = tiny
        config, params, vocab, _ = make_state(tiny, with_opt=False)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab)
        bundle = load_checkpoint(path)
        with pytest.raises(ConfigError, match="optimizer.*last.ckpt"):
            train(config, tr, dev, resume=bundle)


class TestReadOnly:
    """A loaded checkpoint's arrays are read-only, so a stray in-place write
    to a loaded model raises instead of changing it silently."""

    def test_in_place_write_raises(self, tiny, tmp_path):
        path = tmp_path / "m.ckpt"
        resumable(tiny, path)
        bundle = load_checkpoint(path)
        arrays = [t.data for _, t in bundle.params.named()]
        arrays += [*bundle.run.best.values(),
                   *bundle.optimizer_state["m"].values(),
                   *bundle.optimizer_state["v"].values()]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0

    def test_resume_trains_a_copy(self, tiny, tmp_path):
        """`train(resume=)` trains writable copies and leaves the loaded
        bundle's arrays bit-unchanged."""
        tr, dev, _ = tiny
        path = tmp_path / "m.ckpt"
        resumable(tiny, path)
        bundle = load_checkpoint(path)

        def digest():
            return ({n: t.data.tobytes() for n, t in bundle.params.named()},
                    {m: {n: a.tobytes() for n, a in named.items()}
                     for m, named in bundle.optimizer_state.items()})

        saved = digest()
        result = train(replace(bundle.config, max_epochs=1), tr, dev,
                       resume=bundle)
        assert result.state.epochs_run == 1
        assert result.state.step > bundle.run.step
        final = dict(result.final_params.named())
        assert all(t.data.flags.writeable for t in final.values())
        assert any(final[n].data.tobytes() != b for n, b in saved[0].items())
        assert digest() == saved

def resumable(tiny, path):
    """A resumable checkpoint at `path` (Adam moments, run state and a best
    snapshot); returns its arrays and its header, parsed."""
    config, params, vocab, opt = make_state(tiny)
    run = RunState(last_ckpt_acc=0.25, prev_epoch_acc=0.5,
                   rng_state=np.random.default_rng(3).bit_generator.state)
    run.record(0.5, True, params)
    save_checkpoint(path, config=config, params=params, vocab=vocab,
                    optimizer=opt, run=run)
    arrays = dict(np.load(path, allow_pickle=False))
    return arrays, json.loads(str(arrays["header"]))


def rewrite(path, arrays, header):
    arrays["header"] = np.array(json.dumps(header))
    with open(path, "wb") as f:
        np.savez(f, **arrays)


class TestNonFinite:
    """A NaN or an infinity anywhere a loaded value is read from would make
    evaluation print a wrong accuracy, or training resume from garbage, with
    exit 0; each is refused naming the file and the array or key."""

    @pytest.mark.parametrize("key", ["param/W_q", "param/gru.U_h",
                                     "adam_m/E_i", "adam_v/b_a", "best/U_q_c"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_array_refused(self, tiny, tmp_path, key, value):
        path = tmp_path / "m.ckpt"
        arrays, header = resumable(tiny, path)
        arrays[key] = arrays[key].copy()
        arrays[key].flat[0] = value
        rewrite(path, arrays, header)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: checkpoint array {key} holds a non-finite value")):
            load_checkpoint(path)

    @pytest.mark.parametrize("part,key,value", [
        ("run", "lr", float("inf")), ("run", "best_acc", float("nan")),
        ("run", "last_ckpt_acc", float("inf")),
        ("run", "prev_epoch_acc", float("-inf"))])
    def test_header_number_refused(self, tiny, tmp_path, part, key, value):
        path = tmp_path / "m.ckpt"
        arrays, header = resumable(tiny, path)
        header[part][key] = value
        rewrite(path, arrays, header)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: checkpoint header key {part}.{key}: bad value")):
            load_checkpoint(path)
