import json

import numpy as np
import pytest

from hopqa.checkpoint import load_checkpoint, save_checkpoint
from hopqa.data import SynthConfig, generate_splits
from hopqa.exceptions import ConfigError
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
        opt = Adam(list(params.trainable()), lr=0.001)
        rng = np.random.default_rng(3)
        for _ in range(3):
            opt.step({n: rng.normal(size=p.data.shape)
                      for n, p in params.trainable()})
    return config, params, tr.vocab, opt


class TestRoundTrip:
    def test_params_bit_exact(self, tiny, tmp_path):
        config, params, vocab, opt = make_state(tiny)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab,
                        optimizer=opt, meta={"step": 3})
        bundle = load_checkpoint(path)
        for (n1, t1), (n2, t2) in zip(params.named(),
                                      bundle.params.named()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data), n1

    def test_optimizer_moments_bit_exact(self, tiny, tmp_path):
        config, params, vocab, opt = make_state(tiny)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab,
                        optimizer=opt)
        bundle = load_checkpoint(path)
        state = opt.state_dict()
        assert bundle.optimizer_state["t"] == 3
        assert bundle.optimizer_state["lr"] == 0.001
        for name in state["m"]:
            assert np.array_equal(bundle.optimizer_state["m"][name],
                                  state["m"][name])
            assert np.array_equal(bundle.optimizer_state["v"][name],
                                  state["v"][name])

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
        opt = Adam(list(params.trainable()), lr=1)
        run = RunState(last_ckpt_acc=1, prev_epoch_acc=0, best_acc=1,
                       rng_state=np.random.default_rng(3).bit_generator.state)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab,
                        optimizer=opt, run=run)
        bundle = load_checkpoint(path)
        assert bundle.optimizer_state["lr"] == 1
        assert bundle.run == run

    def test_identity_mode_preserved(self, tiny, tmp_path):
        config, params, vocab, opt = make_state(tiny, identity_eo=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab,
                        optimizer=opt)
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
                            optimizer=opt)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_overwrite_replaces_whole_file(self, tiny, tmp_path):
        config, params, vocab, opt = make_state(tiny)
        path = tmp_path / "last.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab)
        save_checkpoint(str(path), config=config, params=params, vocab=vocab,
                        optimizer=opt)
        assert load_checkpoint(path).optimizer_state["t"] == 3
        assert [p.name for p in tmp_path.iterdir()] == ["last.ckpt"]


class TestValidation:
    def test_unsupported_version(self, tiny, tmp_path):
        config, params, vocab, _ = make_state(tiny, with_opt=False)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab)
        # rewrite the header with a bogus version
        arrays = dict(np.load(path, allow_pickle=False))
        header = json.loads(str(arrays["header"]))
        header["version"] = 99
        arrays["header"] = np.array(json.dumps(header))
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_optional_header_keys(self, tiny, tmp_path):
        """Only version, config and vocab are required; a header without
        optimizer, run or meta loads as a checkpoint with none of them."""
        config, params, vocab, _ = make_state(tiny, with_opt=False)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab)
        arrays = dict(np.load(path, allow_pickle=False))
        header = json.loads(str(arrays["header"]))
        for key in ("optimizer", "run", "meta"):
            del header[key]
        arrays["header"] = np.array(json.dumps(header))
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        bundle = load_checkpoint(path)
        assert (bundle.optimizer_state, bundle.run, bundle.meta) == \
            (None, None, {})
        assert bundle.config == config and bundle.vocab == vocab

    def test_resume_requires_optimizer(self, tiny, tmp_path):
        tr, dev, _ = tiny
        config, params, vocab, _ = make_state(tiny, with_opt=False)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config=config, params=params, vocab=vocab)
        bundle = load_checkpoint(path)
        with pytest.raises(ConfigError, match="optimizer.*last.ckpt"):
            train(config, tr, dev, resume=bundle)
