import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

import hopqa.train as train_module
from hopqa import autograd as ag
from hopqa.data import Dataset, SynthConfig, generate_splits, make_example
from hopqa.exceptions import ConfigError
from hopqa.model import init_params, make_params, param_shapes
from hopqa.train import (EVAL_BUDGET, TRAIN_BUDGET, Adam, RunState,
                         TrainConfig, chunk_size, evaluate, example_loss,
                         loss_from_scores, train)

from conftest import gru_gates, named_per_gate


@pytest.fixture(scope="module")
def tiny_task():
    cfg = SynthConfig(n_entities=12, n_relations=2, chain_length=1,
                      n_distractor_facts=1, n_examples=8, n_dev=4, n_test=4,
                      seed=3)
    return generate_splits(cfg)


def tiny_config(**kw):
    base = dict(h=4, hops=1, batch_size=4, checkpoint_every=100,
                max_epochs=3, dropout=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestLoss:
    def test_uniform_scores_log_n(self):
        loss = loss_from_scores(ag.constant(np.zeros(4)), 2)
        assert float(loss.data) == pytest.approx(np.log(4.0))

    def test_two_way_margin(self):
        # scores (2, 0), gold first: loss = log(1 + e^-2)
        loss = loss_from_scores(ag.constant([2.0, 0.0]), 0)
        assert float(loss.data) == pytest.approx(np.log1p(np.exp(-2.0)))

    def test_confident_gold_near_zero(self):
        loss = loss_from_scores(ag.constant([30.0, 0.0, 0.0]), 0)
        assert float(loss.data) < 1e-12

    def test_nonnegative(self, rng):
        for _ in range(50):
            s = rng.normal(scale=4.0, size=5)
            loss = loss_from_scores(ag.constant(s), int(rng.integers(5)))
            assert float(loss.data) >= 0.0


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # bias correction makes |update| = lr * g/sqrt(g^2) = lr at t=1
        w = ag.param(np.array([1.0, -2.0]), name="w")
        opt = Adam([("w", w)])
        w.grad[...] = [0.5, -3.0]
        opt.step(1, 0.1)
        assert np.allclose(w.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_quadratic_bowl_convergence(self):
        w = ag.param(np.array([5.0, -4.0]), name="w")
        opt = Adam([("w", w)])
        for t in range(1, 501):
            w.grad[...] = 2.0 * (w.data - 3.0)
            opt.step(t, 0.1)
        assert np.allclose(w.data, 3.0, atol=1e-3)

    def test_state_roundtrip_is_bit_exact(self, rng):
        w1 = ag.param(rng.normal(size=3), name="w")
        w2 = ag.param(w1.data.copy(), name="w")
        o1, o2 = Adam([("w", w1)]), Adam([("w", w2)])
        for t in range(1, 6):
            w1.grad[...] = w2.grad[...] = rng.normal(size=3)
            o1.step(t, 0.01)
            o2.step(t, 0.01)
        o2.m["w"][...], o2.v["w"][...] = o1.m["w"], o1.v["w"]
        w1.grad[...] = w2.grad[...] = rng.normal(size=3)
        o1.step(6, 0.01)
        o2.step(6, 0.01)
        assert np.array_equal(w1.data, w2.data)

    def test_non_finite_gradient_rejected(self):
        w = ag.param(np.zeros(2), name="w")
        opt = Adam([("w", w)])
        w.grad[...] = [1.0, np.nan]
        with pytest.raises(RuntimeError, match="w"):
            opt.step(1, 0.1)

    def test_refused_step_changes_nothing(self):
        """A non-finite gradient in a later parameter refuses the whole
        step: no parameter or moment moves, earlier parameters included."""
        a = ag.param(np.array([1.0, 1.0]), name="a")
        b = ag.param(np.array([2.0, 2.0]), name="b")
        opt = Adam([("a", a), ("b", b)])
        a.grad[...], b.grad[...] = [0.5, -1.0], [1.0, 3.0]
        opt.step(1, 0.1)
        before = moments(opt)
        values = [a.data.copy(), b.data.copy()]
        a.grad[...], b.grad[...] = [1.0, 1.0], [np.nan, 1.0]
        with pytest.raises(RuntimeError, match="'b'"):
            opt.step(2, 0.1)
        assert np.array_equal(a.data, values[0])
        assert np.array_equal(b.data, values[1])
        after = moments(opt)
        for key in ("m", "v"):
            for name in ("a", "b"):
                assert np.array_equal(after[key][name], before[key][name])

    def test_in_place_step_is_the_formula_bit_for_bit(self, rng):
        """The in-place update runs the textbook update's operations in
        their order, so every value is bit-identical to it."""
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        shapes = {"w": (3, 4), "s": ()}
        params = {n: ag.param(np.asarray(rng.normal(size=s)), name=n)
                  for n, s in shapes.items()}
        opt = Adam(list(params.items()))
        want = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        for t in range(1, 6):
            grads = {n: np.asarray(rng.normal(size=s))
                     for n, s in shapes.items()}
            for n, g in grads.items():
                params[n].grad[...] = g
            opt.step(t, lr)
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                want[n] = want[n] - lr * (m[n] / (1 - b1 ** t)) / (
                    np.sqrt(v[n] / (1 - b2 ** t)) + eps)
        for n, p in params.items():
            assert np.array_equal(p.data, want[n]), n
            assert np.array_equal(opt.m[n], m[n]), n
            assert np.array_equal(opt.v[n], v[n]), n


def moments(opt):
    """Copies of the Adam moments, {"m": {name: array}, "v": ...}."""
    return {k: {n: a.copy() for n, a in getattr(opt, k).items()}
            for k in ("m", "v")}


def adam_formula(params, grads, t, m, v, lr=0.01, b1=0.9, b2=0.999,
                 eps=1e-8):
    """One textbook Adam step per parameter, on copies."""
    out = {}
    for n, g in grads.items():
        m[n] = b1 * m[n] + (1 - b1) * g
        v[n] = b2 * v[n] + (1 - b2) * g * g
        out[n] = params[n] - lr * (m[n] / (1 - b1 ** t)) / (
            np.sqrt(v[n] / (1 - b2 ** t)) + eps)
    return out


class TestFlatAdam:
    """Adam over one buffer each for the parameters, the moments and the
    gradients, on a real parameter set."""

    @pytest.mark.parametrize("block", [7, Adam.BLOCK])
    @pytest.mark.parametrize("given", ["views", "flat"])
    def test_five_steps_are_the_formula(self, rng, monkeypatch, block,
                                        given):
        """Gradients written into the parameters' own `.grad` views or into
        the flat `Adam.grad` buffer they view, in blocks that split
        parameters or one block for all: bit for bit the per-parameter
        update, and the frozen identity E_o never moves."""
        monkeypatch.setattr(Adam, "BLOCK", block)
        p = init_params(4, 20, 5, rng, identity_eo=True)
        opt = Adam(list(p.trainable()))
        for _, t in p.trainable():
            assert np.shares_memory(t.grad, opt.grad)
        want = {n: t.data.copy() for n, t in p.trainable()}
        m = {n: np.zeros_like(a) for n, a in want.items()}
        v = {n: np.zeros_like(a) for n, a in want.items()}
        for t in range(1, 6):
            grads = {n: rng.normal(size=a.shape) for n, a in want.items()}
            if given == "views":
                for n, tensor in p.trainable():
                    tensor.grad[...] = grads[n]
            else:
                np.concatenate([grads[n].ravel() for n, _ in p.trainable()],
                               out=opt.grad)
            opt.step(t, 0.01)
            want = adam_formula(want, grads, t, m, v)
        for n, tensor in p.trainable():
            assert np.array_equal(tensor.data, want[n]), n
            assert np.array_equal(opt.m[n], m[n]), n
            assert np.array_equal(opt.v[n], v[n]), n
        assert np.array_equal(p.E_o.data, np.eye(5))

    def test_nan_refused_whole(self, rng, monkeypatch):
        """A NaN in one named gradient, in a later block than the first:
        the step is refused naming that parameter, and no parameter or
        moment moves."""
        monkeypatch.setattr(Adam, "BLOCK", 64)
        p = init_params(4, 20, 5, rng)
        opt = Adam(list(p.trainable()))
        for _, t in p.trainable():
            t.grad[...] = rng.normal(size=t.grad.shape)
        opt.step(1, 0.01)
        before = moments(opt)
        values = {n: t.data.copy() for n, t in p.trainable()}
        p.gru.U_h.grad[1, 1, 2] = np.nan
        with pytest.raises(RuntimeError, match="'gru.U_h'"):
            opt.step(2, 0.01)
        after = moments(opt)
        for n, t in p.trainable():
            assert np.array_equal(t.data, values[n]), n
            assert np.array_equal(after["m"][n], before["m"][n]), n
            assert np.array_equal(after["v"][n], before["v"][n]), n

    def test_replaced_data_refused(self):
        """Parameters are copied into the optimizer's buffer; a
        `.data` replaced after that would no longer be updated, so the
        step refuses."""
        w = ag.param(np.zeros(2), name="w")
        opt = Adam([("w", w)])
        w.data = np.ones(2)
        with pytest.raises(RuntimeError, match="replaced"):
            opt.step(1, 0.1)

    def test_replaced_grad_refused(self):
        """`step` reads the gradients in `Adam.grad`; a `.grad` replaced
        after the optimizer took the parameter would go unread, so the step
        refuses and nothing moves."""
        w = ag.param(np.zeros(2), name="w")
        opt = Adam([("w", w)])
        w.grad = np.ones(2)
        with pytest.raises(RuntimeError, match="replaced"):
            opt.step(1, 0.1)
        assert np.array_equal(w.data, np.zeros(2))
        assert not opt.m["w"].any() and not opt.v["w"].any()

    def test_backward_keeps_grad_views(self, tiny_task):
        """A non-accumulating backward zeroes each parameter's gradient in
        place: it stays a view of the optimizer's gradient buffer and holds
        that pass's gradient only."""
        tr, _, _ = tiny_task
        p = init_params(4, tr.vocab.size, tr.vocab.n_answers,
                        np.random.default_rng(1))
        opt = Adam(list(p.trainable()))
        views = {n: t.grad for n, t in p.trainable()}
        ag.backward(example_loss(tr.examples[0], p, tr.vocab, hops=1))
        once = opt.grad.copy()
        assert np.any(once)
        ag.backward(example_loss(tr.examples[0], p, tr.vocab, hops=1))
        assert np.array_equal(opt.grad, once)
        for n, t in p.trainable():
            assert t.grad is views[n], n


class TestChunkRule:
    def test_sizes(self):
        """Training chunks hold 16 x 256 examples x h and evaluation chunks
        128 x 256: 16 and 128 at h=256."""
        assert chunk_size(TRAIN_BUDGET, 256) == 16
        assert chunk_size(TRAIN_BUDGET, 16) == 256
        assert chunk_size(TRAIN_BUDGET, 4096) == 1
        assert chunk_size(EVAL_BUDGET, 256) == 128
        assert chunk_size(EVAL_BUDGET, 16) == 2048
        assert chunk_size(EVAL_BUDGET, 65536) == 1

    @pytest.mark.parametrize("h, batch, per_step",
                             [(16, 16, 1), (256, 16, 1), (256, 32, 2)])
    def test_backward_passes_per_step(self, monkeypatch, h, batch, per_step):
        """One taped chunk and one backward per Adam step at batch 16, at
        h=16 and at h=256; two at h=256 and batch 32."""
        tr, dev, _ = generate_splits(SynthConfig(
            chain_length=2, n_distractor_facts=2, n_examples=32, n_dev=4,
            n_test=1, seed=6))
        calls = {"backward": 0, "step": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(ag, "backward", counted("backward", ag.backward))
        monkeypatch.setattr(Adam, "step", counted("step", Adam.step))
        train(TrainConfig(h=h, hops=2, batch_size=batch, max_epochs=1,
                          dropout=0.0), tr, dev, evaluator=lambda p: 0.0)
        steps = 32 // batch
        assert calls == {"backward": steps * per_step, "step": steps}


    def test_chunk_tape_freed_before_next_chunk(self, monkeypatch):
        """No chunk's tape outlives its backward pass: when a chunk's
        `encode_batch` is entered, the previous chunk's node is gone, within
        a step (chunks of 4, batch 8) and across steps."""
        tr, dev, _ = generate_splits(SynthConfig(
            chain_length=2, n_distractor_facts=2, n_examples=24, n_dev=2,
            n_test=1, seed=6))
        refs, alive = [], []
        encode = train_module.encode_batch

        def watched(*args, **kwargs):
            alive.append([r() is not None for r in refs])
            node = encode(*args, **kwargs)
            refs.append(weakref.ref(node))
            return node

        monkeypatch.setattr(train_module, "TRAIN_BUDGET", 4 * 8)
        monkeypatch.setattr(train_module, "encode_batch", watched)
        train(TrainConfig(h=8, hops=2, batch_size=8, max_epochs=1,
                          dropout=0.2), tr, dev, evaluator=lambda p: 0.0)
        assert len(refs) == 6
        assert alive == [[False] * k for k in range(6)]


class TestInitStatistics:
    def test_embedding_stddev(self):
        p = init_params(16, 400, 50, np.random.default_rng(0))
        assert np.std(p.E_i.data) == pytest.approx(0.1, abs=0.005)
        assert np.mean(p.E_i.data) == pytest.approx(0.0, abs=0.005)

    def test_update_gate_bias_ones(self):
        p = init_params(8, 20, 5, np.random.default_rng(0))
        for gru in (gru_gates(p.gru, 0), gru_gates(p.gru, 1)):
            assert np.array_equal(gru["b_z"], np.ones(8))
            assert np.array_equal(gru["b_r"], np.zeros(8))
            assert np.array_equal(gru["b_h"], np.zeros(8))

    def test_glorot_bounds(self):
        h = 8
        p = init_params(h, 20, 5, np.random.default_rng(0))
        bound = np.sqrt(6.0 / (h + h))
        assert np.max(np.abs(gru_gates(p.gru, 0)["U_z"])) <= bound

    def test_wq_noisy_stacked_identity(self):
        p = init_params(8, 20, 5, np.random.default_rng(0))
        expected = np.concatenate([np.eye(8), np.eye(8)], axis=1)
        assert np.max(np.abs(p.W_q.data - expected)) < 0.6  # 0.1-std noise

    def test_identity_eo_frozen_and_excluded(self):
        p = init_params(8, 20, 5, np.random.default_rng(0), identity_eo=True)
        assert np.array_equal(p.E_o.data, np.eye(5))
        assert "E_o" not in dict(p.trainable())
        assert "E_o" in dict(p.named())


class TestMakeParams:
    def test_init_draws_pinned(self):
        """Digest of every parameter's name, shape and bytes, recorded from
        the code that drew and wrapped each tensor one by one: the draw
        order E_i, E_o, gru_f, gru_b, W_q, U_q_c, U_q_g, U_a_q, u_a_g. The
        GRU is digested as per-gate views under its old names."""
        digest = hashlib.sha256()
        for identity_eo in (False, True):
            p = init_params(5, 11, 4, np.random.default_rng(123),
                            identity_eo=identity_eo, embed_init_stddev=0.3)
            for name, t in p.named():
                assert t.name == name
            for name, a in named_per_gate(p):
                digest.update(name.encode())
                digest.update(str(a.shape).encode())
                digest.update(a.tobytes())
        assert digest.hexdigest() == ("09309d8825837db9895b6a1e6774ba9a"
                                      "9a3110a83e2062f4021072edd30ae729")

    @pytest.mark.parametrize("identity_eo", [False, True])
    def test_wraps_arrays_in_named_order(self, identity_eo):
        p = init_params(4, 20, 5, np.random.default_rng(0),
                        identity_eo=identity_eo)
        arrays = {n: t.data for n, t in p.named()}
        q = make_params(arrays, 4, 20, 5, identity_eo)
        assert [n for n, _ in q.named()] == list(
            param_shapes(4, 20, 5, identity_eo))
        assert all(t.data is arrays[n] and t.is_param for n, t in q.named())

    def test_wrong_shape_names_parameter_and_shapes(self):
        arrays = {n: t.data for n, t in init_params(
            4, 20, 5, np.random.default_rng(0)).named()}
        with pytest.raises(ConfigError,
                           match=r"'E_i' has shape \(20, 4\), expected "
                                 r"\(20, 3\)"):
            make_params(arrays, 3, 20, 5)
        arrays["E_o"] = np.eye(5)  # the identity table needs identity_eo
        with pytest.raises(ConfigError, match="'E_o'"):
            make_params(arrays, 4, 20, 5)
        del arrays["b_a"]
        with pytest.raises(ConfigError, match="'b_a' missing"):
            make_params(arrays, 4, 20, 5, identity_eo=True)


class TestEvaluate:
    def test_deterministic(self, tiny_task):
        tr, dev, _ = tiny_task
        p = init_params(4, tr.vocab.size, tr.vocab.n_answers,
                        np.random.default_rng(1))
        r1 = evaluate(p, dev, hops=1)
        r2 = evaluate(p, dev, hops=1)
        assert r1.accuracy == r2.accuracy
        assert r1.predictions == r2.predictions
        assert len(r1.predictions) == len(dev.examples)

    def test_subsample(self, tiny_task):
        tr, dev, _ = tiny_task
        p = init_params(4, tr.vocab.size, tr.vocab.n_answers,
                        np.random.default_rng(1))
        r = evaluate(p, dev, hops=1, max_examples=2)
        assert len(r.predictions) == 2

    def test_negative_subsample_rejected(self, tiny_task):
        """A negative count would slice `examples[:-k]` and score the rest."""
        tr, dev, _ = tiny_task
        p = init_params(4, tr.vocab.size, tr.vocab.n_answers,
                        np.random.default_rng(1))
        with pytest.raises(ConfigError, match="max_examples"):
            evaluate(p, dev, hops=1, max_examples=-1)


class TestSingleStep:
    def test_one_adam_step_reduces_loss(self, tiny_task):
        tr, _, _ = tiny_task
        ex = tr.examples[0]
        p = init_params(4, tr.vocab.size, tr.vocab.n_answers,
                        np.random.default_rng(2))
        opt = Adam(list(p.trainable()))
        before = example_loss(ex, p, tr.vocab, hops=1)
        ag.backward(before)
        opt.step(1, 1e-4)
        after = example_loss(ex, p, tr.vocab, hops=1)
        assert float(after.data) < float(before.data)


class TestSchedule:
    """The lr-halving and stopping rules, pinned with scripted evaluators."""

    def run_scripted(self, tiny_task, accs, **cfg_kw):
        tr, dev, _ = tiny_task
        it = iter(accs)

        def evaluator(_params):
            return next(it)
        return train(tiny_config(**cfg_kw), tr, dev, evaluator=evaluator)

    def test_epoch_drop_halves_then_stops(self, tiny_task):
        # only epoch-boundary evals (checkpoint_every > steps/epoch)
        res = self.run_scripted(tiny_task, [0.5, 0.4, 0.9], max_epochs=3)
        assert res.epochs_run == 2  # stopped after the drop
        assert res.state.lr == pytest.approx(0.001 / 2)
        assert res.best_acc == 0.5

    def test_no_halving_before_one_epoch(self, tiny_task):
        # 8 examples, batch 4 -> 2 steps/epoch; eval every step
        res = self.run_scripted(tiny_task, [0.5, 0.4, 0.6, 0.7, 0.8, 0.9],
                                checkpoint_every=1, max_epochs=2)
        # the drop at step 2 happens with epochs_done=0: no halving
        assert res.state.lr == pytest.approx(0.001)
        assert res.epochs_run == 2

    def test_mid_epoch_drop_halves_after_first_epoch(self, tiny_task):
        # rises through epoch 1, drops mid-epoch 2, recovers
        res = self.run_scripted(tiny_task, [0.1, 0.2, 0.3, 0.25, 0.35, 0.4],
                                checkpoint_every=1, max_epochs=2)
        assert res.state.lr == pytest.approx(0.001 / 2)
        assert res.epochs_run == 2  # epoch accs 0.3 -> 0.4 never dropped

    def test_monotone_improvement_runs_to_max_epochs(self, tiny_task):
        res = self.run_scripted(tiny_task, [0.3, 0.6, 0.9], max_epochs=3)
        assert res.epochs_run == 3
        assert res.state.lr == pytest.approx(0.001)
        assert res.best_acc == 0.9

    def test_best_checkpoint_wins_not_last(self, tiny_task):
        res = self.run_scripted(tiny_task, [0.9, 0.2], max_epochs=2)
        assert res.best_acc == 0.9
        assert res.state.best_epoch == 1
        # best params were snapshotted before the second epoch ran
        assert any(not np.array_equal(a.data, b.data)
                   for (_, a), (_, b) in zip(res.best_params.named(),
                                             res.final_params.named()))

    def test_metrics_logged_per_eval(self, tiny_task):
        res = self.run_scripted(tiny_task, [0.3, 0.6, 0.9], max_epochs=3)
        assert len(res.metrics) == 3
        assert [m["dev_acc"] for m in res.metrics] == [0.3, 0.6, 0.9]
        assert all(m["train_loss"] > 0 for m in res.metrics)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        for kw in ({"h": 0}, {"batch_size": 0}, {"dropout": 1.0},
                   {"dropout": -0.1}, {"lr0": 0.0}, {"max_epochs": 0},
                   {"dev_subsample": -7}):
            with pytest.raises(ConfigError):
                tiny_config(**kw)

    @pytest.mark.parametrize("field,value,kind", [
        ("h", 4.5, "int"), ("hops", 1.5, "int"), ("seed", "0", "int"),
        ("checkpoint_every", True, "int"), ("dev_subsample", 0.0, "int"),
        ("identity_eo", "yes", "bool"), ("identity_eo", 1, "bool"),
        ("dropout", "0.2", "float"), ("lr0", True, "float")])
    def test_wrong_types_rejected(self, field, value, kind):
        with pytest.raises(ConfigError, match=f"{field} must be {kind}"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field", ["lr0", "dropout",
                                       "embed_init_stddev"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_floats_rejected(self, field, value):
        """A NaN or infinity in a float field would train to a non-finite
        gradient (exit 1) or pass unnoticed in evaluation."""
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            tiny_config(**{field: value})

    def test_oversize_parameter_set_refused_before_allocating(
            self, tiny_task, monkeypatch):
        """At h=10^11 the parameters alone would take terabytes: the run
        is refused from their shapes, and no parameter is drawn."""
        tr, dev, _ = tiny_task
        monkeypatch.setattr(train_module, "init_params", None)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^h=100000000000 needs "
                               r"[\d,.]+ GiB for the parameters"):
                train(tiny_config(h=10 ** 11), tr, dev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_empty_dataset_rejected(self, tiny_task):
        tr, dev, _ = tiny_task
        from hopqa.data import Dataset
        empty = Dataset(name="empty", examples=[], vocab=tr.vocab)
        with pytest.raises(ConfigError):
            train(tiny_config(), empty, dev)


def without_support(ex, vocab):
    """`ex` with every candidate occurrence dropped from its document, so it
    has no support pair."""
    cands = [vocab.tokens[c] for c in ex.candidates]
    return make_example(vocab, [t for t in ex.document.raw_tokens
                                if t not in cands],
                        ex.query.raw_tokens, cands, vocab.tokens[ex.gold],
                        "no-support example")


class TestNoSupport:
    def test_example_skipped_and_counted(self, tiny_task):
        """An example with no support pair is left out before the first
        epoch: the run is the one on the other examples, bit for bit."""
        tr, dev, _ = tiny_task
        holed = Dataset(name="holed", vocab=tr.vocab, examples=[
            without_support(tr.examples[0], tr.vocab)] + tr.examples)
        ref = train(tiny_config(max_epochs=2), tr, dev)
        res = train(tiny_config(max_epochs=2), holed, dev)
        assert (ref.skipped, res.skipped) == (0, 1)
        assert res.metrics == ref.metrics
        for (name, a), (_, b) in zip(ref.final_params.named(),
                                     res.final_params.named()):
            assert np.array_equal(a.data, b.data), name

    def test_no_trainable_example_rejected(self, tiny_task):
        tr, dev, _ = tiny_task
        holed = Dataset(name="holed", vocab=tr.vocab, examples=[
            without_support(ex, tr.vocab) for ex in tr.examples[:3]])
        with pytest.raises(ConfigError, match="none of the 3 training "
                           "examples has a support pair"):
            train(tiny_config(), holed, dev)


class TestEndToEndSmoke:
    def test_loss_decreases_on_tiny_task(self, tiny_task):
        tr, dev, _ = tiny_task
        res = train(tiny_config(max_epochs=3, checkpoint_every=100), tr, dev)
        losses = [m["train_loss"] for m in res.metrics]
        assert losses[-1] < losses[0]
        assert 0.0 <= res.best_acc <= 1.0


class TestRunStateChecks:
    """`RunState` refuses a bad value when it is made, so a damaged
    checkpoint header and a bad resume state fail in one place."""

    @pytest.mark.parametrize("field", ["step", "epochs_run", "best_step",
                                       "best_epoch"])
    @pytest.mark.parametrize("value", [-1, True, "3", 2.0])
    def test_bad_count_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            RunState(**{field: value})

    @pytest.mark.parametrize("value", [0, -0.5, np.nan, np.inf, -np.inf,
                                       "0.1", None])
    def test_bad_lr_refused(self, value):
        with pytest.raises(ConfigError, match="^lr must be"):
            RunState(lr=value)

    @pytest.mark.parametrize("field", ["best_acc", "last_ckpt_acc",
                                       "prev_epoch_acc"])
    def test_non_finite_accuracy_refused(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            RunState(**{field: np.nan})

    @pytest.mark.parametrize("value", [
        {}, {"bit_generator": "MT19937", "state": {"key": [], "pos": 0}},
        {"bit_generator": "PCG64", "state": {"state": 1}}, [1, 2]])
    def test_bad_rng_state_refused(self, value):
        with pytest.raises(ConfigError, match="rng_state"):
            RunState(rng_state=value)
