import hashlib

import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.data import Dataset, SynthConfig, generate_splits, make_example
from hopqa.exceptions import ConfigError
from hopqa.model import init_params, make_params, param_shapes
from hopqa.train import (EVAL_BUDGET, TRAIN_BUDGET, Adam, TrainConfig,
                         chunk_size, evaluate, example_loss, loss_from_scores,
                         train)


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
        opt = Adam([("w", w)], lr=0.1)
        opt.step({"w": np.array([0.5, -3.0])})
        assert np.allclose(w.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_quadratic_bowl_convergence(self):
        w = ag.param(np.array([5.0, -4.0]), name="w")
        opt = Adam([("w", w)], lr=0.1)
        for _ in range(500):
            opt.step({"w": 2.0 * (w.data - 3.0)})
        assert np.allclose(w.data, 3.0, atol=1e-3)

    def test_state_roundtrip_is_bit_exact(self, rng):
        w1 = ag.param(rng.normal(size=3), name="w")
        w2 = ag.param(w1.data.copy(), name="w")
        o1, o2 = Adam([("w", w1)], lr=0.01), Adam([("w", w2)], lr=0.01)
        for _ in range(5):
            g = rng.normal(size=3)
            o1.step({"w": g})
            o2.step({"w": g})
        o2.load_state(o1.state_dict())
        g = rng.normal(size=3)
        o1.step({"w": g})
        o2.step({"w": g})
        assert np.array_equal(w1.data, w2.data)
        assert o1.t == o2.t

    def test_non_finite_gradient_rejected(self):
        w = ag.param(np.zeros(2), name="w")
        opt = Adam([("w", w)], lr=0.1)
        with pytest.raises(RuntimeError, match="w"):
            opt.step({"w": np.array([1.0, np.nan])})

    def test_refused_step_changes_nothing(self):
        """A non-finite gradient in a later parameter refuses the whole
        step: no parameter, moment or step count moves, earlier parameters
        included."""
        a = ag.param(np.array([1.0, 1.0]), name="a")
        b = ag.param(np.array([2.0, 2.0]), name="b")
        opt = Adam([("a", a), ("b", b)], lr=0.1)
        opt.step({"a": np.array([0.5, -1.0]), "b": np.array([1.0, 3.0])})
        before = opt.state_dict()
        values = [a.data.copy(), b.data.copy()]
        with pytest.raises(RuntimeError, match="'b'"):
            opt.step({"a": np.array([1.0, 1.0]),
                      "b": np.array([np.nan, 1.0])})
        assert np.array_equal(a.data, values[0])
        assert np.array_equal(b.data, values[1])
        after = opt.state_dict()
        assert (after["t"], after["lr"]) == (before["t"], before["lr"]) \
            == (1, 0.1)
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
        opt = Adam(list(params.items()), lr=lr)
        want = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        for t in range(1, 6):
            grads = {n: np.asarray(rng.normal(size=s))
                     for n, s in shapes.items()}
            opt.step(grads)
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                want[n] = want[n] - lr * (m[n] / (1 - b1 ** t)) / (
                    np.sqrt(v[n] / (1 - b2 ** t)) + eps)
        for n, p in params.items():
            assert np.array_equal(p.data, want[n]), n
            assert np.array_equal(opt.m[n], m[n]), n
            assert np.array_equal(opt.v[n], v[n]), n


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
    @pytest.mark.parametrize("given", ["views", "fresh", "reused"])
    def test_five_steps_are_the_formula(self, rng, monkeypatch, block,
                                        given):
        """Gradients given as the parameters' own `.grad` views (read in
        place), as new separate arrays at each step or as the same separate
        arrays refilled (copied each step), in blocks that split parameters
        or one block for all: bit for bit the per-parameter update, and the
        frozen identity E_o never moves."""
        monkeypatch.setattr(Adam, "BLOCK", block)
        p = init_params(4, 20, 5, rng, identity_eo=True)
        opt = Adam(list(p.trainable()), lr=0.01)
        for _, t in p.trainable():
            assert np.shares_memory(t.grad, opt.grad)
        want = {n: t.data.copy() for n, t in p.trainable()}
        m = {n: np.zeros_like(a) for n, a in want.items()}
        v = {n: np.zeros_like(a) for n, a in want.items()}
        reused = {n: np.empty(a.shape) for n, a in want.items()}
        for t in range(1, 6):
            grads = {n: rng.normal(size=a.shape) for n, a in want.items()}
            if given == "views":
                for n, tensor in p.trainable():
                    tensor.grad[...] = grads[n]
                opt.step({n: tensor.grad for n, tensor in p.trainable()})
            elif given == "reused":
                for n, a in reused.items():
                    a[...] = grads[n]
                opt.step(reused)
            else:
                opt.step(grads)
            want = adam_formula(want, grads, t, m, v)
        for n, tensor in p.trainable():
            assert np.array_equal(tensor.data, want[n]), n
            assert np.array_equal(opt.m[n], m[n]), n
            assert np.array_equal(opt.v[n], v[n]), n
        assert np.array_equal(p.E_o.data, np.eye(5))

    def test_nan_refused_whole(self, rng, monkeypatch):
        """A NaN in one named gradient, in a later block than the first:
        the step is refused naming that parameter, and no parameter,
        moment or `t` moves."""
        monkeypatch.setattr(Adam, "BLOCK", 64)
        p = init_params(4, 20, 5, rng)
        opt = Adam(list(p.trainable()), lr=0.01)
        step = {n: t.grad for n, t in p.trainable()}
        for _, t in p.trainable():
            t.grad[...] = rng.normal(size=t.grad.shape)
        opt.step(step)
        before = opt.state_dict()
        values = {n: t.data.copy() for n, t in p.trainable()}
        p.gru_b.U_h.grad[1, 2] = np.nan
        with pytest.raises(RuntimeError, match="'gru_b.U_h'"):
            opt.step(step)
        after = opt.state_dict()
        assert (after["t"], after["lr"]) == (before["t"], before["lr"])
        for n, t in p.trainable():
            assert np.array_equal(t.data, values[n]), n
            assert np.array_equal(after["m"][n], before["m"][n]), n
            assert np.array_equal(after["v"][n], before["v"][n]), n

    def test_replaced_data_refused(self):
        """Parameters are copied into the optimizer's buffer; a
        `.data` replaced after that would no longer be updated, so the
        step refuses."""
        w = ag.param(np.zeros(2), name="w")
        opt = Adam([("w", w)], lr=0.1)
        w.data = np.ones(2)
        with pytest.raises(RuntimeError, match="replaced"):
            opt.step({"w": np.ones(2)})

    def test_backward_keeps_grad_views(self, tiny_task):
        """A non-accumulating backward zeroes each parameter's gradient in
        place: it stays a view of the optimizer's gradient buffer and holds
        that pass's gradient only."""
        tr, _, _ = tiny_task
        p = init_params(4, tr.vocab.size, tr.vocab.n_answers,
                        np.random.default_rng(1))
        opt = Adam(list(p.trainable()), lr=0.01)
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
        """Training chunks hold 8 x 256 examples x h and evaluation chunks
        32 x 256: 8 and 32 at h=256, as before."""
        assert chunk_size(TRAIN_BUDGET, 256) == 8
        assert chunk_size(TRAIN_BUDGET, 16) == 128
        assert chunk_size(TRAIN_BUDGET, 4096) == 1
        assert chunk_size(EVAL_BUDGET, 256) == 32
        assert chunk_size(EVAL_BUDGET, 16) == 512
        assert chunk_size(EVAL_BUDGET, 16384) == 1

    @pytest.mark.parametrize("h, per_step", [(16, 1), (256, 2)])
    def test_backward_passes_per_step(self, monkeypatch, h, per_step):
        """At batch 16, one taped chunk and one backward per Adam step at
        h=16, two at h=256."""
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
        train(TrainConfig(h=h, hops=2, batch_size=16, max_epochs=1,
                          dropout=0.0), tr, dev, evaluator=lambda p: 0.0)
        assert calls == {"backward": 2 * per_step, "step": 2}


class TestInitStatistics:
    def test_embedding_stddev(self):
        p = init_params(16, 400, 50, np.random.default_rng(0))
        assert np.std(p.E_i.data) == pytest.approx(0.1, abs=0.005)
        assert np.mean(p.E_i.data) == pytest.approx(0.0, abs=0.005)

    def test_update_gate_bias_ones(self):
        p = init_params(8, 20, 5, np.random.default_rng(0))
        for gru in (p.gru_f, p.gru_b):
            assert np.array_equal(gru.b_z.data, np.ones(8))
            assert np.array_equal(gru.b_r.data, np.zeros(8))
            assert np.array_equal(gru.b_h.data, np.zeros(8))

    def test_glorot_bounds(self):
        h = 8
        p = init_params(h, 20, 5, np.random.default_rng(0))
        bound = np.sqrt(6.0 / (h + h))
        assert np.max(np.abs(p.gru_f.U_z.data)) <= bound

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
        order E_i, E_o, gru_f, gru_b, W_q, U_q_c, U_q_g, U_a_q, u_a_g."""
        digest = hashlib.sha256()
        for identity_eo in (False, True):
            p = init_params(5, 11, 4, np.random.default_rng(123),
                            identity_eo=identity_eo, embed_init_stddev=0.3)
            for name, t in p.named():
                assert t.name == name
                digest.update(name.encode())
                digest.update(str(t.data.shape).encode())
                digest.update(t.data.tobytes())
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
        opt = Adam(list(p.trainable()), lr=1e-4)
        before = example_loss(ex, p, tr.vocab, hops=1)
        ag.backward(before)
        grads = {n: (t.grad if t.grad is not None else np.zeros_like(t.data))
                 for n, t in p.trainable()}
        opt.step(grads)
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
        assert res.optimizer.lr == pytest.approx(0.001 / 2)
        assert res.best_acc == 0.5

    def test_no_halving_before_one_epoch(self, tiny_task):
        # 8 examples, batch 4 -> 2 steps/epoch; eval every step
        res = self.run_scripted(tiny_task, [0.5, 0.4, 0.6, 0.7, 0.8, 0.9],
                                checkpoint_every=1, max_epochs=2)
        # the drop at step 2 happens with epochs_done=0: no halving
        assert res.optimizer.lr == pytest.approx(0.001)
        assert res.epochs_run == 2

    def test_mid_epoch_drop_halves_after_first_epoch(self, tiny_task):
        # rises through epoch 1, drops mid-epoch 2, recovers
        res = self.run_scripted(tiny_task, [0.1, 0.2, 0.3, 0.25, 0.35, 0.4],
                                checkpoint_every=1, max_epochs=2)
        assert res.optimizer.lr == pytest.approx(0.001 / 2)
        assert res.epochs_run == 2  # epoch accs 0.3 -> 0.4 never dropped

    def test_monotone_improvement_runs_to_max_epochs(self, tiny_task):
        res = self.run_scripted(tiny_task, [0.3, 0.6, 0.9], max_epochs=3)
        assert res.epochs_run == 3
        assert res.optimizer.lr == pytest.approx(0.001)
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
