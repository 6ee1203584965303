import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.data import SynthConfig, generate_splits
from hopqa.exceptions import ConfigError
from hopqa.model import init_params
from hopqa.train import (Adam, TrainConfig, evaluate, example_loss,
                         loss_from_scores, train)


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
        assert res.best_epoch == 1
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

    def test_empty_dataset_rejected(self, tiny_task):
        tr, dev, _ = tiny_task
        from hopqa.data import Dataset
        empty = Dataset(name="empty", examples=[], vocab=tr.vocab)
        with pytest.raises(ConfigError):
            train(tiny_config(), empty, dev)


class TestEndToEndSmoke:
    def test_loss_decreases_on_tiny_task(self, tiny_task):
        tr, dev, _ = tiny_task
        res = train(tiny_config(max_epochs=3, checkpoint_every=100), tr, dev)
        losses = [m["train_loss"] for m in res.metrics]
        assert losses[-1] < losses[0]
        assert 0.0 <= res.best_acc <= 1.0
