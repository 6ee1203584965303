"""Training encodes each chunk of a minibatch with one taped biGRU node
(`encoder.bigru_encode`) and reads every example's column of it. These tests
hold that path to the per-example one (each example encoded alone as a batch
of one, one backward per example): per-step losses pinned from the
per-example path, gradients of every parameter to 1e-12 on padded chunks,
and the dropout stream draw for draw."""

import hashlib
from functools import reduce

import numpy as np
import pytest

import hopqa.train as train
from hopqa import autograd as ag
from hopqa.data import (Dataset, SynthConfig, generate_splits, load_canonical,
                        save_canonical)
from hopqa.encoder import bigru_states
from hopqa.model import init_params
from hopqa.support import encode_batch

TOL = 1e-12


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """20 examples in one vocab: 16-token L2 documents and 60-token long
    documents with 30 support pairs, interleaved."""
    root = tmp_path_factory.mktemp("mixed")
    _, l2, _ = generate_splits(SynthConfig(
        chain_length=2, n_distractor_facts=2, n_examples=1, n_dev=14,
        n_test=1, seed=4))
    _, long, _ = generate_splits(SynthConfig(
        chain_length=3, n_distractor_facts=12, n_entities=60, n_examples=1,
        n_dev=6, n_test=1, seed=5))
    save_canonical(l2, root / "l2.jsonl")
    save_canonical(long, root / "long.jsonl")
    l2 = load_canonical(root / "l2.jsonl")
    long = load_canonical(root / "long.jsonl", vocab=l2.vocab)
    examples = list(l2.examples)
    for k, ex in enumerate(long.examples):
        examples.insert(3 * k + 1, ex)
    return Dataset(name="mixed", examples=examples, vocab=l2.vocab)


PIN_CONFIGS = {
    "dropout": dict(h=8, hops=2, batch_size=12, dropout=0.2, seed=3,
                    identity_eo=False),
    "identity_eo": dict(h=8, hops=3, batch_size=12, dropout=0.0, seed=4,
                        identity_eo=True, embed_init_stddev=1.0),
}


def recorded_run(monkeypatch, dataset, max_epochs=2, **cfg):
    """`train` with every dev measurement stubbed to 0: the per-example
    losses in the order computed, and the result."""
    losses = []
    orig = train.example_loss

    def hooked(*args, **kwargs):
        loss = orig(*args, **kwargs)
        losses.append(float(loss.data))
        return loss

    monkeypatch.setattr(train, "example_loss", hooked)
    config = train.TrainConfig(checkpoint_every=1000, max_epochs=max_epochs,
                               **cfg)
    res = train.train(config, dataset, dataset, evaluator=lambda p: 0.0)
    return losses, res


def step_means(losses, batch_size):
    return [sum(losses[i:i + batch_size]) / len(losses[i:i + batch_size])
            for i in range(0, len(losses), batch_size)]


# per-step mean losses of the per-example path (one whole-sequence GRU node
# per direction and one backward per example), recorded before training
# encoded chunks of examples as one biGRU node
PINNED_STEP_LOSSES = {
    "dropout": [1.9189001758575166, 1.8431771951895286, 1.9137413037522846,
                1.791409221034469],
    "identity_eo": [2.0332595915705434, 2.0027164570245546,
                    2.0540886921373382, 1.906334068293499],
}


# SHA-256 of every per-example loss of one epoch, in the order computed, and
# of every final parameter's name and bytes, recorded before the biGRU states
# were stored time-major and a chunk's losses became one cross-entropy node.
# A 1-ulp drift anywhere in the forward pass, BPTT or Adam changes it.
BIT_PINS = {
    # the acceptance recipe: one chunk per minibatch of 16
    "acceptance": (dict(h=16, hops=2, lr0=0.01, batch_size=16, dropout=0.0,
                        seed=0, identity_eo=True, embed_init_stddev=3.0), 48,
                   "0ffb04e0885b0c9ca3cbb8a6629ebef3"
                   "b27a176294dace4a8490f5e60c09adf4"),
    # TrainConfig defaults (h=256, 4 hops, dropout): two chunks per minibatch
    "defaults": (dict(batch_size=16, seed=0), 16,
                 "aab68c7faaac63da399567347de1a1da"
                 "03f2ff1e2424aafa127983521a82b589"),
}


@pytest.mark.parametrize("name", sorted(BIT_PINS))
def test_one_epoch_bit_exact(monkeypatch, name):
    cfg, n, want = BIT_PINS[name]
    train_set, _, _ = generate_splits(SynthConfig(
        chain_length=2, n_distractor_facts=2, n_examples=n, n_dev=1,
        n_test=1, seed=0))
    losses, res = recorded_run(monkeypatch, train_set, max_epochs=1, **cfg)
    assert len(losses) == n
    digest = hashlib.sha256(np.array(losses).tobytes())
    for param_name, t in res.final_params.named():
        digest.update(param_name.encode())
        digest.update(t.data.tobytes())
    assert digest.hexdigest() == want


@pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
def test_step_losses_pinned(mixed, monkeypatch, name):
    cfg = PIN_CONFIGS[name]
    losses, _ = recorded_run(monkeypatch, mixed, **cfg)
    assert len(losses) == 2 * len(mixed.examples)
    np.testing.assert_allclose(step_means(losses, cfg["batch_size"]),
                               PINNED_STEP_LOSSES[name], rtol=TOL, atol=0)


def params_for(dataset, identity_eo, h=8, seed=0):
    vocab = dataset.vocab
    return init_params(h, vocab.size, vocab.n_answers,
                       np.random.default_rng(seed), identity_eo=identity_eo,
                       embed_init_stddev=1.0)


def zero_grads(params):
    for _, t in params.named():
        t.grad = np.zeros_like(t.data)


def test_bigru_encode_states_match_bigru_states(mixed):
    """The taped node's forward is the evaluator's recurrence: same layout,
    same states wherever a sequence's own tokens were read (the pad inputs
    differ: zero vectors here, token 0's embedding there)."""
    params = params_for(mixed, False)
    exs = mixed.examples[:5]
    seqs = [ex.encoder_input(mixed.vocab.sep_id) for ex in exs]
    assert len({len(s) for s in seqs}) > 1
    states = encode_batch(exs, params, sep_id=mixed.vocab.sep_id)
    want = bigru_states(seqs, params.E_i.data, params.gru_f, params.gru_b)
    assert states.data.shape == want.shape
    for b, s in enumerate(seqs):
        np.testing.assert_allclose(states.data[:, :len(s) + 1, b],
                                   want[:, :len(s) + 1, b], rtol=TOL,
                                   atol=TOL)


@pytest.mark.parametrize("identity_eo", [False, True])
def test_chunk_gradients_match_per_example(mixed, identity_eo):
    """One chunk of mixed lengths, backward once from the summed losses:
    every parameter's gradient is the per-example path's, summed over one
    backward per example."""
    vocab, hops = mixed.vocab, 3
    params = params_for(mixed, identity_eo)
    chunk = mixed.examples[:8]
    assert len({len(ex.document) for ex in chunk}) > 1
    zero_grads(params)
    want_losses = []
    for ex in chunk:
        loss = train.example_loss(ex, params, vocab, hops)
        ag.backward(loss, accumulate=True)
        want_losses.append(float(loss.data))
    want = {n: t.grad for n, t in params.named()}
    zero_grads(params)
    losses = train.chunk_losses(chunk, params, vocab, hops)
    ag.backward(reduce(ag.add, losses), accumulate=True)
    np.testing.assert_allclose([float(x.data) for x in losses], want_losses,
                               rtol=TOL, atol=0)
    for name, t in params.named():
        if name.startswith(("E_i", "gru_", "W_q")):
            assert np.any(want[name]), name
        np.testing.assert_allclose(t.grad, want[name], rtol=TOL, atol=TOL,
                                   err_msg=name)


def per_example_epoch(config, dataset):
    """One epoch of the per-example training loop: one `example_loss` and
    one backward per example, as `train` ran before it encoded chunks.
    Returns the losses in order, the final parameters and the RNG."""
    vocab = dataset.vocab
    rng = np.random.default_rng(config.seed)
    params = init_params(config.h, vocab.size, vocab.n_answers, rng,
                         identity_eo=config.identity_eo,
                         embed_init_stddev=config.embed_init_stddev)
    opt = train.Adam(list(params.trainable()), config.lr0)
    examples = dataset.examples
    order = rng.permutation(len(examples))
    losses = []
    for start in range(0, len(order), config.batch_size):
        batch = [examples[int(i)]
                 for i in order[start:start + config.batch_size]]
        zero_grads(params)
        for ex in batch:
            loss = train.example_loss(ex, params, vocab, config.hops,
                                      dropout=config.dropout, rng=rng)
            ag.backward(loss, accumulate=True)
            losses.append(float(loss.data))
        opt.step({n: p.grad / len(batch) for n, p in params.trainable()})
    return losses, params, rng


def test_dropout_epoch_matches_per_example(mixed, monkeypatch):
    """With dropout 0.2, a chunk-encoded epoch draws every mask the
    per-example loop draws: equal losses and the same final RNG state."""
    cfg = dict(h=8, hops=2, batch_size=12, dropout=0.2, seed=7)
    want_losses, want_params, want_rng = per_example_epoch(
        train.TrainConfig(**cfg), mixed)
    losses, res = recorded_run(monkeypatch, mixed, max_epochs=1, **cfg)
    np.testing.assert_allclose(losses, want_losses, rtol=TOL, atol=0)
    assert res.state.rng_state == want_rng.bit_generator.state
    for (name, a), (_, b) in zip(res.final_params.named(),
                                 want_params.named()):
        np.testing.assert_allclose(a.data, b.data, rtol=1e-10, atol=1e-12,
                                   err_msg=name)
