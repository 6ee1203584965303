"""Training runs each chunk's support memory and hop loop as `(B, .)` tape
nodes (`support.build_support_batch`, `hops.run_hops_batch`), and evaluation
reads the same node's forward (`hops.forward_batch`). These tests hold the
batched node to the B=1 path on padded chunks: forward values bit for bit at
B=1, gradients to 1e-12 on a chunk of mixed lengths, and exactly zero
gradient from every pad row."""

from functools import reduce

import numpy as np
import pytest

import hopqa.train as train
from hopqa import autograd as ag
from hopqa.data import (Dataset, SynthConfig, generate_splits, load_canonical,
                        save_canonical)
from hopqa.hops import forward_batch, forward_pass, run_hops_batch
from hopqa.model import init_params
from hopqa.support import (Example, SupportBatch, build_support_batch,
                           encode_batch)

TOL = 1e-12


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """12 examples in one vocab, interleaved: L2 documents (16 tokens, 8
    support pairs, 6 candidates) and long ones (60 tokens, 30 support pairs,
    their 8 candidates widened to 21 by answer symbols that do not occur in
    the document)."""
    root = tmp_path_factory.mktemp("mixed")
    _, l2, _ = generate_splits(SynthConfig(
        chain_length=2, n_distractor_facts=2, n_examples=1, n_dev=8,
        n_test=1, seed=6))
    splits = generate_splits(SynthConfig(
        chain_length=3, n_distractor_facts=12, n_entities=60, n_examples=1,
        n_dev=4, n_test=1, seed=7))
    save_canonical(l2, root / "l2.jsonl")
    l2 = load_canonical(root / "l2.jsonl")
    # every split of the long task, for the answer symbols of its entities
    for i, split in enumerate(splits):
        save_canonical(split, root / f"long{i}.jsonl")
    _, long, _ = (load_canonical(root / f"long{i}.jsonl", vocab=l2.vocab)
                  for i in range(3))
    answers = [l2.vocab.id(t) for t in l2.vocab.answer_tokens]
    examples = list(l2.examples)
    for k, ex in enumerate(long.examples):
        extra = [a for a in answers if a not in ex.document.symbols
                 and a not in ex.candidates][:13]
        examples.insert(3 * k + 1, Example(
            document=ex.document, query=ex.query, gold=ex.gold,
            candidates=ex.candidates + extra))
    return Dataset(name="mixed", examples=examples, vocab=l2.vocab)


def params_for(dataset, identity_eo, h=8, seed=0):
    vocab = dataset.vocab
    return init_params(h, vocab.size, vocab.n_answers,
                       np.random.default_rng(seed), identity_eo=identity_eo,
                       embed_init_stddev=1.0)


def zero_grads(params):
    for _, t in params.named():
        t.grad = np.zeros_like(t.data)


@pytest.mark.parametrize("identity_eo", [False, True])
@pytest.mark.parametrize("hops", [1, 2, 3, 4])
def test_batch_of_one_is_forward_pass_bit_for_bit(mixed, identity_eo, hops):
    """`forward_batch([ex])` and the traces of the node it reads equal
    `forward_pass(ex)` exactly: scores and every hop's alpha, g_a, eta and
    g_q_mean."""
    vocab = mixed.vocab
    params = params_for(mixed, identity_eo, h=16, seed=hops)
    for ex in mixed.examples:
        ref = forward_pass(ex, params, vocab, hops)
        scores, probs = forward_batch([ex], params, vocab, hops)
        assert np.array_equal(scores[0], ref.scores.data)
        assert np.array_equal(probs[0], ref.probs.data)
        sb = build_support_batch([ex], params, sep_id=vocab.sep_id,
                                 answer_row=vocab.answer_row)
        traces = run_hops_batch(sb, params, hops)[2]
        assert len(traces) == len(ref.traces) == hops
        for got, want in zip(traces, ref.traces):
            assert got.hop == want.hop
            assert np.array_equal(got.alpha[0], want.alpha)
            assert (got.g_a[0], got.eta[0], got.g_q_mean[0]) == \
                (want.g_a, want.eta, want.g_q_mean)


def chunk_of(mixed):
    chunk = mixed.examples[:8]
    m = {len(ex.positions) for ex in chunk}
    k = {len(ex.candidates) for ex in chunk}
    assert (min(m), max(m), min(k), max(k)) == (8, 30, 6, 21)
    return chunk


@pytest.mark.parametrize("identity_eo", [False, True])
def test_padded_chunk_gradients(mixed, identity_eo):
    """One backward from a padded chunk's summed losses: every gradient is
    finite and the summed per-example (B=1) gradients."""
    vocab, hops = mixed.vocab, 3
    params = params_for(mixed, identity_eo)
    chunk = chunk_of(mixed)
    zero_grads(params)
    for ex in chunk:
        ag.backward(train.example_loss(ex, params, vocab, hops),
                    accumulate=True)
    want = {n: t.grad for n, t in params.named()}
    zero_grads(params)
    losses = train.chunk_losses(chunk, params, vocab, hops)
    ag.backward(reduce(ag.add, losses), accumulate=True)
    for name, t in params.named():
        assert np.all(np.isfinite(t.grad)), name
        # identity E_o is frozen, and a0 (U_a_q, g_a_q) unused
        if not (identity_eo and name in ("E_o", "U_a_q", "g_a_q")):
            assert np.any(want[name]), name
        np.testing.assert_allclose(t.grad, want[name], rtol=TOL, atol=TOL,
                                   err_msg=name)


def leaves(sb):
    """`sb` with its four tensors as leaves, so their gradients stay after a
    backward pass."""
    return SupportBatch(
        queries=ag.constant(sb.queries.data), y_i=ag.constant(sb.y_i.data),
        y_o=ag.constant(sb.y_o.data), mask=sb.mask,
        cand=ag.constant(sb.cand.data), cand_mask=sb.cand_mask)


@pytest.mark.parametrize("identity_eo", [False, True])
def test_pad_rows_get_exactly_zero_gradient(mixed, identity_eo):
    """The pads of the span queries, of both answer-embedding tables and of
    the candidates read real rows (state row 1, `E_i`/`E_o` row 0), so
    their gradients must be exact zeros for those rows to learn nothing
    from them; the real rows get gradient."""
    vocab = mixed.vocab
    params = params_for(mixed, identity_eo)
    chunk = chunk_of(mixed)
    states = encode_batch(chunk, params, sep_id=vocab.sep_id)
    sb = leaves(build_support_batch(chunk, params, sep_id=vocab.sep_id,
                                    answer_row=vocab.answer_row,
                                    states=states))
    losses = train.loss_from_scores(run_hops_batch(sb, params, 3)[0],
                                    [ex.candidates.index(ex.gold)
                                     for ex in chunk])
    ag.backward(reduce(ag.add, [
        train.example_loss(ex, params, vocab, 3, encoded=(losses, b))
        for b, ex in enumerate(chunk)]))
    for b, ex in enumerate(chunk):
        m, k = len(ex.positions), len(ex.candidates)
        for grad, real in ((sb.queries.grad[b], m + 1), (sb.y_i.grad[b], m),
                           (sb.y_o.grad[b], m), (sb.cand.grad[b], k)):
            assert np.all(grad[real:] == 0.0)
            assert np.all(np.any(grad[:real] != 0.0, axis=1))


def test_pad_candidates_score_minus_inf(mixed):
    """Row b of the score node has -inf past example b's candidates, which
    the chunk's cross-entropy node reads as zero probability."""
    vocab = mixed.vocab
    params = params_for(mixed, False)
    chunk = chunk_of(mixed)
    sb = build_support_batch(chunk, params, sep_id=vocab.sep_id,
                             answer_row=vocab.answer_row)
    scores = run_hops_batch(sb, params, 2)[0]
    losses = train.loss_from_scores(scores, [ex.candidates.index(ex.gold)
                                             for ex in chunk])
    for b, ex in enumerate(chunk):
        k = len(ex.candidates)
        assert np.all(np.isfinite(scores.data[b, :k]))
        assert np.all(scores.data[b, k:] == -np.inf)
        loss = train.example_loss(ex, params, vocab, 2, encoded=(losses, b))
        assert np.isfinite(loss.data)
