"""`evaluate` scores chunks of examples with the tape-free batched path
(`hops.forward_batch`). These tests hold it to the per-example tape path,
`forward_pass`: scores to 1e-12 and identical predictions, across output
embedding modes, sizes, hop counts, mixed document lengths and candidate
counts, and chunk edges; and they pin the outcome of an example without
support pairs. Chunks hold `EVAL_BUDGET` = 128 x 256 examples x h. A loaded
checkpoint's read-only parameters reuse their support batches across calls
and continue each chunk's hop loop from the last call's hop count; the
reused and continued path is held bit-equal to a writable copy's fresh one,
in every order of hop counts, and its hops are counted.

Evaluation's support batch is built without a tape from the state rows its
span queries read (`encoder.bigru_span_rows`). It is held bit-equal to
`build_support_batch` over the full-state reference recurrence
(`gru_reference.bigru_states`) as a constant, and its rows to those a
`bigru_encode` node gives; a memory guard keeps one evaluation chunk of 128
at h=256 below the traced peak of one training chunk of 16."""

import gc
import tracemalloc
import weakref
from functools import reduce

import numpy as np
import pytest

import hopqa.hops as hops_mod
import hopqa.train as train
from hopqa import autograd as ag
from hopqa.checkpoint import load_checkpoint, save_checkpoint
from hopqa.data import (Dataset, SynthConfig, Vocab, generate_splits,
                        load_canonical, save_canonical)
from hopqa.encoder import (Document, bigru_encode, bigru_span_rows,
                           embed_sequence, padded)
from hopqa.exceptions import EmptySupportError
from hopqa.hops import forward_batch, forward_pass, run_hops_batch
from hopqa.model import init_params, make_params
from hopqa.support import Example, build_support_batch, encode_batch

from gru_reference import bigru_states

TOL = 1e-12


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """65 examples in one vocab, interleaved: L2 (16-token documents, 6
    candidates) and long documents (60 tokens, 30 support pairs, up to 30
    candidates)."""
    root = tmp_path_factory.mktemp("mixed")
    _, l2, _ = generate_splits(SynthConfig(
        chain_length=2, n_distractor_facts=2, n_examples=1, n_dev=45,
        n_test=1, seed=4))
    _, long, _ = generate_splits(SynthConfig(
        chain_length=3, n_distractor_facts=12, n_entities=60, n_examples=1,
        n_dev=20, n_test=1, seed=5))
    save_canonical(l2, root / "l2.jsonl")
    save_canonical(long, root / "long.jsonl")
    l2 = load_canonical(root / "l2.jsonl")
    long = load_canonical(root / "long.jsonl", vocab=l2.vocab)
    examples = list(long.examples)
    for k, ex in enumerate(l2.examples):
        examples.insert(min(3 * k, len(examples)), ex)
    return Dataset(name="mixed", examples=examples, vocab=l2.vocab)


def subset(dataset, n):
    return Dataset(name=dataset.name, examples=dataset.examples[:n],
                   vocab=dataset.vocab)


def params_for(dataset, h, identity_eo, seed=0):
    vocab = dataset.vocab
    return init_params(h, vocab.size, vocab.n_answers,
                       np.random.default_rng(seed), identity_eo=identity_eo,
                       embed_init_stddev=1.0)


def spied_evaluate(monkeypatch, params, dataset, hops, **kw):
    """`evaluate`'s result and, per `forward_batch` call, the examples it
    scored and the score matrix it returned."""
    calls = []

    def spy(examples, *args):
        out = forward_batch(examples, *args)
        calls.append((examples, out[0]))
        return out

    monkeypatch.setattr(train, "forward_batch", spy)
    return train.evaluate(params, dataset, hops, **kw), calls


def assert_matches_tape(monkeypatch, params, dataset, hops, **kw):
    """Check `evaluate` against `forward_pass` on every example it scored;
    return the chunk sizes."""
    res, calls = spied_evaluate(monkeypatch, params, dataset, hops, **kw)
    examples = dataset.examples[:kw.get("max_examples") or None]
    scored = [(ex, row) for exs, s in calls for ex, row in zip(exs, s)]
    assert [ex for ex, _ in scored] == examples
    want = []
    for ex, row in scored:
        ref = forward_pass(ex, params, dataset.vocab, hops)
        k = len(ex.candidates)
        np.testing.assert_allclose(row[:k], ref.scores.data, rtol=TOL,
                                   atol=TOL)
        assert np.all(row[k:] == -np.inf)
        want.append(ex.candidates[ref.prediction])
    assert res.predictions == want
    assert res.abstained == 0
    assert res.accuracy == sum(p == ex.gold
                               for p, ex in zip(want, examples)) / len(want)
    return [len(exs) for exs, _ in calls]


@pytest.mark.parametrize("identity_eo", [True, False])
@pytest.mark.parametrize("h", [1, 4, 16])
@pytest.mark.parametrize("hops", [1, 2, 3, 4])
def test_matches_tape_path(mixed, monkeypatch, identity_eo, h, hops):
    data = subset(mixed, 12)
    assert len({len(ex.document) for ex in data.examples}) > 1
    assert len({len(ex.candidates) for ex in data.examples}) > 1
    assert_matches_tape(monkeypatch, params_for(data, h, identity_eo), data,
                        hops)


@pytest.mark.parametrize("n, chunks", [(1, [1]), (32, [32]),
                                       (65, [32, 32, 1])])
def test_chunk_edges(mixed, monkeypatch, n, chunks):
    """With a budget of 32 x 4 examples x h, a chunk holds 32 examples at
    h=4, a quarter of the 128 that `EVAL_BUDGET` gives at h=256."""
    data = subset(mixed, n)
    monkeypatch.setattr(train, "EVAL_BUDGET", 32 * 4)
    assert assert_matches_tape(monkeypatch, params_for(data, 4, False, 1),
                               data, 2) == chunks


def test_max_examples(mixed, monkeypatch):
    monkeypatch.setattr(train, "EVAL_BUDGET", 32 * 4)
    assert assert_matches_tape(monkeypatch, params_for(mixed, 4, True, 2),
                               mixed, 3, max_examples=33) == [32, 1]


def test_h16_dev_set_is_one_batch(monkeypatch):
    """At h=16 a chunk holds 2,048 examples: the acceptance recipe's 120 L2
    dev examples are one `forward_batch` call."""
    _, dev, _ = generate_splits(SynthConfig(
        chain_length=2, n_distractor_facts=2, n_examples=1, n_dev=120,
        n_test=1, seed=7))
    assert assert_matches_tape(monkeypatch, params_for(dev, 16, True, 4),
                               dev, 2) == [120]


def test_bigru_states_rows_match_bigru_encode(mixed):
    """Every sequence of a padded batch reads the same states as it does
    alone, in both directions."""
    params = params_for(mixed, 4, False, 3)
    seqs = [ex.document.symbols for ex in mixed.examples[:5]]
    H = bigru_states(seqs, params.E_i.data, params.gru)
    assert H.shape == (2, max(map(len, seqs)) + 1, 5, 4)
    for b, s in enumerate(seqs):
        alone = bigru_encode(embed_sequence([s], [len(s)], params.E_i),
                             [len(s)], params.gru)
        np.testing.assert_allclose(H[:, :len(s) + 1, b], alone.data[:, :, 0],
                                   rtol=TOL, atol=TOL)


def span_positions(examples, vocab):
    """The `(B, P)` span positions `build_support_batch` reads: each
    example's placeholder, then its pairs, pads at position 1."""
    pos, mask = padded([ex.index_lists(vocab.answer_row)[0]
                        for ex in examples])
    pos[~mask] = 1
    return pos


@pytest.mark.parametrize("h", [1, 4, 16])
def test_span_rows_match_bigru_encode(mixed, h):
    """Row [b, p] of `bigru_span_rows` is [h^f_{l-1}; h^b_{n_b-l}] of the
    states a `bigru_encode` node gives, to 1e-12, and those of the
    full-state reference bit for bit, over mixed lengths and pads."""
    params = params_for(mixed, h, False, 9)
    examples = mixed.examples
    seqs = [ex.encoder_input() for ex in examples]
    pos = span_positions(examples, mixed.vocab)
    assert (pos == 1).any() and len(set(map(len, seqs))) > 1
    rows = bigru_span_rows(seqs, pos, params.E_i.data, params.gru)
    assert rows.shape == (*pos.shape, 2 * h)
    n = np.array([len(s) for s in seqs])[:, None]
    b = np.arange(len(seqs))[:, None]

    def outer(H):
        return np.concatenate((H[0, pos - 1, b], H[1, n - pos, b]), axis=-1)

    H = encode_batch(examples, params).data
    np.testing.assert_allclose(rows, outer(H), rtol=TOL, atol=TOL)
    ref = outer(bigru_states(seqs, params.E_i.data, params.gru))
    assert rows.tobytes() == ref.tobytes()


def test_span_rows_refuse_positions_outside(mixed):
    params = params_for(mixed, 4, False)
    seqs = [ex.encoder_input() for ex in mixed.examples[:2]]
    for bad in (0, len(seqs[1]) + 1):
        with pytest.raises(IndexError, match=f"position {bad} "):
            bigru_span_rows(seqs, [[1, 2], [3, bad]], params.E_i.data,
                            params.gru)


@pytest.mark.parametrize("identity_eo", [True, False])
@pytest.mark.parametrize("h", [4, 16])
@pytest.mark.parametrize("picked", [slice(0, 1), slice(2, 5), slice(None)])
def test_support_batch_is_reference_bit_for_bit(mixed, identity_eo, h,
                                                picked):
    """Evaluation's support batch equals `build_support_batch` over the
    full-state reference as a constant, bit for bit: one long document,
    a mix, and all 65 examples with their padded pairs and candidates."""
    params = params_for(mixed, h, identity_eo, 10)
    examples = mixed.examples[picked]
    sb = build_support_batch(examples, params,
                             answer_row=mixed.vocab.answer_row)
    ref = build_support_batch(
        examples, params, answer_row=mixed.vocab.answer_row,
        states=ag.constant(bigru_states([ex.encoder_input()
                                         for ex in examples],
                                        params.E_i.data, params.gru)))
    for name in ("queries", "y_i", "y_o", "cand"):
        got, want = getattr(sb, name), getattr(ref, name).data
        assert got.parents == () and got.backward_fn is None, name
        assert got.data.shape == want.shape, name
        assert got.data.tobytes() == want.tobytes(), name
    assert np.array_equal(sb.mask, ref.mask)
    assert np.array_equal(sb.cand_mask, ref.cand_mask)


def traced_peak(fn):
    """Traced (tracemalloc) peak of `fn()`, in bytes over its start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_eval_chunk_peak_below_training_chunk():
    """One `forward_batch` over 128 L2 examples at h=256, 4 hops, the
    `TrainConfig` default and one `EVAL_BUDGET` chunk, peaks below one
    taped training chunk of 16 (forward and backward, dropout 0.2):
    13.7 MB against 17.9 MB when measured, and 24.0 MB when evaluation kept
    every biGRU state and every hop's arrays. Its support batch and scores
    hold no tape."""
    train_set, dev, _ = generate_splits(SynthConfig(
        chain_length=2, n_distractor_facts=2, n_examples=16, n_dev=128,
        n_test=1, seed=0))
    vocab = dev.vocab
    params = init_params(256, vocab.size, vocab.n_answers,
                         np.random.default_rng(0))
    assert train.chunk_size(train.EVAL_BUDGET, 256) == len(dev.examples)
    forward_batch(dev.examples, params, vocab, 4)  # warm-up
    eval_peak = traced_peak(
        lambda: forward_batch(dev.examples, params, vocab, 4))
    for _, t in params.named():
        t.grad = np.zeros_like(t.data)

    def train_chunk():
        losses = train.chunk_losses(train_set.examples, params, vocab, 4,
                                    dropout=0.2, rng=np.random.default_rng(1))
        ag.backward(reduce(ag.add, losses), accumulate=True)

    assert eval_peak < traced_peak(train_chunk)
    sb = build_support_batch(dev.examples[:4], params,
                             answer_row=vocab.answer_row)
    scores = run_hops_batch(sb, params, 4, taped=False)[0]
    for t in (sb.queries, sb.y_i, sb.y_o, sb.cand, scores):
        assert t.parents == () and t.backward_fn is None


def test_untaped_hops_keep_no_trace(mixed):
    """Untaped, `run_hops_batch` keeps neither a hop's arrays nor its
    trace, so `forward_batch` over 20 examples at h=4 peaks at 1,000 hops
    within 10% of its peak at one hop (209 KB at both when measured; 6.0 MB
    at 1,000 hops while every hop's trace was kept)."""
    exs, vocab = mixed.examples[:20], mixed.vocab
    params = params_for(mixed, 4, False)
    forward_batch(exs, params, vocab, 1)  # warm-up
    one, many = (traced_peak(lambda: forward_batch(exs, params, vocab, hops))
                 for hops in (1, 1000))
    assert many < 1.1 * one
    sb = build_support_batch(exs, params, answer_row=vocab.answer_row)
    assert run_hops_batch(sb, params, 3, taped=False)[2] == []
    assert len(run_hops_batch(sb, params, 3)[2]) == 3


@pytest.mark.parametrize("flags", [{}, {"ablate_query_gate": True},
                                   {"force_answer_gate": 0.5}])
def test_start_state_continues_untaped_loop(mixed, flags):
    """An untaped loop continued from an end state reaches the scores and
    end state of a run from hop 1 bit for bit, and keeps no trace; a taped
    call, or one with fewer hops than the state holds, refuses it."""
    exs, vocab = mixed.examples[:9], mixed.vocab
    params = params_for(mixed, 4, False, 12)
    sb = build_support_batch(exs, params, answer_row=vocab.answer_row)
    _, end, _ = run_hops_batch(sb, params, 3, taped=False, **flags)
    for hops in (3, 4, 7):
        got = run_hops_batch(sb, params, hops, taped=False, start=end, **flags)
        ref = run_hops_batch(sb, params, hops, taped=False, **flags)
        assert got[0].data.tobytes() == ref[0].data.tobytes()
        assert got[1][0] == ref[1][0] == hops
        for x, y in zip(got[1][1:], ref[1][1:]):
            assert x.tobytes() == y.tobytes()
        assert got[2] == []
    with pytest.raises(ValueError, match="only an untaped loop"):
        run_hops_batch(sb, params, 4, start=end, **flags)
    with pytest.raises(ValueError, match="at least its own hop count"):
        run_hops_batch(sb, params, 2, taped=False, start=end, **flags)


def no_support(ex, vocab):
    """`ex` with every candidate occurrence dropped from its document."""
    kept = [s for s in ex.document.symbols if s not in ex.candidates]
    return Example(document=Document(kept, [vocab.tokens[s] for s in kept]),
                   query=ex.query, gold=ex.gold, candidates=ex.candidates)


class TestAbstention:
    def test_counted_wrong_and_never_batched(self, mixed, monkeypatch):
        vocab = mixed.vocab
        examples = list(mixed.examples[:40])
        for i in (0, 33):
            examples[i] = no_support(examples[i], vocab)
            assert examples[i].positions == []
        data = Dataset(name="holes", examples=examples, vocab=vocab)
        params = params_for(data, 4, True)
        res, calls = spied_evaluate(monkeypatch, params, data, 2)
        assert res.abstained == 2
        assert res.predictions[0] is None and res.predictions[33] is None
        batched = [ex for exs, _ in calls for ex in exs]
        assert batched == [ex for i, ex in enumerate(examples)
                           if i not in (0, 33)]
        want = [ex.candidates[forward_pass(ex, params, vocab, 2).prediction]
                for ex in batched]
        assert [p for p in res.predictions if p is not None] == want
        assert res.accuracy == sum(
            p == ex.gold for p, ex in zip(want, batched)) / 40

    def test_all_abstain(self, mixed, monkeypatch):
        data = Dataset(name="none", vocab=mixed.vocab, examples=[
            no_support(ex, mixed.vocab) for ex in mixed.examples[:3]])
        res, calls = spied_evaluate(monkeypatch, params_for(data, 4, False),
                                    data, 1)
        assert (res.accuracy, res.predictions, res.abstained) == \
            (0.0, [None] * 3, 3)
        assert calls == []

    def test_batch_refuses_empty_support(self, mixed):
        """An all-pad support row would turn the masked softmax into NaN,
        so the batched path refuses it."""
        ex = no_support(mixed.examples[0], mixed.vocab)
        good = mixed.examples[1]
        with pytest.raises(EmptySupportError):
            forward_batch([good, ex], params_for(mixed, 4, False),
                          mixed.vocab, 1)


def test_hops_must_be_positive(mixed):
    with pytest.raises(ValueError, match="hops"):
        train.evaluate(params_for(mixed, 4, False), subset(mixed, 2), 0)


def loaded(params, vocab, path):
    """`params` saved to a checkpoint at `path` and loaded back, read-only."""
    config = train.TrainConfig(h=params.h, identity_eo=params.identity_eo)
    save_checkpoint(path, config=config, params=params, vocab=vocab)
    return load_checkpoint(path).params


def writable_copy(params):
    return make_params({n: t.data.copy() for n, t in params.named()},
                       params.h, params.vocab_size, params.n_answers,
                       params.identity_eo)


def count_builds(monkeypatch):
    """The example count of every `build_support_batch` call `evaluate`
    makes."""
    builds = []

    def spy(examples, *args, **kwargs):
        builds.append(len(examples))
        return build_support_batch(examples, *args, **kwargs)

    monkeypatch.setattr(train, "build_support_batch", spy)
    return builds


def assert_same_scores(calls, ref_calls):
    """Bit-equal `forward_batch` scores on the same chunks."""
    assert [exs for exs, _ in calls] == [exs for exs, _ in ref_calls]
    for (_, s), (_, ref) in zip(calls, ref_calls):
        assert s.shape == ref.shape and s.tobytes() == ref.tobytes()


@pytest.mark.parametrize("identity_eo", [True, False])
def test_reused_sweep_matches_fresh(mixed, monkeypatch, tmp_path,
                                    identity_eo):
    """A warm hop sweep on a loaded checkpoint over three chunks builds no
    support batch, and its predictions and scores are bit-equal to those of
    the same sweep on a writable copy, which builds every chunk's anew; at
    every hop count the warm path also matches `forward_pass`."""
    monkeypatch.setattr(train, "EVAL_BUDGET", 32 * 4)
    params = loaded(params_for(mixed, 4, identity_eo, 5), mixed.vocab,
                    tmp_path / "m.ckpt")
    for hops in range(1, 7):
        train.evaluate(params, mixed, hops)
    fresh = writable_copy(params)
    builds = count_builds(monkeypatch)
    for hops in range(1, 7):
        warm, calls = spied_evaluate(monkeypatch, params, mixed, hops)
        assert builds == [32, 32, 1] * (hops - 1)
        ref, ref_calls = spied_evaluate(monkeypatch, fresh, mixed, hops)
        assert builds == [32, 32, 1] * hops
        assert warm.predictions == ref.predictions
        assert warm.accuracy == ref.accuracy
        assert_same_scores(calls, ref_calls)
        assert_matches_tape(monkeypatch, params, mixed, hops)


def test_writable_params_changed_in_place(mixed, monkeypatch):
    """Writable parameters, as training's, keep nothing: a change made in
    place between two calls shows in the second."""
    data = subset(mixed, 12)
    params = params_for(data, 4, False, 6)
    before = spied_evaluate(monkeypatch, params, data, 2)[1][0][1]
    assert params._support is None
    params.E_i.data *= 1.5
    params.W_q.data[...] = params.W_q.data[::-1]
    after = spied_evaluate(monkeypatch, params, data, 2)[1][0][1]
    assert not np.allclose(before, after)
    assert_matches_tape(monkeypatch, params, data, 2)


def permuted_vocab(vocab):
    """An equal token table whose answer rows run in reverse order."""
    return Vocab.from_dict({"tokens": list(vocab.tokens),
                            "answer_tokens": vocab.answer_tokens[::-1]})


@pytest.mark.parametrize("change", ["dataset", "max_examples", "answer_row",
                                    "rebound"])
def test_changed_input_is_evaluated_anew(mixed, monkeypatch, tmp_path,
                                         change):
    """After a call that filled the reuse, another dataset, another
    `max_examples`, another `answer_row` or a parameter whose `.data` was
    rebound (to another read-only array) builds fresh support batches,
    whose scores are bit-equal to a writable copy's and differ from the
    first call's."""
    data = subset(mixed, 24)
    params = loaded(params_for(data, 4, False, 7), data.vocab,
                    tmp_path / "m.ckpt")
    kw = {}
    first = spied_evaluate(monkeypatch, params, data, 3)[1]
    if change == "dataset":
        data = Dataset(name="other", examples=mixed.examples[24:48],
                       vocab=mixed.vocab)
    elif change == "max_examples":
        kw["max_examples"] = 20
    elif change == "answer_row":
        data = Dataset(name="permuted", examples=data.examples,
                       vocab=permuted_vocab(data.vocab))
    else:
        a = params.E_i.data * 1.5
        a.setflags(write=False)
        params.E_i.data = a
    builds = count_builds(monkeypatch)
    res, calls = spied_evaluate(monkeypatch, params, data, 3, **kw)
    assert builds == [len(calls[0][0])]
    assert not np.array_equal(calls[0][1], first[0][1])
    ref, ref_calls = spied_evaluate(monkeypatch, writable_copy(params), data,
                                    3, **kw)
    assert res.predictions == ref.predictions
    assert_same_scores(calls, ref_calls)


def test_reuse_dies_with_params(mixed, tmp_path):
    """The kept support batches hold no tape (so no biGRU states) and no
    reference back to their parameter set, which is freed when dropped."""
    params = loaded(params_for(mixed, 4, False, 8), mixed.vocab,
                    tmp_path / "m.ckpt")
    train.evaluate(params, subset(mixed, 12), 2)
    (sb,) = params._support[1]
    for t in (sb.queries, sb.y_i, sb.y_o, sb.cand):
        assert t.parents == () and t.backward_fn is None
    ref = weakref.ref(params)
    del params, sb, t
    gc.collect()
    assert ref() is None


HOP_ORDERS = {"ascending": [1, 2, 3, 4, 5, 6],
              "descending": [6, 5, 4, 3, 2, 1],
              "repeated": [3, 3, 5, 5, 5, 1, 1],
              "mixed": [2, 5, 1, 6, 3, 4, 1, 6]}


@pytest.mark.parametrize("order", HOP_ORDERS)
@pytest.mark.parametrize("identity_eo", [True, False])
def test_continued_hop_loop_matches_fresh(mixed, monkeypatch, tmp_path,
                                          identity_eo, order):
    """A loaded checkpoint's `evaluate` continues each chunk's hop loop from
    the hop count of its last call, or starts again at hop 1 below it. In
    ascending, descending, repeated and mixed orders, over three chunks of
    mixed document lengths, every call's `forward_batch` scores are
    bit-equal to those of a writable copy, which runs every call from hop
    1, and the kept state holds each chunk's last hop count."""
    monkeypatch.setattr(train, "EVAL_BUDGET", 32 * 4)
    params = loaded(params_for(mixed, 4, identity_eo, 11), mixed.vocab,
                    tmp_path / "m.ckpt")
    fresh = writable_copy(params)
    for hops in HOP_ORDERS[order]:
        res, calls = spied_evaluate(monkeypatch, params, mixed, hops)
        ref, ref_calls = spied_evaluate(monkeypatch, fresh, mixed, hops)
        assert [len(exs) for exs, _ in calls] == [32, 32, 1]
        assert res.predictions == ref.predictions
        assert res.accuracy == ref.accuracy
        assert_same_scores(calls, ref_calls)
        assert [end[0] for end in params._support[2]] == [hops] * 3
    assert fresh._support is None


def changed_input(change, data, params, mixed):
    """`data`, `evaluate`'s keyword arguments and `params` after one of the
    input changes that drop the kept support batches."""
    kw = {}
    if change == "dataset":
        data = Dataset(name="other", examples=mixed.examples[24:48],
                       vocab=mixed.vocab)
    elif change == "max_examples":
        kw["max_examples"] = 20
    elif change == "answer_row":
        data = Dataset(name="permuted", examples=data.examples,
                       vocab=permuted_vocab(data.vocab))
    else:
        t = params.E_i if change == "rebound" else params.U_q_c
        a = t.data * 1.5
        a.setflags(write=False)
        t.data = a
    return data, kw


@pytest.mark.parametrize("change", ["dataset", "max_examples", "answer_row",
                                    "rebound", "rebound hop parameter"])
def test_changed_input_starts_hop_loop_anew(mixed, monkeypatch, tmp_path,
                                            change):
    """After a call at 4 hops kept each chunk's hop state, a call at 5 hops
    on a changed input starts again at hop 1: its scores are bit-equal to a
    writable copy's. A rebound hop parameter, which leaves the support
    memory as it was, drops the kept state too."""
    data = subset(mixed, 24)
    params = loaded(params_for(data, 4, False, 13), data.vocab,
                    tmp_path / "m.ckpt")
    first = spied_evaluate(monkeypatch, params, data, 4)[1]
    data, kw = changed_input(change, data, params, mixed)
    res, calls = spied_evaluate(monkeypatch, params, data, 5, **kw)
    assert not np.array_equal(calls[0][1], first[0][1])
    ref, ref_calls = spied_evaluate(monkeypatch, writable_copy(params), data,
                                    5, **kw)
    assert res.predictions == ref.predictions
    assert_same_scores(calls, ref_calls)


def count_softmax(monkeypatch):
    """The batch size of every `hops._masked_softmax` call: a hop makes two
    (its retrieval and the candidate distribution of the answer gate's
    eta), and a `forward_batch` call one more (its probabilities)."""
    sizes, real = [], hops_mod._masked_softmax

    def spy(x, mask):
        sizes.append(len(x))
        return real(x, mask)

    monkeypatch.setattr(hops_mod, "_masked_softmax", spy)
    return sizes


def test_sweep_runs_one_hop_loop(mixed, monkeypatch, tmp_path):
    """A sweep 1..50 on a loaded checkpoint over three chunks runs 50 hops
    per chunk, not the 1 + 2 + ... + 50 = 1,275 that a loop from hop 1 per
    call runs."""
    monkeypatch.setattr(train, "EVAL_BUDGET", 32 * 4)
    params = loaded(params_for(mixed, 4, False, 14), mixed.vocab,
                    tmp_path / "m.ckpt")
    sizes = count_softmax(monkeypatch)
    n = 50
    for hops in range(1, n + 1):
        train.evaluate(params, mixed, hops)
    per_chunk = 2 * n + n  # two per hop, one per call
    assert sorted(sizes) == sorted([32, 32, 1] * per_chunk)


def test_writable_params_run_every_hop(mixed, monkeypatch):
    """Writable parameters, which training's `evaluate` passes, keep no
    hop state: every call runs all its hops from hop 1 and leaves
    `_support` empty."""
    monkeypatch.setattr(train, "EVAL_BUDGET", 32 * 4)
    params = params_for(mixed, 4, False, 15)
    sizes = count_softmax(monkeypatch)
    for hops in (3, 5, 5, 2, 6):
        del sizes[:]
        train.evaluate(params, mixed, hops)
        assert sorted(sizes) == sorted([32, 32, 1] * (2 * hops + 1))
        assert params._support is None
