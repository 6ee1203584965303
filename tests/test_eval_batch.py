"""`evaluate` scores chunks of examples with the tape-free batched path
(`hops.forward_batch`). These tests hold it to the per-example tape path,
`forward_pass`: scores to 1e-12 and identical predictions, across output
embedding modes, sizes, hop counts, mixed document lengths and candidate
counts, and chunk edges; and they pin the outcome of an example without
support pairs. Chunks hold `EVAL_BUDGET` = 32 x 256 examples x h."""

import numpy as np
import pytest

import hopqa.train as train
from hopqa import autograd as ag
from hopqa.data import (Dataset, SynthConfig, generate_splits, load_canonical,
                        save_canonical)
from hopqa.encoder import Document, bigru_encode, bigru_states
from hopqa.exceptions import EmptySupportError
from hopqa.hops import forward_batch, forward_pass
from hopqa.model import init_params
from hopqa.support import Example

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
    h=4, as `EVAL_BUDGET` gives at h=256."""
    data = subset(mixed, n)
    monkeypatch.setattr(train, "EVAL_BUDGET", 32 * 4)
    assert assert_matches_tape(monkeypatch, params_for(data, 4, False, 1),
                               data, 2) == chunks


def test_max_examples(mixed, monkeypatch):
    monkeypatch.setattr(train, "EVAL_BUDGET", 32 * 4)
    assert assert_matches_tape(monkeypatch, params_for(mixed, 4, True, 2),
                               mixed, 3, max_examples=33) == [32, 1]


def test_h16_dev_set_is_one_batch(monkeypatch):
    """At h=16 a chunk holds 512 examples: the acceptance recipe's 120 L2
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
    H = bigru_states(seqs, params.E_i.data, params.gru_f, params.gru_b)
    assert H.shape == (2, max(map(len, seqs)) + 1, 5, 4)
    for b, s in enumerate(seqs):
        alone = bigru_encode([ag.gather_rows(params.E_i, s)], params.gru_f,
                             params.gru_b)
        np.testing.assert_allclose(H[:, :len(s) + 1, b], alone.data[:, :, 0],
                                   rtol=TOL, atol=TOL)


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
