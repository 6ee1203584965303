"""The benchmark's tracer patches hopqa names where callers look them up.
Entering and leaving its patch context here turns a renamed or deleted
target into a failing test, not a benchmark whose every operation fails;
one traced training example turns a changed signature into one too."""

import sys
from pathlib import Path

import numpy as np

import hopqa.autograd as ag
import hopqa.checkpoint as checkpoint
import hopqa.data as data
import hopqa.encoder as encoder
import hopqa.hops as hops
import hopqa.model as model
import hopqa.support as support
import hopqa.train as train

BENCHES = str(Path(__file__).resolve().parents[1] / "benches")
sys.path.insert(0, BENCHES)
try:
    import tracer
finally:
    sys.path.remove(BENCHES)

PATCHED = (ag, checkpoint, data, encoder, hops, model, support, train,
           train.Adam)


def test_tracer_patches_and_restores_every_target():
    before = [dict(vars(obj)) for obj in PATCHED]
    with tracer.Tracer({}).installed():
        during = [dict(vars(obj)) for obj in PATCHED]
    assert all(d != b for d, b in zip(during, before))
    assert [dict(vars(obj)) for obj in PATCHED] == before


def test_traced_training_example_runs_clean():
    tr, _, _ = data.generate_splits(data.SynthConfig(
        chain_length=2, n_distractor_facts=2, n_examples=1, n_dev=1,
        n_test=1, seed=0))
    vocab = tr.vocab
    params = model.init_params(4, vocab.size, vocab.n_answers,
                               np.random.default_rng(0))
    ex = tr.examples[0]
    with tracer.Tracer({}).installed() as t:
        loss = train.example_loss(ex, params, vocab, 2,
                                  dropout=0.2, rng=np.random.default_rng(1))
        ag.backward(loss)
    assert sum(t.errors.values()) == 0
    occurrences = sum(s in ex.candidates for s in ex.document.symbols)
    assert t.counts["support_pairs"] == occurrences > 0
    assert {"encoder.embed_sequence", "support.build_support",
            "hops.run_hops", "autograd.backward"} <= set(t.names)


def test_traced_evaluate_runs_clean():
    """The batched evaluator under the tracer: no error and one
    `eval_examples` count per example scored."""
    _, dev, _ = data.generate_splits(data.SynthConfig(
        chain_length=2, n_distractor_facts=2, n_examples=1, n_dev=5,
        n_test=1, seed=0))
    vocab = dev.vocab
    params = model.init_params(4, vocab.size, vocab.n_answers,
                               np.random.default_rng(0), identity_eo=True)
    with tracer.Tracer({}).installed() as t:
        res = train.evaluate(params, dev, 2, max_examples=4)
    assert sum(t.errors.values()) == 0
    assert len(res.predictions) == 4
    assert t.counts["eval_examples"] == 4
    assert "train.evaluate" in t.names


def test_traced_chunk_encodes_once():
    """Training's chunk path under the tracer: the whole chunk's biGRU is
    one `encoder.bigru_encode` span, and nothing fails."""
    tr, _, _ = data.generate_splits(data.SynthConfig(
        chain_length=2, n_distractor_facts=2, n_examples=3, n_dev=1,
        n_test=1, seed=0))
    vocab = tr.vocab
    params = model.init_params(4, vocab.size, vocab.n_answers,
                               np.random.default_rng(0))
    chunk = tr.examples[:3]
    with tracer.Tracer({}).installed() as t:
        losses = train.chunk_losses(chunk, params, vocab, 2)
    assert len(losses) == len(chunk) == 3
    assert sum(t.errors.values()) == 0
    assert list(t.name).count(t.names.index("encoder.bigru_encode")) == 1
