import numpy as np
import pytest

import hopqa.autograd as ag
import hopqa.hops as hops
import hopqa.train as train
from hopqa.data import SynthConfig, generate_splits
from hopqa.encoder import Document
from hopqa.exceptions import EmptySupportError
from hopqa.model import init_params
from hopqa.support import Example

from tracer import Tracer, self_times


def test_self_times_nested_and_adjacent_children():
    # A [0,10] holds B [1,4] and C [4,7], adjacent; D [2,3] is nested in B.
    # E [20,25] is a second root.
    start = [0.0, 1.0, 4.0, 2.0, 20.0]
    end = [10.0, 4.0, 7.0, 3.0, 25.0]
    parent = [-1, 0, 0, 1, -1]
    own = self_times(start, end, parent)
    np.testing.assert_allclose(own, [4.0, 2.0, 3.0, 1.0, 5.0])
    # self times partition the root spans exactly
    assert own.sum() == pytest.approx(10.0 + 5.0)


def test_self_times_span_without_children():
    np.testing.assert_allclose(self_times([1.5], [2.0], [-1]), [0.5])


@pytest.fixture(scope="module")
def task():
    tr, dev, _ = generate_splits(SynthConfig(
        chain_length=2, n_distractor_facts=2, n_examples=4, n_dev=2,
        n_test=1, seed=0))
    params = init_params(4, tr.vocab.size, tr.vocab.n_answers,
                         np.random.default_rng(0), identity_eo=True)
    return tr, params


def test_traced_step_records_layers_and_restores_names(task):
    tr, params = task
    originals = (ag.matmul, ag.backward, hops.build_support, train.Adam.step)
    tracer = Tracer({id(ex): i for i, ex in enumerate(tr.examples)})
    with tracer.installed():
        loss = train.example_loss(tr.examples[1], params, tr.vocab, 2)
        ag.backward(loss)
    assert (ag.matmul, ag.backward, hops.build_support,
            train.Adam.step) == originals

    own, dur = tracer.totals()
    a = tracer.arrays()
    roots = a["parent"] < 0
    # every span's time lands in exactly one self time
    assert sum(own.values()) == pytest.approx(
        float(np.sum(a["end"][roots] - a["start"][roots])))
    assert own["autograd.backward"] >= 0.0 and dur["bw.gru_step"] > 0.0
    # doc 16 + separator + query 3 tokens, both directions
    assert tracer.counts["op.gru_step"] == 40
    assert tracer.counts["support_pairs"] == 8
    assert tracer.counts["hops"] == 2
    assert tracer.counts["tape_nodes"] > 0
    assert set(a["example"][a["example"] >= 0]) == {1}
    assert sum(tracer.errors.values()) == 0


def test_error_counts_once_in_innermost_layer(task):
    tr, params = task
    ex = tr.examples[0]
    # no candidate occurs in the document, so the support set is empty
    no_support = Example(
        document=Document(symbols=[tr.vocab.id(".")], raw_tokens=["."]),
        query=ex.query, gold=ex.gold, candidates=ex.candidates)
    tracer = Tracer()
    with tracer.installed():
        with pytest.raises(EmptySupportError):
            train.forward_pass(no_support, params, tr.vocab, 2)
    assert tracer.errors["support"] == 1
    assert sum(tracer.errors.values()) == 1
