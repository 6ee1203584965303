"""`hops.run_hops`, the batched hop node at B=1, against the hop loop built
op by op (`hop_oracle.run_hops_ops`): forward values bit for bit, gradients
of every input and hop parameter to 1e-12, and the same refusals of bad
inputs."""

from functools import reduce

import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.data import SynthConfig, generate_splits
from hopqa.exceptions import DimensionError, EmptySupportError
from hopqa.hops import run_hops
from hopqa.model import init_params
from hopqa.train import chunk_losses, loss_from_scores

from conftest import hand_params
from hop_oracle import run_hops_ops

HOP_PARAMS = ("U_q_c", "U_q_g", "b_q_g", "U_a_q", "g_a_q", "u_a_g", "b_a")
INPUTS = ("q0", "Z", "Y_i", "Y_o", "cand")


def draw(rng, *, identity_eo, m, h=3, c=4):
    """Hop parameters and inputs as plain arrays, by name."""
    d = c if identity_eo else h
    return {
        "U_q_c": rng.normal(size=(h, 3 * h)),
        "U_q_g": rng.normal(size=(h, 2 * h)), "b_q_g": rng.normal(size=h),
        "U_a_q": rng.normal(size=(h, h)), "g_a_q": rng.normal(),
        "u_a_g": rng.normal(size=2 * h + 1), "b_a": rng.normal(),
        "q0": rng.normal(size=h), "Z": rng.normal(scale=2.0, size=(m, h)),
        "Y_i": rng.normal(size=(m, h)), "Y_o": rng.normal(size=(m, d)),
        "cand": rng.normal(size=(c, d)),
    }


def run(fn, arrays, *, identity_eo, hops, gold=1, **kw):
    """`fn` on fresh tensors built from `arrays`, then one backward of a
    loss through both `scores` and `probs`. Returns (result, gradients)."""
    h = len(arrays["q0"])
    c = len(arrays["cand"])
    p = hand_params(h, n_answers=c, identity_eo=identity_eo,
                    **{n: arrays[n] for n in HOP_PARAMS})
    x = {n: ag.constant(np.array(arrays[n])) for n in INPUTS}
    res = fn(x["q0"], x["Z"], x["Y_i"], x["Y_o"], x["cand"], p, hops, **kw)
    w = ag.constant(np.linspace(-1.0, 1.0, c))
    ag.backward(ag.add(loss_from_scores(res.scores, gold),
                       ag.dot(w, res.probs)))
    grads = {n: x[n].grad for n in INPUTS}
    grads.update({n: getattr(p, n).grad for n in HOP_PARAMS})
    return res, grads


def assert_equivalent(arrays, *, identity_eo, hops, **kw):
    node, g_node = run(run_hops, arrays, identity_eo=identity_eo, hops=hops,
                       **kw)
    ops, g_ops = run(run_hops_ops, arrays, identity_eo=identity_eo,
                     hops=hops, **kw)
    assert np.array_equal(node.scores.data, ops.scores.data)
    assert np.array_equal(node.probs.data, ops.probs.data)
    assert np.array_equal(node.answer.data, ops.answer.data)
    assert len(node.traces) == len(ops.traces) == hops
    for a, b in zip(node.traces, ops.traces):
        assert np.array_equal(a.alpha, b.alpha)
        assert (a.hop, a.g_a, a.eta, a.g_q_mean) == \
            (b.hop, b.g_a, b.eta, b.g_q_mean)
    for name in INPUTS + HOP_PARAMS:
        # the tape leaves None on a tensor off the loss's path; the node may
        # list it as a parent all the same (the query update at hops=1)
        want, got = (0.0 if gr is None else gr
                     for gr in (g_ops[name], g_node[name]))
        scale = np.max(np.abs(want), initial=0.0)
        err = np.max(np.abs(got - want), initial=0.0)
        assert err <= 1e-12 * scale, (name, err, scale)
    return node, g_node


@pytest.mark.parametrize("identity_eo", [False, True])
@pytest.mark.parametrize("mode", ["plain", "ablate_query_gate",
                                  "force_answer_gate"])
@pytest.mark.parametrize("hops", [1, 2, 3, 4])
def test_matches_per_op_oracle(identity_eo, mode, hops):
    kw = {"ablate_query_gate": {"ablate_query_gate": True},
          "force_answer_gate": {"force_answer_gate": 1.0}}.get(mode, {})
    rng = np.random.default_rng([hops, identity_eo, len(mode)])
    for i in range(10):
        m = 1 if i == 0 else int(rng.integers(2, 7))
        arrays = draw(rng, identity_eo=identity_eo, m=m)
        _, grads = assert_equivalent(arrays, identity_eo=identity_eo,
                                     hops=hops, **kw)
        if hops == 1:
            # Y_i only feeds the query update, and q_1 reaches no output
            assert not np.any(grads["Y_i"])


def test_eta_tie_goes_to_lowest_index():
    """One support pair (alpha = 1) and dyadic values: candidates 0 and 1
    score exactly alike and highest at every hop, so eta's arg-max is a
    tie. Its gradient goes through candidate 0, as `ag.pick` of `np.argmax`
    gives it."""
    rng = np.random.default_rng(5)
    arrays = draw(rng, identity_eo=False, m=1)
    arrays["Y_o"] = np.array([[1.0, 0.5, -1.0]])
    arrays["cand"] = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0], [0.5, 0.0, 0.0]])
    s = arrays["cand"] @ arrays["Y_o"][0]
    assert s[0] == s[1] == s.max()
    assert_equivalent(arrays, identity_eo=False, hops=2)


def test_grad_check():
    rng = np.random.default_rng(3)
    arrays = draw(rng, identity_eo=False, m=4)
    p = hand_params(3, n_answers=4, **{n: arrays[n] for n in HOP_PARAMS})
    x = {n: ag.param(np.array(arrays[n]), name=n) for n in INPUTS}

    def f():
        res = run_hops(x["q0"], x["Z"], x["Y_i"], x["Y_o"], x["cand"], p, 3)
        return loss_from_scores(res.scores, 2)

    tensors = list(x.values()) + [getattr(p, n) for n in HOP_PARAMS]
    assert ag.grad_check(f, tensors) <= 1e-4


class TestRefusals:
    """The checks the per-op loop made through `ag.matmul` and
    `ag.softmax`, made before any arithmetic."""

    def call(self, **shapes):
        rng = np.random.default_rng(0)
        arrays = draw(rng, identity_eo=False, m=3)
        for name, shape in shapes.items():
            arrays[name] = rng.normal(size=shape)
        x = [ag.constant(arrays[n]) for n in INPUTS]
        p = hand_params(3, n_answers=4, **{n: arrays[n] for n in HOP_PARAMS})
        return run_hops(*x, p, 2)

    def test_empty_support(self):
        with pytest.raises(EmptySupportError):
            self.call(Z=(0, 3), Y_i=(0, 3), Y_o=(0, 3))

    def test_query_width(self):
        with pytest.raises(DimensionError):
            self.call(q0=(4,))

    def test_y_i_rows(self):
        with pytest.raises(DimensionError):
            self.call(Y_i=(2, 3))

    def test_y_o_rows(self):
        with pytest.raises(DimensionError):
            self.call(Y_o=(4, 3))

    def test_y_o_width_against_candidates(self):
        with pytest.raises(DimensionError):
            self.call(cand=(4, 2))


def count_nodes(root) -> int:
    """Tensors reachable from `root` through `parents`."""
    seen, todo = {id(root)}, [root]
    while todo:
        for p in todo.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def test_chunk_tape_size():
    """The tape of one training chunk of L2 examples at h=16, 2 hops,
    identity E_o (the acceptance recipe): 8 examples, and 16, the recipe's
    whole minibatch. Built op by op, the hop loops took a chunk of 8 to 522
    nodes; with one hop node per example, 122; with one per chunk, 79,
    of which 39 were the four loss nodes per example and their sum. One
    cross-entropy node per chunk leaves a pick and an add per example."""
    for size, nodes in ((8, 56), (16, 80)):
        train_set, _, _ = generate_splits(SynthConfig(
            chain_length=2, n_distractor_facts=2, n_examples=size, n_dev=1,
            n_test=1, seed=0))
        vocab = train_set.vocab
        params = init_params(16, vocab.size, vocab.n_answers,
                             np.random.default_rng(0), identity_eo=True)
        losses = chunk_losses(train_set.examples, params, vocab, 2)
        assert count_nodes(reduce(ag.add, losses)) == nodes, size
