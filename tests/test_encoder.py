import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.encoder import (Document, EncoderStates, Span, bigru_encode,
                           embed_sequence, encode_span_queries, gru_sequence,
                           gru_step, init_wq)
from hopqa.exceptions import ConfigError
from hopqa.model import init_params

from conftest import zero_gru


def make_doc(ids):
    return Document(symbols=list(ids), raw_tokens=[str(i) for i in ids])


class TestEmbedSequence:
    def test_rate_zero_exact_lookup(self, rng):
        e = ag.param(rng.normal(size=(6, 3)))
        doc = make_doc([1, 4, 2])
        got = embed_sequence(doc, e, 0.0, "train", rng).data
        assert np.array_equal(got, e.data[[1, 4, 2]])

    def test_eval_mode_ignores_rate(self, rng):
        e = ag.param(rng.normal(size=(6, 3)))
        doc = make_doc([0, 5])
        got = embed_sequence(doc, e, 0.2, "eval").data
        assert np.array_equal(got, e.data[[0, 5]])

    def test_inverted_scaling_is_unbiased(self):
        rng = np.random.default_rng(42)
        e = ag.param(np.ones((1, 1)))
        doc = make_doc([0])
        total = 0.0
        n = 100_000
        for _ in range(n):
            total += embed_sequence(doc, e, 0.2, "train", rng).data.item()
        assert total / n == pytest.approx(1.0, abs=0.02)

    def test_bad_rate_rejected(self, rng):
        doc = make_doc([0])
        e = ag.param(np.ones((1, 1)))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                embed_sequence(doc, e, rate, "train", rng)


class TestBigru:
    def test_single_token_uses_zero_initial_states(self, rng):
        params = init_params(4, 5, 2, rng)
        emb = embed_sequence(make_doc([3]), params.E_i, 0.0, "eval")
        states = bigru_encode(emb, params.gru_f, params.gru_b)
        assert states.n == 1
        assert np.array_equal(states.fwd.data[0], np.zeros(4))
        assert np.array_equal(states.bwd.data[0], np.zeros(4))
        assert np.all(np.isfinite(states.fwd.data[1]))

    def test_zero_weights_update_bias_keeps_state_near_zero(self):
        h = 3
        gru = zero_gru(h)
        gru.b_z.data[...] = 1.0
        emb = ag.constant(np.ones((4, h)))
        states = bigru_encode(emb, gru, zero_gru(h))
        # update gate sigmoid(1) ~ 0.73 keeps the zero state; candidate is 0
        for l in range(1, 5):
            assert np.allclose(states.fwd.data[l], 0.0)

    def test_hand_evaluated_single_step(self):
        # one token, all weights zero except candidate input path W_h = I
        h = 2
        gru = zero_gru(h)
        gru.W_h.data[...] = np.eye(h)
        x = np.array([[0.5, -1.0]])
        states = bigru_encode(ag.constant(x), gru, zero_gru(h))
        # z = sigmoid(0) = 0.5, r = 0.5, c = tanh(x), h = 0.5*tanh(x)
        assert np.allclose(states.fwd.data[1], 0.5 * np.tanh(x[0]))

    def test_gradients_match_finite_differences(self, rng):
        h, n = 4, 5
        params = init_params(h, 6, 2, rng)
        doc = make_doc([1, 3, 5, 0, 2])
        weight = rng.normal(size=h)
        gru_tensors = [t for _, t in params.gru_f.named("f")] + \
                      [t for _, t in params.gru_b.named("b")]

        def f():
            emb = embed_sequence(doc, params.E_i, 0.0, "eval")
            states = bigru_encode(emb, params.gru_f, params.gru_b)
            return ag.dot(ag.take_row(states.fwd, n), ag.constant(weight))

        assert ag.grad_check(f, gru_tensors, eps=1e-4) < 1e-5

    def test_span_query_gradients_reach_both_directions(self, rng):
        """A span query mixes h^f_{l_s-1} and h^b_{l_e+1}, so the backward
        direction's weights and the embeddings get checked too."""
        h = 3
        params = init_params(h, 6, 2, rng)
        doc = make_doc([1, 3, 5, 0, 2, 4])
        spans = [Span(3, 4), Span(1, 1), Span(2, 2), Span(6, 6)]
        weight = rng.normal(size=(len(spans), h))
        tensors = ([params.E_i, params.W_q]
                   + [t for _, t in params.gru_f.named("f")]
                   + [t for _, t in params.gru_b.named("b")])

        def f():
            emb = embed_sequence(doc, params.E_i, 0.0, "eval")
            states = bigru_encode(emb, params.gru_f, params.gru_b)
            z = encode_span_queries(states, spans, params.W_q)
            return ag.dot(ag.reshape(z, (-1,)),
                          ag.constant(weight.reshape(-1)))

        assert ag.grad_check(f, tensors, eps=1e-4) < 1e-5
        ag.backward(f())
        for _, t in params.gru_b.named("b"):
            assert np.any(t.grad != 0.0)


def step_chain(emb, p, reverse):
    """Reference: one `gru_step` node per position, states in reading order
    with the zero initial state first."""
    n, h = emb.data.shape[0], p.U_z.data.shape[0]
    xz, xr, xh = (ag.matmul(emb, w) for w in (p.W_z, p.W_r, p.W_h))
    state = ag.zeros(h)
    states = [state]
    for l in (range(n - 1, -1, -1) if reverse else range(n)):
        state = gru_step(xz, xr, xh, l, state, p)
        states.append(state)
    return states


class TestGruSequence:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("h", [1, 3, 16])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_step_chain(self, n, h, reverse):
        rng = np.random.default_rng(100 * n + 10 * h + reverse)
        p = init_params(h, 4, 2, rng).gru_f
        for _, t in p.named("p"):
            t.data[...] = rng.normal(size=t.data.shape)
        emb = ag.param(rng.normal(size=(n, h)))
        weights = rng.normal(size=(n + 1, h))
        tensors = [emb] + [t for _, t in p.named("p")]

        def states_and_grads(rows):
            loss = ag.dot(ag.reshape(ag.stack_rows(rows), (-1,)),
                          ag.constant(weights.reshape(-1)))
            ag.backward(loss)
            grads = [t.grad.copy() for t in tensors]
            for t in tensors:
                t.grad = None
            return np.stack([r.data for r in rows]), grads

        want, want_g = states_and_grads(step_chain(emb, p, reverse))
        seq = gru_sequence(emb, p, reverse)
        got, got_g = states_and_grads(
            [ag.take_row(seq, k) for k in range(n + 1)])
        assert np.max(np.abs(got - want)) < 1e-12
        for t, g1, g2 in zip(tensors, got_g, want_g):
            assert np.max(np.abs(g1 - g2)) < 1e-10, t

    def test_one_node_per_direction(self, rng):
        params = init_params(3, 6, 2, rng)
        emb = embed_sequence(make_doc([1, 2, 3, 4]), params.E_i, 0.0, "eval")
        states = bigru_encode(emb, params.gru_f, params.gru_b)
        assert states.fwd.parents[0] is emb
        assert states.bwd.parents[0] is emb
        assert states.fwd.data.shape == states.bwd.data.shape == (5, 3)

    def test_rows_follow_list_indexing(self, rng):
        """`fwd` row l is h^f_l; `bwd` row k is the state after k steps
        right-to-left, so h^b_l is row n+1-l, which span queries read."""
        params = init_params(3, 6, 2, rng)
        emb = embed_sequence(make_doc([1, 2, 3]), params.E_i, 0.0, "eval")
        states = bigru_encode(emb, params.gru_f, params.gru_b)
        fwd = step_chain(emb, params.gru_f, False)
        bwd = step_chain(emb, params.gru_b, True)
        assert states.n == 3
        for k in range(4):
            assert np.allclose(states.fwd.data[k], fwd[k].data)
            assert np.allclose(states.bwd.data[k], bwd[k].data)
        eye, zero = np.eye(3), np.zeros((3, 3))
        read_fwd = ag.param(np.concatenate([eye, zero], axis=1))
        read_bwd = ag.param(np.concatenate([zero, eye], axis=1))
        for l in range(1, 4):
            z_f = encode_span_queries(states, [Span(l, 3)], read_fwd)
            assert np.allclose(z_f.data[0], fwd[l - 1].data)  # h^f_{l-1}
            z_b = encode_span_queries(states, [Span(1, l)], read_bwd)
            assert np.allclose(z_b.data[0], bwd[3 - l].data)  # h^b_{l+1}


def encoded(rng, n, h=3):
    params = init_params(h, 6, 2, rng)
    emb = embed_sequence(make_doc(rng.integers(0, 6, size=n)), params.E_i,
                         0.0, "eval")
    return params, bigru_encode(emb, params.gru_f, params.gru_b)


class TestSpanQuery:
    def test_identity_projection_sums_boundary_states(self, rng):
        params, states = encoded(rng, 4)
        params.W_q.data[...] = np.concatenate([np.eye(3), np.eye(3)], axis=1)
        z = encode_span_queries(states, [Span(2, 3), Span(1, 1)], params.W_q)
        assert np.allclose(z.data[0], states.fwd.data[1] + states.bwd.data[1])
        assert np.allclose(z.data[1], states.fwd.data[0] + states.bwd.data[3])

    def test_whole_document_span_is_zero(self, rng):
        params, states = encoded(rng, 3)
        z = encode_span_queries(states, [Span(1, 3)], params.W_q)
        assert np.allclose(z.data, 0.0)

    def test_out_of_range_span(self, rng):
        params, states = encoded(rng, 2)
        with pytest.raises(IndexError, match=r"span \(1, 3\)"):
            encode_span_queries(states, [Span(1, 1), Span(1, 3)], params.W_q)

    def test_reads_only_boundary_states(self, rng):
        """Perturbing every state except h^f_{l_s-1} and h^b_{l_e+1} of each
        span leaves the span queries unchanged."""
        h, n = 3, 6
        w_q = ag.param(rng.normal(size=(h, 2 * h)))
        states = EncoderStates(fwd=ag.constant(rng.normal(size=(n + 1, h))),
                               bwd=ag.constant(rng.normal(size=(n + 1, h))))
        spans = [Span(2, 4), Span(5, 5)]
        base = encode_span_queries(states, spans, w_q).data.copy()
        read_f = {s.l_s - 1 for s in spans}
        read_b = {n + 1 - (s.l_e + 1) for s in spans}
        for k in range(n + 1):
            if k not in read_f:
                states.fwd.data[k] += rng.normal(size=h)
            if k not in read_b:
                states.bwd.data[k] += rng.normal(size=h)
        assert np.array_equal(encode_span_queries(states, spans, w_q).data,
                              base)
        states.fwd.data[1] += 1.0
        assert not np.allclose(encode_span_queries(states, spans, w_q).data,
                               base)


def span_query_chain(states, spans, w_q):
    """Reference: per span, one `take_row` for each boundary state, a
    `concat` and a `matmul` by `w_q`; the rows stacked."""
    n = states.n

    def bwd_at(l):  # h^b_l, read right-to-left
        return ag.take_row(states.bwd, n + 1 - l)

    return ag.stack_rows([
        ag.matmul(w_q, ag.concat([ag.take_row(states.fwd, s.l_s - 1),
                                  bwd_at(s.l_e + 1)]))
        for s in spans])


def boundary_sharing_spans(rng, m, n):
    """`m` spans over `n` positions. The first three are adjacent and share
    forward rows (l_s = 2) and backward rows (l_e = 3); the rest are random,
    so at m = 30 rows repeat further."""
    spans = [Span(2, 2), Span(3, 3), Span(2, 3)][:m]
    while len(spans) < m:
        l_s = int(rng.integers(1, n + 1))
        spans.append(Span(l_s, int(rng.integers(l_s, n + 1))))
    return spans


class TestSpanQueries:
    @pytest.mark.parametrize("h", [1, 4, 16])
    @pytest.mark.parametrize("m", [1, 3, 30])
    def test_matches_per_span_chain(self, m, h):
        rng = np.random.default_rng(10 * m + h)
        n = 12
        states = EncoderStates(fwd=ag.param(rng.normal(size=(n + 1, h))),
                               bwd=ag.param(rng.normal(size=(n + 1, h))))
        w_q = ag.param(rng.normal(size=(h, 2 * h)))
        spans = boundary_sharing_spans(rng, m, n)
        weights = ag.constant(rng.normal(size=m * h))
        tensors = [states.fwd, states.bwd, w_q]

        def values_and_grads(z):
            ag.backward(ag.dot(ag.reshape(z, (-1,)), weights))
            grads = [t.grad.copy() for t in tensors]
            for t in tensors:
                t.grad = None
            return z.data, grads

        want, want_g = values_and_grads(span_query_chain(states, spans, w_q))
        got, got_g = values_and_grads(encode_span_queries(states, spans, w_q))
        assert got.shape == (m, h)
        assert np.max(np.abs(got - want)) < 1e-12
        for t, g1, g2 in zip(("fwd", "bwd", "W_q"), got_g, want_g):
            assert np.max(np.abs(g1 - g2)) < 1e-10, t

    def test_one_node_for_all_spans(self, rng):
        params, states = encoded(rng, 5)
        z = encode_span_queries(states, [Span(l, l) for l in range(1, 6)],
                                params.W_q)
        assert z.parents == (states.fwd, states.bwd, params.W_q)

    def test_no_spans(self, rng):
        params, states = encoded(rng, 3)
        assert encode_span_queries(states, [], params.W_q).data.shape == (0, 3)


class TestInitWq:
    def test_zero_noise_sums_halves(self, rng):
        w = init_wq(4, rng, noise_std=0.0)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert np.allclose(w @ np.concatenate([a, b]), a + b)

    def test_shape(self, rng):
        assert init_wq(5, rng).shape == (5, 10)

    def test_mean_is_stacked_identity(self):
        trials = 2000
        std = 0.1
        acc = np.zeros((3, 6))
        for seed in range(trials):
            acc += init_wq(3, np.random.default_rng(seed), noise_std=std)
        mean = acc / trials
        expected = np.concatenate([np.eye(3), np.eye(3)], axis=1)
        assert np.max(np.abs(mean - expected)) < 3 * std / np.sqrt(trials) * 4
