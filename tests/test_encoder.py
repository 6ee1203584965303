import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.encoder import (Document, EncoderStates, Span, bigru_encode,
                           embed_answer, embed_sequence, encode_span_query,
                           gru_sequence, gru_step, init_wq)
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
        assert np.array_equal(states.fwd[0].data, np.zeros(4))
        assert np.array_equal(states.bwd[2].data, np.zeros(4))
        assert np.all(np.isfinite(states.fwd[1].data))

    def test_zero_weights_update_bias_keeps_state_near_zero(self):
        h = 3
        gru = zero_gru(h)
        gru.b_z.data[...] = 1.0
        emb = ag.constant(np.ones((4, h)))
        states = bigru_encode(emb, gru, zero_gru(h))
        # update gate sigmoid(1) ~ 0.73 keeps the zero state; candidate is 0
        for l in range(1, 5):
            assert np.allclose(states.fwd[l].data, 0.0)

    def test_hand_evaluated_single_step(self):
        # one token, all weights zero except candidate input path W_h = I
        h = 2
        gru = zero_gru(h)
        gru.W_h.data[...] = np.eye(h)
        x = np.array([[0.5, -1.0]])
        states = bigru_encode(ag.constant(x), gru, zero_gru(h))
        # z = sigmoid(0) = 0.5, r = 0.5, c = tanh(x), h = 0.5*tanh(x)
        assert np.allclose(states.fwd[1].data, 0.5 * np.tanh(x[0]))

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
            return ag.dot(states.fwd[n], ag.constant(weight))

        assert ag.grad_check(f, gru_tensors, eps=1e-4) < 1e-5

    def test_span_query_gradients_reach_both_directions(self, rng):
        """A span query mixes fwd[l_s-1] and bwd[l_e+1], so the backward
        direction's weights and the embeddings get checked too."""
        h = 3
        params = init_params(h, 6, 2, rng)
        doc = make_doc([1, 3, 5, 0, 2, 4])
        weight = rng.normal(size=h)
        tensors = ([params.E_i, params.W_q]
                   + [t for _, t in params.gru_f.named("f")]
                   + [t for _, t in params.gru_b.named("b")])

        def f():
            emb = embed_sequence(doc, params.E_i, 0.0, "eval")
            states = bigru_encode(emb, params.gru_f, params.gru_b)
            z = encode_span_query(states, Span(3, 4), params.W_q)
            return ag.dot(z, ag.constant(weight))

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
        assert states.fwd[2].parents[0] is states.fwd[4].parents[0]
        assert states.bwd[1].parents[0] is states.bwd[5].parents[0]
        assert states.fwd[2].parents[0].parents[0] is emb

    def test_rows_follow_list_indexing(self, rng):
        params = init_params(3, 6, 2, rng)
        emb = embed_sequence(make_doc([1, 2, 3]), params.E_i, 0.0, "eval")
        states = bigru_encode(emb, params.gru_f, params.gru_b)
        fwd = step_chain(emb, params.gru_f, False)
        bwd = step_chain(emb, params.gru_b, True)
        assert states.n == 3 and len(states.bwd) == 5
        for l in range(4):
            assert np.allclose(states.fwd[l].data, fwd[l].data)
        for l in range(1, 5):
            assert np.allclose(states.bwd[l].data, bwd[4 - l].data)
        assert states.fwd[2] is states.fwd[2]
        with pytest.raises(IndexError):
            states.bwd[0]


class TestSpanQuery:
    def test_identity_projection_sums_boundary_states(self, rng):
        params = init_params(3, 6, 2, rng)
        params.W_q.data[...] = np.concatenate([np.eye(3), np.eye(3)], axis=1)
        emb = embed_sequence(make_doc([1, 2, 3, 4]), params.E_i, 0.0, "eval")
        states = bigru_encode(emb, params.gru_f, params.gru_b)
        z = encode_span_query(states, Span(2, 3), params.W_q)
        assert np.allclose(z.data, states.fwd[1].data + states.bwd[4].data)

    def test_whole_document_span_is_zero(self, rng):
        params = init_params(3, 6, 2, rng)
        emb = embed_sequence(make_doc([1, 2, 3]), params.E_i, 0.0, "eval")
        states = bigru_encode(emb, params.gru_f, params.gru_b)
        z = encode_span_query(states, Span(1, 3), params.W_q)
        assert np.allclose(z.data, 0.0)

    def test_out_of_range_span(self, rng):
        params = init_params(3, 6, 2, rng)
        emb = embed_sequence(make_doc([1, 2]), params.E_i, 0.0, "eval")
        states = bigru_encode(emb, params.gru_f, params.gru_b)
        with pytest.raises(IndexError):
            encode_span_query(states, Span(1, 3), params.W_q)

    def test_reads_only_boundary_states(self, rng):
        """Perturbing every state except h^f_{l_s-1} and h^b_{l_e+1} leaves
        the span query unchanged."""
        h, n = 3, 5
        w_q = ag.param(rng.normal(size=(h, 2 * h)))
        fwd = [ag.constant(rng.normal(size=h)) for _ in range(n + 1)]
        bwd = [None] + [ag.constant(rng.normal(size=h)) for _ in range(n + 1)]
        states = EncoderStates(fwd=fwd, bwd=bwd)
        span = Span(2, 4)
        base = encode_span_query(states, span, w_q).data.copy()
        for l in range(n + 1):
            if l != span.l_s - 1:
                fwd[l].data += rng.normal(size=h)
        for l in range(1, n + 2):
            if l != span.l_e + 1:
                bwd[l].data += rng.normal(size=h)
        assert np.array_equal(encode_span_query(states, span, w_q).data, base)


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


class TestEmbedAnswer:
    def test_consistency_with_gather(self, rng):
        params = init_params(4, 6, 3, rng)
        y_i, y_o = embed_answer(5, params.E_i, params.E_o, 2)
        assert np.array_equal(y_i.data,
                              ag.gather_rows(params.E_i, [5]).data[0])
        assert np.array_equal(y_o.data, params.E_o.data[2])

    def test_identity_mode_one_hot(self, rng):
        params = init_params(4, 6, 3, rng, identity_eo=True)
        _, y_o = embed_answer(5, params.E_i, params.E_o, 1)
        assert np.array_equal(y_o.data, [0.0, 1.0, 0.0])

    def test_distinct_symbols_distinct_rows(self, rng):
        params = init_params(8, 20, 10, rng)
        rows = [embed_answer(i, params.E_i, params.E_o, i)[1].data
                for i in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.allclose(rows[i], rows[j])

    def test_unknown_symbol_rejected(self, rng):
        params = init_params(4, 6, 3, rng)
        with pytest.raises(IndexError):
            embed_answer(9, params.E_i, params.E_o, 0)
