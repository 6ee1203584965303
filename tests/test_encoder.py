from functools import reduce

import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.encoder import (GRUParams, _recurrent_maps, bigru_encode,
                           column_span_queries, embed_sequence, gru_step,
                           init_wq)
from hopqa.exceptions import ConfigError
from hopqa.model import init_params

from conftest import gru_gates, zero_gru


def embed_one(ids, e_i, *args):
    """One token-id sequence as a batch of one: a `(1, n, h)` node."""
    return embed_sequence([ids], [len(ids)], e_i, *args)


class TestEmbedSequence:
    def test_rate_zero_exact_lookup(self, rng):
        e = ag.param(rng.normal(size=(6, 3)))
        got = embed_one([1, 4, 2], e, 0.0, rng).data
        assert np.array_equal(got, e.data[[[1, 4, 2]]])

    def test_default_is_exact_lookup(self, rng):
        e = ag.param(rng.normal(size=(6, 3)))
        got = embed_one([0, 5], e).data
        assert np.array_equal(got, e.data[[[0, 5]]])

    def test_padded_batch_time_major_with_zero_pads(self, rng):
        """Row b holds sequence b's lookups, then zero rows; the memory is
        time-major, as `bigru_encode` reads it."""
        e = ag.param(rng.normal(size=(6, 3)))
        got = embed_sequence([[1, 4, 2], [5, 0, 0]], [3, 1], e).data
        assert got.shape == (2, 3, 3)
        assert got.transpose(1, 0, 2).flags.c_contiguous
        assert np.array_equal(got[0], e.data[[1, 4, 2]])
        assert np.array_equal(got[1, 0], e.data[5])
        assert not np.any(got[1, 1:])

    def test_dropout_draws_are_per_sequence_draws(self):
        """One draw over a batch's real tokens is, bit for bit, one draw
        per sequence in order, masked and scaled as one sequence alone."""
        e = ag.param(np.random.default_rng(0).normal(size=(6, 4)))
        seqs = [[1, 2, 3], [4], [5, 1]]
        ids = [s + [0] * (3 - len(s)) for s in seqs]
        got = embed_sequence(ids, [3, 1, 2], e, 0.3,
                             np.random.default_rng(9)).data
        rng = np.random.default_rng(9)
        for b, s in enumerate(seqs):
            keep = rng.random((len(s), 4)) >= 0.3
            want = e.data[s] * (keep.astype(float) / (1.0 - 0.3))
            assert np.array_equal(got[b, :len(s)], want), b
            assert not np.any(got[b, len(s):])

    def test_gradient_scatters_real_rows_in_order(self, rng):
        """Backward adds each real row's gradient, times its dropout scale,
        into its embedding row, repeats in order as row-wise `np.add.at`;
        pad rows add nothing."""
        e = ag.param(rng.normal(size=(6, 4)))
        emb = embed_sequence([[1, 2, 1], [2, 5, 0]], [3, 2], e, 0.5,
                             np.random.default_rng(3))
        weights = rng.normal(size=emb.data.shape)
        ag.backward(ag.dot(ag.reshape(emb, (-1,)),
                           ag.constant(weights.reshape(-1))))
        keep = np.random.default_rng(3).random((5, 4)) >= 0.5
        rows = weights[[0, 0, 0, 1, 1], [0, 1, 2, 0, 1]] * (keep / 0.5)
        want = np.zeros_like(e.data)
        np.add.at(want, [1, 2, 1, 2, 5], rows)
        assert np.array_equal(e.grad, want)

    def test_inverted_scaling_is_unbiased(self):
        rng = np.random.default_rng(42)
        e = ag.param(np.ones((1, 1)))
        n = 100_000
        got = embed_sequence(np.zeros((1, n), dtype=int), [n], e, 0.2, rng)
        assert got.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_bad_rate_rejected(self, rng):
        e = ag.param(np.ones((1, 1)))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                embed_one([0], e, rate, rng)
        with pytest.raises(ConfigError, match="rng"):
            embed_one([0], e, 0.2)

    def test_bad_id_rejected(self, rng):
        e = ag.param(np.ones((2, 1)))
        for bad in (2, -1):
            with pytest.raises(IndexError, match=rf"row id {bad} out"):
                embed_sequence([[0, bad]], [2], e)
        embed_sequence([[0, 7]], [1], e)  # a pad id is never read


def encode_one(ids, params):
    """A lone token-id sequence as a batch of one: states `[d, k, 0]`."""
    return bigru_encode(embed_one(ids, params.E_i), [len(ids)], params.gru)


def encode_rows(x, gru):
    """A lone sequence of `(n, h)` input rows as a batch of one."""
    return bigru_encode(ag.constant(x[None]), [len(x)], gru)


class TestBigru:
    def test_single_token_uses_zero_initial_states(self, rng):
        params = init_params(4, 5, 2, rng)
        states = encode_one([3], params)
        assert states.data.shape == (2, 2, 1, 4)
        assert np.array_equal(states.data[:, 0], np.zeros((2, 1, 4)))
        assert np.all(np.isfinite(states.data[:, 1]))

    def test_zero_weights_update_bias_keeps_state_near_zero(self):
        h = 3
        gru = zero_gru(h)
        gru_gates(gru, 0)["b_z"][...] = 1.0
        states = encode_rows(np.ones((4, h)), gru)
        # update gate sigmoid(1) ~ 0.73 keeps the zero state; candidate is 0
        for l in range(1, 5):
            assert np.allclose(states.data[0, l, 0], 0.0)

    def test_hand_evaluated_single_step(self):
        # one token, all weights zero except candidate input path W_h = I
        h = 2
        gru = zero_gru(h)
        gru_gates(gru, 0)["W_h"][...] = np.eye(h)
        x = np.array([[0.5, -1.0]])
        states = encode_rows(x, gru)
        # z = sigmoid(0) = 0.5, r = 0.5, c = tanh(x), h = 0.5*tanh(x)
        assert np.allclose(states.data[0, 1, 0], 0.5 * np.tanh(x[0]))

    def test_gradients_match_finite_differences(self, rng):
        h, n = 4, 5
        params = init_params(h, 6, 2, rng)
        doc = [1, 3, 5, 0, 2]
        weight = rng.normal(size=2 * (n + 1) * h)
        gru_tensors = [t for _, t in params.gru.named()]

        def f():
            states = encode_one(doc, params)
            return ag.dot(ag.reshape(states, (-1,)), ag.constant(weight))

        assert ag.grad_check(f, gru_tensors, eps=1e-4) < 1e-5

    def test_span_query_gradients_reach_both_directions(self, rng):
        """A position's query mixes h^f_{l-1} and h^b_{l+1}, so the backward
        direction's weights and the embeddings get checked too. Position 2
        appears twice, so its rows scatter twice."""
        h = 3
        params = init_params(h, 6, 2, rng)
        doc = [1, 3, 5, 0, 2, 4]
        positions = [4, 1, 2, 6, 2]
        weight = rng.normal(size=(len(positions), h))
        tensors = [params.E_i, params.W_q] + [t for _, t in
                                              params.gru.named()]

        def f():
            states = encode_one(doc, params)
            z = column_span_queries(states, 0, len(doc), positions,
                                    params.W_q)
            return ag.dot(ag.reshape(z, (-1,)),
                          ag.constant(weight.reshape(-1)))

        assert ag.grad_check(f, tensors, eps=1e-4) < 1e-5
        ag.backward(f())
        grads = GRUParams(*(ag.constant(t.grad) for _, t in
                            params.gru.named()))
        for name, g in gru_gates(grads, 1).items():
            assert np.any(g != 0.0), name


def step_chain(emb, p, d):
    """Reference: one `gru_step` node per position of direction d (1 reads
    right to left), states in reading order with the zero initial state
    first. The inputs are projected through per-gate copies of d's `W`
    blocks, returned second: `gru_step` writes the other gradients into
    `p` itself."""
    n, h = emb.data.shape[0], p.U_h.data.shape[-1]
    gates = gru_gates(p, d)
    w = [ag.param(gates[f].copy()) for f in ("W_z", "W_r", "W_h")]
    xz, xr, xh = (ag.matmul(emb, t) for t in w)
    state = ag.constant(np.zeros(h))
    states = [state]
    for l in (range(n - 1, -1, -1) if d else range(n)):
        state = gru_step(xz, xr, xh, l, state, p, d)
        states.append(state)
    return states, w


def random_gru(h, rng):
    p = init_params(h, 4, 2, rng).gru
    for _, t in p.named():
        t.data[...] = rng.normal(size=t.data.shape)
    return p


def weighted_sum(t, weights):
    return ag.dot(ag.reshape(t, (-1,)), ag.constant(weights.reshape(-1)))


def grads_of(loss, tensors):
    ag.backward(loss)
    grads = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None
    return grads


def assert_node_matches_chains(embs, gru, weights):
    """One `bigru_encode` node over `embs`, padded into one `(B, n, h)`
    input, against one `step_chain` per sequence and direction: each
    column's states to 1e-12 and, under the loss sum(weights * states), the
    gradients of every input and of the 4 stacked weights to 1e-10, the
    chains' `W` gradient assembled from their per-gate copies; pad input
    rows get exact zeros. `weights` is zero past each column's own length.
    Returns the node's gradients, the padded input's first."""
    lens = [e.data.shape[0] for e in embs]
    padded = ag.param(np.zeros((len(embs), max(lens), embs[0].data.shape[1])))
    for b, e in enumerate(embs):
        padded.data[b, :lens[b]] = e.data
    weight_params = [t for _, t in gru.named()]
    node = bigru_encode(padded, lens, gru)
    got_g = grads_of(weighted_sum(node, weights), [padded] + weight_params)
    terms, copies = [], []
    for b, emb in enumerate(embs):
        n = emb.data.shape[0]
        for d in range(2):
            rows, w = step_chain(emb, gru, d)
            copies.append((d, w))
            want = np.stack([r.data for r in rows])
            assert np.max(np.abs(node.data[d, :n + 1, b] - want)) < 1e-12
            terms.append(weighted_sum(ag.stack_rows(rows),
                                      weights[d, :n + 1, b]))
    E = len(embs)
    want_g = grads_of(reduce(ag.add, terms), list(embs) + weight_params[1:]
                      + [t for _, w in copies for t in w])
    # each chain's W_z, W_r, W_h copies, side by side in its direction's W
    want_w = np.zeros_like(gru.W.data)
    for k, (d, _) in enumerate(copies):
        want_w[d] += np.concatenate(want_g[E + 3 + 3 * k:E + 6 + 3 * k],
                                    axis=1)
    for b, n in enumerate(lens):
        assert np.max(np.abs(got_g[0][b, :n] - want_g[b])) < 1e-10, b
        assert not np.any(got_g[0][b, n:]), b
    want_weights = [want_w] + want_g[E:E + 3]
    for k, (g1, g2) in enumerate(zip(got_g[1:], want_weights, strict=True)):
        assert np.max(np.abs(g1 - g2)) < 1e-10, k
    return got_g


class TestGruSequence:
    """The `bigru_encode` node held to the `gru_step` chain."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("h", [1, 3, 16])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_step_chain(self, n, h, reverse):
        """A batch of one, the loss reading one direction: the other
        direction's weights get exactly zero gradient."""
        rng = np.random.default_rng(100 * n + 10 * h + reverse)
        gru = random_gru(h, rng)
        emb = ag.param(rng.normal(size=(n, h)))
        weights = np.zeros((2, n + 1, 1, h))
        weights[int(reverse)] = rng.normal(size=(n + 1, 1, h))
        grads = assert_node_matches_chains([emb], gru, weights)
        assert not any(np.any(g[1 - int(reverse)]) for g in grads[1:])

    def test_mixed_length_batch_matches_per_column_chains(self):
        """Three sequences of lengths 4, 1 and 6 in one node: each column
        is held to its own chains, and a pad step adds nothing."""
        rng = np.random.default_rng(7)
        h, lens = 3, (4, 1, 6)
        gru = random_gru(h, rng)
        embs = [ag.param(rng.normal(size=(n, h))) for n in lens]
        weights = np.zeros((2, max(lens) + 1, len(lens), h))
        for b, n in enumerate(lens):
            weights[:, :n + 1, b] = rng.normal(size=(2, n + 1, h))
        assert_node_matches_chains(embs, gru, weights)

    def test_one_node_for_both_directions(self, rng):
        params = init_params(3, 6, 2, rng)
        emb = embed_one([1, 2, 3, 4], params.E_i)
        states = bigru_encode(emb, [4], params.gru)
        gru = params.gru
        assert states.parents[0] is emb
        assert len(states.parents) == 5
        assert all(a is b for a, b in zip(
            states.parents[1:], (gru.W, gru.U_zr, gru.U_h, gru.b)))
        assert states.data.shape == (2, 5, 1, 3)

    def test_recurrent_maps_are_parameter_views(self, rng):
        """The recurrence multiplies by the parameters themselves: no call
        copies the recurrent maps."""
        gru = init_params(3, 6, 2, rng).gru
        u_zr, u_h = _recurrent_maps(gru)
        assert np.shares_memory(u_zr, gru.U_zr.data)
        assert np.shares_memory(u_h, gru.U_h.data)

    def test_empty_sequence_rejected(self, rng):
        params = init_params(3, 6, 2, rng)
        emb = embed_sequence([[1, 2], [0, 0]], [2, 0], params.E_i)
        with pytest.raises(ValueError, match="empty sequence"):
            bigru_encode(emb, [2, 0], params.gru)
        with pytest.raises(ValueError, match="padded to 2 tokens"):
            bigru_encode(emb, [2, 3], params.gru)

    def test_backward_runs_once(self, rng):
        """The backward pass spends the saved candidates: a second pass
        over the same node raises instead of reading them."""
        params = init_params(3, 6, 2, rng)
        loss = weighted_sum(encode_one([1, 2, 3], params),
                            np.ones((2, 4, 1, 3)))
        ag.backward(loss)
        with pytest.raises(RuntimeError, match="backward once"):
            ag.backward(loss, accumulate=True)

    def test_rows_follow_list_indexing(self, rng):
        """`[0, l]` is h^f_l; `[1, k]` is the state after k steps
        right-to-left, so h^b_l is row n+1-l, which position queries read."""
        params = init_params(3, 6, 2, rng)
        states = encode_one([1, 2, 3], params)
        emb = ag.gather_rows(params.E_i, [1, 2, 3])
        fwd = step_chain(emb, params.gru, 0)[0]
        bwd = step_chain(emb, params.gru, 1)[0]
        assert states.data.shape[1] == 4
        for k in range(4):
            assert np.allclose(states.data[0, k, 0], fwd[k].data)
            assert np.allclose(states.data[1, k, 0], bwd[k].data)
        eye, zero = np.eye(3), np.zeros((3, 3))
        read_fwd = ag.param(np.concatenate([eye, zero], axis=1))
        read_bwd = ag.param(np.concatenate([zero, eye], axis=1))
        for l in range(1, 4):
            z_f = column_span_queries(states, 0, 3, [l], read_fwd)
            assert np.allclose(z_f.data[0], fwd[l - 1].data)  # h^f_{l-1}
            z_b = column_span_queries(states, 0, 3, [l], read_bwd)
            assert np.allclose(z_b.data[0], bwd[3 - l].data)  # h^b_{l+1}


def encoded(rng, *lens, h=3):
    """Parameters and one `bigru_encode` node over sequences of `lens`."""
    params = init_params(h, 6, 2, rng)
    ids = rng.integers(0, 6, size=(len(lens), max(lens)))
    emb = embed_sequence(ids, lens, params.E_i)
    return params, bigru_encode(emb, lens, params.gru)


class TestSpanQuery:
    def test_identity_projection_sums_boundary_states(self, rng):
        params, states = encoded(rng, 4)
        params.W_q.data[...] = np.concatenate([np.eye(3), np.eye(3)], axis=1)
        z = column_span_queries(states, 0, 4, [2, 1], params.W_q)
        H = states.data[:, :, 0]
        assert np.allclose(z.data[0], H[0, 1] + H[1, 2])
        assert np.allclose(z.data[1], H[0, 0] + H[1, 3])

    def test_whole_document_span_is_zero(self, rng):
        """The only position of a one-token sequence reads both zero initial
        states."""
        params, states = encoded(rng, 1)
        z = column_span_queries(states, 0, 1, [1], params.W_q)
        assert np.array_equal(z.data, np.zeros((1, 3)))

    def test_out_of_range_span(self, rng):
        params, states = encoded(rng, 2)
        for bad in (3, 0, -1):
            with pytest.raises(IndexError, match=rf"position {bad} outside"):
                column_span_queries(states, 0, 2, [1, bad], params.W_q)

    def test_position_past_column_length_in_padded_width(self, rng):
        """Column 0 holds 2 tokens of a batch padded to 5: its position 3
        has state rows in the node but is outside its own sequence."""
        params, states = encoded(rng, 2, 5)
        with pytest.raises(IndexError, match=r"position 3 outside \[1, 2\]"):
            column_span_queries(states, 0, 2, [1, 3], params.W_q)
        assert column_span_queries(states, 1, 5, [3], params.W_q).data.shape \
            == (1, 3)

    def test_reads_only_boundary_states(self, rng):
        """Perturbing every state except h^f_{l-1} and h^b_{l+1} of each
        position in column b, the other column and the pad rows included,
        leaves the position queries unchanged."""
        h, n, b = 3, 6, 1
        w_q = ag.param(rng.normal(size=(h, 2 * h)))
        states = ag.constant(rng.normal(size=(2, n + 3, 2, h)))
        positions = [2, 5]
        base = column_span_queries(states, b, n, positions, w_q).data.copy()
        read = ({(0, l - 1, b) for l in positions}
                | {(1, n + 1 - (l + 1), b) for l in positions})
        for idx in np.ndindex(states.data.shape[:3]):
            if idx not in read:
                states.data[idx] += rng.normal(size=h)
        assert np.array_equal(
            column_span_queries(states, b, n, positions, w_q).data, base)
        states.data[0, 1, b] += 1.0
        assert not np.allclose(
            column_span_queries(states, b, n, positions, w_q).data, base)


def span_query_chain(h_f, h_b, positions, w_q):
    """Reference: per position, one `take_row` for each neighbouring state,
    a `concat` and a `matmul` by `w_q`; the rows stacked."""
    n = h_f.data.shape[0] - 1

    def bwd_at(l):  # h^b_l, read right-to-left
        return ag.take_row(h_b, n + 1 - l)

    return ag.stack_rows([
        ag.matmul(w_q, ag.concat([ag.take_row(h_f, l - 1), bwd_at(l + 1)]))
        for l in positions])


def row_sharing_positions(rng, m, n):
    """`m` positions over `n` tokens. The first three repeat position 2, so
    two rows read the same forward and backward rows; at m = 30 every
    position 1..n follows, so every addressable state row is read, and
    random positions fill the rest."""
    positions = ([2, 3, 2] + list(range(1, n + 1)))[:m]
    while len(positions) < m:
        positions.append(int(rng.integers(1, n + 1)))
    return positions


class TestSpanQueries:
    @pytest.mark.parametrize("h", [1, 4, 16])
    @pytest.mark.parametrize("m", [1, 3, 30])
    def test_matches_per_span_chain(self, m, h):
        """Column b of a batch of one and of a batch of two padded past the
        column's n tokens, against the chain over that column's states:
        the scatter reaches column b's own rows and nothing else."""
        rng = np.random.default_rng(10 * m + h)
        n = 12
        h_f = ag.param(rng.normal(size=(n + 1, h)))
        h_b = ag.param(rng.normal(size=(n + 1, h)))
        w_q = ag.param(rng.normal(size=(h, 2 * h)))
        positions = row_sharing_positions(rng, m, n)
        weights = rng.normal(size=m * h)
        want = span_query_chain(h_f, h_b, positions, w_q)
        want_g = grads_of(weighted_sum(want, weights), [h_f, h_b, w_q])
        for B, b, width in ((1, 0, n), (2, 1, n + 3)):
            states = ag.param(rng.normal(size=(2, width + 1, B, h)))
            states.data[0, :n + 1, b] = h_f.data
            states.data[1, :n + 1, b] = h_b.data
            got = column_span_queries(states, b, n, positions, w_q)
            g_states, g_wq = grads_of(weighted_sum(got, weights),
                                      [states, w_q])
            assert got.data.shape == (m, h)
            assert np.max(np.abs(got.data - want.data)) < 1e-12
            assert np.max(np.abs(g_wq - want_g[2])) < 1e-10
            for d in range(2):
                g = g_states[d, :n + 1, b]
                assert np.max(np.abs(g - want_g[d])) < 1e-10, (B, d)
                if m == 30:  # rows 0..n-1 of each direction are addressable
                    assert np.all(np.any(g[:n] != 0.0, axis=1))
                    assert not np.any(g[n])
            g_states[:, :n + 1, b] = 0.0
            assert not np.any(g_states), B

    def test_one_node_for_all_spans(self, rng):
        params, states = encoded(rng, 5)
        z = column_span_queries(states, 0, 5, range(1, 6), params.W_q)
        assert z.parents == (states, params.W_q)

    def test_no_spans(self, rng):
        params, states = encoded(rng, 3)
        z = column_span_queries(states, 0, 3, [], params.W_q)
        assert z.data.shape == (0, 3)


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
