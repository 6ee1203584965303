import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.exceptions import EmptySupportError
from hopqa.hops import HopRunResult, run_hops

from conftest import hand_params
from hop_oracle import (answer_gate, eta_max_prob, init_answer, retrieve,
                        score_candidates, update_answer, update_query)


def t(x):
    return ag.constant(np.asarray(x, dtype=float))


class TestRetrieve:
    def test_zero_query_uniform(self, rng):
        z = t(rng.normal(size=(4, 3)))
        y = t(rng.normal(size=(4, 3)))
        r = retrieve(t(np.zeros(3)), z, y, y)
        assert np.allclose(r.alpha.data, 0.25)
        assert np.allclose(r.z_tilde.data, z.data.mean(axis=0))
        assert np.allclose(r.y_o_tilde.data, y.data.mean(axis=0))

    def test_single_pair_is_returned_exactly(self, rng):
        z = t(rng.normal(size=(1, 3)))
        yi = t(rng.normal(size=(1, 3)))
        yo = t(rng.normal(size=(1, 3)))
        r = retrieve(t(rng.normal(size=3)), z, yi, yo)
        assert np.allclose(r.alpha.data, [1.0])
        assert np.allclose(r.z_tilde.data, z.data[0])
        assert np.allclose(r.y_i_tilde.data, yi.data[0])
        assert np.allclose(r.y_o_tilde.data, yo.data[0])

    def test_hand_values(self):
        # inner products (1, 0, -1) -> softmax ~ (0.6652, 0.2447, 0.0900)
        z = t([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        y = t(np.zeros((3, 2)))
        r = retrieve(t([1.0, 0.0]), z, y, y)
        want = np.exp([1.0, 0.0, -1.0])
        want /= want.sum()
        assert np.allclose(r.alpha.data, want, atol=1e-12)
        assert np.allclose(r.alpha.data, [0.66524096, 0.24472847, 0.09003057],
                           atol=1e-8)
        assert np.allclose(r.z_tilde.data,
                           [want[0] - want[2], want[1]], atol=1e-12)

    def test_empty_support(self):
        z = t(np.zeros((0, 2)))
        with pytest.raises(EmptySupportError):
            retrieve(t(np.zeros(2)), z, z, z)

    def test_alpha_normalized_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            z = t(rng.normal(scale=3.0, size=(m, 4)))
            r = retrieve(t(rng.normal(size=4)), z, z, z)
            assert np.all(r.alpha.data >= 0)
            assert abs(r.alpha.data.sum() - 1.0) < 1e-9


class TestUpdateQuery:
    def make_retrieved(self, rng, h=2):
        z = t(rng.normal(size=(3, h)))
        y = t(rng.normal(size=(3, h)))
        return retrieve(t(rng.normal(size=h)), z, y, y)

    def test_large_positive_bias_keeps_query(self, rng):
        p = hand_params(2, b_q_g=[50.0, 50.0],
                        U_q_c=np.random.default_rng(1).normal(size=(2, 6)))
        q = t([0.3, -0.8])
        q_next, gate = update_query(q, self.make_retrieved(rng), p)
        assert np.allclose(q_next.data, q.data, atol=1e-9)
        assert np.all(gate.data > 1.0 - 1e-9)

    def test_large_negative_bias_full_replacement(self, rng):
        u_q_c = np.random.default_rng(1).normal(size=(2, 6))
        p = hand_params(2, b_q_g=[-50.0, -50.0], U_q_c=u_q_c)
        q = t([0.3, -0.8])
        r = self.make_retrieved(rng)
        q_next, _ = update_query(q, r, p)
        cat = np.concatenate([q.data, r.y_i_tilde.data, r.z_tilde.data])
        assert np.allclose(q_next.data, np.tanh(u_q_c @ cat), atol=1e-9)

    def test_hand_blockwise_identity(self, rng):
        # U_q_c = [I 0 0], U_q_g = 0, b = 0: q' = 0.5 q + 0.5 tanh(q)
        u_q_c = np.concatenate([np.eye(2), np.zeros((2, 4))], axis=1)
        p = hand_params(2, U_q_c=u_q_c)
        q = t([0.4, -1.2])
        q_next, gate = update_query(q, self.make_retrieved(rng), p)
        assert np.allclose(gate.data, 0.5)
        assert np.allclose(q_next.data, 0.5 * q.data + 0.5 * np.tanh(q.data))

    def test_gate_range(self, rng):
        p = hand_params(2, U_q_g=rng.normal(size=(2, 4)),
                        b_q_g=rng.normal(size=2))
        for _ in range(100):
            _, gate = update_query(t(rng.normal(size=2)),
                                   self.make_retrieved(rng), p)
            assert np.all(gate.data > 0) and np.all(gate.data < 1)


class TestInitAnswer:
    def test_gate_negative_saturation(self, rng):
        p = hand_params(3, g_a_q=-50.0, U_a_q=rng.normal(size=(3, 3)))
        a0 = init_answer(t(rng.normal(size=3)), p)
        assert np.max(np.abs(a0.data)) < 1e-9

    def test_gate_zero_gives_half(self, rng):
        u = rng.normal(size=(3, 3))
        p = hand_params(3, U_a_q=u)
        q0 = rng.normal(size=3)
        a0 = init_answer(t(q0), p)
        assert np.allclose(a0.data, 0.5 * (u @ q0))

    def test_identity_transform_saturated(self, rng):
        p = hand_params(3, g_a_q=50.0, U_a_q=np.eye(3))
        q0 = rng.normal(size=3)
        a0 = init_answer(t(q0), p)
        assert np.allclose(a0.data, q0, atol=1e-9)

    def test_identity_eo_mode_zero(self, rng):
        p = hand_params(3, n_answers=5, identity_eo=True)
        a0 = init_answer(t(rng.normal(size=3)), p)
        assert np.array_equal(a0.data, np.zeros(5))

    def test_ablation_zero(self, rng):
        p = hand_params(3, g_a_q=50.0, U_a_q=np.eye(3))
        a0 = init_answer(t(rng.normal(size=3)), p, ablate_query_gate=True)
        assert np.array_equal(a0.data, np.zeros(3))


class TestEta:
    def test_single_candidate(self, rng):
        eta, idx = eta_max_prob(t(rng.normal(size=3)),
                                t(rng.normal(size=(1, 3))))
        assert float(eta.data) == pytest.approx(1.0)
        assert idx == 0

    def test_equal_scores_half(self):
        cand = t([[1.0, 0.0], [1.0, 0.0]])
        eta, idx = eta_max_prob(t([2.0, 5.0]), cand)
        assert float(eta.data) == pytest.approx(0.5)
        assert idx == 0  # tie breaks to the lowest index

    def test_one_hot_scores(self):
        # candidate scores (1, 0) -> max softmax prob = e/(e+1)
        eta, idx = eta_max_prob(t([1.0, 0.0]), t(np.eye(2)))
        assert float(eta.data) == pytest.approx(np.e / (np.e + 1.0))
        assert float(eta.data) == pytest.approx(0.7311, abs=1e-4)
        assert idx == 0

    def test_empty_candidates(self):
        with pytest.raises(EmptySupportError):
            eta_max_prob(t(np.zeros(2)), t(np.zeros((0, 2))))

    def test_range(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            eta, _ = eta_max_prob(t(rng.normal(size=3)),
                                  t(rng.normal(size=(n, 3))))
            assert 0.0 < float(eta.data) <= 1.0


class TestAnswerGate:
    def test_zero_params_half(self, rng):
        p = hand_params(2)
        g = answer_gate(t(rng.normal(size=2)), t(rng.normal(size=2)),
                        t(rng.normal(size=2)), t(rng.normal(size=2)),
                        t(np.asarray(0.5)), p)
        assert float(g.data) == pytest.approx(0.5)

    def test_negative_bias_closes_gate(self, rng):
        p = hand_params(2, b_a=-50.0)
        g = answer_gate(t(rng.normal(size=2)), t(rng.normal(size=2)),
                        t(rng.normal(size=2)), t(rng.normal(size=2)),
                        t(np.asarray(0.5)), p)
        assert float(g.data) < 1e-9

    def test_hand_values_sigmoid_three(self):
        # u.[1,1,0,0,0.5*2] + 0 = 3 -> sigmoid(3)
        p = hand_params(2, u_a_g=[1.0, 1.0, 1.0, 1.0, 2.0])
        g = answer_gate(t([1.0, 1.0]), t([1.0, 1.0]), t([0.0, 0.0]),
                        t([5.0, -7.0]), t(np.asarray(0.5)), p)
        assert float(g.data) == pytest.approx(1.0 / (1.0 + np.exp(-3.0)))
        assert float(g.data) == pytest.approx(0.9526, abs=1e-4)

    def test_identity_mode_middle_block_ignored(self, rng):
        """In candidate-space mode the a0 block contributes zeros, so the gate
        ignores a0/y_o entirely through that block."""
        p = hand_params(2, n_answers=6, identity_eo=True,
                        u_a_g=rng.normal(size=5))
        q, zt = t(rng.normal(size=2)), t(rng.normal(size=2))
        eta = t(np.asarray(0.3))
        g1 = answer_gate(q, zt, t(rng.normal(size=6)),
                         t(rng.normal(size=6)), eta, p)
        g2 = answer_gate(q, zt, t(rng.normal(size=6)),
                         t(rng.normal(size=6)), eta, p)
        assert float(g1.data) == pytest.approx(float(g2.data))


class TestUpdateAnswer:
    def test_closed_gate_keeps_answer(self, rng):
        a = t(rng.normal(size=3))
        out = update_answer(a, t(np.asarray(0.0)), t(rng.normal(size=3)))
        assert np.array_equal(out.data, a.data)

    def test_open_gate_from_zero(self, rng):
        y = t(rng.normal(size=3))
        out = update_answer(t(np.zeros(3)), t(np.asarray(1.0)), y)
        assert np.array_equal(out.data, y.data)

    def test_telescoping_sum(self, rng):
        a = t(np.zeros(3))
        ys, gs = [], []
        for _ in range(5):
            y = t(rng.normal(size=3))
            g = float(rng.uniform(0.1, 0.9))
            a = update_answer(a, t(np.asarray(g)), y)
            ys.append(y.data)
            gs.append(g)
        want = sum(g * y for g, y in zip(gs, ys))
        assert np.allclose(a.data, want, rtol=1e-12)


class TestScoring:
    def test_zero_answer_uniform(self, rng):
        _, probs = score_candidates(t(np.zeros(3)), t(rng.normal(size=(4, 3))))
        assert np.allclose(probs.data, 0.25)

    def test_orthonormal_difference(self):
        cand = t(np.eye(3))
        a = t([1.0, -1.0, 0.0])  # a = c1 - c2
        scores, probs = score_candidates(a, cand)
        assert np.array_equal(scores.data, [1.0, -1.0, 0.0])
        want = np.exp([1.0, -1.0, 0.0])
        want /= want.sum()
        assert np.allclose(probs.data, want, atol=1e-12)
        assert HopRunResult(scores, probs, a).prediction == 0

    def test_tie_breaks_low_index(self):
        a = t(np.zeros(2))
        scores, probs = score_candidates(a, t(np.ones((3, 2))))
        assert HopRunResult(scores, probs, a).prediction == 0

    def test_empty_candidates(self):
        with pytest.raises(EmptySupportError):
            score_candidates(t(np.zeros(2)), t(np.zeros((0, 2))))

    def test_shift_invariance_of_argmax(self, rng):
        for _ in range(100):
            a = rng.normal(size=3)
            cand = rng.normal(size=(4, 3))
            _, p1 = score_candidates(t(a), t(cand))
            shifted = ag.constant(cand @ a + rng.normal() * 7.0)
            p2 = ag.softmax(shifted)
            assert int(np.argmax(p1.data)) == int(np.argmax(p2.data))


class TestRunHops:
    def rand_inputs(self, rng, m=4, h=3, c=3):
        z = t(rng.normal(size=(m, h)))
        yi = t(rng.normal(size=(m, h)))
        yo = t(rng.normal(size=(m, h)))
        cand = t(rng.normal(size=(c, h)))
        return z, yi, yo, cand

    def rand_params(self, rng, h=3):
        return hand_params(
            h, U_q_c=rng.normal(size=(h, 3 * h)),
            U_q_g=rng.normal(size=(h, 2 * h)), b_q_g=rng.normal(size=h),
            U_a_q=rng.normal(size=(h, h)), g_a_q=rng.normal(),
            u_a_g=rng.normal(size=2 * h + 1), b_a=rng.normal())

    def test_traces_and_invariants(self, rng):
        z, yi, yo, cand = self.rand_inputs(rng)
        p = self.rand_params(rng)
        res = run_hops(t(rng.normal(size=3)), z, yi, yo, cand, p, hops=3)
        assert len(res.traces) == 3
        for tr in res.traces:
            assert abs(tr.alpha.sum() - 1.0) < 1e-9
            assert 0.0 < tr.g_a < 1.0
            assert 0.0 < tr.eta <= 1.0
            assert 0.0 < tr.g_q_mean < 1.0
        assert abs(res.probs.data.sum() - 1.0) < 1e-9

    def test_answer_telescoping_with_forced_gate(self, rng):
        """With g^a forced to 1 and g^a_q closed, a_T is the plain sum of the
        per-hop retrieved answer embeddings."""
        z, yi, yo, cand = self.rand_inputs(rng)
        p = self.rand_params(rng)
        p.g_a_q.data[...] = -50.0  # a0 ~ 0
        res = run_hops(t(rng.normal(size=3)), z, yi, yo, cand, p, hops=4,
                       force_answer_gate=1.0)
        want = np.zeros(3)
        for tr in res.traces:
            want += yo.data.T @ tr.alpha
        assert np.allclose(res.answer.data, want, atol=1e-9)

    def test_identity_eo_attention_sum_reduction(self, rng):
        """Frozen-identity output embeddings + forced open answer gate:
        candidate scores equal accumulated attention mass per candidate."""
        m, h, c = 5, 3, 4
        owners = [0, 2, 1, 0, 3]  # support pair k answers candidate owners[k]
        z = t(rng.normal(size=(m, h)))
        yi = t(rng.normal(size=(m, h)))
        yo = t(np.eye(c)[owners])
        cand = t(np.eye(c))
        p = hand_params(h, n_answers=c, identity_eo=True)
        q0 = rng.normal(size=h)
        res = run_hops(t(q0), z, yi, yo, cand, p, hops=3,
                       force_answer_gate=1.0)
        # zero query-update params halve q each hop: q_t = q0 / 2^t
        want = np.zeros(c)
        q = q0.copy()
        for _ in range(3):
            s = z.data @ q
            alpha = np.exp(s - s.max())
            alpha /= alpha.sum()
            for k, owner in enumerate(owners):
                want[owner] += alpha[k]
            q = 0.5 * q
        assert np.allclose(res.scores.data, want, atol=1e-10)

    def test_eval_hops_can_exceed_one(self, rng):
        z, yi, yo, cand = self.rand_inputs(rng)
        p = self.rand_params(rng)
        q0 = t(rng.normal(size=3))
        r1 = run_hops(q0, z, yi, yo, cand, p, hops=1)
        r2 = run_hops(q0, z, yi, yo, cand, p, hops=2)
        assert len(r1.traces) == 1 and len(r2.traces) == 2
        # hop 1 is identical regardless of the total hop count
        assert np.allclose(r1.traces[0].alpha, r2.traces[0].alpha)

    def test_zero_hops_rejected(self, rng):
        z, yi, yo, cand = self.rand_inputs(rng)
        with pytest.raises(ValueError):
            run_hops(t(rng.normal(size=3)), z, yi, yo, cand,
                     self.rand_params(rng), hops=0)
