import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.exceptions import DimensionError, EmptySupportError


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def total(x):
    """Sum of a vector's entries, as a dot product with ones."""
    return ag.dot(x, ag.constant(np.ones(x.data.shape)))


class TestMatmul:
    def test_identity(self):
        a = ag.constant(np.eye(2))
        b = ag.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ag.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_projector(self):
        p = ag.constant([[1.0, 0.0], [0.0, 0.0]])
        v = ag.constant([[5.0], [7.0]])
        assert np.array_equal(ag.matmul(p, v).data, [[5], [0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = ag.matmul(ag.constant(a), ag.constant(b)).data
        assert np.max(np.abs(got - triple_loop_matmul(a, b))) < 1e-12

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ag.matmul(ag.constant(np.zeros((2, 3))),
                      ag.constant(np.zeros((2, 2))))

    def test_matvec_gradients(self):
        rng = np.random.default_rng(1)
        a = ag.param(rng.normal(size=(3, 4)))
        v = ag.param(rng.normal(size=4))
        err = ag.grad_check(lambda: total(ag.tanh(ag.matmul(a, v))),
                            [a, v])
        assert err < 1e-6


class TestElementwise:
    def test_sigmoid_zero(self):
        assert float(ag.sigmoid(ag.constant(np.zeros(1))).data[0]) == 0.5

    def test_tanh_zero(self):
        assert float(ag.tanh(ag.constant(np.zeros(1))).data[0]) == 0.0

    def test_sigmoid_symmetry_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(scale=3.0, size=100)
        s = ag.sigmoid(ag.constant(x)).data + ag.sigmoid(ag.constant(-x)).data
        assert np.max(np.abs(s - 1.0)) < 1e-12

    def test_sigmoid_extremes_finite(self):
        y = ag.sigmoid(ag.constant([1000.0, -1000.0])).data
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(1.0)
        assert y[1] == pytest.approx(0.0)

    def test_stable_sigmoid_bit_equal_to_branch_form(self):
        """exp(min(x, 0)) as the numerator gives the bits of the branch
        form where(x >= 0, 1, exp(-|x|)), at the edge values and past the
        8,192 elements where numpy buffers that `where`; also in place."""
        rng = np.random.default_rng(8)
        x = np.concatenate(([0.0, -0.0, 800.0, -800.0, 1e-320, -1e-320],
                            rng.normal(scale=20.0, size=20000)))
        e = np.exp(-np.abs(x))
        want = (np.where(x >= 0, 1.0, e) / (1.0 + e)).tobytes()
        assert ag.stable_sigmoid(x).tobytes() == want
        assert ag.stable_sigmoid(x, out=x).tobytes() == want

    def test_binary_shape_mismatch(self):
        for op in (ag.add, ag.sub, ag.mul):
            with pytest.raises(DimensionError):
                op(ag.constant(np.zeros(2)), ag.constant(np.zeros(3)))


class TestSoftmax:
    def test_constant_logits_uniform(self):
        for c in (-7.5, 0.0, 3.0):
            y = ag.softmax(ag.constant([c] * 4)).data
            assert np.allclose(y, 0.25, atol=1e-12)

    def test_direct_evaluation(self):
        y = ag.softmax(ag.constant([np.log(1.0), np.log(3.0)])).data
        assert np.allclose(y, [0.25, 0.75], atol=1e-12)

    def test_no_overflow(self):
        y = ag.softmax(ag.constant([1000.0, 0.0])).data
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(1.0)

    def test_empty_input(self):
        with pytest.raises(EmptySupportError):
            ag.softmax(ag.constant(np.zeros(0)))

    def test_shift_invariance_and_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(scale=5.0, size=rng.integers(1, 8))
            y = ag.softmax(ag.constant(x)).data
            y2 = ag.softmax(ag.constant(x + rng.normal() * 10)).data
            assert np.all(y >= 0)
            assert abs(np.sum(y) - 1.0) < 1e-9
            assert np.max(np.abs(y - y2)) < 1e-9


class TestCrossEntropy:
    # row 1 has its gold at its last real column, rows 1 and 2 pad columns
    SCORES = np.array([[0.3, -1.2, 2.5, 0.0, 4.0, -0.7],
                       [1.1, 0.4, -2.0, 3.3, -np.inf, -np.inf],
                       [-5.0, 2.2, -np.inf, -np.inf, -np.inf, -np.inf],
                       [700.0, 699.5, -700.0, 0.0, 1.0, 2.0]])
    GOLD = [2, 3, 0, 1]

    def test_rows_are_logsumexp_minus_pick_bit_for_bit(self):
        """Each entry and its gradient row are those of logsumexp minus
        pick on that row alone, for the rows above and 60 random ones with
        random pads; pad columns get exact zeros."""
        rng = np.random.default_rng(10)
        scores = rng.normal(scale=4.0, size=(60, 6))
        real = rng.integers(1, 7, size=60)
        scores[np.arange(6) >= real[:, None]] = -np.inf
        scores = np.concatenate((self.SCORES, scores))
        gold = self.GOLD + [int(rng.integers(k)) for k in real]
        s = ag.param(scores.copy())
        ce = ag.cross_entropy(s, gold)
        ag.backward(total(ce))
        ref = ag.param(scores.copy())
        rows = [ag.take_row(ref, b) for b in range(len(gold))]
        want = [ag.sub(ag.logsumexp(r), ag.pick(r, k))
                for r, k in zip(rows, gold)]
        ag.backward(total(ag.concat([ag.reshape(w, (1,)) for w in want])))
        assert ce.data.shape == (64,)
        assert ce.data.tobytes() == np.array([w.data for w in want]).tobytes()
        assert s.grad.tobytes() == ref.grad.tobytes()
        assert np.all(s.grad[np.isinf(scores)] == 0.0)

    def test_vector_gives_scalar(self):
        row = ag.constant(self.SCORES[1])
        ce = ag.cross_entropy(row, 3)
        want = ag.sub(ag.logsumexp(row), ag.pick(row, 3))
        assert ce.data.shape == ()
        assert ce.data.tobytes() == want.data.tobytes()

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        s = ag.param(rng.normal(size=(3, 5)))
        w = ag.constant([0.5, -1.0, 2.0])
        err = ag.grad_check(lambda: ag.dot(w, ag.cross_entropy(s, [4, 0, 2])),
                            [s])
        assert err < 1e-6

    @pytest.mark.parametrize("gold,error", [([0, 1, 6, 0], IndexError),
                                            ([0, -1, 0, 0], IndexError),
                                            ([0, 1, 2], DimensionError)])
    def test_bad_gold_rejected(self, gold, error):
        with pytest.raises(error):
            ag.cross_entropy(ag.constant(self.SCORES), gold)


class TestGatherRows:
    def test_one_hot(self):
        got = ag.gather_rows(ag.constant(np.eye(3)), [2]).data
        assert np.array_equal(got, [[0, 0, 1]])

    def test_repeated_ids_accumulate(self):
        rng = np.random.default_rng(4)
        e = ag.param(rng.normal(size=(4, 3)))
        g1, g2 = rng.normal(size=3), rng.normal(size=3)
        rows = ag.gather_rows(e, [1, 1])
        loss = ag.add(ag.dot(ag.take_row(rows, 0), ag.constant(g1)),
                      ag.dot(ag.take_row(rows, 1), ag.constant(g2)))
        ag.backward(loss)
        assert np.allclose(e.grad[1], g1 + g2)
        # matches finite differences too
        e2 = ag.param(e.data.copy())

        def f():
            r = ag.gather_rows(e2, [1, 1])
            return ag.add(ag.dot(ag.take_row(r, 0), ag.constant(g1)),
                          ag.dot(ag.take_row(r, 1), ag.constant(g2)))
        assert ag.grad_check(f, [e2]) < 1e-6

    def test_empty_ids(self):
        got = ag.gather_rows(ag.constant(np.zeros((4, 3))), []).data
        assert got.shape == (0, 3)

    def test_out_of_range_names_id(self):
        with pytest.raises(IndexError, match="7"):
            ag.gather_rows(ag.constant(np.zeros((4, 3))), [0, 7])

    def test_2d_ids(self):
        e = np.arange(12.0).reshape(4, 3)
        ids = np.array([[3, 0, 1], [2, 2, 0]])
        got = ag.gather_rows(ag.constant(e), ids).data
        assert got.shape == (2, 3, 3)
        assert np.array_equal(got, e[ids])

    def test_2d_repeated_ids_scatter_add(self):
        rng = np.random.default_rng(5)
        e = ag.param(rng.normal(size=(4, 3)))
        ids = np.array([[1, 0, 1], [1, 3, 0]])
        w = rng.normal(size=(2, 3, 3))
        rows = ag.gather_rows(e, ids)
        ag.backward(ag.dot(ag.reshape(rows, (-1,)),
                           ag.constant(w.reshape(-1))))
        want = np.zeros((4, 3))
        for (b, k), i in np.ndenumerate(ids):
            want[i] += w[b, k]
        np.testing.assert_allclose(e.grad, want, rtol=1e-15, atol=0)
        assert not np.any(e.grad[2])

    @pytest.mark.parametrize("ids, first", [([[0, 1], [9, -1]], 9),
                                            ([[0, 3], [-2, 4]], -2)])
    def test_2d_out_of_range_names_first_bad_id(self, ids, first):
        with pytest.raises(IndexError,
                           match=rf"row id {first} out of range \[0, 4\)"):
            ag.gather_rows(ag.constant(np.zeros((4, 3))), np.array(ids))


class TestConcat:
    def test_basic(self):
        got = ag.concat([ag.constant([1.0]), ag.constant([2.0])]).data
        assert np.array_equal(got, [1.0, 2.0])

    def test_sum_through_stacked_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)
        w = ag.constant(np.concatenate([np.eye(4), np.eye(4)], axis=1))
        cat = ag.concat([ag.constant(x), ag.constant(np.zeros(4))])
        assert np.allclose(ag.matmul(w, cat).data, x)

    def test_roundtrip_split(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])
        cat = ag.concat([ag.constant(a), ag.constant(b)]).data
        assert np.array_equal(cat[:2], a)
        assert np.array_equal(cat[2:], b)

    def test_non_vector_rejected(self):
        with pytest.raises(DimensionError):
            ag.concat([ag.constant(np.zeros((2, 2)))])


class TestBackward:
    def test_sum_gives_ones(self):
        x = ag.param(np.arange(5.0))
        ag.backward(total(x))
        assert np.array_equal(x.grad, np.ones(5))

    def test_sigmoid_dot_matches_fd(self):
        rng = np.random.default_rng(6)
        w = ag.param(rng.normal(size=4))
        x = ag.constant(rng.normal(size=4))
        err = ag.grad_check(lambda: ag.sigmoid(ag.dot(w, x)), [w], eps=1e-5)
        assert err < 1e-6

    def test_second_backward_requires_accumulate_flag(self):
        x = ag.param(np.ones(3))
        loss = total(ag.mul(x, x))
        ag.backward(loss)
        with pytest.raises(RuntimeError):
            ag.backward(loss)
        ag.backward(loss, accumulate=True)
        assert np.allclose(x.grad, 4.0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            ag.backward(ag.constant(np.zeros(2)))

    def test_intermediate_grads_freed(self):
        x = ag.param(np.ones(3))
        mid = ag.tanh(x)
        loss = total(mid)
        ag.backward(loss)
        assert mid.grad is None
        assert x.grad is not None


class TestGradCheckHarness:
    def test_quadratic_nearly_exact(self):
        w = ag.param(np.array([1.0, -2.0, 3.0]))
        assert ag.grad_check(lambda: ag.dot(w, w), [w]) < 1e-9

    def test_detects_wrong_gradient_rule(self):
        w = ag.param(np.array([0.3, -0.7]))

        def bad_square(t):
            out = ag.Tensor(t.data ** 2, parents=(t,))

            def bw(g):
                t.grad += g * 3.0 * t.data  # deliberately wrong factor
            out.backward_fn = bw
            return out

        assert ag.grad_check(lambda: total(bad_square(w)), [w]) > 1e-2


def test_all_ops_composite_gradcheck():
    """Every registered op participates in one graph; analytic gradients
    match central differences at 64-bit."""
    rng = np.random.default_rng(7)
    e = ag.param(rng.normal(size=(5, 3)))
    m = ag.param(rng.normal(size=(3, 3)))
    v = ag.param(rng.normal(size=3))
    s = ag.param(np.asarray(0.4))

    def f():
        rows = ag.gather_rows(e, [0, 2, 2, 4])
        proj = ag.matmul(rows, ag.transpose(m))
        r0 = ag.take_row(proj, 0)
        r1 = ag.take_row(proj, 1)
        stacked = ag.stack_rows([ag.tanh(r0), ag.sigmoid(r1), v])
        blend = ag.matmul(ag.transpose(stacked),
                          ag.softmax(ag.matmul(stacked, v)))
        gate = ag.sigmoid(ag.dot(v, blend))
        mixed = ag.add(ag.smul(gate, blend),
                       ag.mul(ag.one_minus(ag.sigmoid(v)), r0))
        cat = ag.concat([mixed, ag.reshape(ag.pick(mixed, 1), (1,)),
                         ag.smul(ag.constant(0.5), ag.sub(r0, r1))])
        return ag.add(ag.logsumexp(cat), ag.smul(s, total(ag.mul(cat, cat))))

    assert ag.grad_check(f, [e, m, v, s], eps=1e-5) < 1e-6


def test_forward_determinism():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 4))
    v = rng.normal(size=4)

    def run():
        return ag.matmul(ag.constant(x),
                         ag.softmax(ag.tanh(ag.constant(v)))).data
    assert np.array_equal(run(), run())
