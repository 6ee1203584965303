import hashlib

import numpy as np
import pytest

import hopqa.support as support
from hopqa import autograd as ag
from hopqa.data import SynthConfig, Vocab, generate_splits
from hopqa.encoder import (Document, bigru_encode, column_span_queries,
                           embed_sequence)
from hopqa.exceptions import EmptySupportError
from hopqa.hops import run_hops
from hopqa.model import init_params
from hopqa.support import (Example, build_support, build_support_batch,
                           encode_batch, stacked)


def make_doc(tokens, token2id, placeholder=None):
    pos = tokens.index(placeholder) + 1 if placeholder else None
    return Document(symbols=[token2id[t] for t in tokens],
                    raw_tokens=list(tokens), placeholder_pos=pos)


# small shared vocabulary for the news-style example
TOKENS = ["@blank", "@sep", "Schweinsteiger", "scored", "against", "Ukraine",
          "Germany", "played", "who", "?"]
T2I = {t: i for i, t in enumerate(TOKENS)}


def news_example():
    doc = make_doc(["Schweinsteiger", "scored", "against", "Ukraine",
                    "Germany", "played", "against", "Ukraine"], T2I)
    query = make_doc(["Germany", "played", "against", "@blank"], T2I,
                     placeholder="@blank")
    cands = [T2I["Ukraine"], T2I["Germany"]]
    return Example(document=doc, query=query, gold=T2I["Ukraine"],
                   candidates=cands)


def occurrence_symbols(ex, sup):
    """The answer symbol of each support row: the token at its position."""
    return [ex.document.symbols[l - 1] for l in sup.positions]


def answer_row(sym):
    # candidate symbols double as their own answer rows in these tests
    return {T2I["Ukraine"]: 0, T2I["Germany"]: 1}[sym]


def example_on(doc, candidates):
    """An example over `doc` with the news query; the first candidate is
    gold."""
    query = make_doc(["Germany", "played", "against", "@blank"], T2I,
                     placeholder="@blank")
    return Example(document=doc, query=query, gold=candidates[0],
                   candidates=candidates)


class TestPositions:
    def test_every_occurrence_in_order(self):
        assert news_example().positions == [4, 5, 8]

    def test_single_candidate_token_doc(self):
        doc = make_doc(["Ukraine"], T2I)
        assert example_on(doc, [T2I["Ukraine"]]).positions == [1]

    def test_non_candidates_skipped(self):
        doc = make_doc(["scored", "against", "who", "?"], T2I)
        assert example_on(doc, [T2I["Ukraine"], T2I["Germany"]]).positions \
            == []


class TestBuildSupport:
    def params(self, seed=0):
        return init_params(4, len(TOKENS), 2, np.random.default_rng(seed))

    def test_answer_sequence_matches_occurrences(self):
        ex = news_example()
        sup = build_support(ex, self.params(), answer_row=answer_row)
        assert sup.m == 3
        assert occurrence_symbols(ex, sup) == [T2I["Ukraine"], T2I["Germany"],
                                               T2I["Ukraine"]]
        assert sup.positions == ex.positions == [4, 5, 8]

    def test_cloze_consistency(self):
        """Row k of `y_i` embeds the token at `positions[k]`."""
        ex = news_example()
        p = self.params()
        sup = build_support(ex, p, answer_row=answer_row)
        for y_i, l in zip(sup.y_i.data, sup.positions, strict=True):
            assert np.array_equal(y_i, p.E_i.data[ex.document.symbols[l - 1]])

    def test_repeated_candidate_distinct_z_same_y(self):
        ex = news_example()
        sup = build_support(ex, self.params(), answer_row=answer_row)
        syms = occurrence_symbols(ex, sup)
        assert syms[0] == syms[2]
        assert np.array_equal(sup.y_i.data[0], sup.y_i.data[2])
        assert np.array_equal(sup.y_o.data[0], sup.y_o.data[2])
        assert not np.allclose(sup.z.data[0], sup.z.data[2])

    def test_deterministic(self):
        ex = news_example()
        a = build_support(ex, self.params(), answer_row=answer_row)
        b = build_support(ex, self.params(), answer_row=answer_row)
        assert np.array_equal(a.query_z.data, b.query_z.data)
        for name in ("z", "y_i", "y_o"):
            assert np.array_equal(getattr(a, name).data,
                                  getattr(b, name).data)

    def test_single_token_doc_zero_boundary_states(self):
        """With W_q = [I; I] the lone pair's z is h^f_0 + h^b_2; both are zero
        boundary states of the doc, but the query continues the sequence so
        h^b_2 is generally nonzero."""
        p = self.params()
        p.W_q.data[...] = np.concatenate([np.eye(4), np.eye(4)], axis=1)
        doc = make_doc(["Ukraine"], T2I)
        query = make_doc(["@blank"], T2I, placeholder="@blank")
        ex = Example(document=doc, query=query, gold=T2I["Ukraine"],
                     candidates=[T2I["Ukraine"]])
        sup = build_support(ex, p, answer_row=answer_row)
        assert sup.m == 1
        # forward boundary state h^f_0 is exactly zero; z = 0 + h^b_2
        emb_ids = doc.symbols + [T2I["@sep"]] + query.symbols
        states = bigru_encode(embed_sequence([emb_ids], [len(emb_ids)],
                                             p.E_i), [len(emb_ids)],
                              p.gru)
        # h^b_2 is backward row n+1-2 = 2 of the n = 3 token sequence
        assert np.allclose(sup.z.data[0], states.data[1, 2, 0])

    def test_query_occurrences_not_support(self):
        """Candidate tokens inside the query never become support pairs."""
        doc = make_doc(["Ukraine", "scored"], T2I)
        query = make_doc(["Germany", "against", "@blank"], T2I,
                         placeholder="@blank")
        ex = Example(document=doc, query=query, gold=T2I["Ukraine"],
                     candidates=[T2I["Ukraine"], T2I["Germany"]])
        sup = build_support(ex, self.params(), answer_row=answer_row)
        assert sup.positions == [1]
        assert sup.z.data.shape == (1, 4)

    def test_query_z_reads_placeholder_span(self):
        """Zeroing the placeholder's outer-context states is detectable, i.e.
        q0 depends exactly on the span around @blank."""
        ex = news_example()
        p = self.params()
        sup1 = build_support(ex, p, answer_row=answer_row)
        # placeholder is the final token; its span query uses h^f at the
        # position before it, which depends on the preceding query tokens
        p.E_i.data[T2I["against"]] += 1.0
        sup2 = build_support(ex, p, answer_row=answer_row)
        assert not np.allclose(sup1.query_z.data, sup2.query_z.data)


def tape_nodes(loss):
    """Tensors reachable from `loss` through `parents`."""
    seen, todo = {id(loss)}, [loss]
    while todo:
        for p in todo.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def support_loss(sup, rng):
    """A scalar reading every matrix of the support memory."""
    parts = [sup.z, sup.y_i, sup.y_o, sup.query_z]
    terms = [ag.dot(ag.reshape(t, (-1,)),
                    ag.constant(rng.normal(size=t.data.size)))
             for t in parts]
    return ag.add(ag.add(terms[0], terms[1]), ag.add(terms[2], terms[3]))


class Direction:
    """Direction d's block of a stacked GRU parameter, as `ag.grad_check`
    reads a parameter: its `data`, perturbed in place, and its `grad`."""

    def __init__(self, t, d):
        self.t, self.d, self.name = t, d, f"{t.name}[{d}]"

    @property
    def data(self):
        return self.t.data[self.d]

    @property
    def grad(self):
        return None if self.t.grad is None else self.t.grad[self.d]


class TestSupportMatrices:
    def test_gradients_match_finite_differences(self, rng):
        """Through all of `build_support` to W_q, E_i and E_o (and the
        encoder), with adjacent candidates so boundary rows are shared."""
        doc = make_doc(["Ukraine", "Germany", "scored", "Ukraine", "against",
                        "Germany"], T2I)
        query = make_doc(["who", "played", "@blank", "?"], T2I,
                         placeholder="@blank")
        ex = Example(document=doc, query=query, gold=T2I["Ukraine"],
                     candidates=[T2I["Ukraine"], T2I["Germany"]])
        p = init_params(3, len(TOKENS), 2, rng)

        def f():
            sup = build_support(ex, p, answer_row=answer_row)
            return support_loss(sup, np.random.default_rng(1))

        tensors = [p.W_q, p.E_i, p.E_o] + [Direction(t, 1)
                                           for _, t in p.gru.named()]
        assert ag.grad_check(f, tensors, eps=1e-5) < 1e-6
        ag.backward(f())
        for t in (p.W_q, p.E_i, p.E_o):
            assert np.any(t.grad != 0.0), t.name

    def test_tape_nodes_do_not_grow_with_m(self, rng):
        p = init_params(4, len(TOKENS), 2, rng)
        counts = {}
        for m in (1, 3, 8):
            tokens = [t for k in range(m)
                      for t in (("Ukraine", "Germany")[k % 2], "scored")]
            doc = make_doc(tokens, T2I)
            query = make_doc(["Germany", "@blank"], T2I, placeholder="@blank")
            ex = Example(document=doc, query=query, gold=T2I["Ukraine"],
                         candidates=[T2I["Ukraine"], T2I["Germany"]])
            sup = build_support(ex, p, answer_row=answer_row)
            assert sup.m == m
            counts[m] = tape_nodes(support_loss(sup, rng))
        assert counts[1] == counts[3] == counts[8], counts


class TestAnswerEmbeddings:
    def test_consistency_with_gather(self, rng):
        params = init_params(4, len(TOKENS), 2, rng)
        ex = news_example()
        sup = build_support(ex, params, answer_row=answer_row)
        syms = occurrence_symbols(ex, sup)
        assert np.array_equal(sup.y_i.data,
                              ag.gather_rows(params.E_i, syms).data)
        assert np.array_equal(sup.y_o.data,
                              params.E_o.data[[answer_row(s) for s in syms]])

    def test_identity_mode_one_hot(self, rng):
        params = init_params(4, len(TOKENS), 2, rng, identity_eo=True)
        sup = build_support(news_example(), params, answer_row=answer_row)
        assert np.array_equal(sup.y_o.data, [[1.0, 0.0], [0.0, 1.0],
                                             [1.0, 0.0]])

    def test_distinct_symbols_distinct_rows(self, rng):
        params = init_params(8, 12, 10, rng)
        cands = list(range(2, 12))
        doc = Document(symbols=cands, raw_tokens=[str(c) for c in cands])
        query = Document(symbols=[0], raw_tokens=["0"], placeholder_pos=1)
        ex = Example(document=doc, query=query, gold=2, candidates=cands)
        sup = build_support(ex, params, answer_row=lambda s: s - 2)
        rows = sup.y_o.data
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.allclose(rows[i], rows[j])

    def test_unknown_symbol_rejected(self, rng):
        params = init_params(4, len(TOKENS), 2, rng)
        with pytest.raises(IndexError):
            build_support(news_example(), params, answer_row=lambda s: 9)


class TestStacked:
    def test_shapes(self):
        ex = news_example()
        p = init_params(4, len(TOKENS), 2, np.random.default_rng(0))
        sup = build_support(ex, p, answer_row=answer_row)
        z, y_i, y_o = stacked(sup)
        assert (z, y_i, y_o) == (sup.z, sup.y_i, sup.y_o)
        assert z.data.shape == (3, 4)
        assert y_i.data.shape == (3, 4)
        assert y_o.data.shape == (3, 4)
        symbols = ex.document.symbols + [T2I["@sep"]] + ex.query.symbols
        states = bigru_encode(embed_sequence([symbols], [len(symbols)],
                                             p.E_i), [len(symbols)],
                              p.gru)
        n = len(symbols)
        q_pos = len(ex.document) + 1 + ex.query.placeholder_pos
        for k, l in enumerate(sup.positions):
            one = column_span_queries(states, 0, n, [l], p.W_q)
            assert np.allclose(z.data[k], one.data[0], rtol=0, atol=1e-15)
        one = column_span_queries(states, 0, n, [q_pos], p.W_q)
        assert np.allclose(sup.query_z.data, one.data[0], rtol=0, atol=1e-15)

    def test_empty_support_rejected(self, rng):
        """A document with no candidate occurrence builds an empty memory,
        which `stacked` refuses."""
        doc = make_doc(["scored", "against", "who"], T2I)
        query = make_doc(["Germany", "@blank"], T2I, placeholder="@blank")
        ex = Example(document=doc, query=query, gold=T2I["Ukraine"],
                     candidates=[T2I["Ukraine"], T2I["Germany"]])
        sup = build_support(ex, init_params(4, len(TOKENS), 2, rng),
                            answer_row=answer_row)
        assert sup.m == 0
        assert sup.z.data.shape == sup.y_i.data.shape == (0, 4)
        assert sup.query_z.data.shape == (4,)
        with pytest.raises(EmptySupportError):
            stacked(sup)


class TestExampleValidation:
    def test_gold_must_be_candidate(self):
        doc = make_doc(["Ukraine"], T2I)
        query = make_doc(["@blank"], T2I, placeholder="@blank")
        with pytest.raises(ValueError):
            Example(document=doc, query=query, gold=T2I["Germany"],
                    candidates=[T2I["Ukraine"]])

    def test_query_needs_placeholder(self):
        doc = make_doc(["Ukraine"], T2I)
        query = make_doc(["who", "?"], T2I)
        with pytest.raises(ValueError):
            Example(document=doc, query=query, gold=T2I["Ukraine"],
                    candidates=[T2I["Ukraine"]])


L2_TASK = {"chain_length": 2, "n_distractor_facts": 2, "n_examples": 6,
           "n_dev": 1, "n_test": 1, "seed": 3}
LONG_TASK = {"chain_length": 3, "n_distractor_facts": 12, "n_entities": 60,
             "n_examples": 3, "n_dev": 1, "n_test": 1, "seed": 4}
# recorded from the code that addressed each support pair by a Span object
SUPPORT_PIN_SHA256 = \
    "a4d4d17322f49b6bb2dbdf328fbd314e277c62752ddb735c3ab3c5cb43d9323e"


class TestSupportPin:
    def test_support_and_hops_pinned(self):
        """Support positions, the support matrices, the query vector, and
        three hops' scores and attention weights, byte for byte, over
        generated 2-hop examples (h=4) and 60-token documents with 30 support
        pairs (h=8)."""
        digest = hashlib.sha256()
        for task, h in ((L2_TASK, 4), (LONG_TASK, 8)):
            tr, _, _ = generate_splits(SynthConfig(**task))
            vocab = tr.vocab
            params = init_params(h, vocab.size, vocab.n_answers,
                                 np.random.default_rng(h))
            for ex in tr.examples:
                sup = build_support(ex, params, answer_row=vocab.answer_row)
                cand_mat = ag.gather_rows(
                    params.E_o, [vocab.answer_row(c) for c in ex.candidates])
                res = run_hops(sup.query_z, sup.z, sup.y_i, sup.y_o,
                               cand_mat, params, 3)
                for a in (np.asarray(sup.positions, dtype=np.int64),
                          sup.z.data, sup.y_i.data, sup.y_o.data,
                          sup.query_z.data, res.scores.data,
                          *(t.alpha for t in res.traces)):
                    digest.update(a.tobytes())
        assert digest.hexdigest() == SUPPORT_PIN_SHA256


def built(monkeypatch, dataset, params, answer_row):
    """`build_support_batch` over `dataset`'s examples, and the index arrays
    it read: the span positions, then the `E_i`, `E_o` and candidate row
    ids."""
    seen = []
    gather, spans = ag.gather_rows, support.column_span_queries

    def spy_gather(e, ids):
        seen.append(np.array(ids))
        return gather(e, ids)

    def spy_spans(states, b, n, positions, w_q):
        seen.append(np.array(positions))
        return spans(states, b, n, positions, w_q)

    states = encode_batch(dataset.examples, params)
    monkeypatch.setattr(ag, "gather_rows", spy_gather)
    monkeypatch.setattr(support, "column_span_queries", spy_spans)
    sb = build_support_batch(dataset.examples, params, answer_row=answer_row,
                             states=states)
    monkeypatch.undo()
    return sb, seen


def counted(answer_row):
    """`answer_row` and the list of symbols it was called with."""
    calls = []

    def row(sym):
        calls.append(sym)
        return answer_row(sym)
    return row, calls


class TestIndexLists:
    """Each example's index lists are built once per `answer_row` and read
    by every later `build_support_batch` call."""

    @staticmethod
    def task():
        tr, _, _ = generate_splits(SynthConfig(**LONG_TASK))
        return tr, init_params(8, tr.vocab.size, tr.vocab.n_answers,
                               np.random.default_rng(0))

    def test_built_once_and_identical(self, monkeypatch):
        tr, params = self.task()
        assert len({len(ex.candidates) for ex in tr.examples}) > 1
        row, calls = counted(tr.vocab.answer_row)
        first, idx = built(monkeypatch, tr, params, row)
        n_rows = sum(len(ex.positions) + len(ex.candidates)
                     for ex in tr.examples)
        assert len(calls) == n_rows
        again, idx_again = built(monkeypatch, tr, params, row)
        assert len(calls) == n_rows
        ex, vocab = tr.examples[0], tr.vocab
        assert (ex.index_lists(vocab.answer_row)[3]
                is ex.index_lists(vocab.answer_row)[3])
        # the same examples as loaded anew, no lists built yet
        fresh, _ = self.task()
        ref, idx_ref = built(monkeypatch, fresh, params,
                             fresh.vocab.answer_row)
        assert len(idx) == 4
        for other, other_idx in ((again, idx_again), (ref, idx_ref)):
            for a, b in zip(idx, other_idx, strict=True):
                assert np.array_equal(a, b)
            for name in ("queries", "y_i", "y_o", "cand"):
                assert np.array_equal(getattr(first, name).data,
                                      getattr(other, name).data), name
            assert np.array_equal(first.mask, other.mask)
            assert np.array_equal(first.cand_mask, other.cand_mask)

    def test_each_answer_row_gets_its_own_rows(self):
        tr, params = self.task()
        vocab = tr.vocab

        def reversed_rows(sym):
            return vocab.n_answers - 1 - vocab.answer_row(sym)
        for row in (vocab.answer_row, reversed_rows, vocab.answer_row):
            sb = build_support_batch(tr.examples, params, answer_row=row,
                                     states=encode_batch(tr.examples, params))
            for b, ex in enumerate(tr.examples):
                syms = [ex.document.symbols[l - 1] for l in ex.positions]
                m, k = len(syms), len(ex.candidates)
                assert np.array_equal(sb.y_o.data[b, :m], params.E_o.data[
                    [row(s) for s in syms]])
                assert np.array_equal(sb.cand.data[b, :k], params.E_o.data[
                    [row(c) for c in ex.candidates]])

    def test_non_answer_symbol_raises(self):
        """"Germany" is a pair symbol and a candidate but no answer symbol
        of the vocab; lists built for another `answer_row` do not hide
        it."""
        vocab = Vocab()
        for tok in TOKENS:
            vocab.add(tok)
        vocab.register_answer("Ukraine")
        ex = news_example()
        params = init_params(4, len(TOKENS), 2, np.random.default_rng(0))
        states = encode_batch([ex], params)
        build_support_batch([ex], params, answer_row=answer_row,
                            states=states)
        for _ in range(2):
            with pytest.raises(IndexError, match="not an answer symbol"):
                build_support_batch([ex], params, answer_row=vocab.answer_row,
                                    states=states)
            with pytest.raises(IndexError, match="not an answer symbol"):
                build_support(ex, params, answer_row=vocab.answer_row)
