import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.encoder import (Document, Span, bigru_encode, embed_sequence,
                           encode_span_queries)
from hopqa.exceptions import EmptySupportError
from hopqa.model import init_params
from hopqa.support import Example, build_support, extract_sois, stacked


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


def answer_row(sym):
    # candidate symbols double as their own answer rows in these tests
    return {T2I["Ukraine"]: 0, T2I["Germany"]: 1}[sym]


class TestExtractSois:
    def test_every_occurrence_in_order(self):
        ex = news_example()
        spans = extract_sois(ex.document, ex.candidates)
        assert [(s.l_s, s.l_e) for s in spans] == [(4, 4), (5, 5), (8, 8)]

    def test_empty_candidates(self):
        ex = news_example()
        assert extract_sois(ex.document, []) == []

    def test_single_candidate_token_doc(self):
        doc = make_doc(["Ukraine"], T2I)
        spans = extract_sois(doc, [T2I["Ukraine"]])
        assert [(s.l_s, s.l_e) for s in spans] == [(1, 1)]

    def test_non_candidates_skipped(self):
        doc = make_doc(["scored", "against", "who", "?"], T2I)
        assert extract_sois(doc, [T2I["Ukraine"], T2I["Germany"]]) == []


class TestBuildSupport:
    def params(self, seed=0):
        return init_params(4, len(TOKENS), 2, np.random.default_rng(seed))

    def test_answer_sequence_matches_occurrences(self):
        ex = news_example()
        sup = build_support(ex, self.params(), sep_id=T2I["@sep"],
                            answer_row=answer_row)
        assert sup.m == 3
        assert sup.answer_symbols == [T2I["Ukraine"], T2I["Germany"],
                                      T2I["Ukraine"]]
        assert sup.spans == extract_sois(ex.document, ex.candidates)

    def test_cloze_consistency(self):
        ex = news_example()
        sup = build_support(ex, self.params(), sep_id=T2I["@sep"],
                            answer_row=answer_row)
        for span, sym in zip(sup.spans, sup.answer_symbols, strict=True):
            assert sym == ex.document.symbols[span.l_s - 1]

    def test_repeated_candidate_distinct_z_same_y(self):
        ex = news_example()
        sup = build_support(ex, self.params(), sep_id=T2I["@sep"],
                            answer_row=answer_row)
        assert sup.answer_symbols[0] == sup.answer_symbols[2]
        assert np.array_equal(sup.y_i.data[0], sup.y_i.data[2])
        assert np.array_equal(sup.y_o.data[0], sup.y_o.data[2])
        assert not np.allclose(sup.z.data[0], sup.z.data[2])

    def test_deterministic(self):
        ex = news_example()
        a = build_support(ex, self.params(), sep_id=T2I["@sep"],
                          answer_row=answer_row)
        b = build_support(ex, self.params(), sep_id=T2I["@sep"],
                          answer_row=answer_row)
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
        sup = build_support(ex, p, sep_id=T2I["@sep"], answer_row=answer_row)
        assert sup.m == 1
        # forward boundary state h^f_0 is exactly zero; z = 0 + h^b_2
        emb_ids = doc.symbols + [T2I["@sep"]] + query.symbols
        states = bigru_encode(ag.gather_rows(p.E_i, emb_ids),
                              p.gru_f, p.gru_b)
        # h^b_2 is backward row n+1-2 = 2 of the n = 3 token sequence
        assert np.allclose(sup.z.data[0], states.bwd.data[2])

    def test_query_occurrences_not_support(self):
        """Candidate tokens inside the query never become support pairs."""
        doc = make_doc(["Ukraine", "scored"], T2I)
        query = make_doc(["Germany", "against", "@blank"], T2I,
                         placeholder="@blank")
        ex = Example(document=doc, query=query, gold=T2I["Ukraine"],
                     candidates=[T2I["Ukraine"], T2I["Germany"]])
        sup = build_support(ex, self.params(), sep_id=T2I["@sep"],
                            answer_row=answer_row)
        assert sup.answer_symbols == [T2I["Ukraine"]]
        assert sup.z.data.shape == (1, 4)

    def test_query_z_reads_placeholder_span(self):
        """Zeroing the placeholder's outer-context states is detectable, i.e.
        q0 depends exactly on the span around @blank."""
        ex = news_example()
        p = self.params()
        sup1 = build_support(ex, p, sep_id=T2I["@sep"], answer_row=answer_row)
        # placeholder is the final token; its span query uses h^f at the
        # position before it, which depends on the preceding query tokens
        p.E_i.data[T2I["against"]] += 1.0
        sup2 = build_support(ex, p, sep_id=T2I["@sep"], answer_row=answer_row)
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
            sup = build_support(ex, p, sep_id=T2I["@sep"],
                                answer_row=answer_row)
            return support_loss(sup, np.random.default_rng(1))

        tensors = [p.W_q, p.E_i, p.E_o] + [t for _, t in p.gru_b.named("b")]
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
            sup = build_support(ex, p, sep_id=T2I["@sep"],
                                answer_row=answer_row)
            assert sup.m == m
            counts[m] = tape_nodes(support_loss(sup, rng))
        assert counts[1] == counts[3] == counts[8], counts


class TestAnswerEmbeddings:
    def test_consistency_with_gather(self, rng):
        params = init_params(4, len(TOKENS), 2, rng)
        sup = build_support(news_example(), params, sep_id=T2I["@sep"],
                            answer_row=answer_row)
        syms = sup.answer_symbols
        assert np.array_equal(sup.y_i.data,
                              ag.gather_rows(params.E_i, syms).data)
        assert np.array_equal(sup.y_o.data,
                              params.E_o.data[[answer_row(s) for s in syms]])

    def test_identity_mode_one_hot(self, rng):
        params = init_params(4, len(TOKENS), 2, rng, identity_eo=True)
        sup = build_support(news_example(), params, sep_id=T2I["@sep"],
                            answer_row=answer_row)
        assert np.array_equal(sup.y_o.data, [[1.0, 0.0], [0.0, 1.0],
                                             [1.0, 0.0]])

    def test_distinct_symbols_distinct_rows(self, rng):
        params = init_params(8, 12, 10, rng)
        cands = list(range(2, 12))
        doc = Document(symbols=cands, raw_tokens=[str(c) for c in cands])
        query = Document(symbols=[0], raw_tokens=["0"], placeholder_pos=1)
        ex = Example(document=doc, query=query, gold=2, candidates=cands)
        sup = build_support(ex, params, sep_id=1,
                            answer_row=lambda s: s - 2)
        rows = sup.y_o.data
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.allclose(rows[i], rows[j])

    def test_unknown_symbol_rejected(self, rng):
        params = init_params(4, len(TOKENS), 2, rng)
        with pytest.raises(IndexError):
            build_support(news_example(), params, sep_id=T2I["@sep"],
                          answer_row=lambda s: 9)


class TestStacked:
    def test_shapes(self):
        ex = news_example()
        p = init_params(4, len(TOKENS), 2, np.random.default_rng(0))
        sup = build_support(ex, p, sep_id=T2I["@sep"], answer_row=answer_row)
        z, y_i, y_o = stacked(sup)
        assert (z, y_i, y_o) == (sup.z, sup.y_i, sup.y_o)
        assert z.data.shape == (3, 4)
        assert y_i.data.shape == (3, 4)
        assert y_o.data.shape == (3, 4)
        symbols = ex.document.symbols + [T2I["@sep"]] + ex.query.symbols
        states = bigru_encode(ag.gather_rows(p.E_i, symbols), p.gru_f,
                              p.gru_b)
        q_pos = len(ex.document) + 1 + ex.query.placeholder_pos
        for k, span in enumerate(sup.spans):
            one = encode_span_queries(states, [span], p.W_q)
            assert np.allclose(z.data[k], one.data[0], rtol=0, atol=1e-15)
        one = encode_span_queries(states, [Span(q_pos, q_pos)], p.W_q)
        assert np.allclose(sup.query_z.data, one.data[0], rtol=0, atol=1e-15)

    def test_empty_support_rejected(self, rng):
        """A document with no candidate occurrence builds an empty memory,
        which `stacked` refuses."""
        doc = make_doc(["scored", "against", "who"], T2I)
        query = make_doc(["Germany", "@blank"], T2I, placeholder="@blank")
        ex = Example(document=doc, query=query, gold=T2I["Ukraine"],
                     candidates=[T2I["Ukraine"], T2I["Germany"]])
        sup = build_support(ex, init_params(4, len(TOKENS), 2, rng),
                            sep_id=T2I["@sep"], answer_row=answer_row)
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
