import hashlib
import json

import numpy as np
import pytest

from hopqa.data import (PLACEHOLDER, Dataset, SynthConfig, Vocab,
                        chain_endpoints, generate_splits, load_canonical,
                        load_cbt, load_dataset, save_canonical)
from hopqa.exceptions import ConfigError, DataError, ParseError
from hopqa.support import SEP_ID


def parse_facts(example, vocab):
    """Recover (subject, relation, object) triples from a rendered document."""
    toks = example.document.raw_tokens
    assert len(toks) % 4 == 0
    return [(toks[i], toks[i + 1], toks[i + 2])
            for i in range(0, len(toks), 4)]


class TestChainEndpoints:
    FACTS = [("a", "r1", "b"), ("b", "r2", "c"), ("a", "r1", "d"),
             ("d", "r2", "e")]

    def test_single_step(self):
        assert chain_endpoints(self.FACTS, "b", ["r2"]) == {"c"}

    def test_two_step_branching(self):
        # a -r1-> {b, d} -r2-> {c, e}: ambiguous two-step chain
        assert chain_endpoints(self.FACTS, "a", ["r1", "r2"]) == {"c", "e"}

    def test_dead_end(self):
        assert chain_endpoints(self.FACTS, "c", ["r1"]) == set()


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig()

    def test_chain_length_bounds(self):
        for bad in (0, 4, -1):
            with pytest.raises(ConfigError):
                SynthConfig(chain_length=bad)

    def test_entity_pool_feasibility(self):
        # three disjoint pools of 2L+2 entities each
        with pytest.raises(ConfigError, match="disjoint"):
            SynthConfig(n_entities=11, chain_length=1)
        SynthConfig(n_entities=12, chain_length=1)
        with pytest.raises(ConfigError):
            SynthConfig(n_entities=17, chain_length=2)

    def test_counts_positive(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_examples=0)
        with pytest.raises(ConfigError):
            SynthConfig(n_distractor_facts=-1)

    @pytest.mark.parametrize("field,value", [
        ("n_examples", 3.5), ("n_entities", 20.0), ("chain_length", True),
        ("seed", "0"), ("n_distractor_facts", None)])
    def test_non_integer_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be int"):
            SynthConfig(**{field: value})


@pytest.fixture(scope="module")
def small_splits():
    cfg = SynthConfig(n_entities=20, n_relations=4, chain_length=1,
                      n_distractor_facts=3, n_examples=50, n_dev=30,
                      n_test=30, seed=7)
    return cfg, generate_splits(cfg)


class TestGenerator:
    def test_determinism(self, small_splits):
        cfg, (tr, dev, te) = small_splits
        tr2, _, _ = generate_splits(cfg)
        for a, b in zip(tr.examples, tr2.examples):
            assert a.document.raw_tokens == b.document.raw_tokens
            assert a.gold == b.gold

    def test_document_structure(self, small_splits):
        cfg, (tr, _, _) = small_splits
        n_facts = cfg.chain_length + cfg.n_distractor_facts
        for ex in tr.examples:
            assert len(ex.document.raw_tokens) == 4 * n_facts
            assert len(ex.query.raw_tokens) == 3
            assert ex.query.raw_tokens[-1] == PLACEHOLDER
            assert ex.query.placeholder_pos == 3
            assert ex.gold in ex.candidates

    def test_every_example_uniquely_solvable(self, small_splits):
        cfg, splits = small_splits
        for ds in splits:
            for ex in ds.examples:
                facts = parse_facts(ex, ds.vocab)
                start = ex.query.raw_tokens[0]
                rels = ex.query.raw_tokens[1].split("+")
                gold_tok = ds.vocab.tokens[ex.gold]
                assert chain_endpoints(facts, start, rels) == {gold_tok}

    def test_disjoint_entity_pools(self, small_splits):
        _, (tr, dev, te) = small_splits

        def entities(ds):
            out = set()
            for ex in ds.examples:
                for a, _, b in parse_facts(ex, ds.vocab):
                    out.update((a, b))
            return out
        e_tr, e_dev, e_te = entities(tr), entities(dev), entities(te)
        assert not e_tr & e_dev
        assert not e_tr & e_te
        assert not e_dev & e_te

    def test_shared_vocab(self, small_splits):
        _, (tr, dev, te) = small_splits
        assert tr.vocab is dev.vocab is te.vocab
        # all entities pre-registered as answers regardless of split
        assert tr.vocab.n_answers == 20

    def test_gold_distribution_not_degenerate(self, small_splits):
        _, (tr, _, _) = small_splits
        golds = {ex.gold for ex in tr.examples}
        assert len(golds) >= 5

    def test_composite_relation_for_l2(self):
        cfg = SynthConfig(n_entities=18, chain_length=2, n_examples=10,
                          n_dev=5, n_test=5, seed=1)
        tr, _, _ = generate_splits(cfg)
        for ex in tr.examples:
            rel = ex.query.raw_tokens[1]
            parts = rel.split("+")
            assert len(parts) == 2
            assert all(p.startswith("r") for p in parts)

    def test_distractors_avoid_chain_entities(self, small_splits):
        """Facts either lie on the query chain or mention no chain entity."""
        _, (tr, _, _) = small_splits
        for ex in tr.examples:
            facts = parse_facts(ex, tr.vocab)
            start = ex.query.raw_tokens[0]
            rels = ex.query.raw_tokens[1].split("+")
            chain_ents, frontier = {start}, {start}
            chain_facts = set()
            for r in rels:
                step = {(a, fr, b) for a, fr, b in facts
                        if fr == r and a in frontier}
                frontier = {b for _, _, b in step}
                chain_ents |= frontier
                chain_facts |= step
            for fact in facts:
                if fact not in chain_facts:
                    a, _, b = fact
                    assert not ({a, b} & chain_ents), (ex.document.raw_tokens,
                                                       fact)

    def test_multi_step_task_has_decoy_chain(self):
        """For L>=2 the distractors form a parallel chain with the same
        relation sequence, so the answer cannot be read off relation cues
        alone — the chain must actually be followed from the query entity."""
        cfg = SynthConfig(chain_length=2, n_distractor_facts=2, n_examples=30,
                          n_dev=5, n_test=5, seed=2)
        tr, _, _ = generate_splits(cfg)
        for ex in tr.examples:
            facts = parse_facts(ex, tr.vocab)
            start = ex.query.raw_tokens[0]
            rels = ex.query.raw_tokens[1].split("+")
            assert len(facts) == 4
            # two disjoint relation-matched chains: one from the query
            # entity, one decoy
            chains = []
            for a0, r0, b0 in facts:
                if r0 != rels[0]:
                    continue
                for a1, r1, b1 in facts:
                    if r1 == rels[1] and a1 == b0 and (a0, r0, b0) != (a1, r1, b1):
                        chains.append((a0, b0, b1))
            starts = {c[0] for c in chains}
            assert start in starts and len(starts) >= 2, ex.document.raw_tokens

    def test_gold_not_predictable_by_position_or_frequency(self):
        """Majority baselines stay under twice chance level."""
        cfg = SynthConfig(n_entities=20, n_relations=4, chain_length=1,
                          n_distractor_facts=3, n_examples=300, n_dev=10,
                          n_test=10, seed=13)
        tr, _, _ = generate_splits(cfg)
        n = len(tr.examples)
        chance = np.mean([1.0 / len(ex.candidates) for ex in tr.examples])
        # fixed candidate-position baseline
        max_pos = max(ex.candidates.index(ex.gold) for ex in tr.examples) + 1
        for pos in range(max_pos):
            hits = sum(pos < len(ex.candidates)
                       and ex.candidates[pos] == ex.gold
                       for ex in tr.examples)
            assert hits / n <= 2.0 * chance
        # document-frequency (majority token) baseline
        hits = 0
        for ex in tr.examples:
            counts = {c: ex.document.symbols.count(c)
                      for c in ex.candidates}
            majority = max(ex.candidates, key=lambda c: counts[c])
            hits += majority == ex.gold
        assert hits / n <= 2.0 * chance

    def test_distractors_do_not_duplicate_facts(self, small_splits):
        _, (tr, _, _) = small_splits
        for ex in tr.examples:
            facts = parse_facts(ex, tr.vocab)
            assert len(set(facts)) == len(facts)


class TestCanonicalRoundTrip:
    def test_save_load_preserves_examples(self, small_splits, tmp_path):
        _, (tr, _, _) = small_splits
        path = tmp_path / "train.jsonl"
        save_canonical(tr, path)
        loaded = load_canonical(path)
        assert len(loaded.examples) == len(tr.examples)
        for a, b in zip(tr.examples, loaded.examples):
            assert a.document.raw_tokens == b.document.raw_tokens
            assert a.query.raw_tokens == b.query.raw_tokens
            assert tr.vocab.tokens[a.gold] == loaded.vocab.tokens[b.gold]
            assert ([tr.vocab.tokens[c] for c in a.candidates]
                    == [loaded.vocab.tokens[c] for c in b.candidates])

    def test_shared_vocab_roundtrip_is_id_stable(self, small_splits,
                                                 tmp_path):
        _, (tr, _, _) = small_splits
        path = tmp_path / "train.jsonl"
        save_canonical(tr, path)
        loaded = load_canonical(path, vocab=tr.vocab)
        for a, b in zip(tr.examples, loaded.examples):
            assert a.document.symbols == b.document.symbols
            assert a.gold == b.gold


class TestCanonicalValidation:
    def write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def good_record(self, **kw):
        rec = {"document": ["a", "r", "b", "."],
               "query": ["a", "r", PLACEHOLDER],
               "candidates": ["a", "b"], "answer": "b"}
        rec.update(kw)
        return json.dumps(rec)

    def test_invalid_json_names_line(self, tmp_path):
        path = self.write(tmp_path, [self.good_record(), "{not json"])
        with pytest.raises(ParseError, match="2"):
            load_canonical(path)

    def test_missing_field(self, tmp_path):
        rec = json.loads(self.good_record())
        del rec["answer"]
        path = self.write(tmp_path, [json.dumps(rec)])
        with pytest.raises(ParseError, match="answer"):
            load_canonical(path)

    def test_query_needs_exactly_one_placeholder(self, tmp_path):
        path = self.write(tmp_path,
                          [self.good_record(query=["a", "r", "b"])])
        with pytest.raises(DataError):
            load_canonical(path)
        path = self.write(tmp_path, [self.good_record(
            query=[PLACEHOLDER, "r", PLACEHOLDER])])
        with pytest.raises(DataError):
            load_canonical(path)

    def test_answer_must_be_candidate(self, tmp_path):
        path = self.write(tmp_path, [self.good_record(answer="zzz")])
        with pytest.raises(DataError):
            load_canonical(path)

    def test_empty_candidates(self, tmp_path):
        path = self.write(tmp_path, [self.good_record(candidates=[])])
        with pytest.raises(DataError):
            load_canonical(path)

    @pytest.mark.parametrize("field,value", [
        ("document", "a r b ."), ("document", ["a", 3, "b", "."]),
        ("query", "a r " + PLACEHOLDER), ("candidates", "ab"),
        ("candidates", ["a", ["b"]]), ("answer", ["b"]), ("answer", None)],
        ids=["document-str", "document-int-token", "query-str",
             "candidates-str", "candidates-nested", "answer-list",
             "answer-null"])
    def test_field_types(self, tmp_path, field, value):
        """A string in place of a token list would load as characters."""
        kind = "a string" if field == "answer" else "a list of strings"
        path = self.write(tmp_path, [self.good_record(),
                                     self.good_record(**{field: value})])
        with pytest.raises(ParseError, match=rf"bad\.jsonl:2: field "
                           rf"'{field}' must be {kind}"):
            load_canonical(path)

    def test_record_must_be_object(self, tmp_path):
        path = self.write(tmp_path, ["[1, 2]"])
        with pytest.raises(ParseError, match=r"bad\.jsonl:1: record is not"):
            load_canonical(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, [self.good_record(), "", ""])
        assert len(load_canonical(path).examples) == 1


def cbt_passage(cloze="The cat sat on the XXXXX .", answer="mat",
                cands="mat|dog|hat|sun|sea|sky|cup|pen|box|car",
                n_lines=21):
    lines = [f"{i} filler sentence number {i} ." for i in range(1, n_lines)]
    lines.append(f"{n_lines} {cloze}\t{answer}\t\t{cands}")
    return "\n".join(lines)


class TestCbtAdapter:
    def test_parses_passage(self, tmp_path):
        path = tmp_path / "cbt.txt"
        path.write_text(cbt_passage() + "\n\n" + cbt_passage(answer="dog",
                        cloze="A XXXXX barked loudly .") + "\n")
        ds = load_cbt(path)
        assert len(ds.examples) == 2
        ex = ds.examples[0]
        assert len(ex.document.raw_tokens) == 20 * 5
        assert PLACEHOLDER in ex.query.raw_tokens
        assert ex.query.raw_tokens.count(PLACEHOLDER) == 1
        assert len(ex.candidates) == 10
        assert ds.vocab.tokens[ex.gold] == "mat"

    def test_wrong_line_count(self, tmp_path):
        path = tmp_path / "cbt.txt"
        path.write_text(cbt_passage(n_lines=20) + "\n")
        with pytest.raises(ParseError, match="21"):
            load_cbt(path)

    def test_answer_not_candidate(self, tmp_path):
        path = tmp_path / "cbt.txt"
        path.write_text(cbt_passage(answer="missing") + "\n")
        with pytest.raises(DataError):
            load_cbt(path)

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "cbt.txt"
        path.write_text("")
        with pytest.warns(UserWarning):
            ds = load_cbt(path)
        assert ds.examples == []


class TestLoadDataset:
    """The layout is read off the file: a numbered first line is CBT,
    anything else canonical JSONL."""

    def test_cbt_layout_detected(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text("\n\n" + cbt_passage() + "\n\n" + cbt_passage(
            answer="dog", cloze="A XXXXX barked loudly .") + "\n")
        ds = load_dataset(path, name="train")
        ref = load_cbt(path)
        assert ds.name == "train" and len(ds.examples) == 2
        assert ds.vocab == ref.vocab
        assert [ex.candidates for ex in ds.examples] == \
            [ex.candidates for ex in ref.examples]

    def test_canonical_detected(self, tmp_path):
        train, _, _ = generate_splits(SynthConfig(
            n_examples=4, n_dev=1, n_test=1, seed=2))
        path = tmp_path / "train.jsonl"
        save_canonical(train, path)
        assert load_dataset(path).vocab == load_canonical(path).vocab

    def test_malformed_jsonl_keeps_line_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"document": ["a"]}\n{not json\n')
        with pytest.raises(ParseError, match=r"bad\.jsonl:1: missing field"):
            load_dataset(path)
        path.write_text("\n" + json.dumps(
            {"document": ["b"], "query": [PLACEHOLDER], "candidates": ["b"],
             "answer": "b"}) + "\n1 not json\n")
        with pytest.raises(ParseError, match=r"bad\.jsonl:3: invalid JSON"):
            load_dataset(path)

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        assert load_dataset(path).examples == []


class TestVocab:
    def test_builtin_symbols(self):
        v = Vocab()
        assert v.tokens == [PLACEHOLDER, "@sep"]
        assert v.tokens[SEP_ID] == "@sep"

    def test_answer_rows_are_dense(self):
        v = Vocab()
        rows = [v.register_answer(t) for t in ("x", "y", "z")]
        assert rows == [0, 1, 2]
        assert v.register_answer("y") == 1  # idempotent
        assert v.answer_row(v.id("z")) == 2

    def test_non_answer_symbol_rejected(self):
        v = Vocab()
        tid = v.add("verb")
        with pytest.raises(IndexError):
            v.answer_row(tid)

    def test_dict_roundtrip(self):
        v = Vocab()
        v.add("hello")
        v.register_answer("world")
        w = Vocab.from_dict(v.to_dict())
        assert v == w
        assert w.answer_row(w.id("world")) == 0

    @pytest.mark.parametrize("tables", [
        {"tokens": [PLACEHOLDER, "@sep", "a"], "answer_tokens": ["b"]},
        {"tokens": [PLACEHOLDER, "@sep", "a", "a"], "answer_tokens": []},
        {"tokens": ["@sep", PLACEHOLDER], "answer_tokens": []},
    ])
    def test_dict_rejects_inconsistent_tables(self, tables):
        with pytest.raises(DataError):
            Vocab.from_dict(tables)


def input_digest(datasets) -> str:
    """sha256 over what the input path produces: each dataset's vocab and
    answer tables and, per example, symbols, raw tokens, placeholder
    position, gold and candidates."""
    h = hashlib.sha256()
    for ds in datasets:
        h.update(json.dumps([ds.vocab.tokens, ds.vocab.answer_tokens]).encode())
        for ex in ds.examples:
            h.update(json.dumps([
                ex.document.symbols, ex.document.raw_tokens,
                ex.query.symbols, ex.query.raw_tokens,
                ex.query.placeholder_pos, ex.gold, ex.candidates]).encode())
    return h.hexdigest()


SYNTH_SHA256 = \
    "4058ec8f39c35aa44450644a4c887b4f2c2547aac2fe72c07bbc8837ba3ff59a"
CANONICAL_SHA256 = \
    "1f86ed8cc16dc31b8a9928ba6d246f6955e83efd19fa6eeb17e2b58aed13c500"
CBT_SHA256 = \
    "84f3749858aaca11788c4e67ff81a03855f72295ca955acec189f9c8edc4dbd0"


class TestInputPathPinned:
    """Token ids, answer rows and example fields from all three readers,
    pinned to digests recorded before the readers shared one example
    constructor."""

    def test_synthetic(self):
        splits = generate_splits(SynthConfig(
            chain_length=2, n_distractor_facts=3, n_examples=40, n_dev=10,
            n_test=10, seed=5))
        assert input_digest(splits) == SYNTH_SHA256

    def test_canonical(self, tmp_path):
        records = [
            {"document": ["a", "likes", "b", ".", "b", "likes", "c", "."],
             "query": ["a", "likes+likes", PLACEHOLDER],
             "candidates": ["a", "b", "c"], "answer": "c"},
            # a known non-answer token and an absent token as candidates
            {"document": ["x", "knows", "likes", "."],
             "query": [PLACEHOLDER, "knows", "likes"],
             "candidates": ["likes", "x", "zz"], "answer": "zz"},
            {"document": ["q", "w", "q"], "query": ["w", PLACEHOLDER],
             "candidates": ["q", "q", "w"], "answer": "w"},
        ]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        first.write_text("".join(json.dumps(r) + "\n" for r in records))
        second.write_text("".join(json.dumps(r) + "\n"
                                  for r in reversed(records)))
        a = load_canonical(first)
        b = load_canonical(second, vocab=a.vocab)
        c = load_canonical(second)
        assert input_digest([a, b, c]) == CANONICAL_SHA256

    def test_cbt(self, tmp_path):
        path = tmp_path / "cbt.txt"
        path.write_text(cbt_passage() + "\n\n" + cbt_passage(
            answer="sun", cloze="The XXXXX rose over the sea .",
            cands="sky|sun|filler|rose") + "\n")
        assert input_digest([load_cbt(path)]) == CBT_SHA256
