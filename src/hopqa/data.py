"""Datasets: synthetic chained-fact cloze tasks, canonical JSONL ingestion,
and a Children's Book Test adapter.

Synthetic examples render a relation chain e_0 r_1 e_1, ..., e_{L-1} r_L e_L
as token facts, shuffled with distractor facts; the query names the chain's
start entity and a composite relation token, with the final entity blanked.
Train/dev/test share relation semantics but use disjoint entity pools.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .encoder import Document
from .exceptions import ConfigError, DataError, ParseError
from .support import Example

PLACEHOLDER = "@blank"
SEPARATOR = "@sep"
PERIOD = "."
CBT_PLACEHOLDER = "XXXXX"


class Vocab:
    """Token <-> id table plus the answer-symbol subtable indexing the
    output-embedding rows."""

    def __init__(self):
        self.tokens: list[str] = []
        self.token2id: dict[str, int] = {}
        self.answer_tokens: list[str] = []
        self._answer_row: dict[int, int] = {}
        self.add(PLACEHOLDER)
        self.add(SEPARATOR)  # id 1, `support.SEP_ID`

    def add(self, token: str) -> int:
        if token not in self.token2id:
            self.token2id[token] = len(self.tokens)
            self.tokens.append(token)
        return self.token2id[token]

    def id(self, token: str) -> int:
        return self.token2id[token]

    def register_answer(self, token: str) -> int:
        tid = self.add(token)
        if tid not in self._answer_row:
            self._answer_row[tid] = len(self.answer_tokens)
            self.answer_tokens.append(token)
        return self._answer_row[tid]

    def answer_row(self, vocab_id: int) -> int:
        if vocab_id not in self._answer_row:
            raise IndexError(f"symbol id {vocab_id} "
                             f"({self.tokens[vocab_id] if vocab_id < len(self.tokens) else '?'}) "
                             f"is not an answer symbol")
        return self._answer_row[vocab_id]

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def n_answers(self) -> int:
        return len(self.answer_tokens)

    def __eq__(self, other):
        return (isinstance(other, Vocab)
                and self.tokens == other.tokens
                and self.answer_tokens == other.answer_tokens)

    def to_dict(self) -> dict:
        return {"tokens": list(self.tokens),
                "answer_tokens": list(self.answer_tokens)}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocab":
        v = cls()
        for tok in d["tokens"]:
            v.add(tok)
        for tok in d["answer_tokens"]:
            v.register_answer(tok)
        if v.to_dict() != d:
            raise DataError("stored vocab is not a valid token table "
                            "(duplicate, missing or reordered tokens)")
        return v


@dataclass
class Dataset:
    name: str
    examples: list[Example]
    vocab: Vocab


def check_field_types(record) -> None:
    """Reject a field whose value does not match its annotation (`int`,
    `float`, `bool` or `dict`, each maybe `| None`), a bool taken as a
    number, and a float that is NaN or infinite."""
    for f in fields(record):
        value = getattr(record, f.name)
        if value is None and f.type.endswith(" | None"):
            continue
        kind = f.type.partition("[")[0].partition(" ")[0]
        if not isinstance(value, {"int": int, "float": (int, float),
                                  "bool": bool, "dict": dict}[kind]) or (
                isinstance(value, bool) and kind != "bool"):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def check_signs(record, positive=(), non_negative=()) -> None:
    """Reject a `positive` field at or below 0, a `non_negative` one below."""
    for name in (*positive, *non_negative):
        value = getattr(record, name)
        if value < 0 or (value == 0 and name in positive):
            rule = "positive" if name in positive else ">= 0"
            raise ConfigError(f"{name} must be {rule}, got {value}")


@dataclass
class SynthConfig:
    n_entities: int = 20
    n_relations: int = 4
    chain_length: int = 1
    n_distractor_facts: int = 3
    n_examples: int = 2000
    n_dev: int = 500
    n_test: int = 500
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.chain_length not in (1, 2, 3):
            raise ConfigError(f"chain_length must be 1, 2 or 3, got "
                              f"{self.chain_length}")
        per_split = 2 * self.chain_length + 2
        if self.n_entities < 3 * per_split:
            raise ConfigError(
                f"n_entities={self.n_entities} infeasible: disjoint "
                f"train/dev/test pools need at least {3 * per_split} entities "
                f"(2*chain_length+2 per split)")
        check_signs(self, positive=("n_relations", "n_examples", "n_dev",
                                    "n_test"),
                    non_negative=("n_distractor_facts", "seed"))
        # a distractor joins two of the chain_length+1 entities that a dev
        # or test pool leaves off the chain, by any relation
        k = self.chain_length + 1
        most = k * (k - 1) * self.n_relations
        if self.n_distractor_facts > most:
            raise ConfigError(
                f"n_distractor_facts={self.n_distractor_facts} infeasible: "
                f"the {k} entities off the chain in a dev or test pool hold "
                f"at most {most} distinct facts ({k}*{k - 1}*n_relations)")


def chain_endpoints(facts, start: str, rels: list[str]) -> set[str]:
    """All entities reachable from `start` by following the relation sequence
    through the fact list. The generator accepts an example only when this
    set is exactly the gold singleton."""
    frontier = {start}
    for r in rels:
        frontier = {b for (a, fr, b) in facts if fr == r and a in frontier}
    return frontier


def make_example(vocab: Vocab, doc_tokens: list[str],
                 query_tokens: list[str], cand_tokens: list[str], answer: str,
                 where: str) -> Example:
    """The one way tokens become an `Example`. Checks the record (errors are
    prefixed with `where`), then registers the candidates as answer symbols
    and maps the document and the query tokens, in that order, which fixes
    every token id."""
    if query_tokens.count(PLACEHOLDER) != 1:
        raise DataError(f"{where}: query must contain exactly one "
                        f"{PLACEHOLDER!r} token")
    if not cand_tokens:
        raise DataError(f"{where}: empty candidate list")
    if answer not in cand_tokens:
        raise DataError(f"{where}: answer {answer!r} not in candidates")
    for t in cand_tokens:
        vocab.register_answer(t)
    doc = Document(symbols=[vocab.add(t) for t in doc_tokens],
                   raw_tokens=list(doc_tokens))
    query = Document(symbols=[vocab.add(t) for t in query_tokens],
                     raw_tokens=list(query_tokens),
                     placeholder_pos=query_tokens.index(PLACEHOLDER) + 1)
    return Example(document=doc, query=query, gold=vocab.id(answer),
                   candidates=[vocab.id(t) for t in cand_tokens])


def _gen_one(cfg: SynthConfig, pool: list[str], rels: list[str],
             rng: np.random.Generator, vocab: Vocab) -> Example:
    length = cfg.chain_length
    for _ in range(1000):
        ents = [pool[i] for i in rng.choice(len(pool), size=length + 1,
                                            replace=False)]
        chain_rels = [rels[int(i)] for i in
                      rng.integers(0, len(rels), size=length)]
        chain = [(ents[i], chain_rels[i], ents[i + 1]) for i in range(length)]
        facts = list(chain)
        # distractors are built over *other* entities so no distractor can
        # touch the chain; the chain stays the unique path from e_0
        others = [e for e in pool if e not in ents]
        n_extra = cfg.n_distractor_facts
        if length >= 2:
            # the first distractors form a decoy chain with the same relation
            # sequence, so the answer cannot be read off surface relation
            # cues alone: every example genuinely requires following the
            # chain from e_0 through the intermediate entities
            n_decoy = min(length, cfg.n_distractor_facts)
            decoy = [others[i] for i in rng.choice(len(others),
                                                   size=n_decoy + 1,
                                                   replace=False)]
            facts += [(decoy[i], chain_rels[i], decoy[i + 1])
                      for i in range(n_decoy)]
            n_extra -= n_decoy
        ok = True
        for _ in range(n_extra):
            for _ in range(100):
                a, b = (others[i] for i in rng.choice(len(others), size=2,
                                                      replace=False))
                r = rels[int(rng.integers(0, len(rels)))]
                if (a, r, b) not in facts:
                    facts.append((a, r, b))
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        if chain_endpoints(facts, ents[0], chain_rels) != {ents[-1]}:
            continue
        order = rng.permutation(len(facts))
        facts = [facts[int(i)] for i in order]
        doc_tokens: list[str] = []
        for a, r, b in facts:
            doc_tokens.extend([a, r, b, PERIOD])
        seen: list[str] = []
        for a, _, b in facts:
            for e in (a, b):
                if e not in seen:
                    seen.append(e)
        # the query names the chain's relations as one token: "r1", "r1+r3"
        return make_example(vocab, doc_tokens,
                            [ents[0], "+".join(chain_rels), PLACEHOLDER],
                            seen, ents[-1], "synthetic example")
    raise ConfigError("could not sample a solvable example; config too tight")


def generate_splits(cfg: SynthConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Train/dev/test with a shared vocab and disjoint entity bindings."""
    rng = np.random.default_rng(cfg.seed)
    entities = [f"e{i:02d}" for i in range(cfg.n_entities)]
    rels = [f"r{i}" for i in range(cfg.n_relations)]
    vocab = Vocab()
    vocab.add(PERIOD)
    for r in rels:
        vocab.add(r)
    for e in entities:
        vocab.register_answer(e)
    order = rng.permutation(cfg.n_entities)
    entities = [entities[int(i)] for i in order]
    holdout = 2 * cfg.chain_length + 2
    pools = {"dev": entities[:holdout],
             "test": entities[holdout:2 * holdout],
             "train": entities[2 * holdout:]}
    sizes = {"train": cfg.n_examples, "dev": cfg.n_dev, "test": cfg.n_test}
    out = {}
    for split_idx, split in enumerate(("train", "dev", "test")):
        split_rng = np.random.default_rng([cfg.seed, split_idx])
        examples = [_gen_one(cfg, pools[split], rels, split_rng, vocab)
                    for _ in range(sizes[split])]
        out[split] = Dataset(name=split, examples=examples, vocab=vocab)
    return out["train"], out["dev"], out["test"]


# ---------------------------------------------------------------------------
# canonical JSONL format

def save_canonical(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ex in dataset.examples:
            record = {
                "document": ex.document.raw_tokens,
                "query": ex.query.raw_tokens,
                "candidates": [dataset.vocab.tokens[c] for c in ex.candidates],
                "answer": dataset.vocab.tokens[ex.gold],
            }
            f.write(json.dumps(record) + "\n")


def load_canonical(path, vocab: Vocab | None = None,
                   name: str = "dataset") -> Dataset:
    """Parse the line-delimited record format; unknown tokens extend the
    vocab."""
    if vocab is None:
        vocab = Vocab()
    examples = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {e}") from e
            if not isinstance(record, dict):
                raise ParseError(f"{path}:{lineno}: record is not an object")
            for key in ("document", "query", "candidates", "answer"):
                if key not in record:
                    raise ParseError(f"{path}:{lineno}: missing field "
                                     f"{key!r}")
            for key in ("document", "query", "candidates"):
                if not (isinstance(record[key], list)
                        and all(isinstance(t, str) for t in record[key])):
                    raise ParseError(f"{path}:{lineno}: field {key!r} must "
                                     f"be a list of strings")
            if not isinstance(record["answer"], str):
                raise ParseError(f"{path}:{lineno}: field 'answer' must be "
                                 f"a string")
            examples.append(make_example(
                vocab, record["document"], record["query"],
                record["candidates"], record["answer"], f"{path}:{lineno}"))
    return Dataset(name=name, examples=examples, vocab=vocab)


# ---------------------------------------------------------------------------
# Children's Book Test adapter

def load_cbt(path, vocab: Vocab | None = None, name: str = "cbt") -> Dataset:
    """Parse the public CBT plain-text layout: passages of 21 numbered lines
    separated by blank lines; line 21 carries the cloze sentence, the answer,
    and the candidate list."""
    if vocab is None:
        vocab = Vocab()
    examples = []
    with open(path, encoding="utf-8") as f:
        content = f.read()
    blocks = [b for b in content.split("\n\n") if b.strip()]
    if not blocks:
        warnings.warn(f"{path}: no passages found, returning empty dataset")
    for pidx, block in enumerate(blocks):
        lines = [ln for ln in block.splitlines() if ln.strip()]
        if len(lines) != 21:
            raise ParseError(f"{path}: passage {pidx}: expected 21 lines, "
                             f"got {len(lines)}")
        doc_tokens: list[str] = []
        for i, ln in enumerate(lines[:20]):
            head, _, rest = ln.partition(" ")
            if head != str(i + 1):
                raise ParseError(f"{path}: passage {pidx}: line numbered "
                                 f"{head!r}, expected {i + 1}")
            doc_tokens.extend(rest.split())
        parts = lines[20].split("\t")
        head, _, cloze = parts[0].partition(" ")
        if head != "21":
            raise ParseError(f"{path}: passage {pidx}: final line numbered "
                             f"{head!r}, expected 21")
        fields = [p.strip() for p in parts[1:] if p.strip()]
        if len(fields) < 2:
            raise DataError(f"{path}: passage {pidx}: missing answer or "
                            f"candidate fields")
        answer, cand_field = fields[0], fields[-1]
        query_tokens = [PLACEHOLDER if t == CBT_PLACEHOLDER else t
                        for t in cloze.split()]
        examples.append(make_example(
            vocab, doc_tokens, query_tokens,
            [c for c in cand_field.split("|") if c], answer,
            f"{path}: passage {pidx}"))
    return Dataset(name=name, examples=examples, vocab=vocab)


def load_dataset(path, vocab: Vocab | None = None,
                 name: str = "dataset") -> Dataset:
    """Read `path` with `load_cbt` when its first non-blank line starts with
    "1 " (the CBT layout's numbered first line), else with `load_canonical`,
    which reports a malformed record as `path:line`."""
    with open(path, encoding="utf-8") as f:
        first = next((ln for ln in f if ln.strip()), "")
    loader = load_cbt if first.startswith("1 ") else load_canonical
    return loader(path, vocab=vocab, name=name)
