"""Spans-of-interest and construction of the supporting (z, y) memory.

Each occurrence of an answer candidate in the document becomes one support
pair: a cloze query built from the occurrence's outer context plus the
occurrence itself as the answer. The document and the query are encoded in a
single pass, joined by a separator symbol, so the support pairs and the
encoded query share one bi-GRU run. The memory is held as matrices, one pair
per row: all span queries come from one `encode_span_queries` node and each
answer-embedding matrix from one row gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoder import (Document, Span, bigru_encode, embed_sequence,
                      encode_span_queries)
from .exceptions import EmptySupportError
from .model import ModelParams


@dataclass
class SupportSet:
    """M support pairs as matrices: row k of `z`, `y_i` and `y_o` belongs to
    `spans[k]`, whose answer is `answer_symbols[k]`."""
    spans: list[Span]
    answer_symbols: list[int]
    candidates: list[int]
    z: Tensor  # (M, h) span queries
    y_i: Tensor  # (M, h) input embeddings of the answers
    y_o: Tensor  # (M, answer_dim) output embeddings of the answers
    query_z: Tensor

    @property
    def m(self) -> int:
        return len(self.spans)


@dataclass
class Example:
    document: Document
    query: Document
    gold: int
    candidates: list[int]

    def __post_init__(self):
        if self.gold not in self.candidates:
            raise ValueError("gold symbol missing from candidate set")
        if self.query.placeholder_pos is None:
            raise ValueError("query has no placeholder position")


def extract_sois(doc: Document, candidates) -> list[Span]:
    """One single-token span per candidate occurrence, in document order."""
    cand = set(candidates)
    return [Span(l, l) for l, sym in enumerate(doc.symbols, start=1)
            if sym in cand]


def build_support(example: Example, params: ModelParams, *, sep_id: int,
                  answer_row, dropout_rate: float = 0.0, mode: str = "eval",
                  rng: np.random.Generator | None = None) -> SupportSet:
    """Encode document + separator + query once; build the support matrices
    and the initial query vector.

    `answer_row` maps a vocab id to its row in the answer-symbol table.
    """
    doc, query = example.document, example.query
    full = Document(
        symbols=doc.symbols + [sep_id] + query.symbols,
        raw_tokens=doc.raw_tokens + ["@sep"] + query.raw_tokens,
    )
    emb = embed_sequence(full, params.E_i, dropout_rate, mode, rng)
    states = bigru_encode(emb, params.gru_f, params.gru_b)

    spans = extract_sois(doc, example.candidates)
    syms = [doc.symbols[s.l_s - 1] for s in spans]
    q_pos = len(doc) + 1 + query.placeholder_pos
    m = len(spans)
    zq = encode_span_queries(states, spans + [Span(q_pos, q_pos)], params.W_q)
    return SupportSet(
        spans=spans, answer_symbols=syms,
        candidates=list(example.candidates),
        z=ag.gather_rows(zq, range(m)),
        y_i=ag.gather_rows(params.E_i, syms),
        y_o=ag.gather_rows(params.E_o, [answer_row(s) for s in syms]),
        query_z=ag.take_row(zq, m))


def stacked(support: SupportSet) -> tuple[Tensor, Tensor, Tensor]:
    """Support pairs as matrices: Z, Y_i, Y_o (one pair per row)."""
    if support.m == 0:
        raise EmptySupportError("support set is empty")
    return support.z, support.y_i, support.y_o
