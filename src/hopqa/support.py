"""Candidate occurrences and construction of the supporting (z, y) memory.

Each occurrence of an answer candidate in the document becomes one support
pair: a cloze query built from the occurrence's outer context plus the
occurrence itself as the answer. The document and the query are encoded in a
single pass, joined by a separator symbol, so the support pairs and the
encoded query share one bi-GRU run: one column of a `bigru_encode` node.
The memory is held as matrices, one pair per row: all span queries come from
one `column_span_queries` node and each answer-embedding matrix from one row
gather. `build_support_batch` builds the padded, masked memories of B
examples as such nodes, or as tape-free constants for evaluation;
`build_support` builds one example's, for `forward_pass`. Both read each
example's index lists (`Example.index_lists`), built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoder import (Document, bigru_encode, bigru_span_rows,
                      column_span_queries, embed_sequence, padded)
from .exceptions import EmptySupportError
from .model import ModelParams


@dataclass
class SupportSet:
    """M support pairs as matrices: row k of `z`, `y_i` and `y_o` belongs to
    the candidate occurrence at document position `positions[k]`."""
    positions: list[int]
    z: Tensor  # (M, h) position queries
    y_i: Tensor  # (M, h) input embeddings of the answers
    y_o: Tensor  # (M, answer_dim) output embeddings of the answers
    query_z: Tensor

    @property
    def m(self) -> int:
        return len(self.positions)


SEP_ID = 1  # the separator's token id, second in every `data.Vocab`


@dataclass
class Example:
    """`positions` is derived, not passed: the 1-based positions of the
    candidate occurrences in the document, in document order, one per
    support pair. An example with none has no support."""
    document: Document
    query: Document
    gold: int
    candidates: list[int]
    positions: list[int] = field(init=False)
    # `index_lists`' last answer_row callable and its lists
    _index: tuple | None = field(init=False, default=None, repr=False,
                                 compare=False)

    def __post_init__(self):
        if self.gold not in self.candidates:
            raise ValueError("gold symbol missing from candidate set")
        if self.query.placeholder_pos is None:
            raise ValueError("query has no placeholder position")
        cand = set(self.candidates)
        self.positions = [l for l, sym in enumerate(self.document.symbols,
                                                    start=1) if sym in cand]

    def encoder_input(self) -> list[int]:
        """The token ids the biGRU reads: document, separator, query."""
        return self.document.symbols + [SEP_ID] + self.query.symbols

    def index_lists(self, answer_row):
        """`(spans, syms, rows, cand_rows)`: the 1-based encoder-input
        positions of the placeholder and then of each support pair, the pair
        symbols, and `answer_row` of each pair symbol and of each candidate.
        Built on the first call and kept for later calls with an equal
        `answer_row`, whose rows must not change; another `answer_row`
        builds them anew. A non-answer symbol raises `answer_row`'s error
        and keeps nothing."""
        if self._index is None or self._index[0] != answer_row:
            syms = [self.document.symbols[l - 1] for l in self.positions]
            spans = [len(self.document) + 1 + self.query.placeholder_pos,
                     *self.positions]
            self._index = (answer_row, spans, syms,
                           [answer_row(s) for s in syms],
                           [answer_row(c) for c in self.candidates])
        return self._index[1:]


def build_support(example: Example, params: ModelParams, *, answer_row,
                  dropout_rate: float = 0.0,
                  rng: np.random.Generator | None = None) -> SupportSet:
    """Encode document + separator + query once, as a batch of one; build
    the support matrices and the initial query vector.

    `answer_row` maps a vocab id to its row in the answer-symbol table.
    """
    spans, syms, rows, _ = example.index_lists(answer_row)
    m = len(syms)
    states = encode_batch([example], params, dropout_rate=dropout_rate,
                          rng=rng)
    n = len(example.document) + 1 + len(example.query)
    # the pairs' rows first, then the placeholder's
    zq = column_span_queries(states, 0, n, spans[1:] + spans[:1], params.W_q)
    return SupportSet(
        positions=example.positions,
        z=ag.gather_rows(zq, range(m)),
        y_i=ag.gather_rows(params.E_i, syms),
        y_o=ag.gather_rows(params.E_o, rows),
        query_z=ag.take_row(zq, m))


def encode_batch(examples, params: ModelParams, *, dropout_rate: float = 0.0,
                 rng: np.random.Generator | None = None) -> Tensor:
    """The biGRU of B examples as one `bigru_encode` node over one
    `embed_sequence` node, column b for `examples[b]`. The dropout masks are
    drawn example after example, so the RNG stream is the one B
    `build_support` calls draw."""
    ids, mask = padded([ex.encoder_input() for ex in examples])
    lens = mask.sum(axis=1)
    return bigru_encode(embed_sequence(ids, lens, params.E_i, dropout_rate,
                                       rng), lens, params.gru)


@dataclass
class SupportBatch:
    """The support memories of B examples as tape nodes (in evaluation,
    constants), padded to the largest support (M) and candidate (K) counts;
    pad rows are real rows, carry False in their mask and get no gradient."""
    queries: Tensor  # (B, M + 1, h): the initial query, then the pairs' z
    y_i: Tensor  # (B, M, h) input embeddings of the answers
    y_o: Tensor  # (B, M, answer_dim) output embeddings of the answers
    mask: np.ndarray  # (B, M)
    cand: Tensor  # (B, K, answer_dim) candidate output embeddings
    cand_mask: np.ndarray  # (B, K)


def build_support_batch(examples, params: ModelParams, *, answer_row,
                        states: Tensor | None = None) -> SupportBatch:
    """`build_support` for B examples: every span query from one
    `column_span_queries` node, each answer-embedding table from one padded
    row gather, over `states`, a training chunk's `encode_batch` node
    (column b for `examples[b]`). Without `states`, evaluation's batch of
    constants, built without a tape: the same gemm projects the rows that
    `bigru_span_rows` gives. Raises `EmptySupportError` for an example
    without support: its all-pad row has no softmax."""
    if not all(ex.positions for ex in examples):
        raise EmptySupportError("support set is empty")
    spans, syms, rows, cands = zip(*(ex.index_lists(answer_row)
                                     for ex in examples))
    # column 0 holds the placeholder's position, pads read position 1
    pos, mask = padded(spans)
    pos[~mask] = 1
    (y_i, _), (y_o, _), (cand, cand_mask) = map(padded, (syms, rows, cands))
    tables = ((params.E_i, y_i), (params.E_o, y_o), (params.E_o, cand))
    if states is None:
        outer = bigru_span_rows([ex.encoder_input() for ex in examples], pos,
                                params.E_i.data, params.gru)
        queries = ag.constant((outer.reshape(-1, outer.shape[-1])
                               @ params.W_q.data.T).reshape(*pos.shape, -1))
        y_i, y_o, cand = (ag.constant(e.data[i]) for e, i in tables)
    else:
        lens = [[len(ex.document) + 1 + len(ex.query)] for ex in examples]
        queries = column_span_queries(states, np.arange(len(lens))[:, None],
                                      np.array(lens), pos, params.W_q)
        y_i, y_o, cand = (ag.gather_rows(e, i) for e, i in tables)
    return SupportBatch(queries=queries, y_i=y_i, y_o=y_o, mask=mask[:, 1:],
                        cand=cand, cand_mask=cand_mask)


def stacked(support: SupportSet) -> tuple[Tensor, Tensor, Tensor]:
    """Support pairs as matrices: Z, Y_i, Y_o (one pair per row)."""
    if support.m == 0:
        raise EmptySupportError("support set is empty")
    return support.z, support.y_i, support.y_o
