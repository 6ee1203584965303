"""Candidate occurrences and construction of the supporting (z, y) memory.

Each occurrence of an answer candidate in the document becomes one support
pair: a cloze query built from the occurrence's outer context plus the
occurrence itself as the answer. The document and the query are encoded in a
single pass, joined by a separator symbol, so the support pairs and the
encoded query share one bi-GRU run: one column of a `bigru_encode` node,
which training builds for a chunk of examples and `build_support` alone for
one. The memory is held as matrices, one pair per row: all pair queries come
from one `column_span_queries` node and each answer-embedding matrix from one
row gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoder import (Document, bigru_encode, bigru_states,
                      column_span_queries, embed_sequence)
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

    def __post_init__(self):
        if self.gold not in self.candidates:
            raise ValueError("gold symbol missing from candidate set")
        if self.query.placeholder_pos is None:
            raise ValueError("query has no placeholder position")
        cand = set(self.candidates)
        self.positions = [l for l, sym in enumerate(self.document.symbols,
                                                    start=1) if sym in cand]

    def encoder_input(self, sep_id: int) -> list[int]:
        """The token ids the biGRU reads: document, separator, query."""
        return self.document.symbols + [sep_id] + self.query.symbols


def build_support(example: Example, params: ModelParams, *, sep_id: int,
                  answer_row, dropout_rate: float = 0.0,
                  rng: np.random.Generator | None = None,
                  encoded: tuple[Tensor, int] | None = None) -> SupportSet:
    """Encode document + separator + query once; build the support matrices
    and the initial query vector.

    `answer_row` maps a vocab id to its row in the answer-symbol table.
    `encoded`, a `(states, b)` pair, reads the encoding from column b of an
    `encode_batch` node; dropout then belongs to that node's inputs.
    Without it the example is encoded here, as a batch of one.
    """
    doc, query = example.document, example.query
    positions = example.positions
    syms = [doc.symbols[l - 1] for l in positions]
    q_pos = len(doc) + 1 + query.placeholder_pos
    m = len(positions)
    if encoded is None:
        encoded = encode_batch([example], params, sep_id=sep_id,
                               dropout_rate=dropout_rate, rng=rng), 0
    states, b = encoded
    zq = column_span_queries(states, b, len(doc) + 1 + len(query),
                             positions + [q_pos], params.W_q)
    return SupportSet(
        positions=positions,
        z=ag.gather_rows(zq, range(m)),
        y_i=ag.gather_rows(params.E_i, syms),
        y_o=ag.gather_rows(params.E_o, [answer_row(s) for s in syms]),
        query_z=ag.take_row(zq, m))


def encode_batch(examples, params: ModelParams, *, sep_id: int,
                 dropout_rate: float = 0.0,
                 rng: np.random.Generator | None = None) -> Tensor:
    """The biGRU of B examples as one `bigru_encode` node, column b for
    `examples[b]`. Each example's embedding and dropout mask are drawn in
    order, so the RNG stream is the one B `build_support` calls draw."""
    return bigru_encode([embed_sequence(ex.encoder_input(sep_id), params.E_i,
                                        dropout_rate, rng)
                         for ex in examples], params.gru_f, params.gru_b)


@dataclass
class SupportBatch:
    """Tape-free support memories of B examples, padded to the largest
    support (M) and candidate (K) counts; pad rows are real rows of the
    tables and carry False in their mask."""
    memory: np.ndarray  # (B, M, 2h + answer_dim): rows [z | y_i | y_o]
    mask: np.ndarray  # (B, M)
    query_z: np.ndarray  # (B, h)
    cand: np.ndarray  # (B, K, answer_dim) candidate output embeddings
    cand_mask: np.ndarray  # (B, K)


def _padded(rows) -> tuple[np.ndarray, np.ndarray]:
    """Index lists as a zero-padded `(B, max length)` array and its mask."""
    width = max(map(len, rows))
    idx = np.zeros((len(rows), width), dtype=np.intp)
    mask = np.zeros((len(rows), width), dtype=bool)
    for b, r in enumerate(rows):
        idx[b, :len(r)] = r
        mask[b, :len(r)] = True
    return idx, mask


def build_support_batch(examples, params: ModelParams, *, sep_id: int,
                        answer_row) -> SupportBatch:
    """`build_support` without dropout or tape for B examples. Raises
    `EmptySupportError` for an example without support: its all-pad row has
    no softmax."""
    if not all(ex.positions for ex in examples):
        raise EmptySupportError("support set is empty")
    seqs = [ex.encoder_input(sep_id) for ex in examples]
    H = bigru_states(seqs, params.E_i.data, params.gru_f, params.gru_b)
    # column 0 holds the placeholder's position, pads read position 1
    pos, mask = _padded([[len(ex.document) + 1 + ex.query.placeholder_pos]
                         + ex.positions for ex in examples])
    pos[~mask] = 1
    # [h^f_{l-1}; h^b_{l+1}] of every position in one gather, as in
    # `column_span_queries`
    rows = np.stack((pos - 1, np.array([[len(s)] for s in seqs]) - pos), 2)
    outer = H[[0, 1], rows, np.arange(len(seqs))[:, None, None]]
    zq = (outer.reshape(-1, 2 * params.h) @ params.W_q.data.T).reshape(
        *pos.shape, params.h)
    syms = [[ex.document.symbols[l - 1] for l in ex.positions]
            for ex in examples]
    y_i, _ = _padded(syms)
    y_o, _ = _padded([[answer_row(s) for s in r] for r in syms])
    cand, cand_mask = _padded([[answer_row(c) for c in ex.candidates]
                               for ex in examples])
    return SupportBatch(
        memory=np.concatenate((zq[:, 1:], params.E_i.data[y_i],
                               params.E_o.data[y_o]), axis=2),
        mask=mask[:, 1:], query_z=zq[:, 0], cand=params.E_o.data[cand],
        cand_mask=cand_mask)


def stacked(support: SupportSet) -> tuple[Tensor, Tensor, Tensor]:
    """Support pairs as matrices: Z, Y_i, Y_o (one pair per row)."""
    if support.m == 0:
        raise EmptySupportError("support set is empty")
    return support.z, support.y_i, support.y_o
