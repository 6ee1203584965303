"""Soft support retrieval, gated query/answer updates, candidate scoring.

One hop: attend over all support pairs with the current query, blend the
retrieved pair, decide via a scalar gate how much of the retrieved answer
embedding to accumulate, and gate per dimension whether to keep the old query
or adopt the blended update. After T hops the accumulated answer
representation is scored against the candidate embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .exceptions import EmptySupportError
from .model import ModelParams
from .support import Example, SupportSet, build_support, stacked


@dataclass
class Retrieved:
    alpha: Tensor
    z_tilde: Tensor
    y_i_tilde: Tensor
    y_o_tilde: Tensor


@dataclass
class HopTrace:
    hop: int
    alpha: np.ndarray
    spans: tuple[tuple[int, int], ...]  # one per support pair, shared by hops
    g_a: float
    eta: float
    g_q_mean: float

    def to_record(self) -> dict:
        return {
            "hop": self.hop,
            "alpha": [float(a) for a in self.alpha],
            "spans": [[s, e] for s, e in self.spans],
            "g_a": self.g_a,
            "eta": self.eta,
            "g_q_mean": self.g_q_mean,
        }


def retrieve(q: Tensor, z_mat: Tensor, y_i_mat: Tensor,
             y_o_mat: Tensor) -> Retrieved:
    if z_mat.data.shape[0] == 0:
        raise EmptySupportError("retrieval over empty support")
    alpha = ag.softmax(ag.matmul(z_mat, q))
    return Retrieved(
        alpha=alpha,
        z_tilde=ag.matmul(ag.transpose(z_mat), alpha),
        y_i_tilde=ag.matmul(ag.transpose(y_i_mat), alpha),
        y_o_tilde=ag.matmul(ag.transpose(y_o_mat), alpha),
    )


def update_query(q: Tensor, retrieved: Retrieved,
                 params: ModelParams) -> tuple[Tensor, Tensor]:
    """Returns (q_next, gate). Gate at 1 keeps the old query."""
    q_cand = ag.tanh(ag.matmul(
        params.U_q_c, ag.concat([q, retrieved.y_i_tilde, retrieved.z_tilde])))
    gate = ag.sigmoid(ag.add(
        ag.matmul(params.U_q_g, ag.concat([q, retrieved.z_tilde])),
        params.b_q_g))
    q_next = ag.add(ag.mul(gate, q), ag.mul(ag.one_minus(gate), q_cand))
    return q_next, gate


def init_answer(q0: Tensor, params: ModelParams,
                ablate_query_gate: bool = False) -> Tensor:
    """Gated linear transform of the initial query. In identity output-
    embedding mode the answer lives in candidate-index space and the query
    contributes nothing, so the init is a zero vector (the gate is treated
    as fully closed)."""
    if params.identity_eo or ablate_query_gate:
        return ag.zeros(params.answer_dim)
    return ag.smul(ag.sigmoid(params.g_a_q), ag.matmul(params.U_a_q, q0))


def eta_max_prob(y_o_tilde: Tensor, cand_mat: Tensor) -> tuple[Tensor, int]:
    """Highest candidate probability if the retrieved answer embedding were
    final. Gradient flows through the attained maximizer; ties break to the
    lowest candidate index."""
    if cand_mat.data.shape[0] == 0:
        raise EmptySupportError("no answer candidates")
    probs = ag.softmax(ag.matmul(cand_mat, y_o_tilde))
    idx = int(np.argmax(probs.data))
    return ag.pick(probs, idx), idx


def answer_gate(q: Tensor, z_tilde: Tensor, a0: Tensor, y_o_tilde: Tensor,
                eta: Tensor, params: ModelParams) -> Tensor:
    """Scalar accumulation gate over [q ⊙ z̃ ; a0 ⊙ ỹ^o ; η]."""
    if params.identity_eo:
        # a0 is zero in candidate-index space; its block stays a zero h-vector
        mid = ag.zeros(params.h)
    else:
        mid = ag.mul(a0, y_o_tilde)
    gate_in = ag.concat([ag.mul(q, z_tilde), mid, ag.reshape(eta, (1,))])
    return ag.sigmoid(ag.add(ag.dot(params.u_a_g, gate_in), params.b_a))


def update_answer(a: Tensor, g_a: Tensor, y_o_tilde: Tensor) -> Tensor:
    return ag.add(a, ag.smul(g_a, y_o_tilde))


def score_candidates(a: Tensor, cand_mat: Tensor) -> tuple[Tensor, Tensor]:
    """Inner-product scores and their softmax over the candidate set."""
    if cand_mat.data.shape[0] == 0:
        raise EmptySupportError("no answer candidates")
    scores = ag.matmul(cand_mat, a)
    return scores, ag.softmax(scores)


def predict(probs: Tensor) -> int:
    """Argmax with lowest-index tie-break."""
    return int(np.argmax(probs.data))


@dataclass
class HopRunResult:
    scores: Tensor
    probs: Tensor
    answer: Tensor
    traces: list[HopTrace] = field(default_factory=list)

    @property
    def prediction(self) -> int:
        return predict(self.probs)


def run_hops(q0: Tensor, z_mat: Tensor, y_i_mat: Tensor, y_o_mat: Tensor,
             cand_mat: Tensor, params: ModelParams, hops: int, *,
             spans: tuple[tuple[int, int], ...] | None = None,
             ablate_query_gate: bool = False,
             force_answer_gate: float | None = None) -> HopRunResult:
    """The retrieval/update cycle from stacked support matrices."""
    if hops < 1:
        raise ValueError("need at least one hop")
    if spans is None:
        spans = ((0, 0),) * z_mat.data.shape[0]
    q = q0
    a0 = init_answer(q0, params, ablate_query_gate=ablate_query_gate)
    a = a0
    traces = []
    for t in range(hops):
        r = retrieve(q, z_mat, y_i_mat, y_o_mat)
        eta, _ = eta_max_prob(r.y_o_tilde, cand_mat)
        if force_answer_gate is None:
            g_a = answer_gate(q, r.z_tilde, a0, r.y_o_tilde, eta, params)
        else:
            g_a = ag.constant(np.asarray(force_answer_gate))
        a = update_answer(a, g_a, r.y_o_tilde)
        q, g_q = update_query(q, r, params)
        traces.append(HopTrace(
            hop=t + 1, alpha=r.alpha.data.copy(), spans=spans,
            g_a=float(g_a.data), eta=float(eta.data),
            g_q_mean=float(np.mean(g_q.data))))
    scores, probs = score_candidates(a, cand_mat)
    return HopRunResult(scores=scores, probs=probs, answer=a, traces=traces)


@dataclass
class ForwardResult:
    scores: Tensor
    probs: Tensor
    traces: list[HopTrace]
    candidates: list[int]
    support: SupportSet

    @property
    def prediction(self) -> int:
        """Index into the candidate list."""
        return predict(self.probs)

    @property
    def predicted_symbol(self) -> int:
        return self.candidates[self.prediction]


def forward_pass(example: Example, params: ModelParams, vocab, hops: int, *,
                 mode: str = "eval", dropout_rate: float = 0.0,
                 rng: np.random.Generator | None = None,
                 ablate_query_gate: bool = False,
                 force_answer_gate: float | None = None) -> ForwardResult:
    """Encode one example and run the full retrieval cycle.

    `vocab` supplies the separator id and the vocab-id -> answer-row map.
    The hop count is free to differ from the one used in training; hop
    parameters are shared across hops.
    """
    support = build_support(
        example, params, sep_id=vocab.sep_id, answer_row=vocab.answer_row,
        dropout_rate=dropout_rate, mode=mode, rng=rng)
    z_mat, y_i_mat, y_o_mat = stacked(support)
    cand_mat = ag.gather_rows(
        params.E_o, [vocab.answer_row(c) for c in example.candidates])
    result = run_hops(
        support.query_z, z_mat, y_i_mat, y_o_mat, cand_mat, params, hops,
        spans=tuple((s.l_s, s.l_e) for s in support.spans),
        ablate_query_gate=ablate_query_gate,
        force_answer_gate=force_answer_gate)
    return ForwardResult(scores=result.scores, probs=result.probs,
                         traces=result.traces,
                         candidates=list(example.candidates), support=support)
