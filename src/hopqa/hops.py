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
from .model import ModelParams
# keep `stacked` a module-level name: benches/tracer.py patches hops.stacked
from .support import Example, build_support, build_support_batch, stacked


@dataclass
class Retrieved:
    alpha: Tensor
    z_tilde: Tensor
    y_i_tilde: Tensor
    y_o_tilde: Tensor


@dataclass
class HopTrace:
    hop: int
    alpha: np.ndarray  # one weight per support pair
    g_a: float
    eta: float
    g_q_mean: float


def retrieve(q: Tensor, z_mat: Tensor, y_i_mat: Tensor,
             y_o_mat: Tensor) -> Retrieved:
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
    scores = ag.matmul(cand_mat, a)
    return scores, ag.softmax(scores)


@dataclass
class HopRunResult:
    scores: Tensor
    probs: Tensor
    answer: Tensor
    traces: list[HopTrace] = field(default_factory=list)

    @property
    def prediction(self) -> int:
        """Index into the candidate list: the argmax of `probs`, ties broken
        to the lowest index."""
        return int(np.argmax(self.probs.data))


def run_hops(q0: Tensor, z_mat: Tensor, y_i_mat: Tensor, y_o_mat: Tensor,
             cand_mat: Tensor, params: ModelParams, hops: int, *,
             ablate_query_gate: bool = False,
             force_answer_gate: float | None = None) -> HopRunResult:
    """The retrieval/update cycle from stacked support matrices."""
    if hops < 1:
        raise ValueError("need at least one hop")
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
            hop=t + 1, alpha=r.alpha.data.copy(),
            g_a=float(g_a.data), eta=float(eta.data),
            g_q_mean=float(np.mean(g_q.data))))
    scores, probs = score_candidates(a, cand_mat)
    return HopRunResult(scores=scores, probs=probs, answer=a, traces=traces)


def forward_pass(example: Example, params: ModelParams, vocab, hops: int, *,
                 dropout_rate: float = 0.0,
                 rng: np.random.Generator | None = None,
                 ablate_query_gate: bool = False,
                 encoded: tuple[Tensor, int] | None = None) -> HopRunResult:
    """Encode one example and run the full retrieval cycle. The predicted
    symbol is `example.candidates[result.prediction]`.

    `vocab` supplies the separator id and the vocab-id -> answer-row map.
    The hop count is free to differ from the one used in training; hop
    parameters are shared across hops. `encoded` passes the example's
    column of a batch encoding to `build_support`.
    """
    support = build_support(
        example, params, sep_id=vocab.sep_id, answer_row=vocab.answer_row,
        dropout_rate=dropout_rate, rng=rng, encoded=encoded)
    z_mat, y_i_mat, y_o_mat = stacked(support)
    cand_mat = ag.gather_rows(
        params.E_o, [vocab.answer_row(c) for c in example.candidates])
    return run_hops(
        support.query_z, z_mat, y_i_mat, y_o_mat, cand_mat, params, hops,
        ablate_query_gate=ablate_query_gate)


def _masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax over the True entries; a row must hold at least one."""
    x = np.where(mask, x, -np.inf)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward_batch(examples, params: ModelParams, vocab,
                  hops: int) -> tuple[np.ndarray, np.ndarray]:
    """`forward_pass` without dropout or tape for B examples, none of them
    without support (`Example.positions` empty). Returns the
    `(B, K)` candidate scores and probabilities, K the largest candidate
    count, with -inf scores and zero probabilities on the pads. Every
    softmax is masked, every gate a `(B, .)` gemm."""
    sb = build_support_batch(examples, params, sep_id=vocab.sep_id,
                             answer_row=vocab.answer_row)
    p, sig = params, ag.stable_sigmoid
    h = p.h
    q = sb.query_z
    if p.identity_eo:
        a0 = np.zeros((len(examples), p.answer_dim))
    else:
        a0 = sig(p.g_a_q.data) * (q @ p.U_a_q.data.T)
    a = a0
    for _ in range(hops):
        alpha = _masked_softmax((sb.memory[..., :h] @ q[..., None])[..., 0],
                                sb.mask)
        r = (alpha[:, None] @ sb.memory)[:, 0]
        z_t, y_i_t, y_o_t = r[:, :h], r[:, h:2 * h], r[:, 2 * h:]
        eta = _masked_softmax((sb.cand @ y_o_t[..., None])[..., 0],
                              sb.cand_mask).max(axis=1, keepdims=True)
        mid = np.zeros_like(q) if p.identity_eo else a0 * y_o_t
        g_a = sig(np.concatenate((q * z_t, mid, eta), axis=1)
                  @ p.u_a_g.data + p.b_a.data)
        a = a + g_a[:, None] * y_o_t
        q_c = np.tanh(np.concatenate((q, y_i_t, z_t), axis=1) @ p.U_q_c.data.T)
        g_q = sig(np.concatenate((q, z_t), axis=1) @ p.U_q_g.data.T
                  + p.b_q_g.data)
        q = g_q * q + (1.0 - g_q) * q_c
    scores = np.where(sb.cand_mask, (sb.cand @ a[..., None])[..., 0], -np.inf)
    return scores, _masked_softmax(scores, sb.cand_mask)
