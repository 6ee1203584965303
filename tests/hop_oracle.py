"""The hop loop built op by op on the autodiff tape: the per-op oracle that
`hops.run_hops`, the batched hop node at B=1, is held to. Every forward
value here is bit-identical to the node's; the tape's own op rules give the
reference gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hopqa import autograd as ag
from hopqa.autograd import Tensor
from hopqa.hops import HopRunResult, HopTrace
from hopqa.model import ModelParams


@dataclass
class Retrieved:
    alpha: Tensor
    z_tilde: Tensor
    y_i_tilde: Tensor
    y_o_tilde: Tensor


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


def run_hops_ops(q0: Tensor, z_mat: Tensor, y_i_mat: Tensor, y_o_mat: Tensor,
                 cand_mat: Tensor, params: ModelParams, hops: int, *,
                 ablate_query_gate: bool = False,
                 force_answer_gate: float | None = None) -> HopRunResult:
    """`hops.run_hops` as about 30 tape ops per hop."""
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
