"""Soft support retrieval, gated query/answer updates, candidate scoring.

One hop: attend over all support pairs with the current query, blend the
retrieved pair, decide via a scalar gate how much of the retrieved answer
embedding to accumulate, and gate per dimension whether to keep the old query
or adopt the blended update. After T hops the accumulated answer
representation is scored against the candidate embeddings.

`run_hops_batch` records the whole cycle for B padded, masked examples as
one tape node with a hand-written backward: one reverse sweep over the hops,
and one gemm over every (hop, example) row per weight gradient. Training
records it once per chunk, evaluation (`forward_batch`) runs it untaped,
and `run_hops`, over one example's support matrices, is its B=1 view.
`tests/hop_oracle.py` builds the cycle op by op as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .exceptions import DimensionError, EmptySupportError
from .model import ModelParams
# keep `stacked` a module-level name: benches/tracer.py patches hops.stacked
from .support import (Example, SupportBatch, build_support,
                      build_support_batch, stacked)


@dataclass
class HopTrace:
    """One hop of one example; a batch's traces hold each field with a
    leading batch axis."""
    hop: int
    alpha: np.ndarray  # one weight per support pair
    g_a: float
    eta: float
    g_q_mean: float


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


def _masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax over the True entries; a row must hold at least one."""
    x = np.where(mask, x, -np.inf)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row's dot product, rounded as `np.dot` rounds that row alone."""
    return (x[:, None] @ y[..., None])[:, 0, 0]


def run_hops_batch(sb: SupportBatch, params: ModelParams, hops: int, *,
                   ablate_query_gate: bool = False,
                   force_answer_gate: float | None = None,
                   taped: bool = True
                   ) -> tuple[Tensor, np.ndarray, list[HopTrace]]:
    """The cycle for the B examples of `sb` as one tape node, the `(B, K)`
    candidate scores with -inf on pad candidates; also returns the answers
    and the batch traces. Every softmax is masked and every weight product
    a `(B, .)` gemm. The backward is one reverse sweep over the hops; it
    writes into the four tensors of `sb` (zero on pads) and the hop
    parameters. Untaped, the scores are a constant and the traces empty:
    no hop's arrays are kept, so memory does not grow with `hops`."""
    if hops < 1:
        raise ValueError("need at least one hop")
    p, sig, h, B = params, ag.stable_sigmoid, params.h, len(sb.mask)
    q0, cand, rows = sb.queries.data[:, 0], sb.cand.data, np.arange(B)
    memory = (sb.queries.data[:, 1:], sb.y_i.data, sb.y_o.data)
    Z = memory[0]
    use_a0 = not (p.identity_eo or ablate_query_gate)
    if use_a0:
        s0, v0 = sig(p.g_a_q.data), q0 @ p.U_a_q.data.T
        a0 = s0 * v0
    else:
        a0 = np.zeros((B, p.answer_dim))
    q, a, saved, traces = q0, a0, [], []
    for t in range(hops):
        alpha = _masked_softmax((Z @ q[..., None])[..., 0], sb.mask)
        # one product per memory array: a product over their concatenation
        # rounds differently at some widths
        z_t, y_i_t, y_o_t = ((alpha[:, None] @ x)[:, 0] for x in memory)
        pc = _masked_softmax((cand @ y_o_t[..., None])[..., 0],
                             sb.cand_mask)
        j = pc.argmax(axis=1)  # eta = pc[j]; a tie goes to the lowest j
        eta = pc[rows, j]
        if force_answer_gate is None:
            mid = np.zeros_like(q) if p.identity_eo else a0 * y_o_t
            x_a = np.concatenate((q * z_t, mid, eta[:, None]), axis=1)
            g_a = sig(x_a @ p.u_a_g.data + p.b_a.data)
        else:
            x_a, g_a = None, np.full(B, float(force_answer_gate))
        a = a + g_a[:, None] * y_o_t
        x_c = np.concatenate((q, y_i_t, z_t), axis=1)
        x_g = np.concatenate((q, z_t), axis=1)
        q_c = np.tanh(x_c @ p.U_q_c.data.T)
        g_q = sig(x_g @ p.U_q_g.data.T + p.b_q_g.data)
        if taped:
            saved.append((q, alpha, z_t, y_o_t, pc, j, x_a, g_a, x_c, x_g,
                          q_c, g_q))
            # the sum over h, then one division: `np.mean`'s value, at half
            # its cost on small rows
            traces.append(HopTrace(hop=t + 1, alpha=alpha, g_a=g_a, eta=eta,
                                   g_q_mean=g_q.sum(axis=1) / h))
        q = g_q * q + (1.0 - g_q) * q_c

    def bw(G):
        d_cand = G[..., None] * a[:, None]
        d_a = (G[:, None] @ cand)[:, 0]
        d_q, d_a0 = np.zeros_like(q0), np.zeros_like(a0)
        hop_rows, gate_rows = [], []
        for t in reversed(range(hops)):
            q, alpha, z_t, y_o_t, pc, j, x_a, g_a, x_c, x_g, q_c, g_q = saved[t]
            # query update; d_q is zero at the last hop
            d_c = d_q * (1.0 - g_q) * (1.0 - q_c * q_c)
            d_g = (d_q * q - d_q * q_c) * g_q * (1.0 - g_q)
            dx_c, dx_g = d_c @ p.U_q_c.data, d_g @ p.U_q_g.data
            d_q = d_q * g_q + dx_c[:, :h] + dx_g[:, :h]
            d_z = dx_c[:, 2 * h:] + dx_g[:, h:]
            # answer update and gate, with eta's gradient through pc[j]
            d_yo = d_a * g_a[:, None]
            if x_a is not None:
                d_ga = _rowdot(d_a, y_o_t) * g_a * (1.0 - g_a)
                dx_a = d_ga[:, None] * p.u_a_g.data
                d_q += dx_a[:, :h] * z_t
                d_z += dx_a[:, :h] * q
                if not p.identity_eo:
                    d_a0 += dx_a[:, h:2 * h] * y_o_t
                    d_yo += dx_a[:, h:2 * h] * a0
                d_p = np.zeros_like(pc)
                d_p[rows, j] = dx_a[:, -1]
                d_p = pc * (d_p - (dx_a[:, -1] * pc[rows, j])[:, None])
                d_cand += d_p[..., None] * y_o_t[:, None]
                d_yo += (d_p[:, None] @ cand)[:, 0]
                gate_rows.append((x_a, d_ga))
            # retrieval
            d_r = (d_z, dx_c[:, h:2 * h], d_yo)
            d_al = sum((x @ dx[..., None])[..., 0]
                       for x, dx in zip(memory, d_r))
            d_s = alpha * (d_al - _rowdot(d_al, alpha)[:, None])
            d_q += (d_s[:, None] @ Z)[:, 0]
            hop_rows.append((alpha, q, x_c, x_g, d_s, d_c, d_g, *d_r))
        # `(B, T, .)` stacks: each weight gradient is one gemm over every
        # (example, hop) row, each memory gradient one per example
        A, Q, X_c, X_g, D_s, D_c, D_g, *D_r = (
            np.stack(x, axis=1) for x in zip(*hop_rows))
        A = A.transpose(0, 2, 1)
        d_mem = [A @ dx for dx in D_r]
        d_mem[0] += D_s.transpose(0, 2, 1) @ Q
        p.U_q_c.grad += D_c.reshape(-1, h).T @ X_c.reshape(-1, 3 * h)
        p.U_q_g.grad += D_g.reshape(-1, h).T @ X_g.reshape(-1, 2 * h)
        p.b_q_g.grad += D_g.sum(axis=(0, 1))
        if gate_rows:
            X_a, D_a = (np.concatenate(x) for x in zip(*gate_rows))
            p.u_a_g.grad += D_a @ X_a
            p.b_a.grad += D_a.sum()
        d_a0 += d_a
        if use_a0:
            p.g_a_q.grad += np.vdot(d_a0, v0) * s0 * (1.0 - s0)
            p.U_a_q.grad += (d_a0 * s0).T @ q0
            d_q += (d_a0 * s0) @ p.U_a_q.data
        sb.queries.grad[:, 0] += d_q
        sb.queries.grad[:, 1:] += d_mem[0]
        sb.y_i.grad += d_mem[1]
        sb.y_o.grad += d_mem[2]
        sb.cand.grad += d_cand

    used = [p.U_q_c, p.U_q_g, p.b_q_g]
    used += [p.U_a_q, p.g_a_q] if use_a0 else []
    used += [p.u_a_g, p.b_a] if force_answer_gate is None else []
    scores = np.where(sb.cand_mask, (cand @ a[..., None])[..., 0], -np.inf)
    if not taped:
        return ag.constant(scores), a, traces
    return Tensor(scores, parents=(sb.queries, sb.y_i, sb.y_o, sb.cand,
                                   *used), backward_fn=bw), a, traces


def run_hops(q0: Tensor, z_mat: Tensor, y_i_mat: Tensor, y_o_mat: Tensor,
             cand_mat: Tensor, params: ModelParams, hops: int, *,
             ablate_query_gate: bool = False,
             force_answer_gate: float | None = None) -> HopRunResult:
    """The cycle for one example from its stacked support matrices: the
    `run_hops_batch` node of a batch of one, its inputs and scores reshaped
    views of these tensors. Its backward writes into `q0`, the four
    matrices and the hop parameters; `answer` carries no gradient."""
    h, d = params.h, params.answer_dim
    q, Z, Y_i, Y_o, C = (t.data for t in (q0, z_mat, y_i_mat, y_o_mat,
                                          cand_mat))
    m, k = len(Z), len(C)
    bad = [f"{n} {x.shape} (want {w})" for n, x, w in (
        ("q0", q, (h,)), ("Z", Z, (m, h)), ("Y_i", Y_i, (m, h)),
        ("Y_o", Y_o, (m, d)), ("candidates", C, (k, d))) if x.shape != w]
    if bad:
        raise DimensionError(f"run_hops inputs: {', '.join(bad)}")
    if m == 0 or k == 0:
        raise EmptySupportError(f"run_hops over {m} support pairs and {k} "
                                f"candidates")
    sb = SupportBatch(
        queries=ag.reshape(ag.concat([q0, ag.reshape(z_mat, (-1,))]),
                           (1, m + 1, h)),
        y_i=ag.reshape(y_i_mat, (1, m, h)), y_o=ag.reshape(y_o_mat, (1, m, d)),
        mask=np.ones((1, m), dtype=bool), cand=ag.reshape(cand_mat, (1, k, d)),
        cand_mask=np.ones((1, k), dtype=bool))
    scores, answer, traces = run_hops_batch(
        sb, params, hops, ablate_query_gate=ablate_query_gate,
        force_answer_gate=force_answer_gate)
    scores = ag.reshape(scores, (k,))
    return HopRunResult(scores=scores, probs=ag.softmax(scores),
                        answer=ag.constant(answer[0]), traces=[
                            HopTrace(t.hop, t.alpha[0], float(t.g_a[0]),
                                     float(t.eta[0]), float(t.g_q_mean[0]))
                            for t in traces])


def forward_pass(example: Example, params: ModelParams, vocab, hops: int, *,
                 dropout_rate: float = 0.0,
                 rng: np.random.Generator | None = None,
                 ablate_query_gate: bool = False) -> HopRunResult:
    """Encode one example and run the full retrieval cycle. The predicted
    symbol is `example.candidates[result.prediction]`.

    `vocab` supplies the vocab-id -> answer-row map. The hop count is free
    to differ from the one used in training; hop parameters are shared
    across hops.
    """
    support = build_support(example, params, answer_row=vocab.answer_row,
                            dropout_rate=dropout_rate, rng=rng)
    z_mat, y_i_mat, y_o_mat = stacked(support)
    cand_mat = ag.gather_rows(params.E_o,
                              example.index_lists(vocab.answer_row)[3])
    return run_hops(
        support.query_z, z_mat, y_i_mat, y_o_mat, cand_mat, params, hops,
        ablate_query_gate=ablate_query_gate)


def forward_batch(examples, params: ModelParams, vocab, hops: int,
                  support: SupportBatch | None = None):
    """`forward_pass` without dropout for B examples, none of them without
    support (`Example.positions` empty): `run_hops_batch` untaped over
    their support memory, built here (`build_support_batch` without states:
    constants that hold only what the hop loop reads) unless `support`
    passes it. Returns the `(B, K)` candidate scores and probabilities, K
    the largest candidate count, with -inf scores and zero probabilities on
    the pads."""
    sb = support if support is not None else build_support_batch(
        examples, params, answer_row=vocab.answer_row)
    scores = run_hops_batch(sb, params, hops, taped=False)[0].data
    return scores, _masked_softmax(scores, sb.cand_mask)
