"""Soft support retrieval, gated query/answer updates, candidate scoring.

One hop: attend over all support pairs with the current query, blend the
retrieved pair, decide via a scalar gate how much of the retrieved answer
embedding to accumulate, and gate per dimension whether to keep the old query
or adopt the blended update. After T hops the accumulated answer
representation is scored against the candidate embeddings.

`run_hops` records the whole cycle as one tape node with a hand-written
backward; `tests/hop_oracle.py` builds it op by op as the reference.
`forward_batch` is the same cycle over B examples, with no tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .exceptions import DimensionError, EmptySupportError
from .model import ModelParams
# keep `stacked` a module-level name: benches/tracer.py patches hops.stacked
from .support import Example, build_support, build_support_batch, stacked


@dataclass
class HopTrace:
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


def run_hops(q0: Tensor, z_mat: Tensor, y_i_mat: Tensor, y_o_mat: Tensor,
             cand_mat: Tensor, params: ModelParams, hops: int, *,
             ablate_query_gate: bool = False,
             force_answer_gate: float | None = None) -> HopRunResult:
    """The retrieval/update cycle from stacked support matrices, as one tape
    node: the candidate scores. Its forward runs every hop in plain numpy;
    its backward sweeps the hops in reverse, writing into `q0`, the four
    matrices and the hop parameters. `answer` carries no gradient."""
    if hops < 1:
        raise ValueError("need at least one hop")
    p, sig = params, ag.stable_sigmoid
    h, d = p.h, p.answer_dim
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
    use_a0 = not (p.identity_eo or ablate_query_gate)
    if use_a0:
        s0, v0 = sig(p.g_a_q.data), p.U_a_q.data @ q
        a0 = s0 * v0
    else:
        a0 = np.zeros(d)
    # the expressions of the per-op hop loop in their order, so every value
    # is bit-identical to it
    a, saved, traces = a0, [], []
    for t in range(hops):
        s = Z @ q
        e = np.exp(s - np.max(s))
        alpha = e / np.sum(e)
        z_t, y_i_t, y_o_t = Z.T @ alpha, Y_i.T @ alpha, Y_o.T @ alpha
        s = C @ y_o_t
        e = np.exp(s - np.max(s))
        pc = e / np.sum(e)
        j = int(np.argmax(pc))  # eta = pc[j]; a tie goes to the lowest j
        if force_answer_gate is None:
            mid = np.zeros(h) if p.identity_eo else a0 * y_o_t
            x_a = np.concatenate([q * z_t, mid, pc[j:j + 1]])
            g_a = sig(np.dot(p.u_a_g.data, x_a) + p.b_a.data)
        else:
            x_a, g_a = None, np.asarray(force_answer_gate, dtype=np.float64)
        a = a + g_a * y_o_t
        x_c, x_g = np.concatenate([q, y_i_t, z_t]), np.concatenate([q, z_t])
        q_c = np.tanh(p.U_q_c.data @ x_c)
        g_q = sig(p.U_q_g.data @ x_g + p.b_q_g.data)
        saved.append((q, alpha, z_t, y_o_t, pc, j, x_a, g_a, x_c, x_g, q_c,
                      g_q))
        traces.append(HopTrace(hop=t + 1, alpha=alpha, g_a=float(g_a),
                               eta=float(pc[j]), g_q_mean=float(np.mean(g_q))))
        q = g_q * q + (1.0 - g_q) * q_c

    def bw(g):
        cand_mat.grad += np.outer(g, a)
        d_a, d_q, d_a0 = C.T @ g, np.zeros(h), np.zeros(d)
        rows, gate_rows = [], []
        for t in reversed(range(hops)):
            q, alpha, z_t, y_o_t, pc, j, x_a, g_a, x_c, x_g, q_c, g_q = saved[t]
            # query update; d_q is zero at the last hop
            d_c = d_q * (1.0 - g_q) * (1.0 - q_c * q_c)
            d_g = (d_q * q - d_q * q_c) * g_q * (1.0 - g_q)
            dx_c, dx_g = p.U_q_c.data.T @ d_c, p.U_q_g.data.T @ d_g
            d_q = d_q * g_q + dx_c[:h] + dx_g[:h]
            d_z = dx_c[2 * h:] + dx_g[h:]
            # answer update and gate
            d_yo = d_a * g_a
            if x_a is not None:
                d_ga = np.dot(d_a, y_o_t) * g_a * (1.0 - g_a)
                dx_a = d_ga * p.u_a_g.data
                d_q += dx_a[:h] * z_t
                d_z += dx_a[:h] * q
                if not p.identity_eo:
                    d_a0 += dx_a[h:2 * h] * y_o_t
                    d_yo += dx_a[h:2 * h] * a0
                d_p = np.zeros(k)
                d_p[j] = dx_a[-1]
                d_p = pc * (d_p - dx_a[-1] * pc[j])
                cand_mat.grad += np.outer(d_p, y_o_t)
                d_yo += C.T @ d_p
                gate_rows.append((x_a, d_ga))
            # retrieval
            d_al = Z @ d_z + Y_i @ dx_c[h:2 * h] + Y_o @ d_yo
            d_s = alpha * (d_al - np.dot(d_al, alpha))
            d_q += Z.T @ d_s
            rows.append((alpha, q, x_c, x_g, d_z, dx_c[h:2 * h], d_yo, d_s,
                         d_c, d_g))
        A, Q, X_c, X_g, D_z, D_yi, D_yo, D_s, D_c, D_g = map(np.stack,
                                                            zip(*rows))
        z_mat.grad += A.T @ D_z + D_s.T @ Q
        y_i_mat.grad += A.T @ D_yi
        y_o_mat.grad += A.T @ D_yo
        p.U_q_c.grad += D_c.T @ X_c
        p.U_q_g.grad += D_g.T @ X_g
        p.b_q_g.grad += D_g.sum(axis=0)
        if gate_rows:
            X_a, D_a = map(np.stack, zip(*gate_rows))
            p.u_a_g.grad += D_a @ X_a
            p.b_a.grad += D_a.sum()
        d_a0 += d_a
        if use_a0:
            p.g_a_q.grad += np.dot(d_a0, v0) * s0 * (1.0 - s0)
            p.U_a_q.grad += np.outer(d_a0 * s0, q0.data)
            d_q += p.U_a_q.data.T @ (d_a0 * s0)
        q0.grad += d_q

    used = [p.U_q_c, p.U_q_g, p.b_q_g]
    used += [p.U_a_q, p.g_a_q] if use_a0 else []
    used += [p.u_a_g, p.b_a] if force_answer_gate is None else []
    scores = Tensor(C @ a, parents=(q0, z_mat, y_i_mat, y_o_mat, cand_mat,
                                    *used), backward_fn=bw)
    return HopRunResult(scores=scores, probs=ag.softmax(scores),
                        answer=ag.constant(a), traces=traces)


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
