"""Embedding, bi-directional GRU encoding, and contextual query vectors.

`bigru_encode` runs both directions over B embedded sequences as one tape
node, one column per sequence; a lone sequence is a batch of one.
`bigru_states` is the same recurrence on token ids, without a tape.

A token's query vector is built from the forward state just left of it and
the backward state just right of it, projected by a matrix initialized to
near-[I; I] so it starts out as (roughly) the sum of those two states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .exceptions import ConfigError


@dataclass
class Document:
    """A token-id sequence with its raw-token sidecar.

    `placeholder_pos` is the 1-based position of the cloze placeholder, when
    the document is a query.
    """
    symbols: list[int]
    raw_tokens: list[str]
    placeholder_pos: int | None = None

    def __post_init__(self):
        if len(self.symbols) != len(self.raw_tokens):
            raise ValueError("symbols and raw_tokens lengths differ")

    def __len__(self):
        return len(self.symbols)


@dataclass
class GRUParams:
    """One direction of the encoder. `b_z` is the update-gate bias."""
    W_z: Tensor
    U_z: Tensor
    b_z: Tensor
    W_r: Tensor
    U_r: Tensor
    b_r: Tensor
    W_h: Tensor
    U_h: Tensor
    b_h: Tensor

    def named(self, prefix: str):
        for f in ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h",
                  "b_h"):
            yield f"{prefix}.{f}", getattr(self, f)


# test reference for bigru_encode; benches/tracer.py patches encoder.gru_step
def gru_step(xz: Tensor, xr: Tensor, xh: Tensor, l: int, h_prev: Tensor,
             p: GRUParams) -> Tensor:
    """One recurrence step as a single fused tape node.

    `xz`, `xr`, `xh` are the whole-sequence input projections; row `l` feeds
    this step. Update gate z keeps the old state, reset gate r masks the old
    state inside the candidate.
    """
    hp = h_prev.data
    z = ag.stable_sigmoid(xz.data[l] + p.U_z.data @ hp + p.b_z.data)
    r = ag.stable_sigmoid(xr.data[l] + p.U_r.data @ hp + p.b_r.data)
    rh = r * hp
    c = np.tanh(xh.data[l] + p.U_h.data @ rh + p.b_h.data)
    out = Tensor(z * hp + (1.0 - z) * c,
                 parents=(xz, xr, xh, h_prev, p.U_z, p.U_r, p.U_h,
                          p.b_z, p.b_r, p.b_h))

    def bw(g):
        dz = g * (hp - c)
        da_c = (g * (1.0 - z)) * (1.0 - c * c)
        da_z = dz * z * (1.0 - z)
        drh = p.U_h.data.T @ da_c
        da_r = (drh * hp) * r * (1.0 - r)
        h_prev.grad += (g * z + drh * r
                        + p.U_z.data.T @ da_z + p.U_r.data.T @ da_r)
        xz.grad[l] += da_z
        xr.grad[l] += da_r
        xh.grad[l] += da_c
        p.U_z.grad += np.outer(da_z, hp)
        p.U_r.grad += np.outer(da_r, hp)
        p.U_h.grad += np.outer(da_c, rh)
        p.b_z.grad += da_z
        p.b_r.grad += da_r
        p.b_h.grad += da_c
    out.backward_fn = bw
    return out


def _stacked_weights(dirs):
    """Both directions' weights stacked on a leading axis: input
    projections `(2, h_in, 3h)` as `[W_z | W_r | W_h]`, biases `(2, 1, 3h)`,
    and the recurrent maps `(2, h, 2h)` and `(2, h, h)` applied to row
    states on the right."""
    w = np.stack([np.concatenate((p.W_z.data, p.W_r.data, p.W_h.data), axis=1)
                  for p in dirs])
    bias = np.stack([np.concatenate((p.b_z.data, p.b_r.data, p.b_h.data))
                     for p in dirs])[:, None]
    u_zr = np.stack([np.concatenate((p.U_z.data, p.U_r.data)).T for p in dirs])
    u_h = np.stack([p.U_h.data.T for p in dirs])
    return w, bias, u_zr, u_h


def _recurrence(x_at, n: int, B: int, u_zr: np.ndarray, u_h: np.ndarray,
                keep: bool = False):
    """Both directions of B left-aligned sequences, n steps each.

    `x_at(k)` is step k's input projection `(2, B, 3h)`, bias included.
    Returns the `(2, n+1, B, h)` states and, when `keep`, the saved z/r
    gates `(2, n, B, 2h)` and candidates `(2, n, B, h)` that BPTT needs."""
    h = u_h.shape[-1]
    H = np.zeros((2, n + 1, B, h))
    ZR = np.empty((2, n, B, 2 * h)) if keep else None
    C = np.empty((2, n, B, h)) if keep else None
    for k in range(n):
        hp = H[:, k]
        x = x_at(k)
        zr = ag.stable_sigmoid(x[..., :2 * h] + hp @ u_zr)
        z = zr[..., :h]
        c = np.tanh(x[..., 2 * h:] + (zr[..., h:] * hp) @ u_h)
        H[:, k + 1] = z * hp + (1.0 - z) * c
        if keep:
            ZR[:, k], C[:, k] = zr, c
    return H, ZR, C


def bigru_states(seqs, e_i: np.ndarray, fwd_params: GRUParams,
                 bwd_params: GRUParams) -> np.ndarray:
    """The states of `bigru_encode` for B token-id sequences, without a
    tape: the same `(2, n+1, B, h)` layout and recurrence."""
    n = max(map(len, seqs))
    ids = np.zeros((2, n, len(seqs)), dtype=np.intp)
    for b, s in enumerate(seqs):
        ids[0, :len(s), b] = s
        ids[1, :len(s), b] = s[::-1]
    w, bias, u_zr, u_h = _stacked_weights((fwd_params, bwd_params))
    # each distinct token's input projection, (2, tokens, 3h), gathered per
    # step: projecting every (step, sequence) up front holds a (2, n, B, 3h)
    # array, which raised peak RSS at h=256 and ran slower there
    tokens, ids = np.unique(ids, return_inverse=True)
    ids = ids.reshape(2, n, len(seqs))
    xw = e_i[tokens] @ w + bias
    d = np.arange(2)[:, None]
    return _recurrence(lambda k: xw[d, ids[:, k]], n, len(seqs), u_zr,
                       u_h)[0]


def bigru_encode(embedded, fwd_params: GRUParams,
                 bwd_params: GRUParams) -> Tensor:
    """Both directions over B embedded sequences as one tape node.

    `embedded` holds B `(n_b, h_in)` tensors, the `embed_sequence` outputs
    of each sequence. The node's data is a `(2, n+1, B, h)` array, n the
    longest length: `[0, k, b]` is the forward state of sequence b after
    its first k tokens and `[1, k, b]` the backward state after its last k
    tokens; row 0 is the zero initial state. Each direction reads its
    sequence left-aligned (the backward one reversed per sequence), so
    padding only follows the states a sequence's own positions read;
    `column_span_queries` reads one sequence's column. The backward pass
    runs BPTT for both directions and the whole batch at once, over saved
    gate values, and leaves each weight gradient to one gemm. Pad steps
    receive no gradient, so they add exact zeros.
    """
    lens = [e.data.shape[0] for e in embedded]
    if min(lens) < 1:
        raise ValueError("cannot encode an empty sequence")
    n, B = max(lens), len(embedded)
    dirs = (fwd_params, bwd_params)
    X = np.zeros((2, n, B, embedded[0].data.shape[1]))
    for b, e in enumerate(embedded):
        X[0, :lens[b], b] = e.data
        X[1, :lens[b], b] = e.data[::-1]
    w, bias, u_zr, u_h = _stacked_weights(dirs)
    XW = (X.reshape(2, n * B, -1) @ w + bias).reshape(2, n, B, -1)
    H, ZR, C = _recurrence(lambda k: XW[:, k], n, B, u_zr, u_h, keep=True)
    out = Tensor(H, parents=(*embedded, *(t for p in dirs for _, t in
                                           p.named(""))))

    def bw(G):
        h = u_h.shape[-1]
        # gate derivatives that do not depend on the carried gradient
        Hp, Z, R = H[:, :-1], ZR[..., :h], ZR[..., h:]
        f_z = (Hp - C) * Z * (1.0 - Z)
        f_c = (1.0 - Z) * (1.0 - C * C)
        f_r = Hp * R * (1.0 - R)
        u_zr_t, u_h_t = u_zr.transpose(0, 2, 1), u_h.transpose(0, 2, 1)
        DA = np.empty((2, n, B, 3 * h))  # (da_z, da_r, da_c) per step
        dh = np.zeros((2, B, h))
        for k in reversed(range(n)):
            g = G[:, k + 1] + dh
            da = DA[:, k]
            np.multiply(g, f_z[:, k], out=da[..., :h])
            drh = np.multiply(g, f_c[:, k], out=da[..., 2 * h:]) @ u_h_t
            np.multiply(drh, f_r[:, k], out=da[..., h:2 * h])
            dh = g * Z[:, k] + drh * R[:, k] + da[..., :2 * h] @ u_zr_t
        del f_z, f_c, f_r
        # one gemm per weight gradient, over every (step, sequence) row
        DA = DA.reshape(2, n * B, 3 * h)
        Hp, R = Hp.reshape(2, n * B, h), R.reshape(2, n * B, h)
        dX = np.empty_like(X)
        for d, p in enumerate(dirs):
            da, hp, x = DA[d], Hp[d], X[d].reshape(n * B, -1)
            p.U_z.grad += da[:, :h].T @ hp
            p.U_r.grad += da[:, h:2 * h].T @ hp
            p.U_h.grad += da[:, 2 * h:].T @ (R[d] * hp)
            for i, (wt, bt) in enumerate(((p.W_z, p.b_z), (p.W_r, p.b_r),
                                          (p.W_h, p.b_h))):
                blk = slice(i * h, (i + 1) * h)
                wt.grad += x.T @ da[:, blk]
                bt.grad += da[:, blk].sum(axis=0)
            dX[d] = (da @ w[d].T).reshape(n, B, -1)
        for b, e in enumerate(embedded):
            e.grad += dX[0, :lens[b], b] + dX[1, lens[b] - 1::-1, b]
    out.backward_fn = bw
    return out


def embed_sequence(symbols: list[int], e_i: Tensor, dropout_rate: float = 0.0,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Look up input embeddings; a positive rate applies inverted dropout."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError(f"dropout rate {dropout_rate} not in [0, 1)")
    emb = ag.gather_rows(e_i, symbols)
    if dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("dropout requires an rng")
        keep = (rng.random(emb.data.shape) >= dropout_rate)
        mask = keep.astype(emb.data.dtype) / (1.0 - dropout_rate)
        emb = ag.mul(emb, ag.constant(mask))
    return emb


def column_span_queries(states: Tensor, b: int, n: int, positions,
                        w_q: Tensor) -> Tensor:
    """Query vectors of many token positions of sequence b, n tokens long,
    as one `(M, h)` tape node reading column b of a `bigru_encode` node.

    Row k projects [h^f_{l-1}; h^b_{l+1}] of 1-based position
    l = positions[k] (outer context only) by `w_q`: the states just outside
    it, rows `l - 1` and `n - l` of the two directions. Positions that share
    a neighbour read the same state row, so the backward pass scatters with
    `np.add.at`, into column b's gradient only.
    """
    pos = np.asarray(positions, dtype=np.intp)
    bad = pos[(pos < 1) | (pos > n)]
    if bad.size:
        raise IndexError(f"position {bad[0]} outside [1, {n}]")
    f_rows, b_rows = (0, pos - 1, b), (1, n - pos, b)
    h = w_q.data.shape[0]
    outer = np.concatenate((states.data[f_rows], states.data[b_rows]), axis=1)
    out = Tensor(outer @ w_q.data.T, parents=(states, w_q))

    def bw(g):
        w_q.grad += g.T @ outer
        d_outer = g @ w_q.data
        np.add.at(states.grad, f_rows, d_outer[:, :h])
        np.add.at(states.grad, b_rows, d_outer[:, h:])
    out.backward_fn = bw
    return out


def init_wq(h: int, rng: np.random.Generator,
            noise_std: float = 0.1) -> np.ndarray:
    """[I_h ; I_h] stacked horizontally, plus Gaussian noise."""
    if h < 1:
        raise ValueError("h must be positive")
    base = np.concatenate([np.eye(h), np.eye(h)], axis=1)
    return base + rng.normal(0.0, noise_std, size=(h, 2 * h))
