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
from itertools import chain

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
    gates `(2, n, B, 2h)` and candidates `(2, n, B, h)` that BPTT needs, as
    views of time-major arrays: each step is one contiguous block."""
    h = u_h.shape[-1]
    H = np.zeros((n + 1, 2, B, h))
    ZR = np.empty((n if keep else 1, 2, B, 2 * h))
    C = np.empty((n if keep else 1, 2, B, h))
    tmp = np.empty((2, B, h))
    for k in range(n):
        hp, x = H[k], x_at(k)
        zr, c = (ZR[k], C[k]) if keep else (ZR[0], C[0])
        ag.stable_sigmoid(np.add(x[..., :2 * h], np.matmul(hp, u_zr, out=zr),
                                 out=zr), out=zr)
        z = zr[..., :h]
        np.matmul(np.multiply(zr[..., h:], hp, out=tmp), u_h, out=c)
        np.tanh(np.add(x[..., 2 * h:], c, out=c), out=c)
        np.multiply(np.subtract(1.0, z, out=tmp), c, out=tmp)
        np.add(np.multiply(z, hp, out=H[k + 1]), tmp, out=H[k + 1])
    H, ZR, C = (a.transpose(1, 0, 2, 3) for a in (H, ZR, C))
    return (H, ZR, C) if keep else (H, None, None)


def padded(rows) -> tuple[np.ndarray, np.ndarray]:
    """Index lists as a zero-padded `(B, max length)` array and its mask."""
    lens = np.fromiter(map(len, rows), np.intp, len(rows))
    mask = np.arange(lens.max()) < lens[:, None]
    idx = np.zeros(mask.shape, dtype=np.intp)
    idx[mask] = np.fromiter(chain.from_iterable(rows), np.intp, lens.sum())
    return idx, mask


def bigru_states(seqs, e_i: np.ndarray, fwd_params: GRUParams,
                 bwd_params: GRUParams) -> np.ndarray:
    """The states of `bigru_encode` for B token-id sequences, without a
    tape: the same `(2, n+1, B, h)` layout and recurrence."""
    fwd, mask = padded(seqs)
    (B, n), lens = fwd.shape, mask.sum(axis=1)
    # sequence b reversed: its token at position lens[b] - 1 - k
    rev = fwd[np.arange(B)[:, None], np.maximum(lens[:, None] - 1
                                                - np.arange(n), 0)]
    ids = np.stack((fwd.T, np.where(mask, rev, 0).T), axis=1)
    w, bias, u_zr, u_h = _stacked_weights((fwd_params, bwd_params))
    # each distinct token's input projection, (2, tokens, 3h), gathered per
    # step: projecting every (step, sequence) up front holds a (2, n, B, 3h)
    # array, which raised peak RSS at h=256 and ran slower there
    tokens, ids = np.unique(ids, return_inverse=True)
    ids = ids.reshape(n, 2, B)
    ids[:, 1] += len(tokens)  # the backward direction's half of the table
    xw = (e_i[tokens] @ w + bias).reshape(2 * len(tokens), -1)
    x = np.empty((2, B, xw.shape[1]))
    return _recurrence(lambda k: xw.take(ids[k], axis=0, out=x, mode="clip"),
                       n, B, u_zr, u_h)[0]


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
        # G is time-major too (`zeros_like` keeps H's layout)
        Hp, Z, R = H[:, :-1], ZR[..., :h], ZR[..., h:]
        # gate derivatives that do not depend on the carried gradient
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
        dX = np.empty_like(X)
        for d, p in enumerate(dirs):
            da, x = DA[d].reshape(n * B, 3 * h), X[d].reshape(n * B, -1)
            hp = Hp[d].reshape(n * B, h)  # a copy: rows are time-major
            p.U_z.grad += da[:, :h].T @ hp
            p.U_r.grad += da[:, h:2 * h].T @ hp
            p.U_h.grad += da[:, 2 * h:].T @ (R[d] * Hp[d]).reshape(n * B, h)
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


def column_span_queries(states: Tensor, b, n, positions,
                        w_q: Tensor) -> Tensor:
    """Query vectors of many token positions of sequence b, n tokens long,
    as one `(M, h)` tape node reading column b of a `bigru_encode` node; or,
    with columns `b` and lengths `n` broadcast against `(B, P)` positions,
    as one `(B, P, h)` node for a whole batch.

    Row k projects [h^f_{l-1}; h^b_{l+1}] of 1-based position
    l = positions[k] (outer context only) by `w_q`: the states just outside
    it, rows `l - 1` and `n - l` of the two directions. Positions that share
    a neighbour read the same state row, so the backward pass scatters with
    `np.add.at`, into the columns read only.
    """
    pos = np.asarray(positions, dtype=np.intp)
    n = np.broadcast_to(n, pos.shape)
    bad = (pos < 1) | (pos > n)
    if bad.any():
        raise IndexError(f"position {pos[bad][0]} outside [1, {n[bad][0]}]")
    f_rows, b_rows = (0, pos - 1, b), (1, n - pos, b)
    h = w_q.data.shape[0]
    outer = np.concatenate((states.data[f_rows], states.data[b_rows]),
                           axis=-1).reshape(-1, 2 * h)
    out = Tensor((outer @ w_q.data.T).reshape(*pos.shape, h),
                 parents=(states, w_q))

    def bw(g):
        g = g.reshape(-1, h)
        w_q.grad += g.T @ outer
        d_outer = (g @ w_q.data).reshape(*pos.shape, 2 * h)
        np.add.at(states.grad, f_rows, d_outer[..., :h])
        np.add.at(states.grad, b_rows, d_outer[..., h:])
    out.backward_fn = bw
    return out


def init_wq(h: int, rng: np.random.Generator,
            noise_std: float = 0.1) -> np.ndarray:
    """[I_h ; I_h] stacked horizontally, plus Gaussian noise."""
    if h < 1:
        raise ValueError("h must be positive")
    base = np.concatenate([np.eye(h), np.eye(h)], axis=1)
    return base + rng.normal(0.0, noise_std, size=(h, 2 * h))
