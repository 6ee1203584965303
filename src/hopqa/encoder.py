"""Embedding, bi-directional GRU encoding, and span-contextual query vectors.

A span's query vector is built from the forward state just left of the span
and the backward state just right of it, projected by a matrix initialized to
near-[I; I] so it starts out as (roughly) the sum of the two boundary states.
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


@dataclass(frozen=True)
class Span:
    """1-based inclusive span [l_s, l_e]."""
    l_s: int
    l_e: int

    def __post_init__(self):
        if not 1 <= self.l_s <= self.l_e:
            raise ValueError(f"invalid span ({self.l_s}, {self.l_e})")


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


@dataclass
class EncoderStates:
    """The two `(n+1, h)` state matrices of `gru_sequence`, each in its own
    reading order. `fwd` row l is the forward state after position l (row 0
    the zero initial state); `bwd` row n+1-l is the backward state after
    reading position l right-to-left (row 0 the zero initial state)."""
    fwd: Tensor
    bwd: Tensor

    @property
    def n(self) -> int:
        return self.fwd.data.shape[0] - 1


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


def gru_sequence(embedded: Tensor, p: GRUParams,
                 reverse: bool = False) -> Tensor:
    """One direction over the whole sequence as a single tape node.

    Returns the `(n+1, h)` state matrix in reading order: row 0 is the zero
    initial state, row k the state after k steps (right-to-left when
    `reverse`). Same recurrence as `gru_step`; the backward pass runs BPTT
    over saved gate values and leaves every weight gradient to one gemm.
    """
    x = embedded.data[::-1] if reverse else embedded.data
    n = x.shape[0]
    h = p.U_z.data.shape[0]
    xzr = np.concatenate((x @ p.W_z.data + p.b_z.data,
                          x @ p.W_r.data + p.b_r.data), axis=1)
    xc = x @ p.W_h.data + p.b_h.data
    u_zr = np.concatenate((p.U_z.data, p.U_r.data))
    u_h = p.U_h.data
    H = np.zeros((n + 1, h))
    ZR = np.empty((n, 2 * h))
    C = np.empty((n, h))
    for hp, h_next, xzr_k, xc_k, zr_k, c in zip(H, H[1:], xzr, xc, ZR, C):
        zr_k[:] = zr = ag.stable_sigmoid(xzr_k + u_zr @ hp)
        z = zr[:h]
        np.tanh(xc_k + u_h @ (zr[h:] * hp), out=c)
        np.add(z * hp, (1.0 - z) * c, out=h_next)
    out = Tensor(H, parents=(embedded, p.W_z, p.U_z, p.b_z, p.W_r, p.U_r,
                             p.b_r, p.W_h, p.U_h, p.b_h))

    def bw(G):
        # gate derivatives that do not depend on the carried gradient
        Hp, Z, R = H[:-1], ZR[:, :h], ZR[:, h:]
        f_z = (Hp - C) * Z * (1.0 - Z)
        f_c = (1.0 - Z) * (1.0 - C * C)
        f_r = Hp * R * (1.0 - R)
        u_zr_t = np.concatenate((p.U_z.data, p.U_r.data)).T
        u_h_t = p.U_h.data.T
        DA = np.empty((n, 3 * h))  # (da_z, da_r, da_c) per step
        dh = np.zeros(h)
        for g_k, fz, fc, fr, z, r, da_z, da_r, da_c, da_zr in zip(
                G[:0:-1], f_z[::-1], f_c[::-1], f_r[::-1], Z[::-1], R[::-1],
                DA[::-1, :h], DA[::-1, h:2 * h], DA[::-1, 2 * h:],
                DA[::-1, :2 * h]):
            g = g_k + dh
            np.multiply(g, fz, out=da_z)
            drh = u_h_t @ np.multiply(g, fc, out=da_c)
            np.multiply(drh, fr, out=da_r)
            dh = g * z + drh * r + u_zr_t @ da_zr
        dU_zr = DA[:, :2 * h].T @ Hp
        p.U_z.grad += dU_zr[:h]
        p.U_r.grad += dU_zr[h:]
        p.U_h.grad += DA[:, 2 * h:].T @ (R * Hp)
        if reverse:
            DA = DA[::-1]
        db = DA.sum(axis=0)
        dW = embedded.data.T @ DA
        for i, (w, b) in enumerate(((p.W_z, p.b_z), (p.W_r, p.b_r),
                                    (p.W_h, p.b_h))):
            blk = slice(i * h, (i + 1) * h)
            b.grad += db[blk]
            w.grad += dW[:, blk]
            embedded.grad += DA[:, blk] @ w.data.T
    out.backward_fn = bw
    return out


def bigru_encode(embedded: Tensor, fwd_params: GRUParams,
                 bwd_params: GRUParams) -> EncoderStates:
    """Run both directions over an embedded sequence (one row per position)."""
    if embedded.data.shape[0] < 1:
        raise ValueError("cannot encode an empty sequence")
    return EncoderStates(fwd=gru_sequence(embedded, fwd_params),
                         bwd=gru_sequence(embedded, bwd_params, reverse=True))


def embed_sequence(doc: Document, e_i: Tensor, dropout_rate: float,
                   mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Look up input embeddings; in train mode apply inverted dropout."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError(f"dropout rate {dropout_rate} not in [0, 1)")
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    emb = ag.gather_rows(e_i, doc.symbols)
    if mode == "train" and dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("train-mode dropout requires an rng")
        keep = (rng.random(emb.data.shape) >= dropout_rate)
        mask = keep.astype(emb.data.dtype) / (1.0 - dropout_rate)
        emb = ag.mul(emb, ag.constant(mask))
    return emb


def encode_span_queries(states: EncoderStates, spans, w_q: Tensor) -> Tensor:
    """Query vectors of many spans as one `(M, h)` tape node.

    Row k projects [h^f_{l_s-1}; h^b_{l_e+1}] of span k (outer context only)
    by `w_q`. Spans that share a boundary read the same state row, so the
    backward pass scatters with `np.add.at`.
    """
    n = states.n
    for s in spans:
        if s.l_e > n:
            raise IndexError(f"span ({s.l_s}, {s.l_e}) exceeds sequence "
                             f"length {n}")
    h_f, h_b = states.fwd, states.bwd
    h = h_f.data.shape[1]
    fi = np.fromiter((s.l_s - 1 for s in spans), dtype=np.intp)
    bi = np.fromiter((n - s.l_e for s in spans), dtype=np.intp)
    outer = np.concatenate((h_f.data[fi], h_b.data[bi]), axis=1)
    out = Tensor(outer @ w_q.data.T, parents=(h_f, h_b, w_q))

    def bw(g):
        w_q.grad += g.T @ outer
        d_outer = g @ w_q.data
        np.add.at(h_f.grad, fi, d_outer[:, :h])
        np.add.at(h_b.grad, bi, d_outer[:, h:])
    out.backward_fn = bw
    return out


def init_wq(h: int, rng: np.random.Generator,
            noise_std: float = 0.1) -> np.ndarray:
    """[I_h ; I_h] stacked horizontally, plus Gaussian noise."""
    if h < 1:
        raise ValueError("h must be positive")
    base = np.concatenate([np.eye(h), np.eye(h)], axis=1)
    return base + rng.normal(0.0, noise_std, size=(h, 2 * h))
