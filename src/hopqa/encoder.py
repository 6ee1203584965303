"""Embedding, bi-directional GRU encoding, and contextual query vectors.

`bigru_encode` runs both directions over B embedded sequences as one tape
node, one column per sequence; a lone sequence is a batch of one.
`bigru_span_rows` runs the same recurrence on token ids without a tape.
Once a step is large enough, the two directions' loops and gemms run at
the same time on two threads, one direction each, in the same arithmetic
(`direction_threads`).

A token's query vector is built from the forward state just left of it and
the backward state just right of it, projected by a matrix initialized to
near-[I; I] so it starts out as (roughly) the sum of those two states.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import BLAS_THREADS
from . import autograd as ag
from .autograd import Tensor
from .exceptions import ConfigError

# The two directions of a recurrence share nothing until the span queries
# join them, so once a step's recurrent gemms are large enough each
# direction runs its loop on a thread of its own. A step costs B h^2
# multiply-adds per direction and gemm; from 2^19 on the overlap outweighs
# handing one loop to a worker (the crossover table in CHANGES.md).
THREAD_WORK = 1 << 19
_pool = None  # the worker's `ThreadPoolExecutor`, made on first use
_pool_lock = threading.Lock()


def direction_threads() -> dict:
    """The encoder's thread schedule, as `hopqa train` records it: the
    threads its loops run on once a step's work per direction, B h^2,
    reaches `min_step_work` (the calling thread and one pool worker, one
    direction each), and the CPUs this process may run on. Two threads need
    two CPUs and BLAS at one thread; else the loops keep to one."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    one_blas = all(v["value"] == "1" for v in BLAS_THREADS.values())
    return {"threads": 2 if cpus >= 2 and one_blas else 1,
            "cpus_allowed": cpus, "min_step_work": THREAD_WORK}


def _schedule(B: int, h: int) -> list[tuple[slice]]:
    """How a loop over both directions of B sequences at hidden size h
    runs: as the `(ds,)` arguments of one call over both directions, or of
    one call per direction on two threads."""
    if B * h * h >= THREAD_WORK and direction_threads()["threads"] == 2:
        return [(slice(0, 1),), (slice(1, 2),)]
    return [(slice(0, 2),)]


def _run(loop, parts) -> None:
    """`loop(*args)` for each `args` of `parts`, returning once every call
    has ended: the first in the calling thread, a second at the same time
    on a one-thread pool made on first use. The calls only read and write
    arrays they are handed, so the worker allocates none."""
    global _pool
    if len(parts) == 1:
        return loop(*parts[0])
    with _pool_lock:
        if _pool is None:
            # imported here: `concurrent.futures` loads `logging`, 0.8 MB of
            # RSS that a run whose loops never split should not carry
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(1, thread_name_prefix="hopqa-bigru")
    future = _pool.submit(loop, *parts[1])
    try:
        loop(*parts[0])
    finally:
        future.result()


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
    """Both directions of the encoder, direction d = 0 (forward) or 1
    (backward) on the leading axis, each stored as the recurrence multiplies
    it: `W` `(2, h_in, 3h)` is `[W_z | W_r | W_h]`, applied to input rows on
    the right; `U_zr` `(2, 2h, h)` is `[U_z; U_r]` and `U_h` `(2, h, h)`,
    applied to column states on the left; `b` `(2, 3h)` is
    `[b_z | b_r | b_h]`, `b_z` the update-gate bias."""
    W: Tensor
    U_zr: Tensor
    U_h: Tensor
    b: Tensor

    def named(self, prefix: str = "gru"):
        for f in ("W", "U_zr", "U_h", "b"):
            yield f"{prefix}.{f}", getattr(self, f)


# test reference for bigru_encode; benches/tracer.py patches encoder.gru_step
def gru_step(xz: Tensor, xr: Tensor, xh: Tensor, l: int, h_prev: Tensor,
             p: GRUParams, d: int) -> Tensor:
    """One recurrence step of direction `d` as a single fused tape node.

    `xz`, `xr`, `xh` are the whole-sequence input projections; row `l` feeds
    this step. Update gate z keeps the old state, reset gate r masks the old
    state inside the candidate. It reads and writes direction d's blocks of
    `p`'s recurrent maps and biases.
    """
    hp, h = h_prev.data, h_prev.data.shape[0]
    U_z, U_r, U_h = p.U_zr.data[d, :h], p.U_zr.data[d, h:], p.U_h.data[d]
    b_z, b_r, b_h = (p.b.data[d, i * h:(i + 1) * h] for i in range(3))
    z = ag.stable_sigmoid(xz.data[l] + U_z @ hp + b_z)
    r = ag.stable_sigmoid(xr.data[l] + U_r @ hp + b_r)
    rh = r * hp
    c = np.tanh(xh.data[l] + U_h @ rh + b_h)
    out = Tensor(z * hp + (1.0 - z) * c,
                 parents=(xz, xr, xh, h_prev, p.U_zr, p.U_h, p.b))

    def bw(g):
        dz = g * (hp - c)
        da_c = (g * (1.0 - z)) * (1.0 - c * c)
        da_z = dz * z * (1.0 - z)
        drh = U_h.T @ da_c
        da_r = (drh * hp) * r * (1.0 - r)
        h_prev.grad += g * z + drh * r + U_z.T @ da_z + U_r.T @ da_r
        xz.grad[l] += da_z
        xr.grad[l] += da_r
        xh.grad[l] += da_c
        p.U_zr.grad[d, :h] += np.outer(da_z, hp)
        p.U_zr.grad[d, h:] += np.outer(da_r, hp)
        p.U_h.grad[d] += np.outer(da_c, rh)
        p.b.grad[d] += np.concatenate((da_z, da_r, da_c))
    out.backward_fn = bw
    return out


def _recurrent_maps(gru: GRUParams):
    """Both directions' recurrent maps `(2, h, 2h)` as `[U_z^T | U_r^T]`
    and `(2, h, h)` as `U_h^T`, applied to row states on the right: views
    of the parameters, which BPTT multiplies by untransposed."""
    return gru.U_zr.data.transpose(0, 2, 1), gru.U_h.data.transpose(0, 2, 1)


def _recurrence(x_at, n: int, B: int, u_zr: np.ndarray, u_h: np.ndarray,
                reads=None):
    """Both directions of B left-aligned sequences, n steps each.

    `x_at(k, ds)` is step k's input projection `(len(ds), B, 3h)` of the
    directions in slice ds, bias included. Returns the `(2, n+1, B, h)`
    states with the z/r gates `(2, n, B, 2h)` and candidates `(2, n, B, h)`
    that BPTT needs, as views of time-major arrays: each step is one
    contiguous block. With `reads`, flat index arrays `(at, src, dst)`
    ordered by `at`, it keeps two state slots instead and returns only the
    `(len(at), h)` rows they name: row `dst[i]` is row `src[i]` of the
    `(2B, h)` states after `at[i] <= n` steps."""
    h = u_h.shape[-1]
    keep = reads is None
    H = np.zeros((n + 1 if keep else 2, 2, B, h))
    ZR = np.empty((n if keep else 1, 2, B, 2 * h))
    C = np.empty((n if keep else 1, 2, B, h))
    tmp, sig = np.empty((2, B, h)), np.empty((2, B, 2 * h))
    parts = _schedule(B, h)
    if not keep:  # rows read after no step keep the zero state
        at, src, dst = reads
        rows = np.zeros((len(at), h))
        parts, schedule = [], parts
        for ds, in schedule:  # the reads of ds's states
            mine = (src >= ds.start * B) & (src < ds.stop * B)
            ends = np.searchsorted(at[mine], np.arange(1, n + 2))
            parts.append((ds, ends, src[mine] - ds.start * B, dst[mine],
                          np.empty((np.diff(ends).max(initial=0), h))))

    def loop(ds, ends=None, src=None, dst=None, buf=None):
        t, s_zr, u_zr_d, u_h_d = tmp[ds], sig[ds], u_zr[ds], u_h[ds]
        for k in range(n):
            hp, out = H[k % len(H), ds], H[(k + 1) % len(H), ds]
            x, zr, c = x_at(k, ds), ZR[k % len(ZR), ds], C[k % len(C), ds]
            ag.stable_sigmoid(np.add(x[..., :2 * h], np.matmul(hp, u_zr_d,
                                                               out=zr),
                                     out=zr), out=zr, scratch=s_zr)
            z = zr[..., :h]
            np.matmul(np.multiply(zr[..., h:], hp, out=t), u_h_d, out=c)
            np.tanh(np.add(x[..., 2 * h:], c, out=c), out=c)
            np.multiply(np.subtract(1.0, z, out=t), c, out=t)
            np.add(np.multiply(z, hp, out=out), t, out=out)
            if not keep:  # this step's rows, one contiguous run of the reads
                s = slice(ends[k], ends[k + 1])
                rows[dst[s]] = out.reshape(-1, h).take(
                    src[s], axis=0, out=buf[:s.stop - s.start], mode="clip")
    _run(loop, parts)
    if not keep:
        return rows
    return tuple(a.transpose(1, 0, 2, 3) for a in (H, ZR, C))


def padded(rows) -> tuple[np.ndarray, np.ndarray]:
    """Index lists as a zero-padded `(B, max length)` array and its mask."""
    lens = np.fromiter(map(len, rows), np.intp, len(rows))
    mask = np.arange(lens.max()) < lens[:, None]
    idx = np.zeros(mask.shape, dtype=np.intp)
    idx[mask] = np.fromiter(chain.from_iterable(rows), np.intp, lens.sum())
    return idx, mask


def _reversed(x: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Time-major rows `(n, B, ...)` of B sequences, each sequence's own
    `lens[b]` rows reversed and left-aligned, pad rows zero: the backward
    direction's input. Its own inverse on those rows."""
    n, B = x.shape[:2]
    rev = np.maximum(lens - 1 - np.arange(n)[:, None], 0)
    out = x[rev, np.arange(B)]
    out[np.arange(n)[:, None] >= lens] = 0.0
    return out


def bigru_span_rows(seqs, positions, e_i: np.ndarray,
                    gru: GRUParams) -> np.ndarray:
    """The rows of `bigru_encode`'s states that `column_span_queries` reads,
    for B token-id sequences, without a tape and without holding every
    step's states: the `(B, P, 2h)` array whose row [b, p] is
    [h^f_{l-1}; h^b_{n_b-l}] of the 1-based position l = positions[b, p] of
    sequence b, n_b tokens long."""
    fwd, mask = padded(seqs)
    (B, n), lens = fwd.shape, mask.sum(axis=1)
    pos = np.asarray(positions, dtype=np.intp)
    bad = (pos < 1) | (pos > lens[:, None])
    if bad.any():
        raise IndexError(f"position {pos[bad][0]} outside its sequence")
    ids = np.stack((fwd.T, _reversed(fwd.T, lens)), axis=1)
    # each distinct token's input projection, (2, tokens, 3h), gathered per
    # step: projecting every (step, sequence) up front holds a (2, n, B, 3h)
    # array, which raised peak RSS at h=256 and ran slower there
    tokens, ids = np.unique(ids, return_inverse=True)
    ids = ids.reshape(n, 2, B)
    ids[:, 1] += len(tokens)  # the backward direction's half of the table
    xw = (e_i[tokens] @ gru.W.data + gru.b.data[:, None]).reshape(
        2 * len(tokens), -1)
    x = np.empty((2, B, xw.shape[1]))
    # each row's two reads, in step order: row d B + b of the `(2B, h)`
    # states after l - 1 forward and n_b - l backward steps
    at = np.stack((pos - 1, lens[:, None] - pos), axis=-1).ravel()
    src = np.broadcast_to(np.arange(2) * B + np.arange(B)[:, None, None],
                          (*pos.shape, 2)).ravel()
    order = np.argsort(at, kind="stable")
    rows = _recurrence(lambda k, ds: xw.take(ids[k, ds], axis=0, out=x[ds],
                                             mode="clip"),
                       int(at.max()), B, *_recurrent_maps(gru),
                       reads=(at[order], src[order], order))
    return rows.reshape(*pos.shape, -1)


def bigru_encode(embedded: Tensor, lens, gru: GRUParams) -> Tensor:
    """Both directions over B embedded sequences as one tape node.

    `embedded` is the `(B, n, h_in)` `embed_sequence` node of B sequences
    padded to n tokens, sequence b holding `lens[b]` of them. The node's
    data is a `(2, n+1, B, h)` array: `[0, k, b]` is the forward state of
    sequence b after its first k tokens and `[1, k, b]` the backward state
    after its last k tokens; row 0 is the zero initial state. Each direction
    reads its sequence left-aligned (the backward one reversed per
    sequence), so padding only follows the states a sequence's own
    positions read; `column_span_queries` reads one sequence's column.

    The backward pass runs BPTT for both directions and the whole batch at
    once, over the saved gates and candidates, and leaves the weight and
    input gradients to gemms over every (step, sequence) row; pad steps
    receive no gradient, so they add exact zeros. It builds the
    gate-derivative factors in the gate-gradient buffer and spends the
    saved candidates as scratch, then as the rows of the recurrent maps'
    gradients, so it runs once per node, and a second pass raises. The
    recurrent gemms read the parameters in place: neither pass copies a
    weight. On large steps (`_schedule`) the input projection, the
    recurrence, BPTT's sweep and the recurrent maps' gradients run one
    direction per thread.
    """
    # time-major `(n, B, h_in)`, no copy of an `embed_sequence` node
    x = np.ascontiguousarray(embedded.data.transpose(1, 0, 2))
    (n, B, h_in), lens = x.shape, np.asarray(lens, dtype=np.intp)
    if lens.shape != (B,) or lens.max() > n:
        raise ValueError(f"lengths {lens.tolist()} for {B} sequences padded "
                         f"to {n} tokens")
    if lens.min() < 1:
        raise ValueError("cannot encode an empty sequence")
    h = gru.U_h.data.shape[-1]
    parts = _schedule(B, h)
    xs = (x, _reversed(x, lens))  # each direction's input rows
    XW = np.empty((2, n, B, 3 * h))

    def project(ds):
        for d in range(ds.start, ds.stop):
            np.matmul(xs[d].reshape(n * B, h_in), gru.W.data[d],
                      out=XW[d].reshape(n * B, -1))
    _run(project, parts)
    XW += gru.b.data[:, None, None]
    del xs  # before the recurrence allocates its states
    H, ZR, C = _recurrence(lambda k, ds: XW[ds, k], n, B,
                           *_recurrent_maps(gru))
    out = Tensor(H, parents=(embedded, gru.W, gru.U_zr, gru.U_h, gru.b))

    def bw(G):
        nonlocal ZR, C
        if C is None:
            raise RuntimeError("a bigru_encode node runs backward once")
        # G is time-major too (`zeros_like` keeps H's layout)
        Hp, Z, R = H[:, :-1], ZR[..., :h], ZR[..., h:]
        DA = np.empty((2, n, B, 3 * h))  # (da_z, da_r, da_c) per step
        da_z, da_r, da_c = DA[..., :h], DA[..., h:2 * h], DA[..., 2 * h:]
        # the gate-derivative factors that do not depend on the carried
        # gradient, in the slots the loop multiplies it into:
        # f_z = (hp - c) z (1 - z), f_c = (1 - z)(1 - c^2), f_r = hp r (1 - r)
        np.subtract(1.0, Z, out=da_c)
        np.multiply(np.subtract(Hp, C, out=da_z), Z, out=da_z)
        da_z *= da_c
        da_c *= np.subtract(1.0, np.square(C, out=C), out=C)
        np.multiply(Hp, R, out=da_r)
        da_r *= np.subtract(1.0, R, out=C)
        del da_z, da_r, da_c
        U_zr, U_h = gru.U_zr.data, gru.U_h.data
        carried = np.zeros((4, 2, B, h))  # dh, g, drh and a product

        def sweep(ds):
            dh, g, drh, t = carried[:, ds]
            u_zr, u_h = U_zr[ds], U_h[ds]
            for k in reversed(range(n)):
                np.add(G[ds, k + 1], dh, out=g)
                da = DA[ds, k]
                da[..., :h] *= g
                np.matmul(np.multiply(da[..., 2 * h:], g, out=da[..., 2 * h:]),
                          u_h, out=drh)
                da[..., h:2 * h] *= drh
                # dh = g z + drh r + da_zr U_zr, added in that order
                np.add(np.multiply(g, Z[ds, k], out=dh),
                       np.multiply(drh, R[ds, k], out=t), out=dh)
                dh += np.matmul(da[..., :2 * h], u_zr, out=t)
        _run(sweep, parts)
        del carried
        # the weight gradients as gemms over every (step, sequence) row; the
        # spent candidates hold each direction's rows for the recurrent
        # maps' gradients, one direction per thread on large steps
        rows = C.transpose(1, 0, 2, 3).reshape(2, n, B, h)

        def recurrent_grads(ds, prod):
            for d in range(ds.start, ds.stop):
                da, r = DA[d].reshape(n * B, 3 * h), rows[d]
                np.copyto(r, Hp[d])  # hp, then r * hp
                gru.U_zr.grad[d] += np.matmul(da[:, :2 * h].T,
                                              r.reshape(n * B, h), out=prod)
                for k in range(n):  # by step: numpy buffers a 3-d product
                    np.multiply(R[d, k], Hp[d, k], out=r[k])
                gru.U_h.grad[d] += np.matmul(da[:, 2 * h:].T,
                                             r.reshape(n * B, h),
                                             out=prod[:h])
        _run(recurrent_grads, [(ds, np.empty((2 * h, h))) for ds, in parts])
        del Z, R, rows
        C = ZR = None
        # the input maps' gradients in this thread: on two, their product
        # buffers and BLAS's read train-h256 peak RSS 1.1 MiB higher
        d_x = embedded.grad.transpose(1, 0, 2)
        for d in range(2):
            da = DA[d].reshape(n * B, 3 * h)
            xd = (x if d == 0 else _reversed(x, lens)).reshape(n * B, h_in)
            gru.W.grad[d] += xd.T @ da
            del xd
            gru.b.grad[d] += da.sum(axis=0)
            dx = (da @ gru.W.data[d].T).reshape(n, B, h_in)
            d_x += dx if d == 0 else _reversed(dx, lens)
            del dx
    out.backward_fn = bw
    return out


def embed_sequence(ids, lens, e_i: Tensor, dropout_rate: float = 0.0,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Input embeddings of B token-id sequences, padded into the `(B, n)`
    array `ids` with `lens[b]` real tokens in row b, as one `(B, n, h)` node
    with zero pad rows, laid out time-major in memory as `bigru_encode`
    reads it. A positive rate applies inverted dropout to the real tokens
    with one `rng.random((sum(lens), h))` draw, which is the draws of one
    sequence after another; the node keeps only its boolean keep-mask."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError(f"dropout rate {dropout_rate} not in [0, 1)")
    if dropout_rate > 0.0 and rng is None:
        raise ConfigError("dropout requires an rng")
    ids = np.asarray(ids, dtype=np.intp)
    real = np.arange(ids.shape[1]) < np.asarray(lens)[:, None]
    tokens = ids[real]  # sequence by sequence
    n_rows = e_i.data.shape[0]
    bad = tokens.view(np.uintp) >= n_rows  # a negative id reads as a huge one
    if bad.any():
        raise IndexError(f"row id {tokens[bad][0]} out of range [0, {n_rows})")
    rows = e_i.data[tokens]
    keep = None
    if dropout_rate > 0.0:
        keep = rng.random(rows.shape) >= dropout_rate
        rows *= keep / (1.0 - dropout_rate)
    B, n = ids.shape
    data = np.zeros((n, B, rows.shape[1])).transpose(1, 0, 2)
    data[real] = rows
    out = Tensor(data, parents=(e_i,))

    def bw(g):
        d_rows = g[real]
        if keep is not None:
            d_rows *= keep / (1.0 - dropout_rate)
        ag.add_rows_at(e_i.grad, (tokens,), d_rows)
    out.backward_fn = bw
    return out


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
        ag.add_rows_at(states.grad, f_rows, d_outer[..., :h])
        ag.add_rows_at(states.grad, b_rows, d_outer[..., h:])
    out.backward_fn = bw
    return out


def init_wq(h: int, rng: np.random.Generator,
            noise_std: float = 0.1) -> np.ndarray:
    """[I_h ; I_h] stacked horizontally, plus Gaussian noise."""
    if h < 1:
        raise ValueError("h must be positive")
    base = np.concatenate([np.eye(h), np.eye(h)], axis=1)
    return base + rng.normal(0.0, noise_std, size=(h, 2 * h))
