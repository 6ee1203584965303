"""The full-state tape-free biGRU: the reference that evaluation's span-row
recurrence (`encoder.bigru_span_rows`) is held to. It keeps every step's
states, `(2, n+1, B, h)` in `bigru_encode`'s layout, and computes each one
with the same operations, so `build_support_batch` over these states as a
constant gives evaluation's support batch bit for bit.
"""

from __future__ import annotations

import numpy as np

from hopqa.encoder import (GRUParams, _recurrence, _recurrent_maps,
                           _reversed, padded)


def bigru_states(seqs, e_i: np.ndarray, gru: GRUParams) -> np.ndarray:
    """The states of `bigru_encode` for B token-id sequences, without a
    tape: the same `(2, n+1, B, h)` layout and recurrence. Pad steps read
    token 0's embedding, where `bigru_encode` reads zero vectors, so only a
    sequence's own states agree."""
    fwd, mask = padded(seqs)
    (B, n), lens = fwd.shape, mask.sum(axis=1)
    ids = np.stack((fwd.T, _reversed(fwd.T, lens)), axis=1)  # (n, 2, B)
    # each distinct token's input projection, gathered per step, as the
    # span-row recurrence gathers it
    tokens, ids = np.unique(ids, return_inverse=True)
    ids = ids.reshape(n, 2, B)
    ids[:, 1] += len(tokens)
    xw = (e_i[tokens] @ gru.W.data + gru.b.data[:, None]).reshape(
        2 * len(tokens), -1)
    x = np.empty((2, B, xw.shape[1]))
    return _recurrence(lambda k, ds: xw.take(ids[k, ds], axis=0, out=x[ds],
                                             mode="clip"),
                       n, B, *_recurrent_maps(gru))[0]
