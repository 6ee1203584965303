"""All trainable tensors of the model, with their initialization rules.

Embeddings: Gaussian(0, 0.1). Matrices: Glorot uniform, the GRU's drawn per
(h, h) gate block. Biases: zero, except the GRU update-gate bias which starts
at 1. The span-query projection starts at [I; I] plus noise. The
output-embedding table can be frozen to the identity (attention-sum scoring
mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoder import GRUParams, init_wq
from .exceptions import ConfigError


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = shape[-1], shape[0] if len(shape) > 1 else 1
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class ModelParams:
    h: int
    vocab_size: int
    n_answers: int
    identity_eo: bool
    E_i: Tensor
    E_o: Tensor
    gru: GRUParams
    W_q: Tensor
    U_q_c: Tensor
    U_q_g: Tensor
    b_q_g: Tensor
    U_a_q: Tensor
    g_a_q: Tensor
    u_a_g: Tensor
    b_a: Tensor
    # `evaluate`'s support batches and hop states, kept for read-only arrays
    _support: tuple | None = field(init=False, default=None, repr=False,
                                   compare=False)

    @property
    def answer_dim(self) -> int:
        """Dimension of the running answer representation."""
        return self.n_answers if self.identity_eo else self.h

    def named(self):
        """All parameter tensors, frozen ones included."""
        yield "E_i", self.E_i
        yield "E_o", self.E_o
        yield from self.gru.named()
        for name in ("W_q", "U_q_c", "U_q_g", "b_q_g", "U_a_q", "g_a_q",
                     "u_a_g", "b_a"):
            yield name, getattr(self, name)

    def trainable(self):
        for name, t in self.named():
            if self.identity_eo and name == "E_o":
                continue
            yield name, t


def param_shapes(h: int, vocab_size: int, n_answers: int,
                 identity_eo: bool = False) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, in `ModelParams.named()` order."""
    return {
        "E_i": (vocab_size, h),
        "E_o": (n_answers, n_answers if identity_eo else h),
        "gru.W": (2, h, 3 * h), "gru.U_zr": (2, 2 * h, h),
        "gru.U_h": (2, h, h), "gru.b": (2, 3 * h),
        "W_q": (h, 2 * h), "U_q_c": (h, 3 * h), "U_q_g": (h, 2 * h),
        "b_q_g": (h,), "U_a_q": (h, h), "g_a_q": (), "u_a_g": (2 * h + 1,),
        "b_a": (),
    }


def make_params(arrays, h: int, vocab_size: int, n_answers: int,
                identity_eo: bool = False) -> ModelParams:
    """Wrap one array per `param_shapes` name as a parameter set, without
    copying. A missing name or a wrong shape raises `ConfigError`."""
    shapes = param_shapes(h, vocab_size, n_answers, identity_eo)
    t = {}
    for name, shape in shapes.items():
        if name not in arrays:
            raise ConfigError(f"parameter {name!r} missing")
        a = np.asarray(arrays[name])
        if a.shape != shape:
            raise ConfigError(f"parameter {name!r} has shape {a.shape}, "
                              f"expected {shape}")
        t[name] = ag.param(a, name=name)

    return ModelParams(
        h=h, vocab_size=vocab_size, n_answers=n_answers,
        identity_eo=identity_eo,
        gru=GRUParams(**{n[4:]: a for n, a in t.items()
                         if n.startswith("gru.")}),
        **{n: a for n, a in t.items() if "." not in n})


def _init_gru(h: int, rng: np.random.Generator) -> dict:
    """Both directions' `GRUParams` arrays. Each direction, forward first,
    draws six Glorot `(h, h)` blocks in the order W_z, U_z, W_r, U_r, W_h,
    U_h into its slots; the update-gate bias b_z starts at 1, the other
    biases at 0."""
    W = np.empty((2, h, 3 * h))
    U_zr, U_h = np.empty((2, 2 * h, h)), np.empty((2, h, h))
    for d in range(2):
        for i, u in enumerate((U_zr[d, :h], U_zr[d, h:], U_h[d])):
            W[d, :, i * h:(i + 1) * h] = glorot(rng, (h, h))
            u[...] = glorot(rng, (h, h))
    b = np.zeros((2, 3 * h))
    b[:, :h] = 1.0
    return {"gru.W": W, "gru.U_zr": U_zr, "gru.U_h": U_h, "gru.b": b}


def init_params(h: int, vocab_size: int, n_answers: int,
                rng: np.random.Generator, identity_eo: bool = False,
                embed_init_stddev: float = 0.1) -> ModelParams:
    """Draw a fresh parameter set. The draw order (E_i, E_o, the GRU's
    forward then backward gate blocks, W_q, U_q_c, U_q_g, U_a_q, u_a_g)
    fixes every seeded run's numbers."""
    a = {
        "E_i": rng.normal(0.0, embed_init_stddev, size=(vocab_size, h)),
        "E_o": np.eye(n_answers) if identity_eo else
        rng.normal(0.0, embed_init_stddev, size=(n_answers, h)),
        **_init_gru(h, rng),
        "W_q": init_wq(h, rng), "U_q_c": glorot(rng, (h, 3 * h)),
        "U_q_g": glorot(rng, (h, 2 * h)), "b_q_g": np.zeros(h),
        "U_a_q": glorot(rng, (h, h)), "g_a_q": np.asarray(0.0),
        "u_a_g": glorot(rng, (2 * h + 1,)), "b_a": np.asarray(0.0),
    }
    return make_params(a, h, vocab_size, n_answers, identity_eo)
