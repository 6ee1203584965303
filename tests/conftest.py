# hopqa first: it sets the BLAS thread variables only if numpy is not yet
# imported, so the suite runs the thread policy the CLI runs
import hopqa  # noqa: F401

import numpy as np
import pytest

from hopqa import autograd as ag
from hopqa.encoder import GRUParams
from hopqa.model import ModelParams


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: acceptance learning runs; `pytest -m 'not slow'` "
        "skips them for a quick loop")


def zero_gru(h: int) -> GRUParams:
    return GRUParams(*(ag.param(np.zeros(s)) for s in (
        (2, h, 3 * h), (2, 2 * h, h), (2, h, h), (2, 3 * h))))


def gru_gates(gru: GRUParams, d: int) -> dict[str, np.ndarray]:
    """Direction d's per-gate arrays, as views of the stacked parameters
    under the names and in the order one `GRUParams` per direction had
    them: `W_z` is `x @ W_z`'s matrix, `U_z` is `U_z @ h`'s, and so on."""
    h = gru.U_h.data.shape[-1]
    W, U_zr, U_h, b = (t.data[d] for _, t in gru.named())
    return {"W_z": W[:, :h], "U_z": U_zr[:h], "b_z": b[:h],
            "W_r": W[:, h:2 * h], "U_r": U_zr[h:], "b_r": b[h:2 * h],
            "W_h": W[:, 2 * h:], "U_h": U_h, "b_h": b[2 * h:]}


def named_per_gate(params: ModelParams):
    """`params.named()` as (name, array) pairs with the GRU as per-gate
    views under the names and in the order the parameter set had before
    the GRU was stacked: gru_f.W_z ... gru_f.b_h, then gru_b's."""
    for name, t in params.named():
        if name == "gru.W":
            for d, prefix in enumerate(("gru_f", "gru_b")):
                for gate, a in gru_gates(params.gru, d).items():
                    yield f"{prefix}.{gate}", a
        elif not name.startswith("gru."):
            yield name, t.data


def hand_params(h: int, vocab_size: int = 4, n_answers: int = 2,
                identity_eo: bool = False, **overrides) -> ModelParams:
    """All-zero model of the given sizes; individual tensors replaced via
    keyword overrides (numpy arrays)."""
    if identity_eo:
        e_o = np.eye(n_answers)
    else:
        e_o = np.zeros((n_answers, h))
    fields = {
        "E_i": np.zeros((vocab_size, h)),
        "E_o": e_o,
        "W_q": np.concatenate([np.eye(h), np.eye(h)], axis=1),
        "U_q_c": np.zeros((h, 3 * h)),
        "U_q_g": np.zeros((h, 2 * h)),
        "b_q_g": np.zeros(h),
        "U_a_q": np.zeros((h, h)),
        "g_a_q": np.asarray(0.0),
        "u_a_g": np.zeros(2 * h + 1),
        "b_a": np.asarray(0.0),
    }
    for key, val in overrides.items():
        fields[key] = np.asarray(val, dtype=float)
    return ModelParams(
        h=h, vocab_size=vocab_size, n_answers=n_answers,
        identity_eo=identity_eo,
        gru=zero_gru(h),
        **{k: ag.param(v, name=k) for k, v in fields.items()})


@pytest.fixture
def rng():
    return np.random.default_rng(0)
