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
    def z():
        return ag.param(np.zeros((h, h)))
    return GRUParams(W_z=z(), U_z=z(), b_z=ag.param(np.zeros(h)),
                     W_r=z(), U_r=z(), b_r=ag.param(np.zeros(h)),
                     W_h=z(), U_h=z(), b_h=ag.param(np.zeros(h)))


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
        gru_f=zero_gru(h), gru_b=zero_gru(h),
        **{k: ag.param(v, name=k) for k, v in fields.items()})


@pytest.fixture
def rng():
    return np.random.default_rng(0)
