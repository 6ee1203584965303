"""Once a biGRU step is large enough, the encoder runs its two directions
at the same time, one per thread (`encoder._schedule`): the recurrence of
`bigru_encode` and of `bigru_span_rows`, and BPTT's sweep. These tests hold
that schedule to the single-thread one bit for bit, with each forced by
replacing the rule; check the rule on the benchmark's sizes and on hosts
that cannot use it; and run the threaded schedule under the memory bounds
and the `defaults` bit pin of the single-thread tests."""

import os

import numpy as np
import pytest

import hopqa.encoder as encoder
import test_batched_encoder
import test_eval_batch
from hopqa.encoder import bigru_encode, bigru_span_rows, embed_sequence
from hopqa.model import init_params

SINGLE = [(slice(0, 2),)]
THREADED = [(slice(0, 1),), (slice(1, 2),)]

mixed = test_eval_batch.mixed


def force(monkeypatch, parts):
    """Every loop runs on `parts`, whatever its size."""
    monkeypatch.setattr(encoder, "_schedule", lambda B, h: list(parts))


def encoder_outputs(examples, params):
    """A `bigru_encode` node's states and every gradient its backward
    writes, from a fixed state gradient, and `bigru_span_rows`' rows."""
    seqs = [ex.document.symbols for ex in examples]
    ids, mask = encoder.padded(seqs)
    lens = mask.sum(axis=1)
    for _, t in params.gru.named():
        t.grad = np.zeros_like(t.data)
    params.E_i.grad = np.zeros_like(params.E_i.data)
    embedded = embed_sequence(ids, lens, params.E_i)
    embedded.grad = np.zeros_like(embedded.data)
    states = bigru_encode(embedded, lens, params.gru)
    G = np.zeros_like(states.data)
    G[...] = np.random.default_rng(5).normal(size=G.shape)
    states.backward_fn(G)
    pos = np.arange(6) * (lens[:, None] - 1) // 5 + 1  # 1 .. n_b
    rows = bigru_span_rows(seqs, pos, params.E_i.data, params.gru)
    return {"states": states.data, "embedded": embedded.grad,
            **{name: t.grad for name, t in params.gru.named()},
            "span_rows": rows}


@pytest.mark.parametrize("h", [16, 256])
def test_schedules_bit_equal(mixed, monkeypatch, h):
    """Mixed lengths (16- and 60-token documents): the same states, input
    and weight gradients and span rows, bit for bit."""
    examples = mixed.examples[:7]
    assert len({len(ex.document) for ex in examples}) > 1
    vocab = mixed.vocab
    params = init_params(h, vocab.size, vocab.n_answers,
                         np.random.default_rng(h), embed_init_stddev=1.0)
    got = {}
    for name, parts in (("single", SINGLE), ("threaded", THREADED)):
        force(monkeypatch, parts)
        got[name] = encoder_outputs(examples, params)
    assert encoder._pool is not None  # the backward direction's worker
    assert list(got["single"]) == ["states", "embedded", "gru.W",
                                   "gru.U_zr", "gru.U_h", "gru.b",
                                   "span_rows"]
    for key, want in got["single"].items():
        assert np.any(want), key
        assert got["threaded"][key].tobytes() == want.tobytes(), key


def host(monkeypatch, cpus, blas="1"):
    """A host with `cpus` allowed CPUs and every BLAS variable at `blas`."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    monkeypatch.setattr(encoder, "BLAS_THREADS", {
        var: {"value": blas, "set_by": "hopqa"} for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})


# (B, h) of the benchmark's loops: train-h256's training chunks of 16 and
# its dev chunk of 128; train-h16's training chunks and 120 dev examples;
# eval-sweep-long's 20 documents at h=16
THREADED_SIZES = [(16, 256), (128, 256)]
SINGLE_SIZES = [(16, 16), (120, 16), (20, 16)]


def test_rule_on_benchmark_sizes(monkeypatch):
    host(monkeypatch, 2)
    assert encoder.direction_threads() == {
        "threads": 2, "cpus_allowed": 2, "min_step_work": 2 ** 19}
    for B, h in THREADED_SIZES:
        assert encoder._schedule(B, h) == THREADED, (B, h)
    for B, h in SINGLE_SIZES:
        assert encoder._schedule(B, h) == SINGLE, (B, h)
    assert encoder._schedule(32, 128) == THREADED  # 2^19, the threshold
    assert encoder._schedule(31, 128) == SINGLE


@pytest.mark.parametrize("cpus, blas", [(1, "1"), (2, "2"), (2, None)])
def test_rule_keeps_one_thread(monkeypatch, cpus, blas):
    """One allowed CPU, or BLAS not known to run one thread (a user's
    value, or numpy imported before hopqa): no loop is threaded."""
    host(monkeypatch, cpus, blas)
    assert encoder.direction_threads()["threads"] == 1
    for B, h in THREADED_SIZES + SINGLE_SIZES:
        assert encoder._schedule(B, h) == SINGLE


def test_threaded_chunk_peak_bounded(monkeypatch):
    """A training chunk at h=128 on the threaded schedule stays under
    `CHUNK_PEAK_BOUND`, once the worker exists: making it, on first use,
    imports `concurrent.futures` once per process."""
    force(monkeypatch, THREADED)
    encoder._run(lambda ds: None, THREADED)
    test_batched_encoder.test_chunk_tape_peak_bounded()


def test_threaded_eval_peak_below_training_chunk(monkeypatch):
    force(monkeypatch, THREADED)
    test_eval_batch.test_eval_chunk_peak_below_training_chunk()


def test_threaded_defaults_bit_pin(monkeypatch):
    """The `defaults` bit pin (h=256, 4 hops, dropout) on the threaded
    schedule, as the benchmark's train-h256 runs it."""
    force(monkeypatch, THREADED)
    test_batched_encoder.test_one_epoch_bit_exact(monkeypatch, "defaults")
