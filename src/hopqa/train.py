"""Mini-batch training with Adam, the lr-halving/early-stopping schedule,
evaluation, and checkpointing.

Schedule: dev accuracy is measured every `checkpoint_every` steps and at
every epoch boundary. A drop between consecutive measurements halves the
learning rate, but only once at least one full epoch has passed. A drop
between epoch-boundary measurements stops training. The best-dev snapshot
wins.

A step runs its minibatch as taped chunks of `chunk_size(TRAIN_BUDGET, h)`
examples, one backward pass each, into `Adam`'s one gradient buffer, and
`Adam` updates the trainable parameters as one flat buffer. Evaluation
scores chunks of `chunk_size(EVAL_BUDGET, h)` examples.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
from dataclasses import asdict, dataclass, replace
from functools import reduce

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Dataset, Vocab, check_field_types, check_signs
from .exceptions import ConfigError
from .hops import forward_batch, forward_pass, run_hops_batch
# benches/tracer.py patches the name train.init_params
from .model import ModelParams, init_params, make_params, param_shapes
from .support import build_support_batch, encode_batch


@dataclass
class TrainConfig:
    h: int = 256
    hops: int = 4
    lr0: float = 0.001
    batch_size: int = 32
    checkpoint_every: int = 500
    dropout: float = 0.2
    seed: int = 0
    max_epochs: int = 10
    embed_init_stddev: float = 0.1
    identity_eo: bool = False
    dev_subsample: int = 0  # 0 = evaluate the full dev set

    def __post_init__(self):
        check_field_types(self)
        check_signs(self, positive=("h", "hops", "lr0", "batch_size",
                                    "checkpoint_every", "max_epochs",
                                    "embed_init_stddev"),
                    non_negative=("seed", "dev_subsample"))
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} not in [0, 1)")


def loss_from_scores(scores: Tensor, gold_pos) -> Tensor:
    """Cross-entropy of the gold candidate, as log-sum-exp minus gold score,
    of one example's `(K,)` scores (0-d) or of a chunk's `(B, K)` (`(B,)`)."""
    return ag.cross_entropy(scores, gold_pos)


def _zeros(n: int) -> np.ndarray:
    """`n` float64 zeros in a private anonymous memory mapping of their own.
    A buffer this size from malloc would, once freed, raise glibc's mmap
    threshold and so move later tape arrays onto the heap, where they
    fragment it: over 40 s of repeated train-h256 epochs, peak RSS rose
    from 109.4 to 115.7 MiB. A shared mapping (Python's default) is slower
    to fault in."""
    return np.frombuffer(mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE),
                         dtype=np.float64)


def _views(buffer: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive runs of the 1-d `buffer`, one per shape."""
    ends = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
    return [buffer[a:b].reshape(s) for s, a, b in zip(shapes, ends, ends[1:])]


class Adam:
    """Adam over one flat buffer each for the parameters, their gradients
    (`grad`) and the moments `m` and `v`, read per name through views. The
    parameters are copied into the optimizer's buffer: each `.data` becomes
    a view of it and each `.grad` a view of `grad` (replacing either
    afterwards makes `step` refuse to run), so a training step zeroes and
    scales every gradient with one call each, and `step` reads them in
    place. The step count and learning rate are the caller's (`RunState`);
    the optimizer holds only its buffers."""

    BLOCK = 1 << 16  # elements per update block, the size of its scratch
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, named_params):
        self.params = list(named_params)
        names = [n for n, _ in self.params]
        shapes = [p.data.shape for _, p in self.params]
        size = sum(p.data.size for _, p in self.params)
        self._p, self.grad, self._m, self._v = (_zeros(size) for _ in "pgmv")
        np.concatenate([np.ravel(p.data) for _, p in self.params],
                       out=self._p)
        self._data = _views(self._p, shapes)
        self._grads = _views(self.grad, shapes)
        for (_, p), data, grad in zip(self.params, self._data, self._grads):
            p.data, p.grad = data, grad
        self.m = dict(zip(names, _views(self._m, shapes)))
        self.v = dict(zip(names, _views(self._v, shapes)))

    def step(self, t: int, lr: float) -> None:
        """Update `t` (counted from 1) at rate `lr`, in place from the
        gradients in `grad`, a block of the buffers at a time. A non-finite
        gradient anywhere refuses the whole step before any parameter or
        moment changes."""
        if any(p.data is not d or p.grad is not g for (_, p), d, g in
               zip(self.params, self._data, self._grads)):
            raise RuntimeError("a parameter's data or gradient was replaced "
                               "after the optimizer took it")
        g = self.grad
        blocks = [slice(a, a + self.BLOCK)
                  for a in range(0, g.size, self.BLOCK)]
        if not all(np.isfinite(g[s]).all() for s in blocks):
            name = next(n for (n, _), a in zip(self.params, self._grads)
                        if not np.isfinite(a).all())
            raise RuntimeError(f"non-finite gradient for parameter {name!r}")
        b1, b2 = self.BETA1, self.BETA2
        scratch = np.empty((2, min(self.BLOCK, g.size)))
        for s in blocks:
            p, gb, m, v = self._p[s], g[s], self._m[s], self._v[s]
            tmp, upd = scratch[:, :m.size]
            # the operations of
            #   m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g g
            #   p -= lr (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
            # in their order, elementwise, so every value is bit-identical
            # to it, with two scratch arrays in place of its temporaries
            m *= b1
            m += np.multiply(1 - b1, gb, out=tmp)
            v *= b2
            np.multiply(1 - b2, gb, out=tmp)
            v += np.multiply(tmp, gb, out=tmp)
            np.sqrt(np.divide(v, 1 - b2 ** t, out=tmp), out=tmp)
            tmp += self.EPS
            np.divide(m, 1 - b1 ** t, out=upd)
            upd *= lr
            p -= np.divide(upd, tmp, out=upd)


# Examples x h per chunk. A taped training chunk (`chunk_losses`) keeps its
# tape alive until its backward pass; a tape-free `forward_batch` call in
# `evaluate` holds only the biGRU state rows its span queries read and saves
# no hop's arrays. Peak RSS of the train-h256 benchmark (2 cores, one BLAS
# thread) was 106.2 MiB with training chunks of 8, 112.9 with 16
# (BENCH_lean_gru_tape.json, median of 10) and 128.9 with whole minibatches
# of 32. So 16 x 256: 16 examples at h=256, up to 256 at h=16. One
# `forward_batch` call over 128 L2 examples at h=256 peaks at 13.7 MB
# traced, below a training chunk of 16 (17.9 MB); holding every biGRU state
# and every hop's arrays, it took 24.0 MB. So 128 x 256: 128 examples at
# h=256, where train-h256's 128 dev examples are one chunk (peak RSS
# 111.3 -> 113.1 MiB, BENCH_lean_eval.json, median of 10), and 2,048 at
# h=16.
TRAIN_BUDGET = 16 * 256
EVAL_BUDGET = 128 * 256


def chunk_size(budget: int, h: int) -> int:
    """Examples per chunk at hidden size `h` under a `budget` of examples
    x h."""
    return max(1, budget // h)


@dataclass
class EvalResult:
    accuracy: float
    # predicted symbol id per example; None where the example abstained
    predictions: list[int | None]
    # examples with no support pair (no candidate occurs in the document):
    # nothing to attend over, so they are not scored and count as wrong
    abstained: int


def _support_batches(params: ModelParams, chunks, vocab) -> tuple:
    """Each chunk's untaped `build_support_batch`, the hop-independent part
    of `forward_batch`, and a list of each chunk's hop loop end state, None
    until `evaluate` stores one. Read-only parameters keep both lists and
    return them to a later call with the same arrays, the same example
    objects and an equal `answer_row`; writable ones keep nothing."""
    arrays = [t.data for _, t in params.named()]
    key = (vocab.answer_row, [len(c) for c in chunks], *arrays,
           *(ex for c in chunks for ex in c))
    read_only = not any(a.flags.writeable for a in arrays)
    old = params._support or ((), None, None)
    if (read_only and old[0][:2] == key[:2]
            and all(map(operator.is_, old[0][2:], key[2:]))):
        return old[1:]
    batches = [build_support_batch(c, params, answer_row=vocab.answer_row)
               for c in chunks]
    ends = [None] * len(chunks)
    params._support = (key, batches, ends) if read_only else None
    return batches, ends


def evaluate(params: ModelParams, dataset: Dataset, hops: int,
             max_examples: int = 0) -> EvalResult:
    """Deterministic accuracy (dropout off) on the first `max_examples`
    examples, or on all of them when it is 0. Scores chunks of
    `chunk_size(EVAL_BUDGET, h)` examples (128 at h=256, 2,048 at h=16),
    one tape-free `forward_batch` call each; its predictions are those of
    `forward_pass`, the reference path. The support memories do not depend
    on `hops`, nor the state after hop t on the hops that follow: with
    read-only parameters, as `load_checkpoint` gives, a later call on the
    same examples reuses the memories and continues each chunk's hop loop
    if `hops` is not below its last, so a sweep a..b runs b hops a chunk."""
    if max_examples < 0:
        raise ConfigError(f"max_examples must be 0 (all) or positive, got "
                          f"{max_examples}")
    if hops < 1:
        raise ConfigError(f"hops must be positive, got {hops}")
    examples = dataset.examples
    if max_examples:
        examples = examples[:max_examples]
    scored = [ex for ex in examples if ex.positions]
    size = chunk_size(EVAL_BUDGET, params.h)
    chunks = [scored[s:s + size] for s in range(0, len(scored), size)]
    picked = {}
    batches, ends = _support_batches(params, chunks, dataset.vocab)
    for i, (chunk, sb) in enumerate(zip(chunks, batches)):
        start = ends[i] if ends[i] and ends[i][0] <= hops else None
        _, probs, ends[i] = forward_batch(chunk, params, dataset.vocab, hops,
                                          sb, start)
        picked.update((id(ex), ex.candidates[k])
                      for ex, k in zip(chunk, probs.argmax(axis=1)))
    preds: list[int | None] = [picked.get(id(ex)) for ex in examples]
    correct = sum(p == ex.gold for p, ex in zip(preds, examples))
    return EvalResult(accuracy=correct / len(examples) if examples else 0.0,
                      predictions=preds,
                      abstained=len(examples) - len(scored))


def example_loss(example, params: ModelParams, vocab: Vocab, hops: int, *,
                 dropout: float = 0.0,
                 rng: np.random.Generator | None = None,
                 encoded: tuple[Tensor, int] | None = None) -> Tensor:
    """Cross-entropy of one example, run alone as a batch of one.
    `encoded`, a `(losses, b)` pair, passes instead entry b of a chunk's
    `(B,)` cross-entropy node (`chunk_losses`); dropout was applied when
    that chunk was encoded, so `dropout` and `rng` then go unused. The name
    `encoded` is kept so that the signature stays that of the per-example
    loss the benchmark wraps."""
    if encoded is not None:
        return ag.pick(*encoded)
    scores = forward_pass(example, params, vocab, hops, dropout_rate=dropout,
                          rng=rng).scores
    return loss_from_scores(scores, example.candidates.index(example.gold))


def chunk_losses(chunk, params: ModelParams, vocab: Vocab, hops: int, *,
                 dropout: float = 0.0,
                 rng: np.random.Generator | None = None) -> list[Tensor]:
    """`example_loss` of every example of `chunk`, each an entry of one
    taped pass over the whole chunk: one `encode_batch` node, the padded
    support nodes, one `run_hops_batch` node and one cross-entropy node (pad
    candidates score -inf). The losses of one `example_loss` call per
    example up to float rounding, with the same dropout draws in order."""
    states = encode_batch(chunk, params, dropout_rate=dropout, rng=rng)
    sb = build_support_batch(chunk, params, answer_row=vocab.answer_row,
                             states=states)
    losses = loss_from_scores(run_hops_batch(sb, params, hops)[0],
                              [ex.candidates.index(ex.gold) for ex in chunk])
    return [example_loss(ex, params, vocab, hops, encoded=(losses, b))
            for b, ex in enumerate(chunk)]


@dataclass
class RunState:
    """The one record of a run's scalars: the step count and learning rate
    `Adam.step` is given, and the schedule state. With the parameters and
    the Adam moments, everything a resumed run needs to continue
    bit-exactly. `best` is the parameter snapshot (name -> array) of the
    best dev accuracy; `rng_state` is the training RNG's state when the run
    ended. Made with a bad field value, it raises `ConfigError`."""
    step: int = 0
    lr: float = TrainConfig.lr0
    epochs_run: int = 0
    last_ckpt_acc: float | None = None
    prev_epoch_acc: float | None = None
    best_acc: float = -1.0
    best_step: int = 0
    best_epoch: int = 0
    rng_state: dict | None = None
    best: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        check_field_types(self)
        check_signs(self, positive=("lr",), non_negative=(
            "step", "epochs_run", "best_step", "best_epoch"))
        if self.rng_state is not None:
            try:  # a state the training RNG, a PCG64 generator, takes
                np.random.PCG64(0).state = self.rng_state
            except (TypeError, KeyError, ValueError, OverflowError) as e:
                raise ConfigError(f"bad PCG64 rng_state: {e}") from e

    def record(self, acc: float, at_epoch_boundary: bool,
               params: ModelParams) -> bool:
        """Take a dev measurement `acc` into the schedule and, if it is the
        best so far, snapshot `params`. A drop since the last measurement
        halves `lr` once a full epoch has passed; a drop since the last
        epoch-boundary measurement, at an epoch boundary, returns True:
        training stops."""
        if (self.last_ckpt_acc is not None and acc < self.last_ckpt_acc
                and self.epochs_run >= 1):
            self.lr /= 2.0
        stop = (at_epoch_boundary and self.prev_epoch_acc is not None
                and acc < self.prev_epoch_acc)
        self.last_ckpt_acc = acc
        if at_epoch_boundary:
            self.prev_epoch_acc = acc
        if acc > self.best_acc:
            self.best_acc, self.best_step = acc, self.step
            self.best_epoch = self.epochs_run
            self.best = {n: t.data.copy() for n, t in params.named()}
        return stop


@dataclass
class TrainResult:
    best_params: ModelParams
    final_params: ModelParams
    optimizer: Adam
    metrics: list[dict]
    state: RunState
    # training examples with no support pair, left out of every epoch
    skipped: int

    @property
    def best_acc(self) -> float:
        return self.state.best_acc

    @property
    def epochs_run(self) -> int:
        return self.state.epochs_run


def train(config: TrainConfig, train_set: Dataset, dev_set: Dataset, *,
          evaluator=None, resume=None) -> TrainResult:
    """Run the full schedule. `evaluator(params) -> float` may be stubbed in
    tests; by default it is dev-set accuracy at the training hop count.
    `resume` takes a loaded `last.ckpt` (`checkpoint.CheckpointBundle`) to
    continue that run under the same config (`max_epochs` may differ).
    Training examples with no support pair (no candidate occurs in the
    document) have no loss; they are left out and counted."""
    if not train_set.examples or not dev_set.examples:
        raise ConfigError("train and dev sets must be non-empty")
    examples = [ex for ex in train_set.examples if ex.positions]
    if not examples:
        raise ConfigError(f"none of the {len(train_set.examples)} training "
                          f"examples has a support pair: no candidate "
                          f"occurs in its document")
    vocab = train_set.vocab
    dims = (config.h, vocab.size, vocab.n_answers, config.identity_eo)
    # the parameters, their gradients, both Adam moments and the best
    # snapshot, in float64, sized in Python integers before any is made
    need = 5 * 8 * sum(map(math.prod, param_shapes(*dims).values()))
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"h={config.h} needs {need / 2**30:,.1f} GiB for "
                          f"the parameters, their gradients, Adam moments "
                          f"and best snapshot; this machine has "
                          f"{have / 2**30:,.1f} GiB")

    if evaluator is None:
        def evaluator(p):
            return evaluate(p, dev_set, config.hops,
                            max_examples=config.dev_subsample).accuracy

    rng = np.random.default_rng(config.seed)
    if resume is None:
        state = RunState(lr=config.lr0)
        params = init_params(config.h, vocab.size, vocab.n_answers, rng,
                             identity_eo=config.identity_eo,
                             embed_init_stddev=config.embed_init_stddev)
    else:
        if resume.run is None:
            raise ConfigError("checkpoint holds no optimizer or run state "
                              "(a best.ckpt); resume from the run's last.ckpt")
        if resume.vocab != vocab:
            raise ConfigError("checkpoint vocab differs from the training "
                              "data's; resume on the data the run used")
        old, new = asdict(resume.config), asdict(config)
        drift = [f"{k} {old[k]!r} -> {new[k]!r}" for k in new
                 if k != "max_epochs" and new[k] != old[k]]
        if drift:
            raise ConfigError(f"config differs from the checkpoint's: "
                              f"{', '.join(drift)}; a resumed run keeps its "
                              f"config, only max_epochs may change")
        state = replace(resume.run)
        params = make_params({n: t.data.copy() for n, t in
                              resume.params.named()}, *dims)
        rng.bit_generator.state = state.rng_state
    opt = Adam(list(params.trainable()))
    if resume is not None:
        for n in opt.m:
            opt.m[n][...] = resume.optimizer_state["m"][n]
            opt.v[n][...] = resume.optimizer_state["v"][n]

    chunk = chunk_size(TRAIN_BUDGET, config.h)
    frozen = [p for n, p in params.named() if n not in opt.m]
    metrics: list[dict] = []
    window = [0.0, 0]  # summed training loss and examples since last eval

    def measure(at_epoch_boundary: bool) -> bool:
        """Dev-evaluate, apply the schedule and log a metrics row. Returns
        whether training stops."""
        acc = evaluator(params)
        stop = state.record(acc, at_epoch_boundary, params)
        metrics.append({
            "step": state.step, "lr": state.lr,
            "train_loss": window[0] / window[1] if window[1] else None,
            "dev_acc": acc,
        })
        window[:] = [0.0, 0]
        return stop

    for epoch in range(state.epochs_run, config.max_epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), config.batch_size):
            batch = [examples[int(i)]
                     for i in order[start:start + config.batch_size]]
            state.step += 1
            # and drop a frozen E_o's, so no gradient sum outlives its step
            opt.grad.fill(0.0)
            for p in frozen:
                p.grad = None
            for c in range(0, len(batch), chunk):
                losses = chunk_losses(batch[c:c + chunk], params, vocab,
                                      config.hops, dropout=config.dropout,
                                      rng=rng)
                ag.backward(reduce(ag.add, losses), accumulate=True)
                for loss in losses:
                    window[0] += float(loss.data)
                window[1] += len(losses)
                # free this chunk's tape before the next chunk builds its own
                del losses, loss
            opt.grad /= len(batch)
            opt.step(state.step, state.lr)
            if state.step % config.checkpoint_every == 0:
                measure(at_epoch_boundary=False)
        state.epochs_run = epoch + 1
        if measure(at_epoch_boundary=True):
            break

    state.rng_state = rng.bit_generator.state
    return TrainResult(best_params=make_params(state.best, *dims),
                       final_params=params, optimizer=opt, metrics=metrics,
                       state=state,
                       skipped=len(train_set.examples) - len(examples))
