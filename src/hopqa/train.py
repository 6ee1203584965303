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

import mmap
import operator
from dataclasses import asdict, dataclass, fields, replace
from functools import reduce

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Dataset, Vocab, check_field_types
from .exceptions import ConfigError
from .hops import forward_batch, forward_pass, run_hops_batch
# benches/tracer.py patches the name train.init_params
from .model import ModelParams, init_params, make_params
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
        for name in ("h", "hops", "batch_size", "checkpoint_every",
                     "max_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} not in [0, 1)")
        if self.lr0 <= 0 or self.embed_init_stddev <= 0:
            raise ConfigError("lr0 and embed_init_stddev must be positive")
        if self.dev_subsample < 0:
            raise ConfigError(f"dev_subsample must be 0 (full dev set) or "
                              f"positive, got {self.dev_subsample}")


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
    a view of it (replacing one afterwards makes `step` refuse to run), and
    each `.grad` a view of `grad`, so a training step zeroes and scales
    every gradient with one call each."""

    BLOCK = 1 << 16  # elements per update block, the size of its scratch

    def __init__(self, named_params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(named_params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
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

    def step(self, grads: dict) -> None:
        """One update in place, a block of the buffers at a time. Gradients
        other than the parameters' own `.grad` views are first copied into
        `grad`. A non-finite gradient anywhere refuses the whole step before
        any parameter, moment or `t` changes."""
        if any(p.data is not d for (_, p), d in zip(self.params, self._data)):
            raise RuntimeError("a parameter's data was replaced after the "
                               "optimizer took it")
        given = [grads[n] for n, _ in self.params]
        if not all(map(operator.is_, given, self._grads)):
            np.concatenate([np.ravel(a) for a in given], out=self.grad)
        g = self.grad
        blocks = [slice(a, a + self.BLOCK)
                  for a in range(0, g.size, self.BLOCK)]
        if not all(np.isfinite(g[s]).all() for s in blocks):
            name = next(n for (n, _), a in zip(self.params, self._grads)
                        if not np.isfinite(a).all())
            raise RuntimeError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
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
            np.sqrt(np.divide(v, 1 - b2 ** self.t, out=tmp), out=tmp)
            tmp += self.eps
            np.divide(m, 1 - b1 ** self.t, out=upd)
            upd *= self.lr
            p -= np.divide(upd, tmp, out=upd)

    def state_dict(self) -> dict:
        return {"t": self.t, "lr": self.lr,
                "m": {n: a.copy() for n, a in self.m.items()},
                "v": {n: a.copy() for n, a in self.v.items()}}

    def load_state(self, state: dict) -> None:
        self.t = state["t"]
        self.lr = state["lr"]
        for n in self.m:
            self.m[n][...] = state["m"][n]
            self.v[n][...] = state["v"][n]


# Examples x h per chunk. A taped training chunk (`chunk_losses`) keeps its
# tape alive until its backward pass, and a tape-free `forward_batch` call
# in `evaluate` holds its chunk's biGRU states; both grow with examples and
# h. Peak RSS of the train-h256 benchmark (2 cores, one BLAS thread, three
# runs each): 109.3 MiB with training chunks of 8, 121.9 with 16, 147.0
# with whole minibatches of 32, against 109.1 for chunks of 8 with one hop
# node per example. So 8 x 256: 8 examples at h=256, a minibatch of up to
# 128 at h=16. After one h=256 training epoch, scoring 128 dev examples in
# one batch raised peak RSS from 109 to 128 MiB, and batches of 32 stayed at
# the training peak. So 32 x 256: 32 examples at h=256, 512 at h=16, where
# train-h16's 120 dev examples are one chunk; its peak RSS rose from 41.8
# MiB with chunks of 32 to 42.8 (BENCH_eval_chunks.json, median of 10).
TRAIN_BUDGET = 8 * 256
EVAL_BUDGET = 32 * 256


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


def evaluate(params: ModelParams, dataset: Dataset, hops: int,
             max_examples: int = 0) -> EvalResult:
    """Deterministic accuracy (dropout off) on the first `max_examples`
    examples, or on all of them when it is 0. Scores chunks of
    `chunk_size(EVAL_BUDGET, h)` examples (32 at h=256, 512 at h=16), one
    tape-free `forward_batch` call each; its predictions are those of
    `forward_pass`, the reference path."""
    if max_examples < 0:
        raise ConfigError(f"max_examples must be 0 (all) or positive, got "
                          f"{max_examples}")
    if hops < 1:
        raise ConfigError(f"hops must be positive, got {hops}")
    examples = dataset.examples
    if max_examples:
        examples = examples[:max_examples]
    scored = [i for i, ex in enumerate(examples) if ex.positions]
    preds: list[int | None] = [None] * len(examples)
    size = chunk_size(EVAL_BUDGET, params.h)
    for start in range(0, len(scored), size):
        chunk = scored[start:start + size]
        _, probs = forward_batch([examples[i] for i in chunk], params,
                                 dataset.vocab, hops)
        for i, k in zip(chunk, probs.argmax(axis=1)):
            preds[i] = examples[i].candidates[k]
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
    states = encode_batch(chunk, params, sep_id=vocab.sep_id,
                          dropout_rate=dropout, rng=rng)
    sb = build_support_batch(chunk, params, sep_id=vocab.sep_id,
                             answer_row=vocab.answer_row, states=states)
    losses = loss_from_scores(run_hops_batch(sb, params, hops)[0],
                              [ex.candidates.index(ex.gold) for ex in chunk])
    return [example_loss(ex, params, vocab, hops, encoded=(losses, b))
            for b, ex in enumerate(chunk)]


@dataclass
class RunState:
    """Run counters and schedule state: with the parameters and the Adam
    moments, everything a resumed run needs to continue bit-exactly.
    `best` is the parameter snapshot (name -> array) of the best dev
    accuracy; `rng_state` is the training RNG's state when the run ended."""
    step: int = 0
    epochs_run: int = 0
    last_ckpt_acc: float | None = None
    prev_epoch_acc: float | None = None
    best_acc: float = -1.0
    best_step: int = 0
    best_epoch: int = 0
    rng_state: dict | None = None
    best: dict[str, np.ndarray] | None = None

    def record(self, acc: float, at_epoch_boundary: bool,
               params: ModelParams) -> None:
        """Take a dev measurement into the schedule state and, if it is the
        best so far, snapshot `params`."""
        self.last_ckpt_acc = acc
        if at_epoch_boundary:
            self.prev_epoch_acc = acc
        if acc > self.best_acc:
            self.best_acc, self.best_step = acc, self.step
            self.best_epoch = self.epochs_run
            self.best = {n: t.data.copy() for n, t in params.named()}

    def to_checkpoint(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The scalars for the JSON header, and `best` as `best/<name>`
        arrays."""
        scalars = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name != "best"}
        return scalars, {f"best/{n}": a for n, a in (self.best or {}).items()}


def schedule(state: RunState, acc: float,
             at_epoch_boundary: bool) -> tuple[bool, bool]:
    """(halve the learning rate, stop training) for a new dev measurement
    `acc`, judged against the measurements recorded in `state`."""
    halve = (state.last_ckpt_acc is not None and acc < state.last_ckpt_acc
             and state.epochs_run >= 1)
    stop = (at_epoch_boundary and state.prev_epoch_acc is not None
            and acc < state.prev_epoch_acc)
    return halve, stop


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

    if evaluator is None:
        def evaluator(p):
            return evaluate(p, dev_set, config.hops,
                            max_examples=config.dev_subsample).accuracy

    rng = np.random.default_rng(config.seed)
    if resume is None:
        state = RunState()
        params = init_params(config.h, vocab.size, vocab.n_answers, rng,
                             identity_eo=config.identity_eo,
                             embed_init_stddev=config.embed_init_stddev)
    else:
        if resume.optimizer_state is None or resume.run is None:
            raise ConfigError("checkpoint holds no optimizer or run state "
                              "(a best.ckpt); resume from the run's last.ckpt")
        if resume.vocab != vocab:
            raise ConfigError("checkpoint vocab differs from the training "
                              "data's; resume on the data the run used")
        state = replace(resume.run)
        params = make_params({n: t.data.copy() for n, t in
                              resume.params.named()}, *dims)
        old, new = asdict(resume.config), asdict(config)
        drift = [f"{k} {old[k]!r} -> {new[k]!r}" for k in new
                 if k != "max_epochs" and new[k] != old[k]]
        if drift:
            raise ConfigError(f"config differs from the checkpoint's: "
                              f"{', '.join(drift)}; a resumed run keeps its "
                              f"config, only max_epochs may change")
        rng.bit_generator.state = state.rng_state
    opt = Adam(list(params.trainable()), config.lr0)
    if resume is not None:
        opt.load_state(resume.optimizer_state)

    chunk = chunk_size(TRAIN_BUDGET, config.h)
    frozen = [p for n, p in params.named() if n not in opt.m]
    metrics: list[dict] = []
    window = [0.0, 0]  # summed training loss and examples since last eval

    def measure(at_epoch_boundary: bool) -> bool:
        """Dev-evaluate, apply the schedule and log a metrics row. Returns
        whether training stops."""
        acc = evaluator(params)
        halve, stop = schedule(state, acc, at_epoch_boundary)
        if halve:
            opt.lr /= 2.0
        state.record(acc, at_epoch_boundary, params)
        metrics.append({
            "step": state.step, "lr": opt.lr,
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
            opt.step({n: p.grad for n, p in params.trainable()})
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
