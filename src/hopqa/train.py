"""Mini-batch training with Adam, the lr-halving/early-stopping schedule,
evaluation, and checkpointing.

Schedule: dev accuracy is measured every `checkpoint_every` steps and at
every epoch boundary. A drop between consecutive measurements halves the
learning rate, but only once at least one full epoch has passed. A drop
between epoch-boundary measurements stops training. The best-dev snapshot
wins.
"""

from __future__ import annotations

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


def loss_from_scores(scores: Tensor, gold_pos: int) -> Tensor:
    """Cross-entropy of the gold candidate, as log-sum-exp minus gold score."""
    return ag.sub(ag.logsumexp(scores), ag.pick(scores, gold_pos))


class Adam:
    def __init__(self, named_params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(named_params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params}

    def step(self, grads: dict) -> None:
        """One update in place. A non-finite gradient anywhere refuses the
        whole step before any parameter, moment or `t` changes."""
        for name, _ in self.params:
            if not np.all(np.isfinite(grads[name])):
                raise RuntimeError(f"non-finite gradient for parameter "
                                   f"{name!r}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params:
            g, m, v = grads[name], self.m[name], self.v[name]
            # the operations of
            #   m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g g
            #   p -= lr (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
            # in their order, so every value is bit-identical to it, with
            # two scratch arrays in place of its temporaries
            tmp, upd = np.empty_like(m), np.empty_like(m)
            m *= b1
            m += np.multiply(1 - b1, g, out=tmp)
            v *= b2
            np.multiply(1 - b2, g, out=tmp)
            v += np.multiply(tmp, g, out=tmp)
            np.sqrt(np.divide(v, 1 - b2 ** self.t, out=tmp), out=tmp)
            tmp += self.eps
            np.divide(m, 1 - b1 ** self.t, out=upd)
            upd *= self.lr
            p.data -= np.divide(upd, tmp, out=upd)

    def state_dict(self) -> dict:
        return {"t": self.t, "lr": self.lr,
                "m": {n: a.copy() for n, a in self.m.items()},
                "v": {n: a.copy() for n, a in self.v.items()}}

    def load_state(self, state: dict) -> None:
        self.t = state["t"]
        self.lr = state["lr"]
        self.m = {n: np.asarray(a).copy() for n, a in state["m"].items()}
        self.v = {n: np.asarray(a).copy() for n, a in state["v"].items()}


# Examples per batched forward in `evaluate`. After one h=256 training epoch,
# scoring 128 dev examples in one batch raised peak RSS from 109 to 128 MiB;
# batches of 32 stayed at the training peak.
EVAL_CHUNK = 32
# Training examples per taped chunk (`chunk_losses`) and per backward pass;
# the chunk's tape is alive until it runs. Peak RSS of the train-h256
# benchmark (2 cores, one BLAS thread, three runs each): 109.3 MiB with
# chunks of 8, 121.9 with 16, 147.0 with whole minibatches of 32, against
# 109.1 for chunks of 8 with one hop node per example.
TRAIN_CHUNK = 8


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
    examples, or on all of them when it is 0. Scores `EVAL_CHUNK` examples
    per tape-free `forward_batch` call; its predictions are those of
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
    for start in range(0, len(scored), EVAL_CHUNK):
        chunk = scored[start:start + EVAL_CHUNK]
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
    `encoded`, a `(scores, b)` pair, passes instead its row b of a chunk's
    `(B, K)` score node (`chunk_losses`), where pad candidates score -inf
    and so add nothing; dropout was applied when that chunk was encoded, so
    `dropout` and `rng` then go unused. Unlike `forward_pass(encoded=...)`,
    a column of biGRU states, this `encoded` is a row of candidate scores:
    the name is kept so that the signature stays that of the per-example
    loss the benchmark wraps."""
    if encoded is None:
        scores = forward_pass(example, params, vocab, hops,
                              dropout_rate=dropout, rng=rng).scores
    else:
        scores = ag.take_row(*encoded)
    return loss_from_scores(scores, example.candidates.index(example.gold))


def chunk_losses(chunk, params: ModelParams, vocab: Vocab, hops: int, *,
                 dropout: float = 0.0,
                 rng: np.random.Generator | None = None) -> list[Tensor]:
    """`example_loss` of every example of `chunk`, each on its row of one
    taped pass over the whole chunk: one `encode_batch` node, the padded
    support nodes and one `run_hops_batch` node. The losses of one
    `example_loss` call per example up to float rounding, with the same
    dropout draws in the same order."""
    states = encode_batch(chunk, params, sep_id=vocab.sep_id,
                          dropout_rate=dropout, rng=rng)
    sb = build_support_batch(chunk, params, sep_id=vocab.sep_id,
                             answer_row=vocab.answer_row, states=states)
    scores = run_hops_batch(sb, params, hops)[0]
    return [example_loss(ex, params, vocab, hops, encoded=(scores, b))
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
            # frozen tensors too, so no gradient sum outlives its step
            for _, p in params.named():
                p.grad = np.zeros_like(p.data)
            for c in range(0, len(batch), TRAIN_CHUNK):
                losses = chunk_losses(batch[c:c + TRAIN_CHUNK], params,
                                      vocab, config.hops,
                                      dropout=config.dropout, rng=rng)
                ag.backward(reduce(ag.add, losses), accumulate=True)
                for loss in losses:
                    window[0] += float(loss.data)
                window[1] += len(losses)
                # free this chunk's tape before the next chunk builds its own
                del losses, loss
            for _, p in params.trainable():
                p.grad /= len(batch)
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
