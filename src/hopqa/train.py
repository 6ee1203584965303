"""Mini-batch training with Adam, the lr-halving/early-stopping schedule,
evaluation, and checkpointing.

Schedule: dev accuracy is measured every `checkpoint_every` steps and at
every epoch boundary. A drop between consecutive measurements halves the
learning rate, but only once at least one full epoch has passed. A drop
between epoch-boundary measurements stops training. The best-dev snapshot
wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Dataset, Vocab
from .exceptions import ConfigError, DataError
from .hops import forward_pass
from .model import ModelParams, init_params


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

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


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
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params:
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise RuntimeError(f"non-finite gradient for parameter "
                                   f"{name!r}")
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        return {"t": self.t, "lr": self.lr,
                "m": {n: a.copy() for n, a in self.m.items()},
                "v": {n: a.copy() for n, a in self.v.items()}}

    def load_state(self, state: dict) -> None:
        self.t = state["t"]
        self.lr = state["lr"]
        self.m = {n: np.asarray(a).copy() for n, a in state["m"].items()}
        self.v = {n: np.asarray(a).copy() for n, a in state["v"].items()}


@dataclass
class EvalResult:
    accuracy: float
    predictions: list[int]  # predicted symbol id per example


def evaluate(params: ModelParams, dataset: Dataset, hops: int,
             max_examples: int = 0,
             ablate_query_gate: bool = False) -> EvalResult:
    """Deterministic accuracy (dropout off) on the first `max_examples`
    examples, or on all of them when it is 0."""
    if max_examples < 0:
        raise ConfigError(f"max_examples must be 0 (all) or positive, got "
                          f"{max_examples}")
    examples = dataset.examples
    if max_examples:
        examples = examples[:max_examples]
    preds = []
    correct = 0
    for ex in examples:
        fr = forward_pass(ex, params, dataset.vocab, hops,
                          ablate_query_gate=ablate_query_gate)
        sym = fr.predicted_symbol
        preds.append(sym)
        correct += int(sym == ex.gold)
    return EvalResult(accuracy=correct / len(examples) if examples else 0.0,
                      predictions=preds)


def example_loss(example, params: ModelParams, vocab: Vocab, hops: int, *,
                 mode: str = "eval", dropout: float = 0.0,
                 rng: np.random.Generator | None = None) -> Tensor:
    if example.gold not in example.candidates:
        raise DataError("gold symbol missing from candidate set")
    fr = forward_pass(example, params, vocab, hops, mode=mode,
                      dropout_rate=dropout, rng=rng)
    return loss_from_scores(fr.scores, example.candidates.index(example.gold))


@dataclass
class TrainResult:
    best_params: ModelParams
    best_acc: float
    best_step: int
    best_epoch: int
    final_params: ModelParams
    metrics: list[dict]
    epochs_run: int
    optimizer: Adam
    rng_state: dict
    last_ckpt_acc: float | None = None
    prev_epoch_acc: float | None = None


def _snapshot(params: ModelParams) -> dict:
    return {n: t.data.copy() for n, t in params.named()}


def _restore(params: ModelParams, arrays: dict) -> None:
    for n, t in params.named():
        t.data[...] = arrays[n]


def train(config: TrainConfig, train_set: Dataset, dev_set: Dataset, *,
          evaluator=None, resume: dict | None = None) -> TrainResult:
    """Run the full schedule. `evaluator(params) -> float` may be stubbed in
    tests; by default it is dev-set accuracy at the training hop count.
    `resume` takes a bundle from `checkpoint.py` to continue a run."""
    if not train_set.examples or not dev_set.examples:
        raise ConfigError("train and dev sets must be non-empty")
    vocab = train_set.vocab

    if evaluator is None:
        def evaluator(p):
            return evaluate(p, dev_set, config.hops,
                            max_examples=config.dev_subsample).accuracy

    rng = np.random.default_rng(config.seed)
    params = init_params(config.h, vocab.size, vocab.n_answers, rng,
                         identity_eo=config.identity_eo,
                         embed_init_stddev=config.embed_init_stddev)
    opt = Adam(list(params.trainable()), config.lr0)

    step = 0
    start_epoch = 0
    last_ckpt_acc = None
    prev_epoch_acc = None
    best_acc = -1.0
    best_arrays = None
    best_step = best_epoch = 0
    metrics: list[dict] = []

    if resume is not None:
        _restore(params, resume["params"])
        opt.load_state(resume["optimizer"])
        meta = resume["meta"]
        step = meta["step"]
        start_epoch = meta["epoch"]
        last_ckpt_acc = meta["last_ckpt_acc"]
        prev_epoch_acc = meta["prev_epoch_acc"]
        best_acc = meta["best_acc"]
        best_step = meta["best_step"]
        best_epoch = meta["best_epoch"]
        best_arrays = resume.get("best_params")
        rng.bit_generator.state = meta["rng_state"]

    loss_sum = 0.0
    loss_count = 0

    def checkpoint_eval(epochs_done: int) -> float:
        nonlocal last_ckpt_acc, best_acc, best_arrays, best_step, best_epoch
        nonlocal loss_sum, loss_count
        acc = evaluator(params)
        if (last_ckpt_acc is not None and acc < last_ckpt_acc
                and epochs_done >= 1):
            opt.lr /= 2.0
        last_ckpt_acc = acc
        if acc > best_acc:
            best_acc = acc
            best_arrays = _snapshot(params)
            best_step = step
            best_epoch = epochs_done
        metrics.append({
            "step": step, "lr": opt.lr,
            "train_loss": loss_sum / loss_count if loss_count else None,
            "dev_acc": acc,
        })
        loss_sum = 0.0
        loss_count = 0
        return acc

    epochs_run = start_epoch
    for epoch in range(start_epoch, config.max_epochs):
        order = rng.permutation(len(train_set.examples))
        for start in range(0, len(order), config.batch_size):
            batch = [train_set.examples[int(i)]
                     for i in order[start:start + config.batch_size]]
            step += 1
            grads = {n: np.zeros_like(p.data) for n, p in params.trainable()}
            for ex in batch:
                loss = example_loss(ex, params, vocab, config.hops,
                                    mode="train", dropout=config.dropout,
                                    rng=rng)
                ag.backward(loss)
                for n, p in params.trainable():
                    if p.grad is not None:  # e.g. query-update params at T=1
                        grads[n] += p.grad
                loss_sum += float(loss.data)
                loss_count += 1
            for n in grads:
                grads[n] /= len(batch)
            opt.step(grads)
            if step % config.checkpoint_every == 0:
                checkpoint_eval(epochs_done=epoch)
        epochs_run = epoch + 1
        epoch_acc = checkpoint_eval(epochs_done=epoch + 1)
        if prev_epoch_acc is not None and epoch_acc < prev_epoch_acc:
            prev_epoch_acc = epoch_acc
            break
        prev_epoch_acc = epoch_acc

    best_params = init_params(config.h, vocab.size, vocab.n_answers,
                              np.random.default_rng(0),
                              identity_eo=config.identity_eo)
    _restore(best_params, best_arrays if best_arrays is not None
             else _snapshot(params))
    return TrainResult(
        best_params=best_params, best_acc=best_acc, best_step=best_step,
        best_epoch=best_epoch, final_params=params, metrics=metrics,
        epochs_run=epochs_run, optimizer=opt,
        rng_state=rng.bit_generator.state,
        last_ckpt_acc=last_ckpt_acc, prev_epoch_acc=prev_epoch_acc)
