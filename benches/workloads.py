"""The benchmark's workloads: set-up from a seed, one timed operation, and
the check of that operation's outputs against shipped references.

Every call into hopqa goes through a module attribute (`train.train`, not a
name imported from it), so the tracer's patches see the benchmark's own calls
the same way they see hopqa's internal ones.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import hopqa.checkpoint as checkpoint
import hopqa.data as data
import hopqa.model as model
import hopqa.train as train

# The seed picks one of this many input sets (seed mod REF_SEEDS), so that
# every run can be checked against outputs shipped in references.json.
REF_SEEDS = 32
RTOL = 1e-9  # float64 rounding, accumulated over one epoch of Adam steps
PROBE_EXAMPLES = 4
HOP_SWEEP = tuple(range(1, 7))

# L2 task: 4 facts (16 tokens), 6 candidates and 8 support pairs per example.
L2_TASK = {"chain_length": 2, "n_distractor_facts": 2}
# Long documents: 15 facts (60 tokens) and 30 support pairs per example.
LONG_TASK = {"chain_length": 3, "n_distractor_facts": 12, "n_entities": 60}


def learn_config(seed: int) -> train.TrainConfig:
    """The acceptance-test learning recipe at 2 hops, cut to one epoch."""
    return train.TrainConfig(h=16, hops=2, lr0=0.01, batch_size=16,
                             checkpoint_every=10000, max_epochs=1, seed=seed,
                             dropout=0.0, identity_eo=True, dev_subsample=0,
                             embed_init_stddev=3.0)


def default_config(seed: int) -> train.TrainConfig:
    """`TrainConfig` defaults (h=256, 4 hops, dropout 0.2), one epoch."""
    return train.TrainConfig(max_epochs=1, seed=seed)


@dataclass
class Rep:
    """One timed operation and what its check needs."""
    wall: float          # seconds in the timed call(s)
    examples: int        # examples (train) or examples x hop settings (eval)
    eval_wall: float     # seconds inside `train.evaluate`
    eval_examples: int   # examples x hop settings scored by `evaluate`
    outputs: dict
    train_loss: float | None = None
    dev_acc: float | None = None


@contextlib.contextmanager
def recorded_losses():
    """Record every per-example training loss `train.train` computes."""
    losses: list[float] = []
    orig = train.example_loss

    def hooked(*args, **kwargs):
        loss = orig(*args, **kwargs)
        losses.append(float(loss.data))
        return loss

    train.example_loss = hooked
    try:
        yield losses
    finally:
        train.example_loss = orig


def _close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=RTOL, atol=1e-12))


@dataclass
class TrainState:
    config: train.TrainConfig
    train_set: data.Dataset
    dev_set: data.Dataset
    init_params: model.ModelParams


class TrainWorkload:
    """One epoch of `train.train` on the L2 task, as `hopqa train` runs it
    on JSONL files written by `hopqa gen`."""

    has_probe = True

    def __init__(self, name, make_config, n_train, n_dev, pin_training,
                 interpreter_bound):
        self.name = name
        self.make_config = make_config
        self.n_train, self.n_dev = n_train, n_dev
        # whether the loss sequence and dev predictions are checked against
        # the references; with dropout they depend on the RNG call order
        self.pin_training = pin_training
        # whether run.py scales this workload's times by the interpreter
        # speed index (see run.py)
        self.interpreter_bound = interpreter_bound

    def datasets(self, state):
        return [state.train_set, state.dev_set]

    def setup(self, seed: int, workdir: Path) -> TrainState:
        cfg = self.make_config(seed)
        tr, dev, _ = data.generate_splits(data.SynthConfig(
            **L2_TASK, n_examples=self.n_train, n_dev=self.n_dev, n_test=1,
            seed=seed))
        data.save_canonical(tr, workdir / "train.jsonl")
        data.save_canonical(dev, workdir / "dev.jsonl")
        tr = data.load_canonical(workdir / "train.jsonl", name="train")
        dev = data.load_canonical(workdir / "dev.jsonl", vocab=tr.vocab,
                                  name="dev")
        # the parameters `train.train` starts from: same rng, same draws
        init = model.init_params(
            cfg.h, tr.vocab.size, tr.vocab.n_answers,
            np.random.default_rng(cfg.seed), identity_eo=cfg.identity_eo,
            embed_init_stddev=cfg.embed_init_stddev)
        return TrainState(cfg, tr, dev, init)

    def run(self, st: TrainState) -> Rep:
        evals = []

        def evaluator(params):
            t = perf_counter()
            res = train.evaluate(params, st.dev_set, st.config.hops,
                                 max_examples=st.config.dev_subsample)
            evals.append((perf_counter() - t, res))
            return res.accuracy

        with recorded_losses() as losses:
            t = perf_counter()
            result = train.train(st.config, st.train_set, st.dev_set,
                                 evaluator=evaluator)
            wall = perf_counter() - t
        bs = st.config.batch_size
        steps = [math.fsum(losses[i:i + bs]) / len(losses[i:i + bs])
                 for i in range(0, len(losses), bs)]
        eval_wall = sum(w for w, _ in evals)
        final = evals[-1][1]
        return Rep(wall=wall, examples=len(losses), eval_wall=eval_wall,
                   eval_examples=sum(len(r.predictions) for _, r in evals),
                   outputs={"step_losses": steps,
                            "dev_predictions": final.predictions},
                   train_loss=math.fsum(losses) / len(losses),
                   dev_acc=result.metrics[-1]["dev_acc"])

    def check(self, st: TrainState, rep: Rep, ref: dict) -> list[str]:
        steps = rep.outputs["step_losses"]
        n_steps = math.ceil(len(st.train_set.examples) / st.config.batch_size)
        problems = []
        if rep.examples != len(st.train_set.examples) or len(steps) != n_steps:
            problems.append(f"trained on {rep.examples} examples in "
                            f"{len(steps)} steps, expected one epoch")
        if not all(math.isfinite(x) for x in steps):
            problems.append("non-finite training loss")
        if self.pin_training:
            if not _close(steps, ref["step_losses"]):
                problems.append("per-step losses differ from the reference")
            if rep.outputs["dev_predictions"] != ref["dev_predictions"]:
                problems.append("dev predictions differ from the reference")
        return problems

    def probe(self, st: TrainState) -> dict:
        """Eval-mode scores of the first dev examples at initialisation."""
        vocab = st.train_set.vocab
        return {"probe_scores": [
            train.forward_pass(ex, st.init_params, vocab,
                               st.config.hops).scores.data.tolist()
            for ex in st.dev_set.examples[:PROBE_EXAMPLES]]}

    def check_probe(self, st: TrainState, ref: dict) -> list[str]:
        if not _close(self.probe(st)["probe_scores"], ref["probe_scores"]):
            return ["initial probe scores differ from the reference"]
        return []

    def reference(self, st: TrainState) -> dict:
        ref = self.probe(st)
        if self.pin_training:
            ref.update(self.run(st).outputs)
        return ref


@dataclass
class EvalState:
    params: model.ModelParams
    dev_set: data.Dataset


class EvalSweepWorkload:
    """`hopqa eval --hop-sweep 1..6`: a saved h=16 parameter set scored on
    long documents at every hop count."""

    name = "eval-sweep-long"
    has_probe = False
    interpreter_bound = True

    def __init__(self, n_dev):
        self.n_dev = n_dev

    def datasets(self, state):
        return [state.dev_set]

    def setup(self, seed: int, workdir: Path) -> EvalState:
        cfg = learn_config(seed)
        _, dev, _ = data.generate_splits(data.SynthConfig(
            **LONG_TASK, n_examples=1, n_dev=self.n_dev, n_test=1,
            seed=seed))
        params = model.init_params(
            cfg.h, dev.vocab.size, dev.vocab.n_answers,
            np.random.default_rng(seed), identity_eo=True,
            embed_init_stddev=cfg.embed_init_stddev)
        ckpt = workdir / "model.ckpt"
        checkpoint.save_checkpoint(ckpt, config=cfg, params=params,
                                   vocab=dev.vocab)
        bundle = checkpoint.load_checkpoint(ckpt)
        data.save_canonical(dev, workdir / "dev.jsonl")
        dev = data.load_canonical(workdir / "dev.jsonl", vocab=bundle.vocab,
                                  name="dev")
        return EvalState(bundle.params, dev)

    def run(self, st: EvalState) -> Rep:
        preds = {}
        t = perf_counter()
        for hops in HOP_SWEEP:
            preds[str(hops)] = train.evaluate(st.params, st.dev_set,
                                              hops).predictions
        wall = perf_counter() - t
        n = len(st.dev_set.examples) * len(HOP_SWEEP)
        return Rep(wall=wall, examples=n, eval_wall=wall, eval_examples=n,
                   outputs={"predictions": preds})

    def check(self, st: EvalState, rep: Rep, ref: dict) -> list[str]:
        if rep.outputs["predictions"] != ref["predictions"]:
            return ["sweep predictions differ from the reference"]
        return []

    def reference(self, st: EvalState) -> dict:
        return self.run(st).outputs


# Sizes give each timed operation about 1 s (train-h16, eval-sweep-long) or
# 4.5 s (train-h256) on one core, so a 40 s run holds 8 to 35 operations to
# take the median of. train-h16 and eval-sweep-long spend their time in the
# interpreter (h=16: Python and tape overhead); train-h256 spends it in BLAS.
WORKLOADS = {w.name: w for w in (
    TrainWorkload("train-h16", learn_config, n_train=160, n_dev=120,
                  pin_training=True, interpreter_bound=True),
    TrainWorkload("train-h256", default_config, n_train=64, n_dev=128,
                  pin_training=False, interpreter_bound=False),
    EvalSweepWorkload(n_dev=20),
)}
