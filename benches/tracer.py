"""Span recorder for the traced benchmark run.

`Tracer.installed()` patches hopqa's public functions at the place each
caller looks them up, records one span per call (name, start, end, parent,
example index) in flat arrays, and restores the originals on exit. Autograd
ops get no forward span: their forward time belongs to the layer that called
them. Instead the op wrapper swaps the returned tensor's `backward_fn` for a
timed one, so `backward` time splits by op kind.

`layer_metrics` turns the spans into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

import hopqa.autograd as ag
import hopqa.checkpoint as checkpoint
import hopqa.data as data
import hopqa.encoder as encoder
import hopqa.hops as hops
import hopqa.model as model
import hopqa.support as support
import hopqa.train as train

# Autograd ops the model calls, by the name callers use after `ag.`.
AG_OPS = ("matmul", "add", "sub", "mul", "smul", "one_minus", "tanh",
          "sigmoid", "softmax", "logsumexp", "gather_rows", "take_row",
          "stack_rows", "concat", "transpose", "reshape", "dot", "pick")
BW_OPS = ("gru_step",) + AG_OPS

LAYERS = ("autograd", "encoder", "support", "hops", "train", "model", "data",
          "checkpoint")

# Setup calls: (module, attribute, span name, layer). `init_params` is
# patched in every module that imported it by name.
SETUP_CALLS = (
    (data, "generate_splits", "data.generate", "data"),
    (data, "save_canonical", "data.save_canonical", "data"),
    (data, "load_canonical", "data.load_canonical", "data"),
    (checkpoint, "save_checkpoint", "checkpoint.save", "checkpoint"),
    (checkpoint, "load_checkpoint", "checkpoint.load", "checkpoint"),
    (model, "init_params", "model.init_params", "model"),
    (train, "init_params", "model.init_params", "model"),
    (checkpoint, "init_params", "model.init_params", "model"),
)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread, so the children of a span run one after
    another inside it and the covered time is the sum of their durations.
    `parent` holds the index of the parent span, or -1 for a root.
    """
    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


def tape_nodes(loss) -> int:
    """Number of tensors reachable from `loss` through `parents`."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for p in todo.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


class Tracer:
    def __init__(self, example_index: dict[int, int] | None = None):
        self.example_index = example_index or {}
        self.current_example = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.example = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self._last_error = None

    # -- recording -----------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def error(self, layer: str, exc: BaseException) -> None:
        """Count an exception once, in the innermost layer it left."""
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[layer] += 1

    def span(self, name: str, layer: str, fn, /, *args, **kwargs):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.example.append(self.current_example)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            self.error(layer, e)
            raise
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, layer, fn, after=None):
        def wrapped(*args, **kwargs):
            out = self.span(name, layer, fn, *args, **kwargs)
            if after is not None:
                after(out)
            return out
        return wrapped

    def _op(self, op, layer, fn):
        span_name = "bw." + op

        def wrapped(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                self.error(layer, e)
                raise
            self.count("op." + op)
            bw = out.backward_fn
            if bw is not None:
                out.backward_fn = (
                    lambda g: self.span(span_name, "autograd", bw, g))
            return out
        return wrapped

    def _forward_pass(self, fn):
        def wrapped(example, *args, **kwargs):
            self.current_example = self.example_index.get(id(example), -1)
            self.count("forward_passes")
            return self.span("hops.forward_pass", "hops", fn, example, *args,
                             **kwargs)
        return wrapped

    def _backward(self, fn):
        def wrapped(loss, *args, **kwargs):
            n = self.span("trace.tape_count", "autograd", tape_nodes, loss)
            self.count("tape_nodes", n)
            self.count("backward_calls")
            return self.span("autograd.backward", "autograd", fn, loss, *args,
                             **kwargs)
        return wrapped

    def _patches(self):
        """(object, attribute, replacement) for every traced name."""
        cnt = self.count
        out = [(ag, op, self._op(op, "autograd", getattr(ag, op)))
               for op in AG_OPS]
        out += [
            (encoder, "gru_step", self._op("gru_step", "encoder",
                                           encoder.gru_step)),
            (support, "embed_sequence", self._spanned(
                "encoder.embed_sequence", "encoder", support.embed_sequence)),
            (support, "bigru_encode", self._spanned(
                "encoder.bigru_encode", "encoder", support.bigru_encode)),
            (hops, "build_support", self._spanned(
                "support.build_support", "support", hops.build_support,
                lambda s: cnt("support_pairs", s.m))),
            (hops, "stacked", self._spanned(
                "support.stacked", "support", hops.stacked)),
            (hops, "run_hops", self._spanned(
                "hops.run_hops", "hops", hops.run_hops,
                lambda r: cnt("hops", len(r.traces)))),
            (train, "forward_pass", self._forward_pass(train.forward_pass)),
            (train, "loss_from_scores", self._spanned(
                "train.loss_from_scores", "train", train.loss_from_scores)),
            (ag, "backward", self._backward(ag.backward)),
            (train.Adam, "step", self._spanned(
                "train.adam_step", "train", train.Adam.step,
                lambda r: cnt("adam_steps"))),
            (train, "evaluate", self._spanned(
                "train.evaluate", "train", train.evaluate,
                lambda r: cnt("eval_examples", len(r.predictions)))),
            (train, "train", self._spanned(
                "train.train", "train", train.train,
                lambda r: cnt("train_calls"))),
        ]
        for mod, attr, name, layer in SETUP_CALLS:
            out.append((mod, attr, self._spanned(
                name, layer, getattr(mod, attr),
                lambda r, name=name: cnt("calls." + name))))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        saved = []
        try:
            for obj, attr, fn in self._patches():
                saved.append((obj, attr, obj.__dict__[attr]))
                setattr(obj, attr, fn)
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "example": np.array(self.example, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed self time and summed duration, seconds."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        n = len(self.names)
        self_sum = np.bincount(a["name"], weights=own, minlength=n)
        dur_sum = np.bincount(a["name"], weights=a["end"] - a["start"],
                              minlength=n)
        return (dict(zip(self.names, self_sum.tolist())),
                dict(zip(self.names, dur_sum.tolist())))

    def nested_duration(self, name: str, under: str) -> float:
        """Summed duration of `name` spans whose parent chain holds `under`."""
        a = self.arrays()
        if name not in self._name_ids or under not in self._name_ids:
            return 0.0
        nid, uid = self._name_ids[name], self._name_ids[under]
        total = 0.0
        for i in np.flatnonzero(a["name"] == nid):
            p = a["parent"][i]
            while p >= 0 and a["name"][p] != uid:
                p = a["parent"][p]
            if p >= 0:
                total += a["end"][i] - a["start"][i]
        return total


def layer_metrics(setup: Tracer, loop: Tracer, traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from the set-up spans and the timed-loop spans.

    Times are self times in ms per forward pass, per backward pass (one per
    training example) or per Adam step; set-up layers are seconds per call.
    `train.eval_ms` is the whole `evaluate` call per example scored.
    """
    own, dur = loop.totals()
    c = loop.counts

    def per(total_s, n, scale=1e3):
        return total_s * scale / n if n else 0.0

    n_fwd = c.get("forward_passes", 0)
    n_bwd = c.get("backward_calls", 0)
    n_steps = c.get("adam_steps", 0)
    m = {
        "autograd.backward_ms": per(own.get("autograd.backward", 0.0), n_bwd),
    }
    for op in BW_OPS:
        m[f"autograd.bw_ms.{op}"] = per(own.get("bw." + op, 0.0), n_bwd)
    m["autograd.tape_nodes"] = per(c.get("tape_nodes", 0), n_bwd, 1)
    m["encoder.embed_ms"] = per(own.get("encoder.embed_sequence", 0.0), n_fwd)
    m["encoder.bigru_ms"] = per(own.get("encoder.bigru_encode", 0.0), n_fwd)
    m["encoder.gru_steps"] = per(c.get("op.gru_step", 0), n_fwd, 1)
    m["support.build_ms"] = per(own.get("support.build_support", 0.0), n_fwd)
    m["support.stack_ms"] = per(own.get("support.stacked", 0.0), n_fwd)
    m["support.pairs"] = per(c.get("support_pairs", 0), n_fwd, 1)
    m["hops.run_ms"] = per(own.get("hops.run_hops", 0.0), n_fwd)
    m["hops.forward_ms"] = per(own.get("hops.forward_pass", 0.0), n_fwd)
    m["hops.hops"] = per(c.get("hops", 0), n_fwd, 1)
    m["train.loss_ms"] = per(own.get("train.loss_from_scores", 0.0), n_bwd)
    m["train.loop_ms"] = per(own.get("train.train", 0.0), n_bwd)
    m["train.adam_ms"] = per(own.get("train.adam_step", 0.0), n_steps)
    m["train.adam_steps"] = per(n_steps, c.get("train_calls", 0), 1)
    m["train.eval_ms"] = per(dur.get("train.evaluate", 0.0),
                             c.get("eval_examples", 0))
    m["train.dev_eval_share"] = per(
        loop.nested_duration("train.evaluate", "train.train"),
        dur.get("train.train", 0.0), 1)

    s_own, _ = setup.totals()
    sc = setup.counts
    for key, name in (("model.init_params_s", "model.init_params"),
                      ("data.generate_s", "data.generate"),
                      ("data.save_canonical_s", "data.save_canonical"),
                      ("data.load_canonical_s", "data.load_canonical"),
                      ("checkpoint.save_s", "checkpoint.save"),
                      ("checkpoint.load_s", "checkpoint.load")):
        m[key] = per(s_own.get(name, 0.0), sc.get("calls." + name, 0), 1)
    for layer in LAYERS:
        m[f"{layer}.errors"] = setup.errors[layer] + loop.errors[layer]

    traced, untraced = np.median(traced_walls), np.median(untraced_walls)
    m["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    m["trace.coverage"] = sum(own.values()) / sum(traced_walls)
    return m


def roadmap_split(m: dict[str, float], loop: Tracer) -> dict[str, float]:
    """The traced split in the terms of the ROADMAP baseline, ms per example:
    forward parts per forward pass, backward per training example, and one
    training step (train-mode forward, loss and backward) per example."""
    _, dur = loop.totals()
    n_bwd = loop.counts.get("backward_calls", 0)
    fwd_train = (dur.get("hops.forward_pass", 0.0)
                 - loop.nested_duration("hops.forward_pass", "train.evaluate"))
    step = (fwd_train + dur.get("train.loss_from_scores", 0.0)
            + dur.get("autograd.backward", 0.0))
    return {
        "encode_support_ms": m["encoder.embed_ms"] + m["encoder.bigru_ms"]
        + m["support.build_ms"] + m["support.stack_ms"],
        "hops_loss_ms": m["hops.run_ms"] + m["hops.forward_ms"]
        + m["train.loss_ms"],
        "backward_ms": m["autograd.backward_ms"]
        + sum(m[f"autograd.bw_ms.{op}"] for op in BW_OPS),
        "eval_ms": m["train.eval_ms"],
        "tape_nodes": m["autograd.tape_nodes"],
        "train_step_ms": step * 1e3 / n_bwd if n_bwd else 0.0,
    }
