"""Command-line entry points: generate data, train, evaluate, inspect.

All commands are deterministic given their flags and seeds; each run writes a
manifest recording the config snapshot and content hashes of its inputs and
outputs. Exit codes: 0 ok, 1 runtime failure, 2 config/data error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import BLAS_THREADS
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (Dataset, SynthConfig, generate_splits, load_dataset,
                   save_canonical)
from .encoder import direction_threads
from .exceptions import ConfigError, DataError, ParseError
from .hops import forward_pass
from .train import TrainConfig, evaluate, train


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


@contextlib.contextmanager
def _out_dir(path):
    """Create the output directory before any work, so a path that cannot
    be one fails before the run rather than after it. If the block raises,
    the directories this call created are removed, deepest first, while
    they are empty, and the error propagates."""
    out = Path(path)
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory {out}: "
                              f"{e}") from e
        yield out
    except BaseException:
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def cmd_gen(args) -> int:
    cfg_dict = _read_json(args.config) if args.config else {}
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    try:
        cfg = SynthConfig(**cfg_dict)
    except TypeError as e:
        raise ConfigError(f"bad generator config: {e}") from e
    with _out_dir(args.out) as out:
        splits = generate_splits(cfg)
    files = {}
    for ds in splits:
        path = out / f"{ds.name}.jsonl"
        save_canonical(ds, path)
        files[ds.name] = {"path": str(path), "sha256": _sha256(path),
                          "examples": len(ds.examples)}
    manifest = {"command": "gen", "config": cfg.__dict__, "files": files}
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    print(f"wrote {', '.join(sorted(files))} to {out}")
    return 0


def _read(path, vocab) -> Dataset:
    """Read one dataset file in whichever layout it holds (see
    `data.load_dataset`), extending `vocab` (a new one when None)."""
    try:
        return load_dataset(path, vocab=vocab, name=Path(path).stem)
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read dataset {path}: {e}") from e


def _load_dir(data_dir):
    data_dir = Path(data_dir)
    train_set = _read(data_dir / "train.jsonl", None)
    vocab = train_set.vocab
    dev_set = _read(data_dir / "dev.jsonl", vocab)
    test_path = data_dir / "test.jsonl"
    if test_path.exists():
        _read(test_path, vocab)  # extend vocab only
    return train_set, dev_set


def cmd_train(args) -> int:
    resume = load_checkpoint(args.resume) if args.resume else None
    if args.config:
        try:
            config = TrainConfig(**_read_json(args.config))
        except TypeError as e:
            raise ConfigError(f"bad training config: {e}") from e
    else:  # a resumed run's own config, else the defaults
        config = resume.config if resume else TrainConfig()

    train_set, dev_set = _load_dir(args.data)
    with _out_dir(args.out) as out:
        result = train(config, train_set, dev_set, resume=resume)
    state = result.state
    if result.skipped:
        print(f"skipped: {result.skipped} of {len(train_set.examples)} "
              f"training examples have no support pair (no candidate occurs "
              f"in the document)", file=sys.stderr)
    save_checkpoint(out / "best.ckpt", config=config,
                    params=result.best_params, vocab=train_set.vocab,
                    meta={"dev_acc": state.best_acc, "step": state.best_step,
                          "epoch": state.best_epoch})
    save_checkpoint(out / "last.ckpt", config=config,
                    params=result.final_params, vocab=train_set.vocab,
                    optimizer=result.optimizer, run=state)
    with open(out / "metrics.jsonl", "w", encoding="utf-8") as f:
        for row in result.metrics:
            f.write(json.dumps(row) + "\n")
    data_dir = Path(args.data)
    manifest = {
        "command": "train",
        "config": config.__dict__,
        "datasets": {p.name: _sha256(p)
                     for p in sorted(data_dir.glob("*.jsonl"))},
        "checkpoints": {"best": _sha256(out / "best.ckpt"),
                        "last": _sha256(out / "last.ckpt")},
        "skipped": result.skipped,
        "blas_threads": BLAS_THREADS,
        "encoder_threads": direction_threads(),
        "metrics": result.metrics,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    print(f"best dev accuracy {state.best_acc:.4f} at step "
          f"{state.best_step} (epoch {state.best_epoch}); "
          f"ran {state.epochs_run} epochs")
    return 0


def _parse_sweep(spec: str) -> range:
    try:
        lo, hi = spec.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as e:
        raise ConfigError(f"bad --hop-sweep {spec!r}, expected a..b") from e
    if lo < 1 or hi < lo:
        raise ConfigError(f"bad --hop-sweep range {spec!r}")
    return range(lo, hi + 1)


def _read_for_checkpoint(path, bundle) -> Dataset:
    """Read a dataset to score with `bundle`. A file that adds tokens or
    answer symbols has no parameter rows for them, and one without examples
    has no accuracy: both are refused before anything is printed."""
    vocab = bundle.vocab
    n_tokens, n_answers = vocab.size, vocab.n_answers
    dataset = _read(path, vocab)
    new = list(dict.fromkeys(vocab.tokens[n_tokens:]
                             + vocab.answer_tokens[n_answers:]))
    if new:
        raise DataError(
            f"{path}: {len(new)} token(s) unknown to the checkpoint's vocab "
            f"or answer symbols, e.g. {', '.join(map(repr, new[:5]))}")
    if not dataset.examples:
        raise DataError(f"{path}: no examples")
    return dataset


def _check_positive(args, *flags) -> None:
    """Reject a given flag below 1 instead of reading 0 as unset."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ConfigError(f"--{flag} must be at least 1, got {value}")


def cmd_eval(args) -> int:
    _check_positive(args, "hops", "limit")
    if args.hops is not None and args.hop_sweep:
        raise ConfigError("--hops and --hop-sweep cannot be combined")
    bundle = load_checkpoint(args.checkpoint)
    dataset = _read_for_checkpoint(args.data, bundle)
    hop_counts = _parse_sweep(args.hop_sweep) if args.hop_sweep \
        else [args.hops or bundle.config.hops]
    print("hops\taccuracy")
    for hops in hop_counts:
        res = evaluate(bundle.params, dataset, hops,
                       max_examples=args.limit or 0)
        print(f"{hops}\t{res.accuracy:.4f}")
    if res.abstained:
        print(f"abstained: {res.abstained} of {len(res.predictions)} "
              f"examples have no support pair (no candidate occurs in the "
              f"document) and count as wrong", file=sys.stderr)
    return 0


def cmd_inspect(args) -> int:
    _check_positive(args, "hops")
    bundle = load_checkpoint(args.checkpoint)
    dataset = _read_for_checkpoint(args.data, bundle)
    if not 0 <= args.example < len(dataset.examples):
        raise DataError(f"example index {args.example} out of range "
                        f"[0, {len(dataset.examples)})")
    ex = dataset.examples[args.example]
    hops = args.hops or bundle.config.hops
    vocab = dataset.vocab
    if not ex.positions:
        raise DataError(f"example {args.example} has no support pair: none "
                        f"of its candidates occurs in its document")
    fr = forward_pass(ex, bundle.params, vocab, hops)
    if args.out:  # before any output, so a bad path prints nothing
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                # the trace format keeps one [l, l] span per support row
                for t in fr.traces:
                    f.write(json.dumps({
                        "hop": t.hop, "alpha": [float(a) for a in t.alpha],
                        "spans": [[l, l] for l in ex.positions],
                        "g_a": t.g_a, "eta": t.eta,
                        "g_q_mean": t.g_q_mean}) + "\n")
        except OSError as e:
            raise ConfigError(f"cannot write trace {args.out}: {e}") from e
    predicted = vocab.tokens[ex.candidates[fr.prediction]]
    gates = ", ".join(f"{t.g_a:.3f}" for t in fr.traces)
    print(f"example {args.example}: gold={vocab.tokens[ex.gold]} "
          f"predicted={predicted} [answer gates: {gates}]")
    for t in fr.traces:
        tops = np.argsort(t.alpha)[::-1][:5]
        desc = "  ".join(
            f"{vocab.tokens[ex.document.symbols[ex.positions[i] - 1]]}"
            f"@{ex.positions[i]}:{t.alpha[i]:.3f}" for i in tops)
        print(f"  hop {t.hop}: eta={t.eta:.3f} g_a={t.g_a:.3f} "
              f"g_q_mean={t.g_q_mean:.3f}  {desc}")
    if args.ablate_query_gate:
        fr2 = forward_pass(ex, bundle.params, vocab, hops,
                           ablate_query_gate=True)
        print(f"with query gate ablated: predicted="
              f"{vocab.tokens[ex.candidates[fr2.prediction]]} "
              f"(original {predicted})")
    if args.out:
        print(f"trace written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hopqa",
        description="multi-hop cloze query answering over support pairs")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic dataset splits")
    g.add_argument("--config", help="JSON file with generator settings")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", help="JSON file with training settings")
    t.add_argument("--data", required=True, help="directory with "
                   "train.jsonl/dev.jsonl")
    t.add_argument("--out", required=True)
    t.add_argument("--resume", help="continue from a last.ckpt, under its "
                   "own config unless --config is given")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True, help="dataset file")
    e.add_argument("--hops", type=int, default=None)
    e.add_argument("--hop-sweep", help="inclusive range a..b")
    e.add_argument("--limit", type=int, default=None)
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("inspect", help="dump per-hop attention traces")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--data", required=True)
    i.add_argument("--example", type=int, required=True)
    i.add_argument("--hops", type=int, default=None)
    i.add_argument("--ablate-query-gate", action="store_true")
    i.add_argument("--out", help="write the trace as JSON lines")
    i.set_defaults(func=cmd_inspect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        # the type too: a bare MemoryError has no message of its own
        name = type(e).__name__
        print(f"failure: {name}: {e}" if str(e) else f"failure: {name}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
