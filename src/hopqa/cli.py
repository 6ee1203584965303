"""Command-line entry points: generate data, train, evaluate, inspect.

All commands are deterministic given their flags and seeds; each run writes a
manifest recording the config snapshot and content hashes of its inputs and
outputs. Exit codes: 0 ok, 1 runtime failure, 2 config/data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (load_checkpoint, result_meta, resume_bundle,
                         save_checkpoint)
from .data import (Dataset, SynthConfig, generate_splits, load_canonical,
                   load_cbt, save_canonical)
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
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def cmd_gen(args) -> int:
    cfg_dict = _read_json(args.config) if args.config else {}
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    try:
        cfg = SynthConfig(**cfg_dict)
    except TypeError as e:
        raise ConfigError(f"bad generator config: {e}") from e
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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


def _load_split_file(path, vocab, loader):
    if not Path(path).exists():
        raise DataError(f"dataset file not found: {path}")
    return loader(path, vocab=vocab, name=Path(path).stem)


def _load_dir(data_dir, cbt: bool = False):
    loader = load_cbt if cbt else load_canonical
    data_dir = Path(data_dir)
    train_set = _load_split_file(data_dir / "train.jsonl", None, loader)
    vocab = train_set.vocab
    dev_set = _load_split_file(data_dir / "dev.jsonl", vocab, loader)
    test_path = data_dir / "test.jsonl"
    if test_path.exists():
        _load_split_file(test_path, vocab, loader)  # extend vocab only
    return train_set, dev_set


def cmd_train(args) -> int:
    cfg_dict = _read_json(args.config) if args.config else {}
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    if args.identity_eo:
        cfg_dict["identity_eo"] = True
    if args.dev_subsample is not None:
        cfg_dict["dev_subsample"] = args.dev_subsample
    try:
        config = TrainConfig.from_dict(cfg_dict)
    except TypeError as e:
        raise ConfigError(f"bad training config: {e}") from e

    train_set, dev_set = _load_dir(args.data, cbt=args.cbt)
    resume = None
    if args.resume:
        resume = resume_bundle(load_checkpoint(args.resume))
    result = train(config, train_set, dev_set, resume=resume)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = result_meta(result)
    save_checkpoint(out / "best.ckpt", config=config,
                    params=result.best_params, vocab=train_set.vocab,
                    optimizer=result.optimizer,
                    meta={**meta, "dev_acc": result.best_acc,
                          "step": result.best_step,
                          "epoch": result.best_epoch})
    save_checkpoint(out / "last.ckpt", config=config,
                    params=result.final_params, vocab=train_set.vocab,
                    optimizer=result.optimizer, meta=meta)
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
        "metrics": result.metrics,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    print(f"best dev accuracy {result.best_acc:.4f} at step "
          f"{result.best_step} (epoch {result.best_epoch}); "
          f"ran {result.epochs_run} epochs")
    return 0


def _parse_sweep(spec: str) -> list[int]:
    try:
        lo, hi = spec.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as e:
        raise ConfigError(f"bad --hop-sweep {spec!r}, expected a..b") from e
    if lo < 1 or hi < lo:
        raise ConfigError(f"bad --hop-sweep range {spec!r}")
    return list(range(lo, hi + 1))


def _load_eval_dataset(path, vocab, cbt: bool):
    loader = load_cbt if cbt else load_canonical
    return _load_split_file(path, vocab, loader)


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
    dataset = _load_eval_dataset(args.data, bundle.vocab, args.cbt)
    hop_counts = _parse_sweep(args.hop_sweep) if args.hop_sweep \
        else [args.hops or bundle.config.hops]
    print("hops\taccuracy")
    for hops in hop_counts:
        res = evaluate(bundle.params, dataset, hops,
                       max_examples=args.limit or 0)
        print(f"{hops}\t{res.accuracy:.4f}")
    return 0


def cmd_inspect(args) -> int:
    _check_positive(args, "hops")
    bundle = load_checkpoint(args.checkpoint)
    dataset = _load_eval_dataset(args.data, bundle.vocab, args.cbt)
    if not 0 <= args.example < len(dataset.examples):
        raise DataError(f"example index {args.example} out of range "
                        f"[0, {len(dataset.examples)})")
    ex = dataset.examples[args.example]
    hops = args.hops or bundle.config.hops
    vocab = dataset.vocab
    fr = forward_pass(ex, bundle.params, vocab, hops)
    gates = ", ".join(f"{t.g_a:.3f}" for t in fr.traces)
    print(f"example {args.example}: gold={vocab.tokens[ex.gold]} "
          f"predicted={vocab.tokens[fr.predicted_symbol]} "
          f"[answer gates: {gates}]")
    for t in fr.traces:
        tops = np.argsort(t.alpha)[::-1][:5]
        desc = "  ".join(
            f"{vocab.tokens[ex.document.symbols[t.spans[i][0] - 1]]}"
            f"@{t.spans[i][0]}:{t.alpha[i]:.3f}" for i in tops)
        print(f"  hop {t.hop}: eta={t.eta:.3f} g_a={t.g_a:.3f} "
              f"g_q_mean={t.g_q_mean:.3f}  {desc}")
    if args.ablate_query_gate:
        fr2 = forward_pass(ex, bundle.params, vocab, hops,
                           ablate_query_gate=True)
        print(f"with query gate ablated: predicted="
              f"{vocab.tokens[fr2.predicted_symbol]} "
              f"(original {vocab.tokens[fr.predicted_symbol]})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            for t in fr.traces:
                f.write(json.dumps(t.to_record()) + "\n")
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
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--identity-eo", action="store_true",
                   help="freeze output embeddings to the identity "
                   "(attention-sum scoring)")
    t.add_argument("--dev-subsample", type=int, default=None)
    t.add_argument("--resume", help="continue from a last.ckpt")
    t.add_argument("--cbt", action="store_true",
                   help="read datasets in CBT plain-text layout")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True, help="dataset file")
    e.add_argument("--hops", type=int, default=None)
    e.add_argument("--hop-sweep", help="inclusive range a..b")
    e.add_argument("--limit", type=int, default=None)
    e.add_argument("--cbt", action="store_true")
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("inspect", help="dump per-hop attention traces")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--data", required=True)
    i.add_argument("--example", type=int, required=True)
    i.add_argument("--hops", type=int, default=None)
    i.add_argument("--ablate-query-gate", action="store_true")
    i.add_argument("--out", help="write the trace as JSON lines")
    i.add_argument("--cbt", action="store_true")
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
        print(f"failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
