"""Versioned checkpoint container: one .npz file holding every named
parameter tensor, the config, the vocab and, for a resumable checkpoint,
the Adam moments and the `RunState` (its best-dev snapshot as `best/<name>`
arrays). Round-trips are bit-exact (float64 arrays stored as-is)."""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .data import Vocab
from .exceptions import ConfigError, DataError
# benches/tracer.py patches the name checkpoint.init_params
from .model import ModelParams, init_params, make_params  # noqa: F401
from .train import Adam, RunState, TrainConfig

FORMAT_VERSION = 1


@dataclass
class CheckpointBundle:
    config: TrainConfig
    params: ModelParams
    vocab: Vocab
    optimizer_state: dict | None
    run: RunState | None
    meta: dict


def save_checkpoint(path, *, config: TrainConfig, params: ModelParams,
                    vocab: Vocab, optimizer: Adam | None = None,
                    run: RunState | None = None,
                    meta: dict | None = None) -> None:
    arrays = {}
    for name, t in params.named():
        arrays[f"param/{name}"] = t.data
    if optimizer is not None:
        state = optimizer.state_dict()
        for name, a in state["m"].items():
            arrays[f"adam_m/{name}"] = a
        for name, a in state["v"].items():
            arrays[f"adam_v/{name}"] = a
        opt_meta = {"t": state["t"], "lr": state["lr"]}
    else:
        opt_meta = None
    run_meta = None
    if run is not None:
        run_meta, best = run.to_checkpoint()
        arrays.update(best)
    header = {
        "version": FORMAT_VERSION,
        "config": asdict(config),
        "vocab": vocab.to_dict(),
        "optimizer": opt_meta,
        "run": run_meta,
        "meta": meta or {},
    }
    arrays["header"] = np.array(json.dumps(header))
    # a crash mid-write leaves the previous file whole: write a sibling
    # temporary file, then rename it over `path` in one step
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _arrays(npz, path, prefix: str, shapes: dict) -> dict[str, np.ndarray]:
    """The `<prefix>/<name>` array of every name in `shapes`; a missing one
    or a wrong shape is a `DataError` naming the file and the array."""
    out = {}
    for name, shape in shapes.items():
        key = f"{prefix}/{name}"
        if key not in npz.files:
            raise DataError(f"{path}: checkpoint lacks array {key}")
        out[name] = npz[key]
        if out[name].shape != shape:
            raise DataError(f"{path}: checkpoint array {key} has shape "
                            f"{out[name].shape}, expected {shape}")
    return out


def _count(v) -> bool:
    return type(v) is int and v >= 0


def _real(v) -> bool:
    """A JSON number, as `check_field_types` takes one for a float field: an
    int `lr0` or evaluator accuracy is saved as an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _acc(v) -> bool:
    return v is None or _real(v)


# each key of a resumable checkpoint's `optimizer` and `run` headers, with
# the test its value must pass
HEADER_KEYS = {
    "optimizer": {"t": _count, "lr": lambda v: _real(v) and v > 0},
    "run": {"step": _count, "epochs_run": _count, "last_ckpt_acc": _acc,
            "prev_epoch_acc": _acc, "best_acc": _real,
            "best_step": _count, "best_epoch": _count,
            "rng_state": lambda v: isinstance(v, dict)},
}


def _header(path, header: dict, part: str) -> dict:
    """`header[part]`, refused with a `DataError` naming the file and the
    key unless it holds exactly the keys of `HEADER_KEYS[part]`, each value
    passing its test."""
    obj, tests = header[part], HEADER_KEYS[part]
    keys = obj.keys() if isinstance(obj, dict) else set()
    for name in sorted(keys | tests.keys()):
        if name not in tests or name not in keys or not tests[name](obj[name]):
            what = ("unknown" if name not in tests else "missing"
                    if name not in keys else f"bad value {obj[name]!r}")
            raise DataError(f"{path}: checkpoint header key {part}.{name}: "
                            f"{what}")
    return obj


def load_checkpoint(path) -> CheckpointBundle:
    try:
        npz = np.load(path, allow_pickle=False)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    if not isinstance(npz, np.lib.npyio.NpzFile) or "header" not in npz.files:
        raise DataError(f"{path} is not a checkpoint: no header array")
    with npz:
        try:
            header = json.loads(str(npz["header"]))
        except ValueError as e:
            raise DataError(f"{path}: checkpoint header is not JSON: "
                            f"{e}") from e
        if not (isinstance(header, dict)
                and {"version", "config", "vocab"} <= header.keys()):
            raise DataError(f"{path}: checkpoint header lacks version, "
                            f"config or vocab")
        if header["version"] != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version "
                            f"{header['version']}")
        try:
            config = TrainConfig(**header["config"])
            vocab = Vocab.from_dict(header["vocab"])
        except (TypeError, KeyError, ConfigError) as e:
            raise DataError(f"{path}: bad checkpoint config or vocab: "
                            f"{e}") from e
        params = make_params(
            {k[len("param/"):]: npz[k] for k in npz.files
             if k.startswith("param/")},
            config.h, vocab.size, vocab.n_answers, config.identity_eo)
        # the Adam moments and the best-dev snapshot are checked here, so a
        # damaged resumable checkpoint is refused before any training
        trainable = {n: t.data.shape for n, t in params.trainable()}
        opt_state = None
        if header.get("optimizer") is not None:
            opt_state = {
                **_header(path, header, "optimizer"),
                "m": _arrays(npz, path, "adam_m", trainable),
                "v": _arrays(npz, path, "adam_v", trainable),
            }
        run = None
        if header.get("run") is not None:
            best = None
            if any(k.startswith("best/") for k in npz.files):
                best = _arrays(npz, path, "best",
                               {n: t.data.shape for n, t in params.named()})
            run = RunState(**_header(path, header, "run"), best=best)
    return CheckpointBundle(config=config, params=params, vocab=vocab,
                            optimizer_state=opt_state, run=run,
                            meta=header.get("meta", {}))
