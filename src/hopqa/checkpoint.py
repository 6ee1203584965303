"""Versioned checkpoint container, the one module that knows its format:
one .npz file of `param/<name>` arrays and a JSON `header` (version,
config, vocab, `meta`). A resumable checkpoint adds, written, read and
required together, the `RunState` (its scalars as the header's `run` part,
its best-dev snapshot as `best/<name>` arrays) and the Adam moments
(`adam_m/<name>`, `adam_v/<name>`). Round-trips are bit-exact."""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Vocab
from .exceptions import ConfigError, DataError
# benches/tracer.py patches the name checkpoint.init_params
from .model import (ModelParams, init_params,  # noqa: F401
                    make_params, param_shapes)
from .train import Adam, RunState, TrainConfig

FORMAT_VERSION = 3


@dataclass
class CheckpointBundle:
    config: TrainConfig
    params: ModelParams
    vocab: Vocab
    # the Adam moments, {"m": {name: array}, "v": {name: array}}, and the
    # run state: both None (a best.ckpt) or both present (a last.ckpt)
    optimizer_state: dict | None
    run: RunState | None
    meta: dict


def save_checkpoint(path, *, config: TrainConfig, params: ModelParams,
                    vocab: Vocab, optimizer: Adam | None = None,
                    run: RunState | None = None,
                    meta: dict | None = None) -> None:
    """Write a checkpoint; with `optimizer` and `run` (which must have
    recorded a measurement, so it holds a best snapshot) a resumable one."""
    arrays = {f"param/{n}": t.data for n, t in params.named()}
    run_meta = None
    if optimizer is not None or run is not None:
        if optimizer is None or run is None or run.best is None:
            raise ValueError("a resumable checkpoint needs the optimizer and "
                             "a run state with a best snapshot")
        run_meta = {f.name: getattr(run, f.name) for f in fields(run)
                    if f.name != "best"}
        for prefix, named in (("best", run.best), ("adam_m", optimizer.m),
                              ("adam_v", optimizer.v)):
            arrays.update({f"{prefix}/{n}": a for n, a in named.items()})
    header = {
        "version": FORMAT_VERSION,
        "config": asdict(config),
        "vocab": vocab.to_dict(),
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


def _finite(npz, path, key: str) -> np.ndarray:
    """`npz[key]`, refused with a `DataError` if it holds a NaN or inf."""
    a = npz[key]
    if a.dtype.kind in "fc" and not np.isfinite(a).all():
        raise DataError(f"{path}: checkpoint array {key} holds a non-finite "
                        f"value")
    return a


def _arrays(npz, path, prefix: str, shapes: dict) -> dict[str, np.ndarray]:
    """The `<prefix>/<name>` array of every name in `shapes`, read-only; a
    missing, misshapen or non-finite one is a `DataError` naming the file
    and it."""
    out = {}
    for name, shape in shapes.items():
        key = f"{prefix}/{name}"
        if key not in npz.files:
            raise DataError(f"{path}: checkpoint lacks array {key}")
        out[name] = _finite(npz, path, key)
        out[name].setflags(write=False)
        if out[name].shape != shape:
            raise DataError(f"{path}: checkpoint array {key} has shape "
                            f"{out[name].shape}, expected {shape}")
    return out


def _takes(name: str, value) -> bool:
    """Whether `RunState` takes `value` for `name`; a saved run holds the
    `rng_state` a resumed run restores."""
    try:
        RunState(**{name: value})
    except ConfigError:
        return False
    return value is not None or name != "rng_state"


def _run_state(path, obj, best) -> RunState:
    """The `run` header `obj` as a `RunState` with the snapshot `best`,
    refused with a `DataError` naming the file and the key unless it holds
    exactly the fields of `RunState` but `best`, each a value it takes."""
    names = {f.name for f in fields(RunState)} - {"best"}
    keys = obj.keys() if isinstance(obj, dict) else set()
    for name in sorted(keys | names):
        if (name not in names or name not in keys
                or not _takes(name, obj[name])):
            what = ("unknown" if name not in names else "missing"
                    if name not in keys else f"bad value {obj[name]!r}")
            raise DataError(f"{path}: checkpoint header key run.{name}: "
                            f"{what}")
    return RunState(**obj, best=best)


def load_checkpoint(path) -> CheckpointBundle:
    """Read and check a checkpoint. Its arrays are read-only, so an in-place
    write to the loaded model raises `ValueError`, and `train.evaluate` may
    reuse what it built from them; `train(resume=)` trains copies."""
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
        dims = (config.h, vocab.size, vocab.n_answers, config.identity_eo)
        shapes = param_shapes(*dims)
        params = make_params(_arrays(npz, path, "param", shapes), *dims)
        # the run state, the best-dev snapshot and the Adam moments are
        # checked here, so a damaged resumable checkpoint is refused before
        # any training
        opt_state = run = None
        if header.get("run") is not None:
            run = _run_state(path, header["run"],
                             _arrays(npz, path, "best", shapes))
            trainable = {n: shapes[n] for n, _ in params.trainable()}
            opt_state = {m: _arrays(npz, path, f"adam_{m}", trainable)
                         for m in ("m", "v")}
    return CheckpointBundle(config=config, params=params, vocab=vocab,
                            optimizer_state=opt_state, run=run,
                            meta=header.get("meta", {}))
