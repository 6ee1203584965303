"""Run one benchmark workload and print its result as the last line.

    python3 benches/run.py --workload train-h16 --seed 0 --seconds 40 --trace 0

With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json,
with `--trace 1` the per-layer metrics. The line before it carries the
provenance of the run. Full results and the spans of a traced run are
written under benches/out/. Every workload is one closed loop in this one
process, with one BLAS thread.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

# On a shared host the speed of interpreted code drifts by up to 50% within
# minutes as other tenants load the cores; BLAS-bound code drifts far less.
# The speed index, the time of a fixed pass of Python integer arithmetic and
# small numpy calls (what h=16 hopqa spends its time on) measured before and
# after every timed operation, follows that drift. Times of an
# interpreter-bound workload are scaled to a host on which a pass takes
# INDEX_REF_S, which takes most of the drift out of a comparison of commits;
# the unscaled values go into the provenance line.
INDEX_PASSES = 3
INDEX_LOOP = 100_000
INDEX_NUMPY_CALLS = 1_500
INDEX_REF_S = 0.015


def pin_blas_threads() -> dict:
    """Set one BLAS thread; must run before numpy is imported."""
    before = {k: os.environ.get(k) for k in BLAS_ENV}
    for k in BLAS_ENV:
        os.environ[k] = "1"
    return before


def import_hopqa():
    """Import hopqa from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    try:
        import hopqa
    except ImportError as e:
        raise SystemExit(f"error: cannot import hopqa from {SRC}: {e}")
    if not Path(hopqa.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: hopqa imported from {hopqa.__file__}, "
                         f"not from {SRC}")
    return hopqa


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hopqa").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(blas_env_before, seed, data_seed, load_before) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": 1,
        "blas_threads_set_by": "benches/run.py sets " + ", ".join(BLAS_ENV)
                               + " to 1 before importing numpy",
        "blas_env_before": blas_env_before,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "data_seed": data_seed,
    }


def speed_index() -> list[float]:
    """Seconds per pass of the fixed speed-index loop, INDEX_PASSES passes."""
    import numpy as np
    x, w = np.ones(16), np.full((16, 16), 0.1)
    passes = []
    for _ in range(INDEX_PASSES):
        t = time.perf_counter()
        acc = 0
        for i in range(INDEX_LOOP):
            acc += i * i % 7
        v = x
        for _ in range(INDEX_NUMPY_CALLS):
            v = np.tanh(w @ v * 0.5 + x)
        passes.append(time.perf_counter() - t)
    return passes


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_reps(wl, state, ref, seconds, tracer):
    """Timed operations while the next one, as long as the longest so far,
    still ends within `seconds`; each is checked after its clock stops. With
    a tracer they alternate untraced and traced, starting untraced, with at
    least one of each. Returns (rep or None, traced, problems, index) per
    operation, where `index` is the median speed index around it."""
    reps = []
    t0 = time.perf_counter()
    longest = 0.0
    traced = False
    before = speed_index()
    while True:
        t = time.perf_counter()
        try:
            if traced:
                with tracer.installed():
                    rep = wl.run(state)
            else:
                rep = wl.run(state)
            problems = wl.check(state, rep, ref)
        except Exception as e:  # a failed operation must not end the run
            rep, problems = None, [f"{type(e).__name__}: {e}"]
        after = speed_index()
        reps.append((rep, traced, problems,
                     statistics.median(before + after)))
        before = after
        now = time.perf_counter()
        longest = max(longest, now - t)
        kinds = {k for _, k, _, _ in reps}
        if now - t0 + longest > seconds and (tracer is None
                                             or kinds == {False, True}):
            return reps
        traced = tracer is not None and not traced


def median_rate(reps, count, wall, scale) -> float:
    """Median over (rep, index) pairs of count / wall, each scaled by
    scale(index)."""
    return statistics.median(getattr(r, count) / getattr(r, wall) * scale(i)
                             for r, i in reps)


def main(argv=None) -> int:
    blas_env_before = pin_blas_threads()
    load_before = os.getloadavg()[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    import_hopqa()

    import numpy as np

    import tracer as tr
    import workloads as wls

    t_import = time.perf_counter() - T_START
    wl = wls.WORKLOADS[args.workload]
    data_seed = args.seed % wls.REF_SEEDS
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    ref = refs["workloads"][wl.name][str(data_seed)]

    # set-up, repeated: the median repeat plus the imports is setup_s
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    setup_tracer = tr.Tracer()
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            t = time.perf_counter()
            if args.trace:
                with setup_tracer.installed():
                    state = wl.setup(data_seed, workdir)
            else:
                state = wl.setup(data_seed, workdir)
            setup_times.append(time.perf_counter() - t)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = t_import + statistics.median(setup_times)

    index = {id(ex): i for i, ex in enumerate(
        ex for ds in wl.datasets(state) for ex in ds.examples)}
    loop_tracer = tr.Tracer(index) if args.trace else None
    reps = run_reps(wl, state, ref, args.seconds, loop_tracer)

    problems = [p for _, _, ps, _ in reps for p in ps]
    failed = sum(1 for _, _, ps, _ in reps if ps)
    attempted = len(reps)
    if wl.has_probe:  # one more checked operation, outside the timed loop
        attempted += 1
        try:
            found = wl.check_probe(state, ref)
        except Exception as e:  # counted like a failed timed operation
            found = [f"{type(e).__name__}: {e}"]
        failed += bool(found)
        problems += found

    ok = [r for r, _, _, _ in reps if r is not None]
    untraced = [(r, i) for r, t, _, i in reps if r is not None and not t]
    traced = [r for r, t, _, _ in reps if r is not None and t]
    if not untraced or (args.trace and not traced):
        print("error: no timed operation completed: " + "; ".join(problems),
              file=sys.stderr)
        return 1

    def scale(index):
        return index / INDEX_REF_S if wl.interpreter_bound else 1.0

    def unscaled(index):
        return 1.0

    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = tr.layer_metrics(setup_tracer, loop_tracer,
                                  [r.wall for r in traced],
                                  [r.wall for r, _ in untraced])
        np.savez(OUT / f"trace-{wl.name}.npz",
                 **{"setup_" + k: v for k, v in setup_tracer.arrays().items()},
                 **{"loop_" + k: v for k, v in loop_tracer.arrays().items()})
    else:
        values = {
            "ex_per_s": median_rate(untraced, "examples", "wall", scale),
            "eval_ex_per_s": median_rate(untraced, "eval_examples",
                                         "eval_wall", scale),
            "setup_s": setup_s / scale(statistics.median(
                i for _, _, _, i in reps)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in spec[kind]}
    info = {
        "workload": wl.name,
        "trace": args.trace,
        "provenance": provenance(blas_env_before, args.seed, data_seed,
                                 load_before),
        "rep_walls_s": [r.wall for r in ok],
        "speed_index_s": [i for _, _, _, i in reps],
        "scaled_by_speed_index": wl.interpreter_bound,
        "unscaled": {
            "ex_per_s": median_rate(untraced, "examples", "wall", unscaled),
            "eval_ex_per_s": median_rate(untraced, "eval_examples",
                                         "eval_wall", unscaled),
            "setup_s": setup_s,
        },
        "setup_times_s": setup_times,
        "import_s": t_import,
        "train_loss": [r.train_loss for r in ok if r.train_loss is not None],
        "dev_acc": [r.dev_acc for r in ok if r.dev_acc is not None],
        "problems": problems,
    }
    if args.trace:
        info["roadmap_split"] = tr.roadmap_split(values, loop_tracer)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{wl.name}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
