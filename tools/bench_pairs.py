"""Alternated parent/change benchmark pairs, summarised as BENCH_<topic>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --topic batched_hops --seeds 1400-1409 --seconds 40

For every workload and seed the benchmark command of BENCHMARK.json
(`python3 benches/run.py --workload W --seed S --seconds T`) runs once in
each checkout, strictly one process at a time: the parent first on even
seeds, the change first on odd ones, so that slow drift of a shared host
falls on both sides alike. The file records every run's end-to-end values,
the quartiles and median of each side, the pairs the change won, the
operations attempted and failed on each side, and the provenance the runs
printed. Each checkout runs its own `src/` with its own `benches/`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("before", "after")  # parent, change


def parse_seeds(text: str) -> list[int]:
    """`1400-1409` or `1,5,9` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, command, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark process; its result line and provenance, or the error
    it ended with."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "error": (proc.stderr or proc.stdout)[-2000:]}
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    return {"seed": seed, "result": result,
            "provenance": info["provenance"]}


def _r(values, digits=4) -> list[float]:
    return [round(float(x), digits) for x in values]


def summarise(before, after, better: str, bound: float) -> dict:
    """Per-run values of one metric on both sides, paired by position:
    quartiles, median ratio, the pairs the change won, and the median gap
    in units of the parent's interquartile range (positive when the change
    is better)."""
    sign = 1.0 if better == "higher" else -1.0
    qb, qa = (np.percentile(v, [25, 50, 75]) for v in (before, after))
    iqr = qb[2] - qb[0]
    gap = sign * (qa[1] - qb[1])
    return {
        "before": _r(before),
        "after": _r(after),
        "before_q25_median_q75": _r(qb),
        "after_q25_median_q75": _r(qa),
        "median_ratio": round(float(qa[1] / qb[1]), 4),
        "after_wins": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
        "median_gap_over_parent_iqr": round(float(gap / iqr), 2) if iqr
        else None,
        "bound_fraction_of_parent_median": bound,
        "parent_iqr_over_median": round(float(iqr / qb[1]), 4),
    }


def workload_record(runs: dict, seeds, metrics_spec) -> dict:
    """The BENCH record of one workload from its runs per side."""
    ok = [i for i in range(len(seeds))
          if all("result" in runs[s][i] for s in SIDES)]
    rec = {
        "seeds": list(seeds),
        "correct": all(runs[s][i]["result"]["correct"]
                       for s in SIDES for i in ok) and len(ok) == len(seeds),
        "failed": {s: sum(r["result"]["failed"] for r in runs[s]
                          if "result" in r) for s in SIDES},
        "attempted": {s: sum(r["result"]["attempted"] for r in runs[s]
                             if "result" in r) for s in SIDES},
        "metrics": {},
    }
    errors = {s: [r for r in runs[s] if "error" in r] for s in SIDES}
    if any(errors.values()):
        rec["runs_that_failed"] = errors
    if not ok:
        return rec
    for m in metrics_spec:
        vals = {s: [runs[s][i]["result"]["metrics"][m["name"]]["value"]
                    for i in ok] for s in SIDES}
        rec["metrics"][m["name"]] = {
            "unit": m["unit"], "better": m["better"],
            **summarise(vals["before"], vals["after"], m["better"],
                        m["bound"])}
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True,
                   help="checkout of the change")
    p.add_argument("--topic", required=True,
                   help="names the output file BENCH_<topic>.json")
    p.add_argument("--seeds", type=parse_seeds, required=True,
                   help="e.g. 1400-1409; use seeds not used while writing "
                        "the change")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--describe", default="",
                   help="one line on what the change does, for the file")
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"before": args.parent, "after": args.change}
    out = args.change / f"BENCH_{args.topic}.json"
    doc = {
        "topic": args.describe or args.topic,
        "command": " ".join(spec["command"]) + " --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "design": f"{len(args.seeds)} pairs per workload, seeds "
                  f"{args.seeds[0]}-{args.seeds[-1]}; parent first on even "
                  f"seeds, change first on odd seeds; one process at a time, "
                  f"each side in its own checkout (tools/bench_pairs.py)",
        "parent": "before", "change": "after",
        "workloads": {},
    }
    for w in [x["name"] for x in spec["workloads"]]:
        runs = {s: [] for s in SIDES}
        for seed in args.seeds:
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            for side in order:
                r = run_once(checkouts[side], spec["command"], w, seed,
                             args.seconds)
                runs[side].append(r)
                print(f"{w} seed {seed} {side}: "
                      + ("error" if "error" in r else json.dumps(
                          {k: round(v["value"], 4) for k, v in
                           r["result"]["metrics"].items()})),
                      file=sys.stderr, flush=True)
        doc["workloads"][w] = workload_record(runs, args.seeds,
                                              spec["end_to_end"])
        prov = {s: [r["provenance"] for r in runs[s] if "provenance" in r]
                for s in SIDES}
        first = next((v[0] for v in prov.values() if v), None)
        if first and "host" not in doc:
            doc["host"] = {k: first[k] for k in ("nproc", "python", "numpy",
                                                 "blas", "blas_threads")}
            doc["host"]["blas_threads_set_by"] = first["blas_threads_set_by"]
        doc["workloads"][w]["provenance"] = {s: {
            "git_commit": sorted({v["git_commit"] or "" for v in prov[s]}),
            "src_sha256": sorted({v["src_sha256"] for v in prov[s]}),
            "loadavg_1m_before": [v["loadavg_1m_before"] for v in prov[s]],
        } for s in SIDES}
        # written after every workload, so a cut run keeps what it measured
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
