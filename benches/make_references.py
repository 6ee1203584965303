"""Regenerate references.json: the outputs each workload's check compares
against, for every input set the seed can select.

    python3 benches/make_references.py

Run it only when a change is meant to alter hopqa's numbers; the references
pin float64 results of the code they were made with.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.pin_blas_threads()
    run.import_hopqa()
    import workloads as wls

    refs = {"ref_seeds": wls.REF_SEEDS, "workloads": {}}
    workdir = Path(tempfile.mkdtemp(dir=run.BENCH_DIR))
    try:
        for name, wl in wls.WORKLOADS.items():
            per_seed = refs["workloads"][name] = {}
            for seed in range(wls.REF_SEEDS):
                per_seed[str(seed)] = wl.reference(wl.setup(seed, workdir))
            print(f"{name}: {wls.REF_SEEDS} input sets", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH_DIR / "references.json").write_text(
        json.dumps(refs, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
