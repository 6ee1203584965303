"""The benchmark checks every timed operation against the outputs shipped in
`benches/references.json` and counts a failed check as a failed operation.
Running each workload's set-up, one operation and its checks here, on a few
reference seeds, turns a change that moves those outputs into a failing
test, not a benchmark whose every operation fails."""

import json
import sys
from pathlib import Path

import pytest

BENCHES = Path(__file__).resolve().parents[1] / "benches"
sys.path.insert(0, str(BENCHES))
try:
    import workloads
finally:
    sys.path.remove(str(BENCHES))

REFERENCES = json.loads(
    (BENCHES / "references.json").read_text())["workloads"]


@pytest.mark.parametrize("seed", [0, 13, 31])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_operation_matches_references(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name]
    ref = REFERENCES[name][str(seed)]
    state = wl.setup(seed, tmp_path)
    problems = wl.check(state, wl.run(state), ref)
    if wl.has_probe:
        problems += wl.check_probe(state, ref)
    assert problems == []
