"""The benchmark's tracer patches hopqa names where callers look them up.
Entering and leaving its patch context here turns a renamed or deleted
target into a failing test, not a benchmark whose every operation fails."""

import sys
from pathlib import Path

import hopqa.autograd as ag
import hopqa.checkpoint as checkpoint
import hopqa.data as data
import hopqa.encoder as encoder
import hopqa.hops as hops
import hopqa.model as model
import hopqa.support as support
import hopqa.train as train

BENCHES = str(Path(__file__).resolve().parents[1] / "benches")
sys.path.insert(0, BENCHES)
try:
    import tracer
finally:
    sys.path.remove(BENCHES)

PATCHED = (ag, checkpoint, data, encoder, hops, model, support, train,
           train.Adam)


def test_tracer_patches_and_restores_every_target():
    before = [dict(vars(obj)) for obj in PATCHED]
    with tracer.Tracer({}).installed():
        during = [dict(vars(obj)) for obj in PATCHED]
    assert all(d != b for d, b in zip(during, before))
    assert [dict(vars(obj)) for obj in PATCHED] == before
