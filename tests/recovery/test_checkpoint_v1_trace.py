"""Compatibility: a v1 checkpoint written while the kernel still kept a
separate trace buffer carries a ``"trace"`` state entry.  Observation is
not checkpointed any more, so restore ignores that entry — and the
resumed run still finishes byte-identically."""

import hashlib
import json
import pathlib

from repro.api import simulate
from repro.scenario import Scenario
from repro.sim.checkpoint import KernelCheckpoint, fingerprint_result

FIXTURE = (pathlib.Path(__file__).parent.parent / "fixtures"
           / "checkpoint_v1_trace.json")


def _sha(result) -> str:
    return hashlib.sha256(fingerprint_result(result).encode()).hexdigest()


def test_v1_checkpoint_with_trace_state_resumes_byte_identically():
    doc = json.loads(FIXTURE.read_text())
    scenario = Scenario.from_dict(doc["scenario"])
    checkpoint = KernelCheckpoint.from_json(json.dumps(doc["checkpoint"]))
    assert checkpoint.version == 1
    assert checkpoint.state["trace"]

    resumed = simulate(scenario, resume_from=checkpoint).result
    uninterrupted = simulate(scenario).result
    assert _sha(resumed) == _sha(uninterrupted) == doc["result_sha256"]
    # Restore rebuilt the run without any trace state: the observer
    # that trace=True attaches records only the post-restore suffix.
    assert resumed.obs["enabled"] is True
    assert resumed.obs["counters"]["kernel.arrivals"] < \
        uninterrupted.obs["counters"]["kernel.arrivals"]
