"""Trace parity: the kernel trace projected from the observer stream
equals, event for event, the trace the kernel recorded when it still
kept a separate trace buffer (digests in tests/fixtures/trace_parity.json).
"""

import json
import pathlib
import warnings
from collections import Counter

import pytest

from repro.obs import Observer
from repro.sim.kernel import Kernel, SimulationConfig
from repro.sim.tracing import trace_events
from tests.sim.trace_cases import CASES, trace_digest

FIXTURE = (pathlib.Path(__file__).parent.parent / "fixtures"
           / "trace_parity.json")
EXPECTED = json.loads(FIXTURE.read_text())["cases"]


def _projected(name):
    observer = Observer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        config = SimulationConfig(observer=observer, **CASES[name]())
    Kernel(config).run()
    return trace_events(observer)


def test_every_case_has_a_recorded_digest():
    assert set(CASES) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_projection_matches_recorded_trace(name):
    events = _projected(name)
    expected = EXPECTED[name]
    kinds = dict(sorted(Counter(e.kind.value for e in events).items()))
    assert kinds == expected["kinds"]
    assert len(events) == expected["events"]
    assert trace_digest(events) == expected["sha256"]
