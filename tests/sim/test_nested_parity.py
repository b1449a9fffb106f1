"""Nested-section result parity: lock-based RUA over nested critical
sections — multi-job dependency chains, runtime deadlocks and their
victims, with detection on and off — produces the SimulationResults
recorded before the wait-for graph became one walk per pass (digests in
tests/fixtures/nested_parity.json), with the fast path on and off.
"""

import json
import pathlib
import warnings

import pytest

from repro.obs import Observer
from repro.sim.kernel import Kernel, SimulationConfig
from tests.sim.nested_cases import CASES, result_digest

FIXTURE = (pathlib.Path(__file__).parent.parent / "fixtures"
           / "nested_parity.json")
EXPECTED = json.loads(FIXTURE.read_text())["cases"]


def _run(name):
    observer = Observer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        config = SimulationConfig(observer=observer, **CASES[name]())
    result = Kernel(config).run()
    summary = result.obs or {}
    return {
        "sha256": result_digest(result),
        "victims": summary.get("counters", {}).get(
            "sched.deadlock_victims", 0),
        "chain_len_max": summary.get("histograms", {}).get(
            "sched.chain_len", {}).get("max", 0),
    }


def test_every_case_has_a_recorded_digest():
    assert set(CASES) == set(EXPECTED)


def test_cases_reach_chains_and_victims():
    assert max(c["chain_len_max"] for c in EXPECTED.values()) >= 3
    assert sum(c["victims"] for c in EXPECTED.values()) >= 4


@pytest.mark.parametrize("reference", [False, True],
                         ids=["fastpath", "reference"])
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_result_matches_recorded_fingerprint(name, reference, monkeypatch):
    if reference:
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    else:
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    assert _run(name) == EXPECTED[name]
