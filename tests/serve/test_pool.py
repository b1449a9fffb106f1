"""Crash-isolated worker pool: retry taxonomy, rebuilds, deadlines."""

import time

import pytest

from repro.api import quick_scenario, simulate
from repro.campaign.chaos import ChaosPlan
from repro.campaign.spec import CampaignConfig
from repro.scenario import Scenario
from repro.serve.pool import PoolFailure, SimulationPool, result_payload


def scenario_dict(seed=1):
    return quick_scenario(n_tasks=3, horizon_us=5_000,
                          seed=seed).to_dict()


NO_SLEEP = staticmethod(lambda _s: None)


@pytest.fixture
def pool_factory():
    pools = []

    def make(**policy):
        policy.setdefault("workers", 1)
        pool = SimulationPool(CampaignConfig(**policy),
                              sleep=lambda _s: None)   # skip real backoff
        pools.append(pool)
        return pool

    yield make
    for pool in pools:
        pool.shutdown()


class TestExecute:
    def test_returns_the_canonical_payload(self, pool_factory):
        pool = pool_factory()
        wire = scenario_dict()
        payload = pool.execute(wire)
        scenario = Scenario.from_dict(wire)
        assert payload == result_payload(scenario, simulate(scenario))
        assert payload["scenario_digest"] == scenario.digest()
        assert pool.executions == 1

    def test_transient_failure_is_retried(self, pool_factory):
        pool = pool_factory(chaos=ChaosPlan(transient=(0,)), max_attempts=3)
        payload = pool.execute(scenario_dict())
        assert payload["jobs"] >= 0
        assert pool.retries == 1
        assert pool.failure_kinds == {"transient": 1}

    def test_worker_crash_is_retried_after_rebuild(self, pool_factory):
        pool = pool_factory(chaos=ChaosPlan(crash=(0,)), max_attempts=3)
        payload = pool.execute(scenario_dict())
        assert payload["unfinished"] >= 0
        assert pool.rebuilds >= 1
        assert pool.failure_kinds.get("crash", 0) >= 1

    def test_hung_worker_times_out_and_retries(self, pool_factory):
        pool = pool_factory(
            chaos=ChaosPlan(hang=(0,), hang_seconds=30.0),
            timeout=0.5, max_attempts=2)
        started = time.monotonic()
        payload = pool.execute(scenario_dict())
        assert payload["seed"] == 1
        assert time.monotonic() - started < 10.0   # did not wait out the hang
        assert pool.failure_kinds == {"timeout": 1}
        assert pool.rebuilds == 1

    def test_exhausted_attempts_raise_with_the_terminal_kind(
            self, pool_factory):
        pool = pool_factory(chaos=ChaosPlan(transient=(0, 1)),
                            max_attempts=2)
        with pytest.raises(PoolFailure) as err:
            pool.execute(scenario_dict())
        assert err.value.kind == "transient"
        assert err.value.attempts == 2

    def test_scenario_error_is_not_retried(self, pool_factory):
        pool = pool_factory(max_attempts=3)
        with pytest.raises(PoolFailure) as err:
            pool.execute({"bogus": True})
        assert err.value.kind == "exception"
        assert err.value.attempts == 1            # no retry on bad input
        assert pool.retries == 0


class TestDeadline:
    def test_exhausted_deadline_fails_before_dispatch(self, pool_factory):
        pool = pool_factory()
        with pytest.raises(PoolFailure) as err:
            pool.execute(scenario_dict(), deadline=time.monotonic() - 1.0)
        assert err.value.kind == "deadline"

    def test_deadline_cancels_a_running_trial(self, pool_factory):
        pool = pool_factory(
            chaos=ChaosPlan(hang=(0, 1), hang_seconds=30.0),
            timeout=None, max_attempts=3)
        started = time.monotonic()
        with pytest.raises(PoolFailure) as err:
            pool.execute(scenario_dict(), deadline=time.monotonic() + 0.4)
        assert err.value.kind == "deadline"
        assert time.monotonic() - started < 10.0
        assert pool.retries == 0                  # client is gone: no retry

    def test_trial_timeout_wins_when_shorter_than_deadline(
            self, pool_factory):
        pool = pool_factory(
            chaos=ChaosPlan(hang=(0,), hang_seconds=30.0),
            timeout=0.4, max_attempts=2)
        payload = pool.execute(scenario_dict(),
                               deadline=time.monotonic() + 30.0)
        assert payload["seed"] == 1               # retried as a timeout


class TestResultPayload:
    def test_is_deterministic_and_json_stable(self):
        scenario = Scenario.from_dict(scenario_dict(seed=9))
        first = result_payload(scenario, simulate(scenario))
        second = result_payload(scenario, simulate(scenario))
        assert first == second
        import json
        json.dumps(first)                          # JSON-serializable
