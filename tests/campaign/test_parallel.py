"""Parallel-mode engine tests: real worker processes, real crashes.

Kept deliberately small (workers=2, a handful of trials, sub-second
timeouts) — the point is crash isolation and serial/parallel parity,
not throughput.
"""

import functools
import os

from repro.campaign import CampaignConfig, CampaignEngine, ChaosPlan
from repro.campaign.executor import WorkerPool
from repro.serve.pool import close_inherited_fd


def trial_square(seed):
    return {"seed": seed, "value": seed * seed}


def trial_marker_flaky(marker_path, value):
    """Fails with a transient error once per marker file (state shared
    across worker processes via the filesystem)."""
    from repro.campaign import TransientTrialError
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("failed once")
        raise TransientTrialError("first attempt fails")
    return value


def fd_is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def trial_boom(seed):
    raise ValueError(f"deterministic bug for {seed}")


ARGS = [(3,), (5,), (7,), (11,)]


def _serial_values():
    engine = CampaignEngine(CampaignConfig())
    return engine.map(trial_square, ARGS).values


class TestParallelParity:
    def test_parallel_matches_serial_in_value_and_order(self):
        engine = CampaignEngine(CampaignConfig(workers=2))
        assert engine.map(trial_square, ARGS).values == _serial_values()

    def test_worker_crash_is_isolated_and_retried(self):
        engine = CampaignEngine(CampaignConfig(
            workers=2, chaos=ChaosPlan(crash=(1,))))
        result = engine.map(trial_square, ARGS)
        assert result.values == _serial_values()
        stats = engine.stats()
        assert stats.failed_trials == 0
        assert dict(stats.attempt_failures).get("crash", 0) >= 1

    def test_hung_trial_times_out_and_recovers(self):
        engine = CampaignEngine(CampaignConfig(
            workers=2, timeout=0.75,
            chaos=ChaosPlan(hang=(0,), hang_seconds=30.0),
            backoff_base=0.01, backoff_cap=0.05))
        result = engine.map(trial_square, ARGS)
        assert result.values == _serial_values()
        assert dict(engine.stats().attempt_failures).get("timeout", 0) >= 1

    def test_transient_failure_in_worker_is_retried(self, tmp_path):
        marker = str(tmp_path / "flaky.marker")
        engine = CampaignEngine(CampaignConfig(
            workers=2, backoff_base=0.01, backoff_cap=0.05))
        result = engine.map(trial_marker_flaky, [(marker, "payload")])
        assert result.values == ["payload"]
        outcome = result.outcomes[0]
        assert outcome.attempts == 2
        assert [f.kind for f in outcome.failures] == ["transient"]

    def test_deterministic_failure_does_not_abort_the_batch(self):
        engine = CampaignEngine(CampaignConfig(workers=2))
        specs_args = [(3,), (5,)]
        good = engine.map(trial_square, specs_args)
        bad = engine.map(trial_boom, [(9,)])
        assert good.values == [trial_square(3), trial_square(5)]
        assert not bad.ok
        assert [f.kind for f in bad.failures] == ["exception"]
        stats = engine.stats()
        assert stats.trials == 3 and stats.failed_trials == 1

    def test_parallel_journal_resume_parity(self, tmp_path):
        journal = str(tmp_path / "parallel.jsonl")
        first = CampaignEngine(CampaignConfig(workers=2, journal=journal),
                               tag="par")
        values = first.map(trial_square, ARGS).values
        first.close()

        resumed = CampaignEngine(CampaignConfig(workers=2, resume=journal),
                                 tag="par")
        result = resumed.map(trial_square, ARGS)
        resumed.close()
        assert result.values == values
        assert resumed.stats().from_journal == len(ARGS)


class TestWorkerPool:
    def test_stale_kill_is_a_no_op_and_respawns_run_the_initializer(self):
        # serve's initializer: workers close the inherited listener.
        listener, other_end = os.pipe()
        pool = WorkerPool(1, initializer=functools.partial(
            close_inherited_fd, listener))
        try:
            stale, future = pool.submit(fd_is_open, listener)
            assert future.result(timeout=60) is False
            pool.kill(stale)
            fresh, future = pool.submit(fd_is_open, listener)
            # A second thread that saw the same sick pool kills it
            # through its stale reference: nothing happens.
            pool.kill(stale)
            assert fresh is not stale
            assert pool.rebuilds == 1
            assert future.result(timeout=60) is False   # respawn ran it
            assert fd_is_open(listener)                 # parent keeps it
        finally:
            pool.shutdown()
            os.close(listener)
            os.close(other_end)
