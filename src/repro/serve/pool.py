"""Crash-isolated simulation workers for the serve layer.

:class:`SimulationPool` is the campaign engine's worker pool
(:mod:`repro.campaign.executor`, DESIGN.md §9) plus serve's blocking
per-request loop, which several dispatcher threads call at once.  Every
attempt gets a fresh submission index, which addresses the chaos plan
and seeds the backoff, and every attempt is charged: a crash breaks
every future in flight, so a request can absorb another's crash.  A
request deadline caps each wait; a trial that cannot finish inside it
fails with kind ``deadline``, never retried (the client has gone away).

Trials run :func:`simulate_trial`: rebuild the scenario from its wire
dict, simulate, and return the canonical result payload — the exact
bytes a cache hit would serve, so cached and computed responses are
indistinguishable.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable

from repro.campaign.executor import (
    WorkerPool,
    backoff,
    classify,
    execute_trial,
    may_retry,
)
from repro.campaign.spec import CampaignConfig, TrialFailure

__all__ = ["SimulationPool", "PoolFailure", "simulate_trial",
           "result_payload"]


def close_inherited_fd(fd: int) -> None:
    """Worker initializer: drop a file descriptor inherited across
    ``fork`` (e.g. the serve layer's listening socket).  Must stay
    module-level so it pickles under non-fork start methods."""
    try:
        os.close(fd)
    except OSError:  # pragma: no cover - already closed
        pass


class PoolFailure(RuntimeError):
    """A trial that exhausted its attempts (or its caller's deadline)."""

    def __init__(self, kind: str, message: str,
                 failures: list[TrialFailure]) -> None:
        super().__init__(message)
        self.kind = kind
        self.failures = failures

    @property
    def attempts(self) -> int:
        return len(self.failures)


def result_payload(scenario, summary) -> dict[str, Any]:
    """The canonical, JSON-stable view of one ``simulate`` outcome.

    This is what the service returns, checksums and caches; it must be
    a pure function of the scenario (all fields deterministic at a
    fixed seed), so no wall-clock or machine-local data belongs here.
    """
    result = summary.result
    return {
        "scenario_digest": scenario.digest(),
        "policy": summary.policy,
        "sync": summary.sync,
        "seed": scenario.seed,
        "horizon": scenario.horizon,
        "load": summary.load,
        "aur": summary.aur,
        "cmr": summary.cmr,
        "jobs": len(result.records),
        "unfinished": result.unfinished,
        "total_retries": result.total_retries,
        "total_blockings": result.total_blockings,
        "accrued_utility": result.accrued_utility,
        "max_possible_utility": result.max_possible_utility,
        "scheduler_invocations": result.scheduler_invocations,
    }


def simulate_trial(scenario_dict: dict[str, Any]) -> dict[str, Any]:
    """Worker-side entry point (module-level, hence picklable)."""
    from repro.api import simulate
    from repro.scenario import Scenario

    scenario = Scenario.from_dict(scenario_dict)
    return result_payload(scenario, simulate(scenario))


class SimulationPool(WorkerPool):
    """Shared, rebuild-on-failure process pool for serve dispatchers.

    ``config`` supplies ``workers``, ``timeout`` (per attempt),
    ``max_attempts``, the ``backoff_*`` schedule, ``retry_seed`` and
    ``chaos``; ``sleep`` and ``clock`` are test seams.  The serve layer
    sets ``initializer`` to close the inherited HTTP listener, so
    orphaned workers cannot hold the port against a warm restart.
    """

    def __init__(self, config: CampaignConfig, *,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        super().__init__(config.workers)
        self.config = config
        self._sleep = sleep
        self._clock = clock
        self._stats_lock = threading.Lock()
        self._submissions = 0
        self._busy = 0
        self.executions = 0
        self.retries = 0
        self.failure_kinds: dict[str, int] = {}

    @property
    def busy(self) -> int:
        with self._stats_lock:
            return self._busy

    def _note_failure(self, kind: str) -> None:
        with self._stats_lock:
            self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + 1

    def execute(self, scenario_dict: dict[str, Any],
                deadline: float | None = None) -> dict[str, Any]:
        """Run one scenario to a verified payload, or raise
        :class:`PoolFailure` with the terminal failure kind.

        ``deadline`` is absolute on the pool's clock; the per-attempt
        wait is the smaller of the trial timeout and the remaining
        deadline budget.
        """
        timeout = self.config.timeout
        failures: list[TrialFailure] = []
        attempt = 0
        while True:
            remaining = None if deadline is None \
                else deadline - self._clock()
            if remaining is not None and remaining <= 0:
                failures.append(TrialFailure(
                    index=-1, attempt=attempt, kind="deadline",
                    message="request deadline exhausted before dispatch"))
                self._note_failure("deadline")
                raise PoolFailure("deadline", "request deadline exhausted",
                                  failures)
            with self._stats_lock:
                index = self._submissions
                self._submissions += 1
            budget = timeout
            if remaining is not None:
                budget = remaining if budget is None \
                    else min(budget, remaining)
            # Chaos is addressed purely by submission index here (every
            # attempt gets a fresh index), so the attempt passed to the
            # plan is pinned to its own on_attempt.
            chaos = self.config.chaos
            executor, future = self.submit(
                execute_trial, simulate_trial, (scenario_dict,), (), chaos,
                index, 0 if chaos is None else chaos.on_attempt)
            with self._stats_lock:
                self._busy += 1
            try:
                value = future.result(timeout=budget)
                with self._stats_lock:
                    self.executions += 1
                return value
            except FutureTimeoutError:
                future.cancel()
                self.kill(executor)
                # A hung *worker* (trial timeout) is a pool fault and
                # retryable; an exhausted *request* budget is the
                # client's deadline and is not.
                if timeout is not None and budget >= timeout:
                    kind = "timeout"
                    message = (f"trial exceeded {timeout:.3g}s "
                               f"wall-clock budget")
                else:
                    kind = "deadline"
                    message = "request deadline exhausted mid-trial"
            except Exception as exc:
                kind = classify(exc)
                message = f"{type(exc).__name__}: {exc}"
                if kind == "crash":
                    self.kill(executor)
            finally:
                with self._stats_lock:
                    self._busy -= 1
            failures.append(TrialFailure(index=index, attempt=attempt,
                                         kind=kind, message=message))
            self._note_failure(kind)
            attempt += 1
            if not may_retry(self.config, kind, attempt):
                raise PoolFailure(kind, message, failures)
            with self._stats_lock:
                self.retries += 1
            self._sleep(backoff(self.config, index, attempt - 1))
