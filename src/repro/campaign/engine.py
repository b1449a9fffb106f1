"""Resilient campaign execution: crash isolation, timeouts, retry, resume.

:class:`CampaignEngine` runs batches of :class:`~repro.campaign.spec.TrialSpec`
under one :class:`~repro.campaign.spec.CampaignConfig`:

* ``workers=1`` — trials run in-process, in trial order.  With no
  journal, no chaos and no retries triggered, this is byte-identical to
  the plain serial loops the experiment modules used before the engine
  existed (same calls, same RNG consumption).
* ``workers>1`` — trials run in worker processes of the shared
  executor (:mod:`repro.campaign.executor`).  A worker exception, a
  dead worker process, or a per-trial wall-clock timeout becomes a
  structured :class:`~repro.campaign.spec.TrialFailure`; retryable
  kinds re-enter the queue after a seeded exponential backoff.  A
  broken or stuck pool is killed and rebuilt; trials that were merely
  collateral (in flight on a pool another trial broke) are re-queued
  without being charged an attempt.

Determinism contract: trial functions must derive all randomness from
their arguments (in practice: from ``(base_seed, trial_index)``).  The
engine never feeds scheduling state into a trial, so serial, parallel,
retried and resumed campaigns agree on every successful trial's value.

One engine instance may serve several ``run()``/``map()`` batches (a
figure sweep issues one batch per x-axis point); trials are numbered
globally across batches so journals and chaos plans address them
unambiguously.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Any, Callable, Sequence

from repro.campaign.executor import (
    WorkerPool,
    backoff,
    classify,
    execute_trial,
    may_retry,
)
from repro.campaign.journal import CampaignJournal, JournalError, load_journal
from repro.obs.observer import NULL_OBSERVER, NullObserver
from repro.campaign.spec import (
    CampaignConfig,
    CampaignResult,
    CampaignStats,
    TrialFailure,
    TrialOutcome,
    TrialSpec,
)


class CampaignEngine:
    """Executes trials under one campaign policy; accumulates stats."""

    def __init__(self, config: CampaignConfig | None = None, *,
                 tag: str = "campaign",
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 observer: NullObserver | None = None) -> None:
        self.config = config or CampaignConfig()
        self.tag = tag
        self._clock = clock
        self._sleep = sleep
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._next_index = 0
        self.outcomes: list[TrialOutcome] = []
        self._cache: dict[int, Any] = {}
        if self.config.resume:
            snapshot = load_journal(self.config.resume)
            if snapshot.tag and snapshot.tag != tag:
                raise JournalError(
                    f"cannot resume: journal is for campaign "
                    f"{snapshot.tag!r}, this one is {tag!r}")
            self._cache = dict(snapshot.values)
        self._journal: CampaignJournal | None = None
        if self.config.journal:
            self._journal = CampaignJournal.open(self.config.journal, tag)
        # Live OpenMetrics endpoint: scrapes snapshot the observer on
        # demand, so the campaign stays scrapeable for its whole run.
        self._metrics_server = None
        if self.config.metrics_port is not None:
            from repro.obs.metrics import MetricsServer, snapshot_openmetrics

            self._metrics_server = MetricsServer(
                lambda: snapshot_openmetrics(observer=self.obs),
                host=self.config.metrics_host,
                port=self.config.metrics_port).start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, specs: Sequence[TrialSpec]) -> CampaignResult:
        """Execute one batch; returns outcomes in batch order."""
        base = self._next_index
        self._next_index += len(specs)
        if self.config.workers <= 1:
            outcomes = self._run_serial(specs, base)
        else:
            outcomes = self._run_parallel(specs, base)
        self.outcomes.extend(outcomes)
        return CampaignResult(outcomes=outcomes)

    def map(self, fn: Callable[..., Any],
            arg_tuples: Sequence[tuple], **kwargs: Any) -> CampaignResult:
        """Convenience: one trial per argument tuple."""
        specs = [
            TrialSpec(index=i, fn=fn, args=tuple(args),
                      kwargs=tuple(sorted(kwargs.items())))
            for i, args in enumerate(arg_tuples)
        ]
        return self.run(specs)

    def stats(self) -> CampaignStats:
        by_kind: dict[str, int] = {}
        for outcome in self.outcomes:
            for failure in outcome.failures:
                by_kind[failure.kind] = by_kind.get(failure.kind, 0) + 1
        return CampaignStats(
            trials=len(self.outcomes),
            completed=sum(1 for o in self.outcomes if o.ok),
            failed_trials=sum(1 for o in self.outcomes if not o.ok),
            from_journal=sum(1 for o in self.outcomes if o.from_journal),
            attempt_failures=tuple(sorted(by_kind.items())),
            workers=self.config.workers,
        )

    @property
    def metrics_url(self) -> str | None:
        """The live ``/metrics`` URL, when the campaign serves one."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.url

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _cached_outcome(self, gidx: int) -> TrialOutcome | None:
        if gidx not in self._cache:
            return None
        return TrialOutcome(index=gidx, ok=True, value=self._cache[gidx],
                            attempts=0, from_journal=True)

    def _checkpoint(self, outcome: TrialOutcome) -> None:
        if self._journal is not None and not outcome.from_journal:
            self._journal.record(outcome)
            self.obs.counter("campaign.journal_writes")

    def _note_outcome(self, outcome: TrialOutcome) -> None:
        if not self.obs.enabled:
            return
        self.obs.counter("campaign.trials")
        self.obs.counter("campaign.ok" if outcome.ok
                         else "campaign.failed")
        if outcome.from_journal:
            self.obs.counter("campaign.from_journal")
        if outcome.wall_s is not None:
            self.obs.histogram("campaign.trial_wall_s", outcome.wall_s)
        for failure in outcome.failures:
            self.obs.counter(f"campaign.attempt_failures.{failure.kind}")

    def _backoff(self, gidx: int, attempt: int) -> float:
        delay = backoff(self.config, gidx, attempt)
        if self.obs.enabled:
            self.obs.counter("campaign.retries")
            self.obs.histogram("campaign.backoff_s", delay)
        return delay

    def _trial_context(self, spec: TrialSpec, gidx: int, attempt: int):
        """A :class:`~repro.campaign.resume.TrialContext` for this
        attempt, or None when the trial does not checkpoint (no
        ``checkpoint_dir``, or the function never asked for one)."""
        if not self.config.checkpoint_dir:
            return None
        if not getattr(spec.fn, "wants_trial_context", False):
            return None
        from repro.campaign.resume import TrialContext

        return TrialContext(index=gidx, attempt=attempt,
                            checkpoint_dir=self.config.checkpoint_dir)

    def _recovery_info(self, spec: TrialSpec,
                       gidx: int) -> dict[str, Any] | None:
        """Summarize the trial's checkpoint lineage for the outcome and
        journal; projects the recovery counters into the observer."""
        if self._trial_context(spec, gidx, 0) is None:
            return None
        from repro.campaign.resume import CheckpointStore

        lineage = CheckpointStore(self.config.checkpoint_dir).lineage(gidx)
        if not lineage:
            return None
        resumed = [e for e in lineage if e.get("resumed")]
        written = sum(e.get("checkpoints_written", 0)
                      for e in lineage if e.get("completed"))
        saved = sum(e.get("resume_clock") or 0 for e in resumed)
        if self.obs.enabled:
            if written:
                self.obs.counter("campaign.checkpoints_written", written)
            if resumed:
                self.obs.counter("campaign.resumed_trials")
                self.obs.counter("campaign.resume_simns_saved", saved)
        return {
            "lineage": lineage,
            "resumed_attempts": len(resumed),
            "checkpoints_written": written,
            "resume_simns_saved": saved,
        }

    # ------------------------------------------------------------------
    # Serial execution
    # ------------------------------------------------------------------

    def _run_serial(self, specs: Sequence[TrialSpec],
                    base: int) -> list[TrialOutcome]:
        outcomes = []
        for position, spec in enumerate(specs):
            gidx = base + position
            cached = self._cached_outcome(gidx)
            if cached is not None:
                self._note_outcome(cached)
                outcomes.append(cached)
                continue
            outcome = self._run_one_serial(spec, gidx)
            self._checkpoint(outcome)
            self._note_outcome(outcome)
            outcomes.append(outcome)
        return outcomes

    def _run_one_serial(self, spec: TrialSpec, gidx: int) -> TrialOutcome:
        failures: list[TrialFailure] = []
        attempt = 0
        while True:
            try:
                started = self._clock()
                value = execute_trial(
                    spec.fn, spec.args, spec.kwargs, self.config.chaos,
                    gidx, attempt, self._trial_context(spec, gidx, attempt),
                    in_worker=False)
                return TrialOutcome(index=gidx, ok=True, value=value,
                                    attempts=attempt + 1, failures=failures,
                                    wall_s=self._clock() - started,
                                    recovery=self._recovery_info(spec, gidx))
            except Exception as exc:
                kind = classify(exc)
                failures.append(TrialFailure(index=gidx, attempt=attempt,
                                             kind=kind, message=str(exc)))
                attempt += 1
                if not may_retry(self.config, kind, attempt):
                    return TrialOutcome(index=gidx, ok=False,
                                        attempts=attempt, failures=failures,
                                        recovery=self._recovery_info(
                                            spec, gidx))
                self._sleep(self._backoff(gidx, attempt - 1))

    # ------------------------------------------------------------------
    # Parallel execution
    # ------------------------------------------------------------------

    def _run_parallel(self, specs: Sequence[TrialSpec],
                      base: int) -> list[TrialOutcome]:
        chaos = self.config.chaos
        timeout = self.config.timeout
        done: dict[int, TrialOutcome] = {}
        attempts: dict[int, int] = {}
        failures: dict[int, list[TrialFailure]] = {}
        by_index: dict[int, TrialSpec] = {}
        ready: list[tuple[float, int]] = []      # (not_before, gidx)
        for position, spec in enumerate(specs):
            gidx = base + position
            by_index[gidx] = spec
            cached = self._cached_outcome(gidx)
            if cached is not None:
                self._note_outcome(cached)
                done[gidx] = cached
            else:
                attempts[gidx] = 0
                failures[gidx] = []
                ready.append((0.0, gidx))
        ready.sort()

        pool = WorkerPool(self.config.workers)
        # Future -> (gidx, deadline, submit time).
        running: dict[Future, tuple[int, float | None, float]] = {}

        def finalize(gidx: int, ok: bool, value: Any = None,
                     wall_s: float | None = None) -> None:
            outcome = TrialOutcome(index=gidx, ok=ok, value=value,
                                   attempts=attempts[gidx],
                                   failures=failures[gidx],
                                   wall_s=wall_s,
                                   recovery=self._recovery_info(
                                       by_index[gidx], gidx))
            self._checkpoint(outcome)
            self._note_outcome(outcome)
            done[gidx] = outcome

        def fail(gidx: int, kind: str, message: str) -> None:
            attempt = attempts[gidx]
            failures[gidx].append(TrialFailure(index=gidx, attempt=attempt,
                                               kind=kind, message=message))
            attempts[gidx] = attempt + 1
            if may_retry(self.config, kind, attempts[gidx]):
                delay = self._backoff(gidx, attempt)
                ready.append((self._clock() + delay, gidx))
                ready.sort()
            else:
                finalize(gidx, ok=False)

        def requeue_collateral() -> None:
            """Re-queue in-flight trials after a pool kill, uncharged."""
            for future, (gidx, _, _) in list(running.items()):
                if gidx in done or any(g == gidx for _, g in ready):
                    continue
                ready.append((self._clock(), gidx))
            ready.sort()
            running.clear()

        try:
            while ready or running:
                now = self._clock()
                # Submit every due trial for which a worker slot is free.
                while ready and ready[0][0] <= now and \
                        len(running) < self.config.workers:
                    _, gidx = ready.pop(0)
                    spec = by_index[gidx]
                    executor, future = pool.submit(
                        execute_trial, spec.fn, spec.args, spec.kwargs,
                        chaos, gidx, attempts[gidx],
                        self._trial_context(spec, gidx, attempts[gidx]))
                    deadline = None if timeout is None else now + timeout
                    running[future] = (gidx, deadline, self._clock())
                if self.obs.enabled:
                    self.obs.histogram("campaign.workers_busy", len(running))
                if not running:
                    # Everything pending is backing off; sleep it out.
                    if ready:
                        self._sleep(max(0.0, ready[0][0] - self._clock()))
                    continue

                waits = [deadline - now
                         for _, deadline, _ in running.values()
                         if deadline is not None]
                if len(running) < self.config.workers:
                    waits += [not_before - now for not_before, _ in ready]
                wait_timeout = max(0.0, min(waits)) if waits else None
                completed = wait(running.keys(), timeout=wait_timeout,
                                 return_when=FIRST_COMPLETED).done

                pool_broken = False
                for future in completed:
                    gidx, _, started = running.pop(future)
                    exc = future.exception()
                    if exc is None:
                        attempts[gidx] += 1
                        finalize(gidx, ok=True, value=future.result(),
                                 wall_s=self._clock() - started)
                    else:
                        kind = classify(exc)
                        if kind == "crash":
                            pool_broken = True
                        fail(gidx, kind, f"{type(exc).__name__}: {exc}")

                now = self._clock()
                expired = [future
                           for future, (_, deadline, _) in running.items()
                           if deadline is not None and now >= deadline]
                for future in expired:
                    gidx, _, _ = running.pop(future)
                    fail(gidx, "timeout",
                         f"trial exceeded {timeout:.3g}s wall-clock budget")

                if pool_broken or expired:
                    # The pool has dead or stuck workers; kill it and let
                    # the still-healthy in-flight trials re-run free of
                    # charge on a fresh pool.
                    pool.kill(executor)
                    requeue_collateral()
        finally:
            pool.shutdown()

        return [done[base + position] for position in range(len(specs))]
