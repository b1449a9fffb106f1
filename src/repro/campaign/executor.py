"""The crash-isolated executor of campaigns and ``repro serve``
(DESIGN.md §9): the worker pool with its kill-and-rebuild and
parent-death guard, the worker-side trial wrapper, the failure kinds,
and the retry decision with its seeded backoff.  The scheduling loops
stay with their callers: the engine's batch loop and serve's blocking
per-request loop."""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Any, Callable

from repro.campaign.seeding import backoff_delay, derive_seed
from repro.campaign.spec import (
    RETRYABLE_KINDS,
    CampaignConfig,
    SimulatedWorkerCrash,
    TransientTrialError,
)

#: How often a worker checks that its pool's owner is still its parent.
PARENT_POLL_S = 0.2


def _watch_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _init_worker(parent_pid: int,
                 initializer: Callable[[], None] | None) -> None:
    """Runs in every worker, respawns included.  A worker whose owner
    died (a SIGKILLed campaign or server) is reparented; its guard then
    exits it, also mid-trial, so it writes no more checkpoints."""
    threading.Thread(target=_watch_parent, args=(parent_pid,),
                     name="repro-parent-guard", daemon=True).start()
    if initializer is not None:
        initializer()


class WorkerPool:
    """A thread-safe ``ProcessPoolExecutor``, built at the first
    :meth:`submit` after construction or a :meth:`kill`.  The kill is
    identity-checked, so a sick executor that several threads saw is
    killed (and counted in ``rebuilds``) once.  ``initializer`` (a
    picklable zero-arg callable) runs in every worker built after it
    is set."""

    def __init__(self, workers: int,
                 initializer: Callable[[], None] | None = None) -> None:
        self.workers = workers
        self.initializer = initializer
        self.rebuilds = 0
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None

    def _live(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                # Fork where available: trial functions defined in test
                # modules stay picklable by reference and workers skip
                # re-import.  Falls back to the platform default.
                try:
                    context = get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX
                    context = get_context()
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context,
                    initializer=_init_worker,
                    initargs=(os.getpid(), self.initializer))
            return self._executor

    def submit(self, fn: Callable[..., Any],
               *args: Any) -> tuple[ProcessPoolExecutor, Future]:
        """Submit ``fn(*args)``; returns the executor, the handle
        :meth:`kill` takes, with the future.  A submit that races a kill
        yields a future failed with ``BrokenProcessPool``: one more
        crash."""
        executor = self._live()
        try:
            return executor, executor.submit(fn, *args)
        except RuntimeError as exc:
            future: Future = Future()
            future.set_exception(
                BrokenProcessPool(f"executor unavailable: {exc}"))
            return executor, future

    def kill(self, executor: ProcessPoolExecutor) -> None:
        """Kill ``executor`` if it is still the live one.  Dead or stuck
        workers cannot be waited out, so they are terminated first and
        ``shutdown`` cannot block on a hung trial."""
        with self._lock:
            if self._executor is not executor:
                return              # already killed through another ref
            self._executor = None
            self.rebuilds += 1
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.terminate()
            except (OSError, AttributeError):  # pragma: no cover
                pass
        executor.shutdown(wait=True, cancel_futures=True)

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def execute_trial(fn: Callable[..., Any], args: tuple,
                  kwargs: tuple[tuple[str, Any], ...],
                  chaos, index: int, attempt: int,
                  trial_context=None, in_worker: bool = True) -> Any:
    """The trial wrapper (module-level, hence picklable): chaos first."""
    if chaos is not None:
        chaos.fire(index, attempt, in_worker=in_worker)
    call_kwargs = dict(kwargs)
    if trial_context is not None:
        call_kwargs["_trial"] = trial_context
    return fn(*args, **call_kwargs)


def classify(exc: BaseException) -> str:
    """The failure kind of an attempt that raised ``exc`` (a cancelled
    future was queued on a pool another attempt broke)."""
    if isinstance(exc, TransientTrialError):
        return "transient"
    if isinstance(exc, (SimulatedWorkerCrash, BrokenProcessPool,
                        CancelledError)):
        return "crash"
    return "exception"


def may_retry(config: CampaignConfig, kind: str, attempts: int) -> bool:
    return kind in RETRYABLE_KINDS and attempts < config.max_attempts


def backoff(config: CampaignConfig, index: int, attempt: int) -> float:
    """Seconds before retrying failed ``attempt`` (0-based) of trial
    ``index``; deterministic in ``(retry_seed, index, attempt)``."""
    return backoff_delay(
        attempt,
        base=config.backoff_base, factor=config.backoff_factor,
        cap=config.backoff_cap, jitter=config.backoff_jitter,
        seed=derive_seed(config.retry_seed, index, f"backoff:{attempt}"))
