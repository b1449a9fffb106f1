"""Section 3.6 / Section 5 ablation — scheduler pass cost scaling.

Times the *real Python implementations* of one lock-based RUA pass
(``O(n^2 log n)``) and one lock-free RUA pass (``O(n^2)``) across job
counts, demonstrating the asymptotic gap the paper attributes to the
"aggregate computation" (dependency chains).  This is a genuine
pytest-benchmark timing target, unlike the campaign benches.

Every timed call uses a fresh ``now`` so each pass is a distinct
scheduling event: a repeated identical call would be served by the
policies' exact memo and measure a cache hit instead of the algorithm.
``test_fastpath_speedup`` additionally gates the incremental fast path
itself — the same pass with ``REPRO_NO_FASTPATH=1`` (the from-scratch
reference construction) must be at least 3x slower at n >= 64 — and
records the fast path's own time per pass into the ``scheduler_cost``
trajectory for the perf-regression gate (``repro bench check``):
``<sync>_n<n>_pass_ns`` at n = 64 and 96 (gated, higher is worse),
together with the lock-based pass time over real dependency chains
(``lockbased_chain_n40_s``, ``lockbased_chain_n96_s``).  Every recorded
time is at a reference speed (:func:`_timed`), so a host that runs
slower for a while, or a slower host, moves it little.  The speedup
ratio itself is asserted but not recorded: its numerator is the
reference path, so a change that speeds up only the reference path
would read as a fast-path regression.
"""

import heapq
import itertools
import os
import random
import time
from dataclasses import replace

import pytest

from repro.core.dependency import WaitForGraph, all_dependency_chains
from repro.core.rua_lockbased import LockBasedRUA
from repro.core.rua_lockfree import LockFreeRUA
from repro.experiments.workloads import paper_taskset
from repro.sim.locks import LockManager
from repro.tasks import Compute, ObjectAccess
from repro.tasks.job import Job
from repro.tasks.segments import ReleaseLock
from repro.units import US

from conftest import record_bench

#: The clock values cycle inside every job's critical-time window, so
#: varying ``now`` never turns the whole set infeasible mid-benchmark.
NOW_CYCLE = 4096

#: Seconds one :func:`_reference_loop` takes at the reference speed.
REFERENCE_LOOP_S = 0.0005

#: Jobs per dependency chain in :func:`_jobs_with_chains`.
CHAIN_LENGTH = 4


def _jobs_with_contention(n):
    rng = random.Random(0)
    tasks = paper_taskset(rng, n_tasks=n, accesses_per_job=2,
                          target_load=0.5)
    jobs = [Job(task=t, jid=0, release_time=0) for t in tasks]
    locks = LockManager()
    # Half the jobs hold their first-needed object.  Every job sits at
    # segment 0, a Compute, so none waits and every chain is a
    # singleton; kept as it is so the *_speedup history stays
    # comparable (``_jobs_with_chains`` has real chains).
    for job in jobs[: n // 2]:
        obj = next(iter(job.task.accessed_objects))
        job.segment_index = 0
        if locks.owner_of(obj) is None:
            locks.try_acquire(job, obj)
            job.holds_lock = obj
    return jobs, locks


def _jobs_with_chains(n):
    """Jobs in groups of :data:`CHAIN_LENGTH`, each holding its own
    object across a nested access; all but a group's first are parked
    at the entry of the access to the object the previous member holds,
    so every group is one dependency chain of that length."""
    rng = random.Random(0)
    tasks = paper_taskset(rng, n_tasks=n, accesses_per_job=2,
                          target_load=0.5)
    locks = LockManager(allow_nesting=True)
    jobs = []
    for index, task in enumerate(tasks):
        own = f"R{index}"
        half = task.compute_time // 2
        if index % CHAIN_LENGTH:
            middle = ObjectAccess(obj=f"R{index - 1}", duration=2 * US)
        else:
            middle = Compute(half)
        body = (ObjectAccess(obj=own, duration=2 * US,
                             release_at_end=False),
                middle, ReleaseLock(obj=own), Compute(half))
        job = Job(task=replace(task, body=body), jid=0, release_time=0)
        job.segment_index = 1
        assert locks.try_acquire(job, own)
        job.holds_lock = own
        job.held_locks.add(own)
        jobs.append(job)
    return jobs, locks


def _distinct_pass(policy, jobs, locks):
    ticks = itertools.count()
    return lambda: policy.schedule(jobs, locks, now=next(ticks) % NOW_CYCLE)


@pytest.mark.parametrize("n", [5, 10, 20, 40, 64, 96])
def test_lockbased_rua_pass(benchmark, n):
    jobs, locks = _jobs_with_contention(n)
    benchmark(_distinct_pass(LockBasedRUA(), jobs, locks))


@pytest.mark.parametrize("n", [40, 96])
def test_lockbased_rua_chain_pass(benchmark, n):
    jobs, locks = _jobs_with_chains(n)
    chains = all_dependency_chains(WaitForGraph(jobs, locks))
    assert max(map(len, chains.values())) == CHAIN_LENGTH
    benchmark(_distinct_pass(LockBasedRUA(), jobs, locks))


@pytest.mark.parametrize("n", [5, 10, 20, 40, 64, 96])
def test_lockfree_rua_pass(benchmark, n):
    jobs, _ = _jobs_with_contention(n)
    benchmark(_distinct_pass(LockFreeRUA(), jobs, None))


def _reference_loop():
    """Fixed pure-Python work — a heap and a dict, as a scheduling pass
    uses them — that calls nothing of the program, so only the host's
    speed moves its time."""
    heap = []
    table = {}
    for key in range(600):
        heapq.heappush(heap, (key * 7919 % 1000, key))
        table[key] = key
    total = 0
    while heap:
        total += table[heapq.heappop(heap)[1]]
    return total


def _reference_s():
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


def _timed(policy, jobs, locks, repeats=10, trials=5):
    """Seconds of one distinct pass at the reference speed: the best of
    ``trials`` batches of ``repeats`` passes, scaled by
    :data:`REFERENCE_LOOP_S` over the best time of the reference loop,
    which runs before and after every batch so it sees the host as the
    passes do."""
    best = float("inf")
    loop_s = _reference_s()
    for _ in range(trials):
        ticks = itertools.count()
        start = time.perf_counter()
        for _ in range(repeats):
            policy.schedule(jobs, locks, now=next(ticks) % NOW_CYCLE)
        best = min(best, time.perf_counter() - start)
        loop_s = min(loop_s, _reference_s())
    return best / repeats * REFERENCE_LOOP_S / loop_s


def _timed_reference(policy, jobs, locks, **kwargs):
    os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        return _timed(policy, jobs, locks, **kwargs)
    finally:
        del os.environ["REPRO_NO_FASTPATH"]


def test_fastpath_speedup():
    """The tentpole target: >= 3x wall-clock over the reference path at
    n >= 64, for both RUA variants.  Also keeps the historical shape
    assertion — a lock-based pass costs more than a lock-free one over
    the same jobs when they wait on each other (with no job waiting the
    two passes do the same work) — and feeds the committed trajectory
    with the fast path's own times."""
    assert not os.environ.get("REPRO_NO_FASTPATH"), \
        "speedup bench needs the fast path enabled"
    metrics = {}
    speedups = {}
    for n in (64, 96):
        jobs, locks = _jobs_with_contention(n)
        t_lb_fast = _timed(LockBasedRUA(), jobs, locks)
        t_lb_ref = _timed_reference(LockBasedRUA(), jobs, locks)
        t_lf_fast = _timed(LockFreeRUA(), jobs, None)
        t_lf_ref = _timed_reference(LockFreeRUA(), jobs, None)
        speedups[("lockbased", n)] = t_lb_ref / t_lb_fast
        speedups[("lockfree", n)] = t_lf_ref / t_lf_fast
        # Suffix "_ns" puts these under the gate's higher-is-worse
        # direction (repro.obs.regress.HIGHER_IS_WORSE).
        metrics[f"lockbased_n{n}_pass_ns"] = round(t_lb_fast * 1e9)
        metrics[f"lockfree_n{n}_pass_ns"] = round(t_lf_fast * 1e9)
    for n in (40, 96):
        # Section 3.6's lock-based cost with real chains: the wait-for
        # walk, chain PUDs and the in-place builder.
        jobs, locks = _jobs_with_chains(n)
        t_chain = _timed(LockBasedRUA(), jobs, locks)
        metrics[f"lockbased_chain_n{n}_s"] = round(t_chain, 9)
        if n == 96:
            assert t_chain > _timed(LockFreeRUA(), jobs, None)
    record_bench(None, "scheduler_cost", metrics)
    for (sync, n), speedup in speedups.items():
        assert speedup >= 3.0, (
            f"fast path only {speedup:.2f}x over reference "
            f"for {sync} at n={n} (target >= 3x)")
