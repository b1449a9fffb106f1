"""Tests for dependency-chain computation (paper Section 3.1, Figure 3)."""

import pytest

from repro.arrivals import UAMSpec
from repro.core.dependency import (
    DeadlockDetected,
    WaitForGraph,
    all_dependency_chains,
    blocking_owner,
    needed_object,
)
from repro.sim.locks import LockManager
from repro.tasks import Compute, Job, ObjectAccess, TaskSpec
from repro.tuf import StepTUF
from tests.helpers import chains_of


def _job_accessing(name, objs):
    body = tuple(ObjectAccess(obj=o, duration=10) for o in objs) or (
        Compute(10),)
    task = TaskSpec(name=name, arrival=UAMSpec(1, 1, 1000),
                    tuf=StepTUF(critical_time=1000), body=body)
    return Job(task=task, jid=0, release_time=0)


def _chains(jobs, locks, on_cycle="raise"):
    return chains_of(WaitForGraph(jobs, locks), jobs, on_cycle)


class TestNeededObject:
    def test_unacquired_access_is_needed(self):
        job = _job_accessing("T", ["R1"])
        assert needed_object(job) == "R1"

    def test_held_access_is_not_needed(self):
        job = _job_accessing("T", ["R1"])
        job.holds_lock = "R1"
        assert needed_object(job) is None

    def test_compute_segment_needs_nothing(self):
        job = _job_accessing("T", [])
        assert needed_object(job) is None


class TestFigure3Scenario:
    """The paper's example: T1 requests R1 held by T2; T2 waits for R2
    held by T3; T3 depends on nobody.  Chains: <T3,T2,T1>, <T3,T2>,
    <T3>."""

    def _build(self):
        locks = LockManager(allow_nesting=True)
        t1 = _job_accessing("T1", ["R1"])
        t2 = _job_accessing("T2", ["R1", "R2"])   # holds R1, wants R2
        t3 = _job_accessing("T3", ["R2"])          # holds R2
        assert locks.try_acquire(t2, "R1")
        t2.holds_lock = "R1"
        t2.segment_index = 1                        # now needs R2
        assert locks.try_acquire(t3, "R2")
        t3.holds_lock = "R2"
        return locks, t1, t2, t3

    def test_chains_match_paper(self):
        locks, t1, t2, t3 = self._build()
        chains = _chains([t1, t2, t3], locks)
        assert chains[t1] == [t3, t2, t1]
        assert chains[t2] == [t3, t2]
        assert chains[t3] == [t3]

    def test_all_chains(self):
        locks, t1, t2, t3 = self._build()
        chains = all_dependency_chains(WaitForGraph([t1, t2, t3], locks))
        assert list(chains) == [t1, t2, t3]
        assert chains[t1] == [t3, t2, t1]

    def test_chain_reaches_owner_outside_the_candidates(self):
        locks, t1, t2, t3 = self._build()
        graph = WaitForGraph([t1], locks)
        assert graph.jobs == [t1, t2, t3]
        assert all_dependency_chains(graph) == {t1: [t3, t2, t1]}

    def test_blocking_owner_walks_one_step(self):
        locks, t1, t2, t3 = self._build()
        assert blocking_owner(t1, locks) is t2
        assert blocking_owner(t2, locks) is t3
        assert blocking_owner(t3, locks) is None


def _deadlocked_pair():
    """A holds R1 and needs R2; B holds R2 and needs R1."""
    locks = LockManager(allow_nesting=True)
    a = _job_accessing("A", ["R1", "R2"])
    b = _job_accessing("B", ["R2", "R1"])
    locks.try_acquire(a, "R1"); a.holds_lock = "R1"; a.segment_index = 1
    locks.try_acquire(b, "R2"); b.holds_lock = "R2"; b.segment_index = 1
    return locks, a, b


class TestDeadlock:
    def test_cycle_raises(self):
        locks, a, b = _deadlocked_pair()
        with pytest.raises(DeadlockDetected) as exc:
            _chains([a, b], locks)
        assert [j.task.name for j in exc.value.cycle] == ["B", "A"]

    def test_cycle_truncated_on_request(self):
        locks, a, b = _deadlocked_pair()
        chains = _chains([a, b], locks, on_cycle="truncate")
        assert chains == {a: [b, a], b: [a, b]}

    def test_dropped_victim_breaks_the_cycle(self):
        locks, a, b = _deadlocked_pair()
        graph = WaitForGraph([a, b], locks)
        graph.drop(b)
        # a waited only on b, so no live job waits any more.
        assert all_dependency_chains(graph) is None

    def test_self_wait_is_not_dependency(self):
        # A job whose needed object it itself owns is not blocked.
        locks = LockManager()
        job = _job_accessing("A", ["R1"])
        locks.try_acquire(job, "R1")
        # Lock held but holds_lock not yet recorded on the job: the
        # owner lookup must not create a self-loop.
        assert blocking_owner(job, locks) is None


class TestNoLocksView:
    def test_chain_without_locks_is_singleton(self):
        job = _job_accessing("T", ["R1"])
        graph = WaitForGraph([job], None)
        assert graph.succ is None
        assert all_dependency_chains(graph) is None
        assert _chains([job], None) == {job: [job]}

    def test_no_waiting_job_means_no_edges(self):
        locks = LockManager()
        holder = _job_accessing("H", ["R1"])
        idle = _job_accessing("I", [])
        locks.try_acquire(holder, "R1")
        holder.holds_lock = "R1"
        graph = WaitForGraph([holder, idle], locks)
        assert graph.succ is None
        assert all_dependency_chains(graph) is None
