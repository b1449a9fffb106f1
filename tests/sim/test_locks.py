"""Tests for the lock manager."""

import pytest

from repro.arrivals import UAMSpec
from repro.sim.locks import LockManager
from repro.tasks import Compute, Job, TaskSpec
from repro.tuf import StepTUF


def _job(name="T"):
    task = TaskSpec(name=name, arrival=UAMSpec(1, 1, 1000),
                    tuf=StepTUF(critical_time=1000), body=(Compute(10),))
    return Job(task=task, jid=0, release_time=0)


class TestAcquireRelease:
    def test_free_lock_acquired(self):
        locks = LockManager()
        job = _job()
        assert locks.try_acquire(job, "q")
        assert locks.owner_of("q") is job
        assert locks.held_by(job) == ("q",)

    def test_held_lock_enqueues_waiter(self):
        locks = LockManager()
        owner, waiter = _job("A"), _job("B")
        assert locks.try_acquire(owner, "q")
        assert not locks.try_acquire(waiter, "q")
        assert locks.waiters_on("q") == (waiter,)
        assert locks.contentions == 1

    def test_release_returns_waiters(self):
        locks = LockManager()
        owner, waiter = _job("A"), _job("B")
        locks.try_acquire(owner, "q")
        locks.try_acquire(waiter, "q")
        woken = locks.release(owner, "q")
        assert woken == [waiter]
        assert locks.owner_of("q") is None

    def test_release_without_ownership_raises(self):
        locks = LockManager()
        with pytest.raises(RuntimeError, match="does not hold"):
            locks.release(_job(), "q")

    def test_reacquire_held_lock_raises(self):
        locks = LockManager()
        job = _job()
        locks.try_acquire(job, "q")
        with pytest.raises(RuntimeError, match="re-acquiring"):
            locks.try_acquire(job, "q")

    def test_duplicate_wait_not_enqueued_twice(self):
        locks = LockManager()
        owner, waiter = _job("A"), _job("B")
        locks.try_acquire(owner, "q")
        locks.try_acquire(waiter, "q")
        locks.try_acquire(waiter, "q")
        assert locks.waiters_on("q") == (waiter,)


class TestNesting:
    def test_nesting_disabled_by_default(self):
        locks = LockManager()
        job = _job()
        locks.try_acquire(job, "a")
        with pytest.raises(RuntimeError, match="nested"):
            locks.try_acquire(job, "b")

    def test_nesting_enabled(self):
        locks = LockManager(allow_nesting=True)
        job = _job()
        assert locks.try_acquire(job, "a")
        assert locks.try_acquire(job, "b")
        assert set(locks.held_by(job)) == {"a", "b"}


class TestRollback:
    def test_release_all_frees_everything(self):
        locks = LockManager(allow_nesting=True)
        job, waiter = _job("A"), _job("B")
        locks.try_acquire(job, "a")
        locks.try_acquire(job, "b")
        locks.try_acquire(waiter, "a")
        woken = locks.release_all(job)
        assert waiter in woken
        assert locks.owner_of("a") is None
        assert locks.owner_of("b") is None
        assert locks.held_by(job) == ()

    def test_release_all_cancels_own_waits(self):
        locks = LockManager()
        owner, job = _job("A"), _job("B")
        locks.try_acquire(owner, "q")
        locks.try_acquire(job, "q")
        locks.release_all(job)
        assert locks.waiters_on("q") == ()

    def test_cancel_wait(self):
        locks = LockManager()
        owner, waiter = _job("A"), _job("B")
        locks.try_acquire(owner, "q")
        locks.try_acquire(waiter, "q")
        locks.cancel_wait(waiter)
        assert locks.waiters_on("q") == ()
