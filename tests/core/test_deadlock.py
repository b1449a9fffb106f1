"""Tests for deadlock detection and resolution (Section 3.3)."""

from repro.arrivals import UAMSpec
from repro.core.deadlock import pick_deadlock_victim
from repro.core.dependency import WaitForGraph, detect_deadlock
from repro.sim.locks import LockManager
from repro.tasks import Compute, Job, ObjectAccess, TaskSpec
from repro.tuf import StepTUF


def _job(name, objs, critical=1000, height=1.0, compute=100):
    body = tuple(ObjectAccess(obj=o, duration=10) for o in objs) or (
        Compute(compute),)
    task = TaskSpec(name=name, arrival=UAMSpec(1, 1, critical),
                    tuf=StepTUF(critical_time=critical, height=height),
                    body=body)
    return Job(task=task, jid=0, release_time=0)


def _detect(jobs, locks):
    return detect_deadlock(WaitForGraph(jobs, locks))


def _two_cycle():
    locks = LockManager(allow_nesting=True)
    a = _job("A", ["R1", "R2"], height=5.0)
    b = _job("B", ["R2", "R1"], height=1.0)
    locks.try_acquire(a, "R1"); a.holds_lock = "R1"; a.segment_index = 1
    locks.try_acquire(b, "R2"); b.holds_lock = "R2"; b.segment_index = 1
    return locks, a, b


class TestDetection:
    def test_no_jobs_no_deadlock(self):
        assert _detect([], LockManager()) is None

    def test_chain_without_cycle(self):
        locks = LockManager(allow_nesting=True)
        a = _job("A", ["R1"])
        b = _job("B", ["R1"])
        locks.try_acquire(a, "R1"); a.holds_lock = "R1"
        assert _detect([a, b], locks) is None

    def test_two_cycle_detected(self):
        locks, a, b = _two_cycle()
        cycle = _detect([a, b], locks)
        assert cycle is not None
        assert {j.task.name for j in cycle} == {"A", "B"}

    def test_three_cycle_detected(self):
        locks = LockManager(allow_nesting=True)
        a = _job("A", ["R1", "R2"])
        b = _job("B", ["R2", "R3"])
        c = _job("C", ["R3", "R1"])
        for job, obj in ((a, "R1"), (b, "R2"), (c, "R3")):
            locks.try_acquire(job, obj)
            job.holds_lock = obj
            job.segment_index = 1
        cycle = _detect([a, b, c], locks)
        assert cycle is not None
        assert len(cycle) == 3

    def test_detection_starts_from_any_root(self):
        locks, a, b = _two_cycle()
        outsider = _job("Z", [])
        cycle = _detect([outsider, a, b], locks)
        assert cycle == [a, b]

    def test_cycle_among_owners_outside_the_candidates(self):
        locks, a, b = _two_cycle()
        waiter = _job("W", ["R1"])
        assert _detect([waiter], locks) == [a, b]

    def test_dropped_victim_resolves_the_cycle(self):
        locks, a, b = _two_cycle()
        graph = WaitForGraph([a, b], locks)
        victim = pick_deadlock_victim(detect_deadlock(graph), now=0)
        graph.drop(victim)
        assert detect_deadlock(graph) is None


class TestResolution:
    def test_victim_is_lowest_pud(self):
        locks, a, b = _two_cycle()
        cycle = _detect([a, b], locks)
        victim = pick_deadlock_victim(cycle, now=0)
        assert victim is b   # height 1 < height 5, same timings

    def test_tie_broken_by_latest_critical_time(self):
        x = _job("X", [], critical=500, compute=100)
        y = _job("Y", [], critical=900, compute=100)
        # Same PUD shape? chain_pud differs with critical times only via
        # the step cutoff; both complete at 100 so both PUD = 1/100.
        victim = pick_deadlock_victim([x, y], now=0)
        assert victim is y

    def test_empty_cycle_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            pick_deadlock_victim([], now=0)
