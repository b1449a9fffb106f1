"""Property tests: the one-walk wait-for graph agrees with the former
per-job walks.

Random lock states with nesting — random owners, locks held across
later accesses (recorded on the job or only in the lock manager), jobs
parked at the entry of an access to a held object, owners outside the
candidate list, random sets of ignored (victim) jobs and cycles — must
give the same deadlock cycle as the former ``detect_deadlock`` pointer
walk and the same chains as the former per-job ``dependency_chain``.
Both former functions are copied below as the oracle, with the former
``ignore``-aware ``blocking_owner`` they called; only their docstrings
are dropped.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arrivals import UAMSpec
from repro.core.deadlock import pick_deadlock_victim
from repro.core.dependency import (
    DeadlockDetected,
    WaitForGraph,
    all_dependency_chains,
    detect_deadlock,
    needed_object,
)
from repro.sim.locks import LockManager
from repro.tasks import Compute, Job, ObjectAccess, TaskSpec
from repro.tasks.segments import ReleaseLock
from repro.tuf import StepTUF
from tests.helpers import chains_of

# ----------------------------------------------------------------------
# Oracle: the per-job walks the wait-for graph replaced.
# ----------------------------------------------------------------------


def old_blocking_owner(job, locks, ignore=frozenset()):
    obj = needed_object(job)
    if obj is None:
        return None
    owner = locks.owner_of(obj)
    if owner is job or owner in ignore:
        return None
    return owner


def old_dependency_chain(job, locks, ignore=frozenset(), on_cycle="raise"):
    if locks is None:
        return [job]
    chain = [job]
    seen = {job}
    current = job
    while True:
        owner = old_blocking_owner(current, locks, ignore)
        if owner is None:
            break
        if owner in seen:
            if on_cycle == "truncate":
                break
            start = chain.index(owner)
            raise DeadlockDetected(cycle=list(reversed(chain[start:])))
        chain.append(owner)
        seen.add(owner)
        current = owner
    chain.reverse()
    return chain


def old_detect_deadlock(jobs, locks, ignore=frozenset()):
    color = {}  # 0 unseen implicit, 1 on current path, 2 done
    for root in jobs:
        if root in ignore or color.get(root):
            continue
        path = []
        current = root
        while current is not None and color.get(current) is None:
            color[current] = 1
            path.append(current)
            current = old_blocking_owner(current, locks, ignore)
        if current is not None and color.get(current) == 1:
            start = path.index(current)
            for job in path:
                color[job] = 2
            return path[start:]
        for job in path:
            color[job] = 2
    return None


# ----------------------------------------------------------------------
# Random lock states
# ----------------------------------------------------------------------


def _job(name, held_across, needed, height):
    """A job parked at the entry of its access to ``needed`` (or at a
    compute segment when None), holding ``held_across`` from earlier
    accesses."""
    body = [ObjectAccess(obj=obj, duration=10, release_at_end=False)
            for obj in held_across]
    body.append(Compute(10) if needed is None
                else ObjectAccess(obj=needed, duration=10))
    body.extend(ReleaseLock(obj=obj) for obj in held_across)
    body.append(Compute(10))
    task = TaskSpec(name=name, arrival=UAMSpec(1, 1, 1000),
                    tuf=StepTUF(critical_time=1000, height=height),
                    body=tuple(body))
    job = Job(task=task, jid=0, release_time=0)
    job.segment_index = len(held_across)
    return job


@st.composite
def lock_states(draw):
    """(locks, jobs, candidates, ignore)."""
    objects = [f"R{k}" for k in range(draw(st.integers(1, 6)))]
    n_jobs = draw(st.integers(1, 8))
    owner_of = {obj: draw(st.integers(-1, n_jobs - 1)) for obj in objects}
    # Often close a ring: job i holds object i and needs object i + 1.
    ring = draw(st.integers(0, min(n_jobs, len(objects))))
    for i in range(ring):
        owner_of[objects[i]] = i
    jobs = []
    recorded = []
    for i in range(n_jobs):
        owned = [obj for obj in objects if owner_of[obj] == i]
        if ring >= 2 and i < ring:
            needed = objects[(i + 1) % ring]
        else:
            needed = draw(st.sampled_from([None, *objects]))
        # A lock on the object the job is about to access is only in
        # the lock manager, never in the body.
        held_across = [obj for obj in owned if obj != needed]
        jobs.append(_job(f"J{i}", held_across, needed,
                         height=draw(st.integers(1, 4))))
        recorded.append(draw(st.booleans()))
    locks = LockManager(allow_nesting=True)
    for obj in objects:
        if owner_of[obj] >= 0:
            owner = jobs[owner_of[obj]]
            assert locks.try_acquire(owner, obj)
            if recorded[owner_of[obj]]:
                owner.held_locks.add(obj)
                owner.holds_lock = obj
    order = draw(st.permutations(range(n_jobs)))
    candidates = [jobs[i] for i in order[:draw(st.integers(0, n_jobs))]]
    ignore = {job for job in jobs if draw(st.integers(0, 3)) == 0}
    return locks, jobs, candidates, ignore


def _graph(candidates, locks, ignore):
    graph = WaitForGraph(candidates, locks)
    for job in ignore:
        graph.drop(job)
    return graph


def _old_chains(candidates, locks, ignore, on_cycle):
    """The former chains of the non-ignored candidates, or the cycle
    the former walk raised."""
    try:
        return {job: old_dependency_chain(job, locks, ignore, on_cycle)
                for job in candidates if job not in ignore}, None
    except DeadlockDetected as exc:
        return None, exc.cycle


def _new_chains(graph, candidates, ignore, on_cycle):
    try:
        return chains_of(graph, [job for job in candidates
                                 if job not in ignore], on_cycle), None
    except DeadlockDetected as exc:
        return None, exc.cycle


@settings(max_examples=400, deadline=None)
@given(state=lock_states())
def test_walk_matches_former_walks(state):
    locks, _, candidates, ignore = state
    graph = _graph(candidates, locks, ignore)
    assert (detect_deadlock(graph)
            == old_detect_deadlock(candidates, locks, ignore))
    for on_cycle in ("raise", "truncate"):
        assert (_new_chains(graph, candidates, ignore, on_cycle)
                == _old_chains(candidates, locks, ignore, on_cycle))


@settings(max_examples=400, deadline=None)
@given(state=lock_states())
def test_victim_resolution_matches_former_walks(state):
    """The Step 3 loop of lock-based RUA: the same victims in the same
    order, then the same (cycle-free) chains."""
    locks, _, candidates, _ = state
    old_victims, old_candidates = set(), list(candidates)
    old_order = []
    while (cycle := old_detect_deadlock(old_candidates, locks,
                                        old_victims)) is not None:
        victim = pick_deadlock_victim(cycle, now=0)
        old_order.append(victim)
        old_victims.add(victim)
        old_candidates = [j for j in old_candidates if j is not victim]
    graph = WaitForGraph(candidates, locks)
    new_order = []
    while (cycle := detect_deadlock(graph)) is not None:
        victim = pick_deadlock_victim(cycle, now=0)
        new_order.append(victim)
        graph.drop(victim)
        assert len(new_order) <= len(old_order), "a victim did not break"
    assert new_order == old_order
    expected, raised = _old_chains(old_candidates, locks, old_victims,
                                   "raise")
    assert raised is None
    assert _new_chains(graph, candidates, old_victims, "raise") == (
        expected, None)


def test_cycle_through_owners_outside_the_candidates():
    locks = LockManager(allow_nesting=True)
    a = _job("A", ["R0"], "R1", 1)
    b = _job("B", ["R1"], "R0", 1)
    waiter = _job("W", [], "R0", 1)
    for job, obj in ((a, "R0"), (b, "R1")):
        assert locks.try_acquire(job, obj)
        job.held_locks.add(obj)
    assert (detect_deadlock(WaitForGraph([waiter], locks))
            == old_detect_deadlock([waiter], locks) == [a, b])
    with pytest.raises(DeadlockDetected):
        all_dependency_chains(WaitForGraph([waiter], locks))
