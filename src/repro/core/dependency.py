"""Dependency chains and deadlock cycles over one wait-for graph
(Sections 3.1 and 3.3).

A job ``T_1`` that needs a resource held by ``T_2`` is *directly*
dependent on ``T_2``; chains arise transitively.  The chain of a job is
the sequence ``<T_n, ..., T_2, T_1>`` meaning ``T_n`` must execute (at
least up to its lock release) before ``T_{n-1}``, and so on.  A job
depends on the owner of the object its current access segment needs but
does not hold, so it waits for at most one job: the relation is a
functional graph, which :class:`WaitForGraph` reads in one walk per
scheduling pass.  Without nested critical sections a chain has length at
most 2; with nesting, chains can be ``O(n)`` long and can close into
cycles (deadlocks).
"""

from __future__ import annotations

from repro.sim.locks import LockManager, ObjectId
from repro.tasks.job import Job
from repro.tasks.segments import ObjectAccess


class DeadlockDetected(Exception):
    """The dependency chain closed on itself (Section 3.3).

    ``cycle`` lists the jobs on the cycle, in dependency order.
    """

    def __init__(self, cycle: list[Job]) -> None:
        names = " -> ".join(j.name for j in cycle)
        super().__init__(f"deadlock cycle: {names}")
        self.cycle = cycle


def needed_object(job: Job) -> ObjectId | None:
    """The object the job needs next but does not hold: the object of its
    current access segment when unacquired, else None."""
    segment = job.current_segment
    if not isinstance(segment, ObjectAccess):
        return None
    if segment.obj == job.holds_lock or segment.obj in job.held_locks:
        return None
    return segment.obj


def blocking_owner(job: Job, locks: LockManager) -> Job | None:
    """The job that ``job`` directly depends on right now, or None."""
    obj = needed_object(job)
    if obj is None:
        return None
    owner = locks.owner_of(obj)
    return None if owner is job else owner


class WaitForGraph:
    """One pass's wait-for graph, read from the lock state in one walk.

    ``jobs[:size]`` are the candidates, in order, followed by any lock
    owner they reach outside them; ``succ[i]`` is the index of the job
    ``jobs[i]`` waits for, or -1 (nodes are keyed by index and
    ``Job.serial``, never by hashing a job).  ``succ`` is None when no
    candidate waits: then there is no cycle and every chain is the job
    itself.
    """

    __slots__ = ("jobs", "size", "succ", "live")

    def __init__(self, jobs: list[Job], locks: LockManager | None) -> None:
        self.jobs = nodes = list(jobs)
        self.size = len(nodes)
        self.succ: list[int] | None = None
        owners = ([blocking_owner(job, locks) for job in nodes]
                  if locks is not None else [])
        if not any(owners):
            return
        index = {job.serial: i for i, job in enumerate(nodes)}
        self.succ = succ = []
        for owner in owners:  # grows as owners outside the candidates join
            if owner is None:
                succ.append(-1)
                continue
            k = index.get(owner.serial)
            if k is None:
                k = index[owner.serial] = len(nodes)
                nodes.append(owner)
                owners.append(blocking_owner(owner, locks))
            succ.append(k)
        self.live = [True] * len(nodes)  # False for dropped victims

    def drop(self, victim: Job) -> None:
        """Remove a deadlock victim: it is no longer a candidate, and the
        edges into it are broken, as the kernel rolls its locks back
        after the pass."""
        if self.succ is not None and victim in self.jobs:
            v = self.jobs.index(victim)
            self.live[v] = False
            self.succ = [-1 if k == v else k for k in self.succ]


def detect_deadlock(graph: WaitForGraph) -> list[Job] | None:
    """A dependency cycle reachable from the live candidates, or None:
    a coloured walk of the successors from each candidate in order,
    ``O(n)``.  The cycle is listed in dependency order from the first of
    its members the walk reached."""
    succ = graph.succ
    if succ is None:
        return None
    live = graph.live
    color = [0] * len(succ)  # 0 unseen, 1 on the current path, 2 done
    for root in range(graph.size):
        if not live[root] or color[root]:
            continue
        path: list[int] = []
        current = root
        while current >= 0 and not color[current]:
            color[current] = 1
            path.append(current)
            current = succ[current]
        if current >= 0 and color[current] == 1:
            # `current` is on the active path: the cycle runs from its
            # first occurrence to the end of the path.
            return [graph.jobs[i] for i in path[path.index(current):]]
        for i in path:
            color[i] = 2
    return None


def all_dependency_chains(graph: WaitForGraph, on_cycle: str = "raise"
                          ) -> dict[Job, list[Job]] | None:
    """Each live candidate's chain, head first (the order in which it
    must execute) — the ``O(n^2)`` Step 1 of Section 3.6; None when no
    live candidate waits, so every chain is the job itself.

    When a chain closes on itself, ``on_cycle="raise"`` raises
    :class:`DeadlockDetected`; ``"truncate"`` stops at the repeated job,
    covering the cycle once (with deadlock detection disabled the
    scheduler must still produce *some* order).
    """
    succ = graph.succ
    if succ is None:
        return None
    live = graph.live
    roots = [i for i in range(graph.size) if live[i]]
    if all(succ[i] < 0 for i in roots):
        return None
    jobs = graph.jobs
    stamp = [-1] * len(succ)
    chains: dict[Job, list[Job]] = {}
    for root in roots:
        path = [root]
        stamp[root] = root
        current = succ[root]
        while current >= 0:
            if stamp[current] == root:
                if on_cycle == "truncate":
                    break
                # Cut the cycle out of the chain for the error report:
                # it starts where `current` first appeared.
                cycle = path[path.index(current):]
                raise DeadlockDetected(
                    cycle=[jobs[i] for i in reversed(cycle)])
            path.append(current)
            stamp[current] = root
            current = succ[current]
        chains[jobs[root]] = [jobs[i] for i in reversed(path)]
    return chains
