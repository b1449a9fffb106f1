"""Lock-based RUA (Section 3).

The algorithm, at every scheduling event:

1. compute each job's dependency chain (Section 3.1);
2. compute each job's PUD over its chain (Section 3.2);
3. detect and resolve deadlocks (Section 3.3 — only reachable when nested
   critical sections are enabled);
4. sort jobs by non-increasing PUD;
5. insert each job with its dependents into a tentative ECF schedule,
   testing feasibility and rejecting infeasible insertions (Section 3.4).

Asymptotic cost ``O(n^2 log n)``, dominated by Step 5 (Section 3.6); the
matching simulated cost is charged through
:func:`repro.sim.overheads.default_lockbased_rua_cost`.

Steps 1 and 3 read one :class:`~repro.core.dependency.WaitForGraph` per
pass.  Step 5 runs through one of three result-identical constructions:
when no job waits the copy-free singleton specialization with cross-pass
repair (:mod:`repro.core.schedule_cache`); with real chains the undo-log
in-place builder; under ``REPRO_NO_FASTPATH`` the copying Section 3.4
reference.
"""

from __future__ import annotations

from repro.core.deadlock import pick_deadlock_victim
from repro.core.dependency import (
    WaitForGraph,
    all_dependency_chains,
    detect_deadlock,
)
from repro.core.interface import PassResult, SchedulerPolicy, fastpath_enabled
from repro.core.pud import chain_pud
from repro.core.schedule_builder import (
    build_rua_schedule,
    build_rua_schedule_inplace,
)
from repro.core.schedule_cache import ScheduleCache, build_singleton_schedule
from repro.sim.locks import LockManager
from repro.sim.overheads import CostModel, default_lockbased_rua_cost
from repro.tasks.job import Job


class LockBasedRUA(SchedulerPolicy):
    """The Resource-constrained Utility Accrual scheduler with lock-based
    object sharing."""

    name = "rua-lockbased"
    emits_counters = True
    memoizes = True

    def __init__(self, cost_model: CostModel | None = None,
                 detect_deadlocks: bool = True) -> None:
        super().__init__()
        self.cost_model = cost_model or default_lockbased_rua_cost()
        self.detect_deadlocks = detect_deadlocks
        self._schedule_cache = ScheduleCache()

    def _compute(self, jobs: list[Job], locks: LockManager | None,
                 now: int) -> PassResult:
        candidates = list(jobs)
        victims = 0
        # Steps 1 and 3 read one wait-for graph, walked once per pass.
        # Step 3 runs first: resolving a deadlock changes the chains.  A
        # victim's locks are only rolled back by the kernel after this
        # pass, so the graph drops the edges into it instead.
        graph = WaitForGraph(candidates, locks)
        if self.detect_deadlocks and locks is not None:
            while True:
                cycle = detect_deadlock(graph)
                if cycle is None:
                    break
                victim = pick_deadlock_victim(cycle, now)
                self.request_abort(victim)
                graph.drop(victim)
                victims += 1
                candidates = [j for j in candidates if j is not victim]
        # Steps 1-2: dependency chains and PUDs.  With detection enabled
        # every cycle has been resolved above, so chains cannot close;
        # with detection disabled, truncate instead of raising so the
        # scheduler still produces an order (the cycle members will sit
        # blocked until their critical-time aborts break it).  None
        # means no job waits: every chain is the job itself.
        on_cycle = "raise" if self.detect_deadlocks else "truncate"
        chains = all_dependency_chains(graph, on_cycle=on_cycle)
        chain_len_max = (min(len(candidates), 1) if chains is None
                         else max(map(len, chains.values())))
        fast = fastpath_enabled()
        if fast and chains is None:
            # Step 4-5, singleton specialization: every chain is the job
            # itself, so the PUD inlines (same arithmetic as chain_pud on
            # a one-job chain) and the copy-free builder applies.
            entries = []
            for job in candidates:
                remaining = job.remaining_time()
                if remaining <= 0:
                    pud = float("inf")
                else:
                    utility = 0.0 + job.task.tuf.utility(
                        now + remaining - job.release_time)
                    pud = utility / remaining
                entries.append(((-pud, job.critical_time_abs, job.name),
                                remaining, job))
            entries.sort(key=lambda entry: entry[0])
            order = build_singleton_schedule(
                [(job, remaining, key[1])
                 for key, remaining, job in entries],
                now, cache=self._schedule_cache, obs=self.obs)
        else:
            if chains is None:
                chains = {job: [job] for job in candidates}
            puds = {job: chain_pud(chains[job], now) for job in candidates}
            # Step 4: non-increasing PUD; deterministic tie-breaks
            # (earlier critical time, then name).
            pud_order = sorted(
                candidates,
                key=lambda job: (-puds[job], job.critical_time_abs,
                                 job.name),
            )
            # Step 5: tentative-schedule construction.
            if fast:
                order = build_rua_schedule_inplace(pud_order, chains, now)
            else:
                order = build_rua_schedule(pud_order, chains, now)
        return PassResult(order=order,
                          rejections=len(candidates) - len(order),
                          victims=victims,
                          chain_len_max=chain_len_max)
