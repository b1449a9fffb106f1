"""Named kernel scenarios for the trace-parity gate.

Each case builds the keyword arguments of a
:class:`~repro.sim.kernel.SimulationConfig` (everything but the
observer), covering every kind of kernel happening: the hand-built
scenarios of ``tests/sim`` and ``tests/faults`` (blocking, wake-ups on
release and on abort, nested sections and deadlock resolution, lock-free
retries under both retry policies, every fault family) plus the
quick-look random workloads at seeds 0-2 under both lock-free and
lock-based RUA.

:func:`trace_digest` hashes a list of
:class:`~repro.sim.tracing.TraceEvent` (time, kind, job, detail, in
order); ``tests/fixtures/trace_parity.json`` holds the digests the
kernel's former dedicated trace buffer recorded for these cases, so the
projection of the observer stream is pinned event for event.
"""

from __future__ import annotations

import hashlib

from repro.arrivals import UAMSpec
from repro.core.rua_lockbased import LockBasedRUA
from repro.core.rua_lockfree import LockFreeRUA
from repro.faults.degradation import AdmissionPolicy, RetryGuard, ShedMode
from repro.faults.plan import (
    ArrivalBurst,
    CostJitter,
    FaultPlan,
    SegmentOverrun,
    TimerFault,
)
from repro.sim.kernel import SyncMode
from repro.sim.objects import RetryPolicy
from repro.sim.overheads import KernelCosts, ZeroCost
from repro.tasks import Compute, ObjectAccess, TaskSpec
from repro.tasks.segments import AccessKind
from repro.tuf import LinearDecreasingTUF, StepTUF
from repro.units import MS, US
from tests.helpers import nested_task, simple_task, zero_cost_policy


def trace_digest(events) -> str:
    """SHA-256 over the ordered (time, kind, job, detail) rows."""
    text = "\n".join(f"{e.time}\t{e.kind.value}\t{e.job}\t{e.detail}"
                     for e in events)
    return hashlib.sha256(text.encode()).hexdigest()


def _hand(tasks, traces_us, sync=SyncMode.NONE, policy="edf",
          horizon_us=100_000, **extra):
    """Config kwargs for a zero-cost, ideal-object hand-built scenario."""
    return dict(
        tasks=tasks,
        arrival_traces=[[t * US for t in trace] for trace in traces_us],
        policy=(zero_cost_policy(policy) if isinstance(policy, str)
                else policy),
        horizon=horizon_us * US,
        sync=sync,
        costs=KernelCosts.ideal(),
        **extra,
    )


def _pair(long_us, short_us, long_obj=None, short_obj=None,
          kind=AccessKind.WRITE):
    long = simple_task("L", critical_us=50_000, compute_us=100,
                       accesses=[(long_obj, long_us)] if long_obj is not None
                       else None, window_us=60_000)
    short = simple_task("S", critical_us=3_000, compute_us=100,
                        accesses=[(short_obj, short_us)]
                        if short_obj is not None else None,
                        window_us=60_000, kind=kind)
    return [long, short]


def _nested(tasks, traces_us, detect=True, sync=SyncMode.LOCK_BASED):
    policy = (LockBasedRUA(cost_model=ZeroCost(), detect_deadlocks=detect)
              if sync is SyncMode.LOCK_BASED
              else LockFreeRUA(cost_model=ZeroCost()))
    return _hand(tasks, traces_us, sync=sync, policy=policy,
                 horizon_us=60_000, allow_nesting=True)


def _deadlock_pair():
    return [nested_task("rich", "A", "B", 50_000, height=10.0),
            nested_task("poor", "B", "A", 10_000)]


def _interferers():
    return [
        simple_task("L", critical_us=50_000, compute_us=100,
                    accesses=[(0, 3000)], window_us=60_000),
        simple_task("D1", critical_us=3000, compute_us=100,
                    accesses=[(1, 200)], window_us=60_000),
        simple_task("D2", critical_us=4000, compute_us=100,
                    accesses=[(1, 200)], window_us=60_000),
    ]


def _burst_task():
    return simple_task("T", critical_us=1000, compute_us=100,
                       window_us=10_000)


def _quick(sync: str, seed: int):
    """Config kwargs of ``simulate(quick_scenario(...))`` (shortened
    horizon), built the way the API builds them."""
    from repro.api import build_policy_and_mode, quick_scenario

    scenario = quick_scenario(sync=sync, seed=seed, horizon_us=100_000)
    tasks, traces = scenario.materialize()
    policy, mode, costs = build_policy_and_mode(scenario.sync)
    return dict(tasks=tasks, arrival_traces=traces, policy=policy,
                horizon=scenario.horizon, sync=mode, costs=costs,
                retry_policy=scenario.retry_policy)


def _cases():
    lf = dict(sync=SyncMode.LOCK_FREE, policy="rua-lockfree",
              horizon_us=60_000)
    storm = FaultPlan.retry_storm(0, times_per_task=5, task_names=["L"])
    yield "single_job", lambda: _hand(
        [simple_task("T", critical_us=1000, compute_us=100)], [[0]])
    yield "edf_order", lambda: _hand(
        [simple_task("L", critical_us=2000, compute_us=100),
         simple_task("S", critical_us=500, compute_us=100)], [[0], [0]])
    yield "linear_tuf", lambda: _hand(
        [simple_task("T", critical_us=1000, compute_us=500,
                     tuf=LinearDecreasingTUF(critical_time=1000 * US))],
        [[0]])
    yield "idle_gap", lambda: _hand(
        [simple_task("T", critical_us=1000, compute_us=100,
                     window_us=10_000)], [[0, 10_000]], horizon_us=20_000)
    yield "abort_at_critical_time", lambda: _hand(
        [simple_task("T", critical_us=1000, compute_us=2000,
                     window_us=3000)], [[0]])
    yield "abort_releases_held_lock", lambda: _hand(
        [simple_task("G", critical_us=1000, compute_us=10,
                     accesses=[(0, 5000)], window_us=10_000),
         simple_task("W", critical_us=9000, compute_us=10,
                     accesses=[(0, 100)], window_us=10_000)],
        [[0], [100]], sync=SyncMode.LOCK_BASED, policy="rua-lockbased",
        horizon_us=20_000)
    yield "edf_lock_both_abort", lambda: _hand(
        [simple_task("G", critical_us=1000, compute_us=10,
                     accesses=[(0, 5000)], window_us=10_000),
         simple_task("W", critical_us=900, compute_us=10,
                     accesses=[(0, 100)], window_us=10_000)],
        [[0], [100]], sync=SyncMode.LOCK_BASED, policy="edf",
        horizon_us=20_000)
    yield "abort_handler_time", lambda: _hand(
        [simple_task("D", critical_us=100, compute_us=5000,
                     window_us=10_000, handler_us=500),
         simple_task("B", critical_us=5000, compute_us=100,
                     window_us=10_000)], [[0], [100]], horizon_us=10_000)
    yield "preemption", lambda: _hand(
        [simple_task("L", critical_us=50_000, compute_us=10_000,
                     window_us=60_000),
         simple_task("S", critical_us=2000, compute_us=500,
                     window_us=60_000)], [[0], [1000]], horizon_us=60_000)
    yield "rua_lock_holder_first", lambda: _hand(
        [simple_task("H", critical_us=40_000, compute_us=100,
                     accesses=[(0, 3000)], window_us=50_000),
         simple_task("D", critical_us=5000, compute_us=100,
                     accesses=[(0, 200)], window_us=50_000)],
        [[0], [1000]], sync=SyncMode.LOCK_BASED, policy="rua-lockbased",
        horizon_us=50_000)
    yield "edf_blocking", lambda: _hand(
        [simple_task("H", critical_us=40_000, compute_us=100,
                     accesses=[(0, 3000)], window_us=50_000),
         simple_task("D", critical_us=5000, compute_us=100,
                     accesses=[(0, 200)], window_us=50_000)],
        [[0], [1000]], sync=SyncMode.LOCK_BASED, policy="edf",
        horizon_us=50_000)
    yield "lock_acquire_release", lambda: _hand(
        [simple_task("T", critical_us=10_000, compute_us=100,
                     accesses=[(0, 50)])], [[0]],
        sync=SyncMode.LOCK_BASED, policy="rua-lockbased")
    yield "lockfree_conflict_retry", lambda: _hand(
        _pair(3000, 200, 0, 0), [[0], [1000]], **lf)
    yield "lockfree_reader", lambda: _hand(
        _pair(3000, 200, 0, 0, kind=AccessKind.READ), [[0], [1000]], **lf)
    yield "lockfree_on_preemption", lambda: _hand(
        _pair(3000, 200, 0, 1), [[0], [1000]],
        retry_policy=RetryPolicy.ON_PREEMPTION, **lf)
    yield "lockfree_on_conflict_disjoint", lambda: _hand(
        _pair(3000, 200, 0, 1), [[0], [1000]], **lf)
    yield "sync_none_accesses", lambda: _hand(
        [simple_task("T", critical_us=10_000, compute_us=100,
                     accesses=[(0, 500)])], [[0]])
    yield "unfinished_at_horizon", lambda: _hand(
        [simple_task("T", critical_us=90_000, compute_us=50_000,
                     window_us=100_000)], [[0]], horizon_us=10_000)
    yield "lockfree_periodic_pair", lambda: _hand(
        [simple_task("A", critical_us=5000, compute_us=700,
                     accesses=[(0, 100)], window_us=6000),
         simple_task("B", critical_us=3000, compute_us=400,
                     accesses=[(0, 100)], window_us=6000)],
        [[0, 6000], [500, 6500]], sync=SyncMode.LOCK_FREE,
        policy="rua-lockfree", horizon_us=15_000)
    yield "nested_single", lambda: _nested(
        [nested_task("T", "A", "B", 50_000)], [[0]])
    yield "nested_competitor", lambda: _nested(
        [nested_task("H", "A", "B", 50_000),
         TaskSpec(name="C", arrival=UAMSpec(1, 1, 60 * MS),
                  tuf=StepTUF(critical_time=40 * MS),
                  body=(Compute(10 * US),
                        ObjectAccess(obj="A", duration=100 * US),
                        Compute(10 * US)))], [[0], [500]])
    yield "deadlock_detected", lambda: _nested(_deadlock_pair(),
                                               [[0], [200]])
    yield "deadlock_undetected", lambda: _nested(_deadlock_pair(),
                                                 [[0], [200]],
                                                 detect=False)
    yield "nested_under_lockfree", lambda: _nested(
        [nested_task("T", "A", "B", 50_000)], [[0]],
        sync=SyncMode.LOCK_FREE)
    yield "burst_unguarded", lambda: _hand(
        [_burst_task()], [[0]], fault_plan=FaultPlan(
            bursts=(ArrivalBurst(0, 2000 * US, count=2),)))
    yield "burst_shed", lambda: _hand(
        [_burst_task()], [[0]], fault_plan=FaultPlan(
            bursts=(ArrivalBurst(0, 2000 * US, count=2),)),
        admission=AdmissionPolicy(ShedMode.SHED))
    yield "burst_defer", lambda: _hand(
        [_burst_task()], [[0]], horizon_us=40_000, fault_plan=FaultPlan(
            bursts=(ArrivalBurst(0, 2000 * US, count=2),)),
        admission=AdmissionPolicy(ShedMode.DEFER))
    yield "segment_overrun", lambda: _hand(
        [simple_task("T", critical_us=10_000, compute_us=100)], [[0]],
        fault_plan=FaultPlan(overruns=(
            SegmentOverrun(task="T", extra=500 * US),)))
    yield "spurious_retries", lambda: _hand(
        _interferers(), [[0], [1000], [2000]], fault_plan=storm, **lf)
    yield "retry_guard_abort", lambda: _hand(
        _interferers(), [[0], [1000], [2000]], fault_plan=storm,
        retry_guard=RetryGuard(max_retries=1), **lf)
    yield "retry_backoff", lambda: _hand(
        _interferers(), [[0], [1000], [2000]], fault_plan=storm,
        retry_guard=RetryGuard(max_retries=10, backoff_base=50 * US),
        monitors=True, **lf)
    yield "timer_dropped", lambda: _hand(
        [simple_task("X", critical_us=1000, compute_us=5000)], [[0]],
        fault_plan=FaultPlan(timer_faults=(TimerFault(task="X",
                                                      drop=True),)),
        monitors=True)
    yield "timer_delayed", lambda: _hand(
        [simple_task("X", critical_us=1000, compute_us=5000)], [[0]],
        fault_plan=FaultPlan(timer_faults=(
            TimerFault(task="X", delay=2000 * US),)))
    yield "cost_jitter", lambda: dict(
        _quick("lockbased", 3),
        fault_plan=FaultPlan(seed=5, jitter=CostJitter(magnitude=0.5)))
    for sync in ("lockfree", "lockbased"):
        for seed in range(3):
            yield f"quick_{sync}_{seed}", (
                lambda sync=sync, seed=seed: _quick(sync, seed))


#: name -> zero-argument builder of SimulationConfig kwargs.
CASES = dict(_cases())
