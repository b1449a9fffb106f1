"""``sim_lockfree_retry`` and ``sim_lockbased_chain``: serial in-process
``simulate(scenario)`` over whole passes of a fixed scenario pool, in a
seeded order.

Every result is checked against the committed digest of
``fingerprint_result`` (records, retries, charged scheduler and lock
costs).  Host time is measured; the per-layer ``sim.*`` counts are in
simulated units and repeat exactly for a given seed.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any

from perfbench import inputs
from perfbench.common import (
    TAIL_Q,
    WORK_DIR,
    BenchError,
    Report,
    default_setup_samples,
    median,
    percentile,
    reference_s,
    tail_label,
    to_reference,
)
from perfbench.tracer import Tracer

#: About how long one pass over the pool takes on a busy 2-core host.
PASS_S = 3.0
MIN_PASSES = 2


@dataclass
class SimState:
    workload: str
    seed: int
    batch: list[tuple[int, Any]]
    expected: list[str]
    warm_ok: bool


def result_digest(summary) -> str:
    from repro.sim.checkpoint import fingerprint_result

    return hashlib.sha256(
        fingerprint_result(summary.result).encode("utf-8")).hexdigest()


def setup(workload: str, seed: int) -> SimState:
    from repro.api import simulate
    from repro.scenario import Scenario

    expected = inputs.load_expected()[workload]
    if len(expected) != inputs.SIM_POOL + 1:
        raise BenchError(f"expected.json holds {len(expected)} digests "
                         f"for {workload}, not {inputs.SIM_POOL + 1}")
    batch = [(index, Scenario.from_dict(
        inputs.sim_scenario_dict(workload, index)))
        for index in inputs.sim_order(seed)]
    warm = Scenario.from_dict(
        inputs.sim_scenario_dict(workload, inputs.SIM_POOL))
    warm_ok = result_digest(simulate(warm)) == expected[inputs.SIM_POOL]
    return SimState(workload, seed, batch, expected, warm_ok)


def teardown(state: SimState) -> None:
    pass


setup_samples = default_setup_samples


def _check(state: SimState, report: Report, index: int,
           digest: str) -> None:
    report.op(digest == state.expected[index],
              f"{state.workload} scenario {index}: result digest "
              f"{digest[:12]} != expected {state.expected[index][:12]}")


def clean_heap() -> None:
    """Collect the garbage of the previous call, outside the timing.

    Objects that lived through set-up are frozen (``gc.freeze``) before
    timing starts, so this costs about as much as the last call left
    behind.  Without it a call pays for the collections its
    predecessors' allocations made due, which depends on the seeded
    order and lands on whichever scenario crosses the threshold.
    """
    gc.collect()


def passes_for(seconds: float) -> int:
    """Passes over the pool a run of ``seconds`` makes: one per
    :data:`PASS_S`, at least :data:`MIN_PASSES`.  A function of the
    arguments only, so every run at one ``--seconds`` does the same
    work."""
    return max(MIN_PASSES, round(seconds / PASS_S))


def measure(state: SimState, report: Report, seconds: float) -> None:
    """Whole passes over the pool, each pinned to the next of the CPUs
    this process may use; each scenario's time is the median of its
    passes at the reference speed.

    On a shared host, other tenants can stretch CPU-bound work by up to
    1.5x for spans of a fraction of a second to minutes, often longer
    than a run.  So each call is timed between two reference loops on
    the same CPU and counts at the reference speed they give (see
    :func:`perfbench.common.to_reference`).

    Each call starts from an empty young heap (see :func:`clean_heap`),
    so the garbage collection it pays for is that of its own garbage,
    whatever ran before it in the seeded order.
    """
    from repro.api import simulate

    report.op(state.warm_ok, "warm-up scenario: result digest differs")
    times_of: dict[int, list[float]] = {}
    calls = jobs = retries = 0
    passes = passes_for(seconds)
    cpus = sorted(os.sched_getaffinity(0))
    gc.collect()
    gc.freeze()
    try:
        for pass_index in range(passes):
            os.sched_setaffinity(0, {cpus[pass_index % len(cpus)]})
            for index, scenario in state.batch:
                loop_s = reference_s()
                clean_heap()
                started = time.perf_counter()
                summary = simulate(scenario)
                elapsed = time.perf_counter() - started
                loop_s = (loop_s + reference_s()) / 2
                times_of.setdefault(index, []).append(
                    to_reference(elapsed, loop_s))
                calls += 1
                jobs += summary.result.releases
                retries += summary.result.total_retries
                _check(state, report, index, result_digest(summary))
    finally:
        os.sched_setaffinity(0, cpus)
        gc.unfreeze()
    times = [median(values) for values in times_of.values()]
    p50, tail = median(times), percentile(times, TAIL_Q)
    jobs_per_s = jobs / passes / sum(times)
    report.metrics.update(op_p50_s=p50, op_p90_s=tail, ops_per_s=jobs_per_s)
    report.note(f"sim_p50_s {p50:.6f} s  ({tail_label(len(times))} "
                f"scenarios, each the median of {passes} passes, at the "
                f"reference speed)")
    report.note(f"sim_p90_s {tail:.6f} s")
    report.note(f"jobs_per_s {jobs_per_s:.1f} 1/s (simulated jobs released "
                f"per second at the reference speed)")
    report.note(f"retries_per_call {retries / calls:.1f} (simulated count)")


def install(tracer: Tracer) -> None:
    """Wrap the kernel-side layer boundaries."""
    from repro.core import rua_lockbased, rua_lockfree
    from repro.core.interface import SchedulerPolicy
    from repro.scenario import Scenario
    from repro.sim.kernel import Kernel
    from repro.sim.locks import LockManager
    from repro.sim.objects import LockFreeObjectTable

    tracer.wrap(Scenario, "materialize", "scenario.materialize")
    tracer.wrap(Kernel, "run", "kernel.run")
    tracer.wrap(SchedulerPolicy, "schedule", "core.schedule")
    tracer.wrap(rua_lockbased, "detect_deadlock", "core.deadlock")
    tracer.wrap(rua_lockbased, "all_dependency_chains", "core.dependency")
    for name in ("build_singleton_schedule", "build_rua_schedule_inplace",
                 "build_rua_schedule"):
        tracer.wrap(rua_lockbased, name, "core.builder")
    for name in ("build_singleton_schedule", "build_rua_schedule"):
        tracer.wrap(rua_lockfree, name, "core.builder")
    for name in ("try_acquire", "release", "release_all"):
        tracer.wrap(LockManager, name, "locks.op")
    for name in ("begin", "commit", "must_retry", "record_retry"):
        tracer.wrap(LockFreeObjectTable, name, "objects.op")


def run_batch(batch: list[tuple[int, Any]]
              ) -> tuple[float, list[str], list[Any]]:
    """Simulate ``batch``; return total host seconds, result digests
    and results."""
    from repro.api import simulate

    wall = 0.0
    digests, results = [], []
    for _, scenario in batch:
        started = time.perf_counter()
        summary = simulate(scenario)
        wall += time.perf_counter() - started
        digests.append(result_digest(summary))
        results.append(summary.result)
    return wall, digests, results


def trace(state: SimState, report: Report, seconds: float) -> None:
    report.op(state.warm_ok, "warm-up scenario: result digest differs")
    batch = state.batch
    # Untraced passes before and after the traced one, so a drift of
    # the host's speed does not read as tracing cost.
    before_wall, plain_digests, results = run_batch(batch)
    with Tracer() as tracer:
        install(tracer)
        traced_wall, traced_digests, _ = run_batch(batch)
    after_wall, _, _ = run_batch(batch)
    plain_wall = (before_wall + after_wall) / 2
    for (index, _), plain, traced in zip(batch, plain_digests,
                                         traced_digests):
        _check(state, report, index, plain)
        report.op(traced == plain,
                  f"scenario {index}: traced result differs from untraced")
    tracer.write(WORK_DIR / "traces" / f"{state.workload}-{state.seed}.jsonl")
    report.metrics.update(sim_layer_metrics(tracer, results, plain_wall,
                                            len(batch)))
    report.metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    report.note(f"{len(batch)} scenarios: untraced {before_wall:.3f} s and "
                f"{after_wall:.3f} s, traced {traced_wall:.3f} s")


def sim_layer_metrics(tracer: Tracer, results: list[Any],
                      plain_wall: float, calls: int) -> dict[str, float]:
    """Per-layer metrics: ``*_s`` are host seconds per ``simulate()``
    call; counts are totals over the traced batch."""
    passes = sum(r.scheduler_invocations for r in results)
    attempts = sum(r.lockfree_attempts for r in results)
    commits = sum(r.lockfree_access_commits for r in results)

    def per_call(seconds: float) -> float:
        return seconds / calls

    return {
        "scenario.materialize_s": per_call(
            tracer.total("scenario.materialize")),
        "kernel.run_self_s": per_call(sum(tracer.self_times("kernel.run"))),
        "kernel.host_ns_per_pass": plain_wall * 1e9 / passes,
        "core.schedule_calls": tracer.count("core.schedule"),
        "core.schedule_self_s": per_call(
            sum(tracer.self_times("core.schedule"))),
        "core.deadlock_s": per_call(tracer.total("core.deadlock")),
        "core.deadlock_calls": tracer.count("core.deadlock"),
        "core.dependency_s": per_call(tracer.total("core.dependency")),
        "core.builder_s": per_call(tracer.total("core.builder")),
        "locks.ops": tracer.count("locks.op"),
        "locks.ops_s": per_call(sum(tracer.self_times("locks.op"))),
        "objects.ops": tracer.count("objects.op"),
        "objects.ops_s": per_call(sum(tracer.self_times("objects.op"))),
        "objects.commit_ratio": commits / attempts if attempts else 0.0,
        "sim.passes": passes,
        "sim.jobs": sum(r.releases for r in results),
        "sim.retries": sum(r.total_retries for r in results),
        "sim.aborts": sum(r.abort_count for r in results),
        "sim.charged_sched_ns": sum(r.scheduler_overhead_time
                                    for r in results),
    }
