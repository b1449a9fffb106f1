"""Named nested-critical-section scenarios for the lock-based RUA
result-parity gate.

Each case builds the keyword arguments of a
:class:`~repro.sim.kernel.SimulationConfig` (everything but the
observer) for lock-based RUA with nesting allowed, once with deadlock
detection on and once with it off.  The hand-built cases are those of
``tests/sim/test_nested_sections.py`` (a lone nested body, a held-across
lock blocking a competitor, a two-job runtime deadlock) plus a
three-object ring; the seeded random cases mix bodies nested up to three
deep over four objects, so passes see multi-job dependency chains,
cycles and deadlock victims.

:func:`result_digest` hashes
:func:`~repro.sim.checkpoint.fingerprint_result`;
``tests/fixtures/nested_parity.json`` holds the digests recorded before
the wait-for graph became one walk per pass.
"""

from __future__ import annotations

import hashlib
import random

from repro.arrivals import UAMSpec
from repro.core.rua_lockbased import LockBasedRUA
from repro.sim.checkpoint import fingerprint_result
from repro.sim.kernel import SyncMode
from repro.sim.overheads import KernelCosts, ZeroCost
from repro.tasks import Compute, ObjectAccess, TaskSpec
from repro.tasks.segments import ReleaseLock
from repro.tuf import StepTUF
from repro.units import MS, US
from tests.helpers import nested_task

#: Seeds of the random nested workloads.
RANDOM_SEEDS = range(16)


def result_digest(result) -> str:
    """SHA-256 of the result's canonical fingerprint."""
    return hashlib.sha256(
        fingerprint_result(result).encode("utf-8")).hexdigest()


def _config(tasks, traces_us, detect, horizon_us=60_000):
    return dict(
        tasks=tasks,
        arrival_traces=[[t * US for t in trace] for trace in traces_us],
        policy=LockBasedRUA(cost_model=ZeroCost(), detect_deadlocks=detect),
        horizon=horizon_us * US,
        sync=SyncMode.LOCK_BASED,
        costs=KernelCosts.ideal(),
        allow_nesting=True,
    )


def _random_task(rng: random.Random, name: str, objects: list[str],
                 window_us: int) -> TaskSpec:
    """A body nested up to three deep: each access but the innermost is
    held across the next; the held locks go in a random order."""
    depth = rng.randint(1, 3)
    objs = rng.sample(objects, depth)
    body: list = [Compute(rng.randint(20, 300) * US)]
    for obj in objs[:-1]:
        body.append(ObjectAccess(obj=obj, duration=rng.randint(100, 900) * US,
                                 release_at_end=False))
        body.append(Compute(rng.randint(10, 400) * US))
    body.append(ObjectAccess(obj=objs[-1],
                             duration=rng.randint(50, 600) * US))
    held = objs[:-1]
    rng.shuffle(held)
    body.extend(ReleaseLock(obj=obj) for obj in held)
    body.append(Compute(rng.randint(10, 200) * US))
    return TaskSpec(
        name=name,
        arrival=UAMSpec(1, 1, window_us * US),
        tuf=StepTUF(critical_time=rng.randint(1_500, window_us) * US,
                    height=float(rng.randint(1, 10))),
        body=tuple(body),
    )


def _random(seed: int, detect: bool):
    """Four to seven tasks over four objects, first released within
    1.5 ms of each other, so later urgent jobs preempt earlier ones
    inside held sections."""
    rng = random.Random(seed)
    window_us = 8_000
    objects = ["A", "B", "C", "D"]
    tasks = [_random_task(rng, f"T{i}", objects, window_us)
             for i in range(rng.randint(4, 7))]
    traces = []
    for _ in tasks:
        start = rng.randint(0, 1_500)
        traces.append([start + k * window_us
                       for k in range(rng.randint(1, 3))])
    return _config(tasks, traces, detect, horizon_us=30_000)


def _cases():
    for detect in (True, False):
        tag = "detect" if detect else "nodetect"
        yield f"single_nested_{tag}", lambda d=detect: _config(
            [nested_task("T", "A", "B", 50_000)], [[0]], d)
        yield f"held_across_{tag}", lambda d=detect: _config(
            [nested_task("H", "A", "B", 50_000),
             TaskSpec(name="C", arrival=UAMSpec(1, 1, 60 * MS),
                      tuf=StepTUF(critical_time=40 * MS),
                      body=(Compute(10 * US),
                            ObjectAccess(obj="A", duration=100 * US),
                            Compute(10 * US)))],
            [[0], [500]], d)
        yield f"deadlock_pair_{tag}", lambda d=detect: _config(
            [nested_task("rich", "A", "B", 50_000, height=10.0),
             nested_task("poor", "B", "A", 10_000)],
            [[0], [200]], d)
        yield f"ring_of_three_{tag}", lambda d=detect: _config(
            [nested_task("X", "A", "B", 50_000, height=5.0),
             nested_task("Y", "B", "C", 20_000, height=3.0),
             nested_task("Z", "C", "A", 9_000)],
            [[0], [150], [300]], d)
        for seed in RANDOM_SEEDS:
            yield f"random_{seed}_{tag}", (
                lambda s=seed, d=detect: _random(s, d))


#: name -> zero-argument builder of SimulationConfig keyword arguments.
CASES = dict(_cases())
