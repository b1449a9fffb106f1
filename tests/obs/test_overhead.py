"""Overhead guard: the disabled observability path must stay free.

Two hard promises from DESIGN.md §10:

* **No sink calls** — with no observer configured the kernel holds a
  disabled sink, and every instrumentation site is a single
  ``obs.enabled`` attribute test guarding all of its sink calls.  A
  counting disabled observer checks this deterministically: lock-free
  and lock-based runs (retries, blocking, wake-ups on release and on
  abort, admission shedding) make zero calls into it.
* **Determinism** — a fixed seed yields byte-for-byte identical trace
  artifacts across runs; wall-clock readings never enter them.
"""

import json
import random
import time
from collections import Counter

from repro.experiments.runner import run_once
from repro.experiments.workloads import paper_taskset
from repro.obs import NULL_OBSERVER, NullObserver, Observer
from repro.obs.exporters import chrome_trace, events_jsonl
from repro.sim.kernel import Kernel, SimulationConfig
from repro.units import MS
from tests.helpers import zero_cost_policy
from tests.sim.trace_cases import CASES

SEED = 99
ROUNDS = 5


def _reference_run(observer=None):
    # Long enough (~60 ms wall) that the enabled/disabled ratio sits
    # above OS-scheduler noise on a min-of-N statistic.
    rng = random.Random(SEED)
    tasks = paper_taskset(rng, n_tasks=6, n_objects=4,
                          accesses_per_job=2, target_load=0.9)
    return run_once(tasks, "lockfree", 120 * MS,
                    random.Random(SEED + 1), observer=observer)


class _CountingNullObserver(NullObserver):
    """A disabled sink that counts every call made into it."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = Counter()


def _counting(name):
    def method(self, *args, **kwargs):
        self.calls[name] += 1
    method.__name__ = name
    return method


for _name, _value in list(vars(NullObserver).items()):
    if callable(_value) and not _name.startswith("_"):
        setattr(_CountingNullObserver, _name, _counting(_name))


def _min_wall(observer_factory, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        _reference_run(observer_factory())
        best = min(best, time.perf_counter() - start)
    return best


class TestDisabledOverhead:
    def test_kernel_defaults_to_shared_null_observer(self):
        config = SimulationConfig(tasks=[], arrival_traces=[],
                                  policy=zero_cost_policy("edf"),
                                  horizon=1)
        assert Kernel(config).obs is NULL_OBSERVER

    def test_counting_observer_counts(self):
        sink = _CountingNullObserver()
        sink.counter("x")
        sink.close_span("k", 0)
        assert sink.calls == Counter({"counter": 1, "close_span": 1})

    def test_disabled_path_makes_no_sink_calls(self):
        # Each case exercises a family of instrumented sites: lock-free
        # retries and commits (the quick lock-free workload and a forced
        # conflict), lock-based blocking with a wake-up on release and on
        # the holder's abort, and admission shedding.
        checks = {
            "quick_lockfree_0": lambda r: r.total_retries > 0,
            "lockfree_conflict_retry": lambda r: r.total_retries > 0,
            "quick_lockbased_0": lambda r: r.lock_access_commits > 0,
            "edf_blocking": lambda r: r.total_blockings > 0,
            "deadlock_undetected": lambda r: r.total_blockings > 0,
            "burst_shed": lambda r: r.degradation.shed_jobs > 0,
        }
        for name, exercised in checks.items():
            sink = _CountingNullObserver()
            config = SimulationConfig(observer=sink, **CASES[name]())
            kernel = Kernel(config)
            result = kernel.run()
            assert exercised(result), name
            assert kernel.obs is sink
            assert sink.calls == Counter(), (name, sink.calls)

    def test_enabled_overhead_is_bounded(self):
        # Recording costs something, but must stay the same order of
        # magnitude — a regression here means an instrumentation site
        # started doing real work per event.
        disabled = _min_wall(lambda: None)
        enabled = _min_wall(Observer)
        assert enabled <= disabled * 4 + 0.05, (
            f"enabled run {enabled:.4f}s vs disabled {disabled:.4f}s")


class TestTraceDeterminism:
    def test_fixed_seed_traces_are_byte_identical(self):
        artifacts = []
        for _ in range(2):
            obs = Observer()
            _reference_run(observer=obs)
            doc = json.dumps(chrome_trace(obs), sort_keys=True,
                             separators=(",", ":"))
            artifacts.append((doc.encode(), events_jsonl(obs).encode()))
        assert artifacts[0] == artifacts[1]

    def test_disabled_and_enabled_simulate_identically(self):
        # Observation must not perturb the simulation itself.
        plain = _reference_run(observer=None)
        observed = _reference_run(observer=Observer())
        snapshot = lambda r: [
            (rec.task_name, rec.jid, rec.completion_time, rec.retries,
             rec.accrued_utility) for rec in r.records
        ]
        assert snapshot(plain) == snapshot(observed)
        assert plain.scheduler_overhead_time == \
            observed.scheduler_overhead_time
