"""Seeded input generation.  Every workload's inputs are a pure function
of ``--seed``; the program only ever sees the generated inputs.

The ``sim_*`` scenarios come from a fixed pool whose expected result
digests are committed in ``expected.json``.  A run simulates the whole
pool, in an order the seed picks, as many times as ``--seconds`` allows;
the serve hit pool and miss stream are fixed the same way and the seed
picks their order and the arrival times.  So every seed measures the
same mix of work, and the spread between seeds is the host's, not that
of the inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

MS = 1_000_000

#: Scenario pool size per ``sim_*`` workload, at least MIN_SAMPLES so
#: one pass puts ten calls beyond p90; index ``SIM_POOL`` is the warm-up
#: scenario, simulated once before timing starts.
SIM_POOL = 100

SIM_WORKLOADS: dict[str, dict[str, Any]] = {
    # The paper's mechanism: lock-free RUA with retries (Theorem 2).
    "sim_lockfree_retry": {
        "sync": "lockfree",
        "horizon": 40 * MS,
        "retry_policy": "on_preemption",
        "workload": {"factory": "interference",
                     "params": {"max_arrivals": 2}},
    },
    # Lock-based RUA: dependency chains and deadlock detection.
    "sim_lockbased_chain": {
        "sync": "lockbased",
        "horizon": 25 * MS,
        "retry_policy": "on_conflict",
        "workload": {"factory": "paper",
                     "params": {"n_tasks": 40, "n_objects": 10,
                                "accesses_per_job": 2,
                                "access_duration": 40_000,
                                "target_load": 0.6, "tuf_class": "step"}},
    },
}

#: ``serve_mixed``: 5-task scenarios, two hits to every miss.
#:
#: The share is chosen, not measured: the repository records no traffic
#: mix.  ``repro load`` cycles a few scenarios and ``bench_serve`` six,
#: so both are all hits once warm.  At that share the reference phase
#: would time no misses, and the write path (WAL fsync, admission, pool
#: IPC, simulate, cache put) would go unmeasured.  One miss in three
#: gives 34 misses in each 102-request reference round and puts the
#: median request on a hit and the p90 request on a miss.  A different
#: share would change what ``op_p50_s`` and ``op_p90_s`` measure on
#: ``serve_mixed``.
SERVE_HIT_POOL = 8
SERVE_HIT_EVERY = 3          # one miss in each block of three requests
SERVE_REFERENCE_RPS = 20.0
#: Simulated horizons of the hit and the miss scenarios.  A miss's
#: ``simulate`` at 100 ms (about 25 ms of host time) outweighs the pool
#: IPC and the two fsyncs around it (about 3 ms), whose latency follows
#: the host's disk and wake-ups rather than its speed.
SERVE_HIT_HORIZON_US = 20_000
SERVE_MISS_HORIZON_US = 100_000

#: ``cli_campaign``: the journaled figure campaigns a run cycles through.
CLI_FIGURES = ("fig10", "fig11")
CLI_REPEATS = 6
CLI_HORIZON_MS = 50
#: One worker: the trials run in the campaign process and leave the
#: other CPU of a 2-core host to the reference loop the benchmark times
#: beside them.  With two, the loop slows with the trials rather than
#: with the host, and one set of ten runs spread 22.8 %.
CLI_WORKERS = 1
#: Trials of one campaign: 10 object counts x 2 syncs x repeats.
CLI_TRIALS = 10 * 2 * CLI_REPEATS


def sim_scenario_dict(workload: str, index: int) -> dict[str, Any]:
    spec = SIM_WORKLOADS[workload]
    return {
        "sync": spec["sync"],
        "horizon": spec["horizon"],
        "seed": 1_000 + index,
        "workload": spec["workload"],
        "seeding": "shared",
        "arrival_style": "uniform",
        "policy": None,
        "retry_policy": spec["retry_policy"],
        "trace": False,
        "monitors": False,
        "costs": None,
    }


def sim_order(seed: int) -> list[int]:
    """The pool indices a run simulates, in the order it simulates them."""
    order = list(range(SIM_POOL))
    random.Random(seed).shuffle(order)
    return order


def serve_hit_dicts() -> list[dict[str, Any]]:
    return [_quick(k, SERVE_HIT_HORIZON_US) for k in range(SERVE_HIT_POOL)]


def serve_miss_dict(index: int) -> dict[str, Any]:
    """The ``index``-th scenario of the miss stream; all are distinct."""
    return _quick(SERVE_HIT_POOL + index, SERVE_MISS_HORIZON_US)


def serve_miss_order(seed: int, start: int, count: int) -> list[int]:
    """Miss-stream indices ``start .. start+count-1`` in seeded order."""
    order = list(range(start, start + count))
    random.Random(f"miss:{seed}:{start}").shuffle(order)
    return order


def _quick(k: int, horizon_us: int) -> dict[str, Any]:
    from repro.api import quick_scenario

    return quick_scenario(n_tasks=5, sync="lockfree", load=0.6,
                          horizon_us=horizon_us, seed=100_000 + k).to_dict()


def serve_plan(seed: int, count: int, rate: float | None = None
               ) -> list[tuple[float, str, int]]:
    """``count`` requests as ``(due_offset_s, kind, hit_index)``.

    Arrivals are evenly spaced at ``rate`` with a seeded ±25 % jitter;
    each block of :data:`SERVE_HIT_EVERY` requests holds one miss at a
    seeded position, so a ``count`` that is a multiple of the block
    holds exactly ``count // SERVE_HIT_EVERY`` misses.  ``rate=None``
    gives a closed-loop sequence (all due at 0).  ``hit_index`` names the
    hit-pool scenario of a hit: the hits go through the pool in seeded
    orders, one whole pass at a time, so every seed asks for each hit
    scenario equally often (their responses differ in size).
    """
    rng = random.Random(f"serve:{seed}:{count}:{rate}")
    plan = []
    miss_at = rng.randrange(SERVE_HIT_EVERY)
    hit_order: list[int] = []
    for index in range(count):
        if index % SERVE_HIT_EVERY == 0:
            miss_at = rng.randrange(SERVE_HIT_EVERY)
        kind = "miss" if index % SERVE_HIT_EVERY == miss_at else "hit"
        due = 0.0
        if rate is not None:
            spacing = 1.0 / rate
            due = max(0.0, (index + rng.uniform(-0.25, 0.25)) * spacing)
        hit = 0
        if kind == "hit":
            if not hit_order:
                hit_order = list(range(SERVE_HIT_POOL))
                rng.shuffle(hit_order)
            hit = hit_order.pop()
        plan.append((due, kind, hit))
    return plan


def cli_figures(seed: int) -> list[str]:
    figures = list(CLI_FIGURES)
    random.Random(f"cli:{seed}").shuffle(figures)
    return figures


def cli_campaign_args(figure: str, journal: str, out_json: str,
                      repeats: int = CLI_REPEATS) -> list[str]:
    return ["figure", figure, "--repeats", str(repeats),
            "--horizon-ms", str(CLI_HORIZON_MS),
            "--workers", str(CLI_WORKERS), "--journal", journal,
            "--json", out_json]


def canonical_inputs(workload: str, seed: int) -> bytes:
    """Every input a run of ``workload`` at ``seed`` would generate, as
    canonical JSON bytes (used to check seeding is deterministic)."""
    if workload in SIM_WORKLOADS:
        order = sim_order(seed)
        doc: Any = [sim_scenario_dict(workload, i) for i in order]
    elif workload == "serve_mixed":
        doc = {"hits": serve_hit_dicts(),
               "misses": [serve_miss_dict(i)
                          for i in serve_miss_order(seed, 0, 50)],
               "plan": serve_plan(seed, 150, SERVE_REFERENCE_RPS)}
    elif workload == "cli_campaign":
        doc = [cli_campaign_args(f, "journal", "out.json")
               for f in cli_figures(seed)]
    else:
        raise KeyError(workload)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def load_expected() -> dict[str, Any]:
    return json.loads(EXPECTED_PATH.read_text())
