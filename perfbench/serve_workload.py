"""``serve_mixed``: a self-hosted ``ServeApp`` (2 pool workers, request
WAL, fresh cache dir) driven over at most 2 keep-alive connections.

Traffic is two hits on a warmed 8-scenario pool to every miss from a
stream of distinct 5-task scenarios (see :data:`inputs.SERVE_HIT_EVERY`
for why that share); the seed picks the arrival times, the hits and the
order of the misses.  Two phases:

* **reference**: rounds of the same open-loop plan at a fixed rate, each
  on a fresh server (empty cache and WAL, hit pool warmed as in set-up),
  so every round serves the same hits and the same misses; each request
  is timed from when it was due, so a stall also charges the requests
  queued behind it, and the generator's lateness (lag) is reported;
* **capacity**: closed loop, each connection sending its next request
  as soon as the previous one returns; capacity is the number of
  requests per second answered 200 within :data:`SLO_S`.

Every 200 is byte-compared with the response a local
``result_payload(scenario, simulate(scenario))`` implies.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from perfbench import inputs
from perfbench.common import (
    MIN_SAMPLES,
    TAIL_Q,
    WORK_DIR,
    Report,
    default_setup_samples,
    fresh_dir,
    median,
    percentile,
    reference_s,
    tail_label,
    to_reference,
)
from perfbench.tracer import Tracer

CONNECTIONS = 2
SLO_S = 0.25
#: Share of ``--seconds`` spent in the reference (open-loop) phase; the
#: rest is the closed-loop capacity phase.
REFERENCE_SHARE = 0.8
#: Requests in one reference round: whole hit/miss blocks, at least
#: MIN_SAMPLES so the p90 has ten beyond it.
ROUND_REQUESTS = (inputs.SERVE_HIT_EVERY
                  * -(-MIN_SAMPLES // inputs.SERVE_HIT_EVERY))
#: About how long one reference round takes, starting its server
#: included.
ROUND_S = 5.5
MIN_ROUNDS = 2
REQUEST_TIMEOUT_S = 60.0
#: How long before a request is due its sender wakes to time the
#: reference loop, so the loop never delays the request.
LOOP_LEAD_S = 0.003
#: Requests whose reference loops set one request's reference speed: it
#: and its neighbours in the plan, so one loop a preemption stretched
#: does not rescale a request.
LOOP_WINDOW = 9
HEADERS = {"Content-Type": "application/json"}


@dataclass
class Sample:
    kind: str               # "hit" or "miss"
    key: int                # hit-pool index or miss-stream index
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    raw: bytes = b""
    #: Host seconds of a reference loop run next to the request, or 0.
    loop_s: float = 0.0

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its full response."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


@dataclass
class ServeState:
    seed: int
    work: Path
    app: Any
    hits: list[dict[str, Any]]
    hit_digests: list[str]
    hit_expected: list[bytes]
    warm: list[Sample]
    servers: int = 0
    next_miss: int = 0
    local_simulate_s: dict[int, float] = field(default_factory=dict)
    #: Expected response bytes already computed, by (kind, key, cached).
    expected: dict[tuple[str, int, bool], bytes] = field(
        default_factory=dict)


def request_body(scenario_dict: dict[str, Any]) -> bytes:
    return json.dumps({"scenario": scenario_dict}).encode("utf-8")


def expected_response(scenario_dict: dict[str, Any], cached: bool
                      ) -> tuple[bytes, float]:
    """The exact bytes ``POST /simulate`` must answer, computed locally,
    and the seconds the local ``simulate`` took."""
    from repro.api import simulate
    from repro.scenario import Scenario
    from repro.serve.pool import result_payload

    scenario = Scenario.from_dict(scenario_dict)
    started = time.perf_counter()
    payload = result_payload(scenario, simulate(scenario))
    elapsed = time.perf_counter() - started
    body = {"cached": cached, "digest": scenario.digest(), "result": payload}
    return (json.dumps(body, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8"), elapsed


def setup(workload: str, seed: int) -> ServeState:
    from repro.scenario import Scenario

    work = fresh_dir(f"serve-{seed}-{os.getpid()}")
    hits = inputs.serve_hit_dicts()
    state = ServeState(seed, work, None, hits,
                       [Scenario.from_dict(d).digest() for d in hits],
                       [expected_response(d, True)[0] for d in hits], [])
    try:
        start_server(state)
    except BaseException:
        teardown(state)
        raise
    return state


def start_server(state: ServeState) -> None:
    """Replace the server, if any, by a fresh one with an empty cache
    and WAL, and warm it: every hit scenario once, so the pool workers
    exist and the hit pool is cached before timing starts."""
    from repro.serve.app import ServeApp, ServeConfig

    if state.app is not None:
        state.app.close()
        state.app = None
    work = state.work / f"server-{state.servers}"
    state.servers += 1
    state.app = ServeApp(ServeConfig(
        workers=2, cache_dir=str(work / "cache"),
        request_log=str(work / "requests.wal"))).start()
    plan = [Sample("hit", key, 0.0) for key in range(len(state.hits))]
    state.warm += drive(state, plan, bodies=[request_body(d)
                                             for d in state.hits])


def teardown(state: ServeState) -> None:
    try:
        if state.app is not None:
            state.app.close()
    finally:
        shutil.rmtree(state.work, ignore_errors=True)


setup_samples = default_setup_samples


# ----------------------------------------------------------------------
# Load driver
# ----------------------------------------------------------------------

def drive(state: ServeState, plan: list[Sample], *,
          bodies: list[bytes] | None = None,
          until: float | None = None,
          make: Callable[[int], tuple[Sample, bytes]] | None = None,
          paired: bool = False) -> list[Sample]:
    """Send requests over :data:`CONNECTIONS` keep-alive connections.

    Open loop: ``plan`` with absolute due times and ``bodies``; a sender
    takes the next request in order, waits until it is due and sends
    it.  Closed loop: ``make(i)`` builds request ``i`` (due when taken)
    until the clock passes ``until``.  ``paired`` times a reference loop
    in the sender just before each request is due (when it is not late)
    and just after its response, into ``Sample.loop_s``.
    """
    lock = threading.Lock()
    cursor = [0]
    done: list[Sample] = []
    port = state.app.port

    def take() -> tuple[Sample, bytes] | None:
        with lock:
            index = cursor[0]
            if make is None:
                if index >= len(plan):
                    return None
                cursor[0] += 1
                return plan[index], bodies[index]
            if time.perf_counter() >= until:
                return None
            cursor[0] += 1
            return make(index)

    def sender() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            while (item := take()) is not None:
                sample, body = item
                loops = []
                delay = sample.due - time.perf_counter()
                if paired and delay > LOOP_LEAD_S:
                    time.sleep(delay - LOOP_LEAD_S)
                    loops.append(reference_s())
                    delay = sample.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sample.sent = time.perf_counter()
                try:
                    connection.request("POST", "/simulate", body=body,
                                       headers=HEADERS)
                    response = connection.getresponse()
                    sample.raw = response.read()
                    sample.status = response.status
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
                sample.done = time.perf_counter()
                if paired:
                    loops.append(reference_s())
                    sample.loop_s = sum(loops) / len(loops)
                with lock:
                    done.append(sample)
        finally:
            connection.close()

    threads = [threading.Thread(target=sender, name=f"perfbench-send-{i}")
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return done


def _miss(state: ServeState) -> tuple[int, bytes]:
    key = state.next_miss
    state.next_miss += 1
    return key, request_body(inputs.serve_miss_dict(key))


def reference_count(seconds: float) -> int:
    """Requests in an open-loop phase of ``seconds`` at the reference
    rate: whole hit/miss blocks, at least :data:`MIN_SAMPLES`."""
    every = inputs.SERVE_HIT_EVERY
    wanted = max(MIN_SAMPLES, int(inputs.SERVE_REFERENCE_RPS * seconds))
    return every * -(-wanted // every)


def open_loop(state: ServeState, count: int, salt: int = 0,
              first_miss: int | None = None, paired: bool = False
              ) -> list[Sample]:
    """One open-loop phase of ``count`` requests at the reference rate,
    returned in plan order.  Its misses are the block of the miss stream
    from ``first_miss`` (by default the next unused block), in seeded
    order, so every seed meets the same misses."""
    rate = inputs.SERVE_REFERENCE_RPS
    every = inputs.SERVE_HIT_EVERY
    if first_miss is None:
        first_miss = state.next_miss
        state.next_miss += count // every
    plan = inputs.serve_plan(state.seed + salt, count, rate)
    misses = iter(inputs.serve_miss_order(state.seed, first_miss,
                                          count // every))
    start = time.perf_counter() + 0.05
    samples, bodies = [], []
    for offset, kind, hit in plan:
        if kind == "hit":
            key, body = hit, request_body(state.hits[hit])
        else:
            key = next(misses)
            body = request_body(inputs.serve_miss_dict(key))
        samples.append(Sample(kind, key, start + offset))
        bodies.append(body)
    drive(state, samples, bodies=bodies, paired=paired)
    return samples


def closed_loop(state: ServeState, seconds: float) -> tuple[list[Sample],
                                                            float]:
    plan = inputs.serve_plan(state.seed, 100_000)

    def make(index: int) -> tuple[Sample, bytes]:
        _, kind, hit = plan[index % len(plan)]
        if kind == "hit":
            return (Sample("hit", hit, time.perf_counter()),
                    request_body(state.hits[hit]))
        key, body = _miss(state)
        return Sample("miss", key, time.perf_counter()), body

    began = time.perf_counter()
    samples = drive(state, [], make=make, until=began + seconds)
    return samples, time.perf_counter() - began


# ----------------------------------------------------------------------
# Checks and numbers
# ----------------------------------------------------------------------

def verify(state: ServeState, report: Report, samples: list[Sample],
           warm: bool = False) -> None:
    """Byte-compare every response with its locally computed bytes."""
    for sample in samples:
        if sample.kind == "hit" and not warm:
            expected = state.hit_expected[sample.key]
        elif (sample.kind, sample.key, warm) in state.expected:
            expected = state.expected[sample.kind, sample.key, warm]
        else:
            scenario = (state.hits[sample.key] if warm else
                        inputs.serve_miss_dict(sample.key))
            expected, elapsed = expected_response(scenario, False)
            state.expected[sample.kind, sample.key, warm] = expected
            if not warm:
                state.local_simulate_s[sample.key] = elapsed
        report.op(sample.status == 200 and sample.raw == expected,
                  f"{sample.kind} {sample.key}: status {sample.status}, "
                  f"{'body differs' if sample.status == 200 else 'no 200'}")


def _split(samples: list[Sample], kind: str) -> list[float]:
    return [s.latency for s in samples if s.kind == kind]


def _describe(report: Report, name: str, values: list[float]) -> None:
    if values:
        report.note(f"{name}_p50_s {median(values):.6f} s  "
                    f"{name}_p90_s {percentile(values, TAIL_Q):.6f} s  "
                    f"({tail_label(len(values))})")


def rounds_for(seconds: float) -> int:
    """Reference rounds a run of ``seconds`` makes: one per
    :data:`ROUND_S` of its reference share, at least
    :data:`MIN_ROUNDS`.  A function of the arguments only, so every run
    at one ``--seconds`` does the same work."""
    return max(MIN_ROUNDS, round(seconds * REFERENCE_SHARE / ROUND_S))


def reference_latencies(samples: list[Sample]) -> list[float]:
    """Latencies of ``samples`` (in plan order) at the reference speed,
    each by the median reference loop of the :data:`LOOP_WINDOW`
    requests around it."""
    loops = [sample.loop_s for sample in samples]
    half = LOOP_WINDOW // 2
    return [to_reference(sample.latency,
                         median(loops[max(0, index - half):index + half + 1]))
            for index, sample in enumerate(samples)]


def measure(state: ServeState, report: Report, seconds: float) -> None:
    """Reference rounds, then the capacity phase on the last server.

    Every round sends the same requests at the same offsets to a fresh
    server.  Each latency counts at the reference speed of the
    reference loops the senders ran just before the requests around it
    were due and just after their responses (see
    :func:`reference_latencies` and :func:`perfbench.common.to_reference`),
    and each request counts with its median round.  Capacity is bounded
    by the keep-alive stall's fixed timer, not by the host's speed, so
    it counts as measured.
    """
    every = inputs.SERVE_HIT_EVERY
    first_miss = state.next_miss
    state.next_miss += ROUND_REQUESTS // every
    rounds = []
    for index in range(rounds_for(seconds)):
        if index:
            start_server(state)
        rounds.append(open_loop(state, ROUND_REQUESTS,
                                first_miss=first_miss, paired=True))
    capacity, wall = closed_loop(state, seconds * (1 - REFERENCE_SHARE))
    stats = state.app.stats()
    verify(state, report, state.warm, warm=True)
    for samples in (*rounds, capacity):
        verify(state, report, samples)
    # Each request's median round, at the reference speed.
    kinds = [sample.kind for sample in rounds[0]]
    latencies = [median(column)
                 for column in zip(*map(reference_latencies, rounds))]
    good = [s for s in capacity
            if s.status == 200 and s.latency <= SLO_S]
    report.metrics.update(op_p50_s=median(latencies),
                          op_p90_s=percentile(latencies, TAIL_Q),
                          ops_per_s=len(good) / wall)
    report.note(f"reference phase: {len(rounds)} rounds of the same open "
                f"loop at {inputs.SERVE_REFERENCE_RPS:g} rps over "
                f"{CONNECTIONS} keep-alive connections, each on a fresh "
                f"server, timed from due; each request its median round "
                f"at the reference speed ({tail_label(len(latencies))})")
    for kind in ("hit", "miss"):
        _describe(report, kind, [latency for latency, k
                                 in zip(latencies, kinds) if k == kind])
    lags = [s.lag for samples in rounds for s in samples]
    report.note(f"loadgen lag_p90_s {percentile(lags, TAIL_Q):.6f} s  "
                f"lag_max_s {max(lags):.6f} s")
    closed = [s.latency for s in capacity]
    _describe(report, "closed-loop hit", _split(capacity, "hit"))
    _describe(report, "closed-loop miss", _split(capacity, "miss"))
    report.note(f"capacity_rps {len(good) / wall:.2f} 1/s (closed loop, "
                f"{CONNECTIONS} connections, {len(capacity)} requests, "
                f"p90 {percentile(closed, TAIL_Q):.6f} s, SLO {SLO_S} s)")
    report.note(f"server: shed {stats['queue']['shed']}, "
                f"pool retries {stats['pool']['retries']}, "
                f"breaker transitions {stats['breaker']['transitions']}")


def install(tracer: Tracer) -> None:
    """Wrap the serve-side layer boundaries (all in this process; pool
    workers are separate processes and are timed by ``pool.execute``)."""
    from repro.scenario import Scenario
    from repro.serve.admission import AdmissionQueue
    from repro.serve.app import ServeApp
    from repro.serve.cache import ResultCache
    from repro.serve.pool import SimulationPool
    from repro.serve.wal import RequestLog

    tracer.wrap(ServeApp, "handle_simulate", "serve.handle",
                rid=lambda args, kwargs, result: result[1].get("digest"))
    tracer.wrap(Scenario, "from_dict", "scenario.from_dict")
    tracer.wrap(Scenario, "digest", "scenario.digest")
    tracer.wrap(ResultCache, "get", "cache.get")
    tracer.wrap(ResultCache, "put", "cache.put",
                rid=lambda args, kwargs, result: args[1])
    tracer.wrap(RequestLog, "append", "wal.append")
    tracer.wrap(AdmissionQueue, "submit", "admission.submit",
                rid=lambda args, kwargs, result: args[1].digest)
    tracer.wrap(AdmissionQueue, "take", "admission.take",
                rid=lambda args, kwargs, result: result.digest,
                keep=lambda result: result is not None)
    tracer.wrap(SimulationPool, "execute", "pool.execute",
                rid=lambda args, kwargs, result: result["scenario_digest"])


def trace(state: ServeState, report: Report, seconds: float) -> None:
    report.metrics["trace.overhead_ratio"] = trace_layers(state, report,
                                                          seconds)


def trace_layers(state: ServeState, report: Report, seconds: float
                 ) -> float:
    """Untraced then traced copies of both phases; put the serve layers'
    metrics in ``report`` and return the tracing overhead.  The
    request-path layers come from the traced closed loop, where
    back-to-back keep-alive requests meet the Nagle/delayed-ACK stall;
    generator lag comes from the traced open loop; the tracing overhead
    is traced over untraced seconds per closed-loop request."""
    verify(state, report, state.warm, warm=True)
    open_count = reference_count(seconds * REFERENCE_SHARE / 2)
    closed_s = seconds * (1 - REFERENCE_SHARE) / 2
    plain_open = open_loop(state, open_count, salt=1)
    with Tracer() as open_tracer:
        install(open_tracer)
        traced_open = open_loop(state, open_count, salt=2)
    plain_closed, plain_wall = closed_loop(state, closed_s)
    before = state.app.stats()
    with Tracer() as tracer:
        install(tracer)
        traced_closed, traced_wall = closed_loop(state, closed_s)
    after = state.app.stats()
    for samples in (plain_open, traced_open, plain_closed, traced_closed):
        verify(state, report, samples)
    for name, spans in (("open", open_tracer), ("closed", tracer)):
        spans.write(WORK_DIR / "traces"
                    / f"serve_mixed-{state.seed}-{name}.jsonl")
    report.metrics.update(serve_layer_metrics(state, tracer, traced_closed,
                                              before, after))
    report.metrics["loadgen.lag_p90_s"] = percentile(
        [s.lag for s in traced_open], TAIL_Q)
    report.note(f"closed loop: untraced {len(plain_closed) / plain_wall:.2f}"
                f" rps, traced {len(traced_closed) / traced_wall:.2f} rps")
    _describe(report, "closed-loop hit", _split(traced_closed, "hit"))
    _describe(report, "closed-loop miss", _split(traced_closed, "miss"))
    return ((traced_wall / len(traced_closed))
            / (plain_wall / len(plain_closed)))


def serve_layer_metrics(state: ServeState, tracer: Tracer,
                        samples: list[Sample], before: dict, after: dict
                        ) -> dict[str, float]:
    """Per-layer metrics of a traced phase; ``*_s`` are medians per
    call (per request for the HTTP overheads)."""
    hit_digests = set(state.hit_digests)
    handles = [s for s in tracer.spans if s[0] == "serve.handle"]
    hit_handle = [(s[2] - s[1]) / 1e9 for s in handles
                  if s[4] in hit_digests]
    miss_handle = {s[4]: (s[2] - s[1]) / 1e9 for s in handles
                   if s[4] not in hit_digests}
    execute = {s[4]: (s[2] - s[1]) / 1e9 for s in tracer.spans
               if s[0] == "pool.execute"}
    from repro.scenario import Scenario

    miss_digest = {s.key: Scenario.from_dict(
        inputs.serve_miss_dict(s.key)).digest()
        for s in samples if s.kind == "miss"}
    hit_client = [s.done - s.sent for s in samples if s.kind == "hit"]
    miss_overhead = [s.done - s.sent - miss_handle[miss_digest[s.key]]
                     for s in samples if s.kind == "miss"
                     and miss_digest[s.key] in miss_handle]
    pool_overhead = [execute[miss_digest[key]] - local
                     for key, local in state.local_simulate_s.items()
                     if miss_digest.get(key) in execute]
    submitted = {s[4]: s[2] for s in tracer.spans
                 if s[0] == "admission.submit"}
    taken = [(s[2], s[4]) for s in tracer.spans if s[0] == "admission.take"]
    waits = [end - submitted[rid] for end, rid in taken if rid in submitted]
    depth = depth_max = 0
    for _, step in sorted([(end, 1) for end in submitted.values()]
                          + [(end, -1) for end, _ in taken]):
        depth += step
        depth_max = max(depth_max, depth)
    gets = after["cache"]["hits"] - before["cache"]["hits"]
    lookups = gets + after["cache"]["misses"] - before["cache"]["misses"]

    def med(values) -> float:
        return median(values) if values else 0.0

    hit_handle_s = med(hit_handle)
    return {
        "scenario.from_dict_s": med(tracer.durations("scenario.from_dict")),
        "scenario.digest_s": med(tracer.durations("scenario.digest")),
        "serve.hit_handle_s": hit_handle_s,
        "serve.miss_handle_s": med(list(miss_handle.values())),
        "http.hit_overhead_s": med(hit_client) - hit_handle_s,
        "http.miss_overhead_s": med(miss_overhead),
        "cache.get_s": med(tracer.durations("cache.get")),
        "cache.put_s": med(tracer.durations("cache.put")),
        "cache.hit_ratio": gets / lookups if lookups else 0.0,
        "wal.append_s": med(tracer.durations("wal.append")),
        "admission.wait_s": med([w / 1e9 for w in waits]),
        "admission.depth_max": depth_max,
        "admission.shed": after["queue"]["shed"] - before["queue"]["shed"],
        "pool.execute_s": med(list(execute.values())),
        "pool.overhead_s": med(pool_overhead),
        "pool.retries": after["pool"]["retries"] - before["pool"]["retries"],
        "breaker.trips": (after["breaker"]["transitions"]
                          - before["breaker"]["transitions"]),
    }
