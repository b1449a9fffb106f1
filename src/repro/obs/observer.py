"""The observer: the span/counter/histogram sink threaded through the
kernel, the scheduler policies and the campaign engine.

Two implementations share one interface:

* :class:`NullObserver` — the disabled default.  Every method is a
  no-op ``pass`` and ``enabled`` is False, so instrumented hot paths can
  guard with ``if obs.enabled:`` and pay a single attribute test.  One
  shared :data:`NULL_OBSERVER` singleton serves every un-instrumented
  run; it allocates nothing, ever.
* :class:`Observer` — the recording implementation, used by
  ``python -m repro profile`` and the observability tests.

Determinism contract (DESIGN.md §10): everything that enters the event
stream (spans, instants, counter samples, histograms) is a pure function
of the simulation, keyed by *simulated* time.  Wall-clock readings are
collected only through :meth:`Observer.decision` into aggregate samples
that are kept out of the exported trace, so a fixed seed yields a
byte-identical trace file across runs while the perf summary still
reports real measured scheduler latencies.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.obs.events import (
    CounterSample,
    Histogram,
    InstantEvent,
    SpanEvent,
    freeze_args,
)


class NullObserver:
    """Shared no-op sink; the near-zero-overhead disabled default."""

    __slots__ = ()

    enabled = False

    # -- primitives ----------------------------------------------------
    def counter(self, name: str, value: int = 1) -> None:
        pass

    def histogram(self, name: str, value: float) -> None:
        pass

    def span(self, name: str, cat: str, tid: str, start: int,
             duration: int, args: dict[str, Any] | None = None) -> None:
        pass

    def instant(self, name: str, cat: str, tid: str, ts: int,
                args: dict[str, Any] | None = None) -> None:
        pass

    def tick_counter(self, name: str, ts: int, value: int = 1) -> None:
        pass

    # -- open-ended spans (blocking intervals) -------------------------
    def open_span(self, key: Any, name: str, cat: str, tid: str,
                  ts: int, args: dict[str, Any] | None = None) -> None:
        pass

    def close_span(self, key: Any, ts: int) -> None:
        pass

    def close_open_spans(self, ts: int) -> None:
        pass

    # -- wall-clock scheduler decision samples -------------------------
    def decision(self, n: int, sim_cost: int, wall_ns: int) -> None:
        pass

    def summary(self) -> dict[str, Any]:
        return {"enabled": False}


#: The process-wide disabled sink.  Everything instrumented holds a
#: reference to this when no observer was configured.
NULL_OBSERVER = NullObserver()


class Observer(NullObserver):
    """Recording sink: accumulates events, counters and histograms.

    ``events`` is the one event stream, in happening order (``spans``
    and ``instants`` filter it); an open span's slot is ``None``.

    ``clock`` is the wall-clock source for :meth:`decision` callers
    (injectable so tests can pin it); it defaults to
    :func:`time.perf_counter_ns`.
    """

    __slots__ = ("counters", "histograms", "events", "counter_samples",
                 "decisions", "_open", "clock")

    enabled = True

    def __init__(self, clock: Callable[[], int] | None = None) -> None:
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}
        self.events: list[SpanEvent | InstantEvent | None] = []
        self.counter_samples: list[CounterSample] = []
        #: (ready-queue size, simulated pass cost, wall ns) per decision.
        self.decisions: list[tuple[int, int, int]] = []
        self._open: dict[Any, tuple[int, str, str, str, int, Any]] = {}
        self.clock = clock or time.perf_counter_ns

    @property
    def spans(self) -> list[SpanEvent]:
        return [e for e in self.events if type(e) is SpanEvent]

    @property
    def instants(self) -> list[InstantEvent]:
        return [e for e in self.events if type(e) is InstantEvent]

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def counter(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def histogram(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.record(value)

    def span(self, name: str, cat: str, tid: str, start: int,
             duration: int, args: dict[str, Any] | None = None) -> None:
        self.events.append(SpanEvent(name, cat, tid, start, duration,
                                     freeze_args(args)))

    def instant(self, name: str, cat: str, tid: str, ts: int,
                args: dict[str, Any] | None = None) -> None:
        self.events.append(InstantEvent(name, cat, tid, ts,
                                        freeze_args(args)))

    def tick_counter(self, name: str, ts: int, value: int = 1) -> None:
        """Bump the cumulative counter ``name`` and record the new total
        as a timestamped sample (a Chrome counter-track point)."""
        total = self.counters.get(name, 0) + value
        self.counters[name] = total
        self.counter_samples.append(
            CounterSample(name=name, ts=ts, value=total))

    # ------------------------------------------------------------------
    # Open-ended spans
    # ------------------------------------------------------------------

    def open_span(self, key: Any, name: str, cat: str, tid: str,
                  ts: int, args: dict[str, Any] | None = None) -> None:
        """Start an interval whose end is not yet known (a blocking
        interval); it takes its place in ``events`` now.  Re-opening an
        open key closes the old one first."""
        if key in self._open:
            self.close_span(key, ts)
        self._open[key] = (len(self.events), name, cat, tid, ts,
                           freeze_args(args))
        self.events.append(None)

    def close_span(self, key: Any, ts: int) -> None:
        pending = self._open.pop(key, None)
        if pending is None:
            return
        slot, name, cat, tid, start, args = pending
        self.events[slot] = SpanEvent(name, cat, tid, start,
                                      max(0, ts - start), args)

    def close_open_spans(self, ts: int) -> None:
        """End-of-run flush: close every still-open interval at ``ts``
        (deterministic — keys close in opening order)."""
        for key in list(self._open):
            self.close_span(key, ts)

    # ------------------------------------------------------------------
    # Scheduler decision samples (wall clock; summary-only)
    # ------------------------------------------------------------------

    def decision(self, n: int, sim_cost: int, wall_ns: int) -> None:
        self.decisions.append((n, sim_cost, wall_ns))

    def decision_stats_by_n(self) -> dict[int, dict[str, float]]:
        """Per-ready-queue-size decision cost: the measurement behind the
        ``O(n^2)`` vs ``O(n^2 log n)`` scheduler claim."""
        grouped: dict[int, list[tuple[int, int]]] = {}
        for n, sim_cost, wall_ns in self.decisions:
            grouped.setdefault(n, []).append((sim_cost, wall_ns))
        stats: dict[int, dict[str, float]] = {}
        for n in sorted(grouped):
            rows = grouped[n]
            stats[n] = {
                "count": len(rows),
                "sim_cost_mean": sum(c for c, _ in rows) / len(rows),
                "wall_ns_mean": sum(w for _, w in rows) / len(rows),
            }
        return stats

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Aggregate view (the CLI's ``--json`` obs block).  Includes
        wall-clock aggregates; the deterministic sub-tree is everything
        except the ``wall_ns*`` keys."""
        wall = Histogram([float(w) for _, _, w in self.decisions])
        return {
            "enabled": True,
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: self.histograms[name].summary()
                for name in sorted(self.histograms)
            },
            "spans": len(self.spans),
            "instants": len(self.instants),
            "scheduler": {
                "decisions": len(self.decisions),
                "wall_ns": wall.summary(),
                "by_n": {
                    str(n): row
                    for n, row in self.decision_stats_by_n().items()
                },
            },
        }
