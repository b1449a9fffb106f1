"""The kernel trace: a typed read view of the observer's event stream.

The kernel records every happening (arrivals, dispatches, preemptions,
blockings, lock and object operations, retries, aborts, completions,
scheduling passes, injected faults, admission decisions) once, into its
:class:`repro.obs.Observer`.  :func:`trace_events` projects that stream
onto a flat list of :class:`TraceEvent` — one per happening, in the
order they occurred — which is what the Gantt renderer
(:mod:`repro.sim.gantt`) and fine-grained kernel tests read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.obs.events import InstantEvent, SpanEvent


class TraceKind(enum.Enum):
    ARRIVAL = "arrival"
    DISPATCH = "dispatch"
    PREEMPT = "preempt"
    BLOCK = "block"
    UNBLOCK = "unblock"
    LOCK_ACQUIRE = "lock_acquire"
    LOCK_RELEASE = "lock_release"
    ACCESS_BEGIN = "access_begin"
    ACCESS_COMMIT = "access_commit"
    RETRY = "retry"
    COMPLETE = "complete"
    ABORT = "abort"
    SCHED_PASS = "sched_pass"
    IDLE = "idle"
    # Fault-injection / graceful-degradation events.
    FAULT = "fault"          # an injected fault landed
    SHED = "shed"            # admission guard rejected an arrival
    DEFER = "defer"          # admission guard pushed an arrival back


@dataclass(frozen=True)
class TraceEvent:
    time: int
    kind: TraceKind
    job: str            # job name, or "" for kernel-level events
    detail: str = ""


#: How each kind's ``detail`` is formatted from its event's args.
_DETAIL = {
    TraceKind.DISPATCH: "start={start}",
    TraceKind.RETRY: "obj={obj} wasted={wasted}",
    TraceKind.COMPLETE: "utility={utility:.3f}",
    TraceKind.SCHED_PASS: "n={n} cost={cost}",
    TraceKind.DEFER: "until={until}",
    TraceKind.FAULT: "{detail}",
    TraceKind.SHED: "{detail}",
    **dict.fromkeys((TraceKind.BLOCK, TraceKind.LOCK_ACQUIRE,
                     TraceKind.LOCK_RELEASE, TraceKind.ACCESS_BEGIN,
                     TraceKind.ACCESS_COMMIT), "{obj}"),
}
_KINDS = {kind.value: kind for kind in TraceKind}


def trace_events(observer) -> list[TraceEvent]:
    """Project a recorded observer's event stream onto the kernel trace:
    instants named after a :class:`TraceKind` map one to one, a
    ``sched.decision`` span is a pass (its duration the charged cost) and
    a ``blocked:<obj>`` span a blocking; other events are skipped."""
    events: list[TraceEvent] = []
    for event in observer.events:
        if type(event) is InstantEvent and event.name in _KINDS:
            kind, time, args = _KINDS[event.name], event.ts, dict(event.args)
        elif type(event) is SpanEvent and event.name == "sched.decision":
            kind, time = TraceKind.SCHED_PASS, event.start
            args = {"n": dict(event.args)["n"], "cost": event.duration}
        elif type(event) is SpanEvent and event.name.startswith("blocked:"):
            kind, time, args = TraceKind.BLOCK, event.start, dict(event.args)
        else:
            continue
        detail = _DETAIL.get(kind, "").format(**args)
        events.append(TraceEvent(time, kind, args.get("job", ""), detail))
    return events
