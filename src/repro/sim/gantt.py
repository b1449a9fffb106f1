"""ASCII Gantt rendering of kernel traces.

Turns the kernel trace of a run recorded into an
:class:`~repro.obs.Observer` into a per-task timeline — the quickest way
to *see* preemptions, blocking waits, retries and aborts when debugging
a scenario::

    print(render_gantt(trace_events(observer), horizon=config.horizon))

Lane characters: ``#`` running, ``!`` the instant of an abort, ``*`` the
instant of a retry, ``.`` idle for that task.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.tracing import TraceEvent, TraceKind


@dataclass(frozen=True)
class _Run:
    job: str
    start: int
    end: int


def execution_runs(trace: list[TraceEvent], horizon: int) -> list[_Run]:
    """Reconstruct CPU occupancy intervals from dispatch/idle/terminal
    events."""
    runs: list[_Run] = []
    current: tuple[str, int] | None = None

    def close(end: int) -> None:
        nonlocal current
        if current is None:
            return
        job, start = current
        if end > start:
            runs.append(_Run(job=job, start=start, end=min(end, horizon)))
        current = None

    for event in trace:
        if event.kind is TraceKind.DISPATCH:
            close(event.time)
            start = event.time
            if event.detail.startswith("start="):
                start = int(event.detail.split("=", 1)[1])
            current = (event.job, start)
        elif event.kind in (TraceKind.IDLE, TraceKind.PREEMPT):
            close(event.time)
        elif event.kind in (TraceKind.COMPLETE, TraceKind.ABORT):
            if current is not None and current[0] == event.job:
                close(event.time)
    close(horizon)
    return runs


def render_gantt(trace: list[TraceEvent], horizon: int,
                 width: int = 72) -> str:
    """Render one lane per job, bucketed to ``width`` columns."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if width < 8:
        raise ValueError("width must be at least 8 columns")
    runs = execution_runs(trace, horizon)
    jobs: list[str] = []
    for event in trace:
        if event.job and event.job not in jobs:
            jobs.append(event.job)
    lanes = {job: ["."] * width for job in jobs}
    scale = horizon / width

    def column(t: int) -> int:
        return min(width - 1, int(t / scale))

    for run in runs:
        lane = lanes.get(run.job)
        if lane is None:
            continue
        for col in range(column(run.start), column(max(run.start,
                                                       run.end - 1)) + 1):
            lane[col] = "#"
    for event in trace:
        if event.kind is TraceKind.ABORT and event.job in lanes:
            lanes[event.job][column(event.time)] = "!"
        elif event.kind is TraceKind.RETRY and event.job in lanes:
            lanes[event.job][column(event.time)] = "*"
    label_width = max((len(j) for j in jobs), default=4)
    header = (f"{'time':<{label_width}}  0{' ' * (width - 2)}"
              f"{horizon}")
    lines = [header]
    for job in jobs:
        lines.append(f"{job:<{label_width}}  {''.join(lanes[job])}")
    return "\n".join(lines)
