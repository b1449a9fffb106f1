"""Deadlock resolution (Section 3.3).

Deadlocks can only arise with nested critical sections; they manifest as
a cycle in the dependency relation.  RUA adopts detection-and-resolution
(not avoidance/prevention) because the dynamic systems it targets do not
reveal which resources activities will need, for how long, or in what
order.  Resolution aborts the job on the cycle "which will likely
contribute the least utility" — the lowest-PUD cycle member.  Cycles are
found by :func:`repro.core.dependency.detect_deadlock`.
"""

from __future__ import annotations

from repro.core.pud import chain_pud
from repro.tasks.job import Job


def pick_deadlock_victim(cycle: list[Job], now: int) -> Job:
    """The cycle member contributing the least utility: lowest standalone
    PUD, ties broken by latest critical time, then by name for
    determinism."""
    if not cycle:
        raise ValueError("empty cycle")
    return min(
        cycle,
        key=lambda job: (
            chain_pud([job], now),
            -job.critical_time_abs,
            job.name,
        ),
    )
