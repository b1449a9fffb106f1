"""Discrete-event uniprocessor RTOS simulator.

This package replaces the paper's QNX Neutrino 6.3 testbed.  It is a
deterministic discrete-event simulation of a single-processor real-time
kernel: UAM job arrivals, preemptive dispatch controlled by a pluggable
scheduler policy, critical-time timers with the paper's abort-exception
model, a lock manager for lock-based sharing, and a lock-free object layer
that restarts interfered accesses (Anderson's retry model).

All scheduler/synchronization mechanism costs are *charged on the
simulated CPU* through explicit cost models (:mod:`repro.sim.overheads`),
which is what lets the simulation reproduce the overhead-driven figures of
the paper (Figures 8 and 9) without measuring Python wall time.
"""

from repro.sim.engine import EventQueue, QueueEmpty
from repro.sim.events import (
    CriticalTimeExpiry,
    EventPriority,
    JobArrival,
    Milestone,
)
from repro.sim.overheads import (
    ConstantCost,
    CostModel,
    LinearithmicCost,
    QuadraticCost,
    QuadraticLogCost,
    ZeroCost,
    KernelCosts,
)
from repro.sim.locks import LockManager
from repro.sim.objects import LockFreeObjectTable, RetryPolicy
from repro.sim.kernel import Kernel, SimulationConfig, SyncMode
from repro.sim.metrics import JobRecord, SimulationResult
from repro.sim.tracing import TraceEvent, TraceKind, trace_events
from repro.sim.gantt import render_gantt

__all__ = [
    "EventQueue",
    "QueueEmpty",
    "EventPriority",
    "JobArrival",
    "CriticalTimeExpiry",
    "Milestone",
    "CostModel",
    "ZeroCost",
    "ConstantCost",
    "LinearithmicCost",
    "QuadraticCost",
    "QuadraticLogCost",
    "KernelCosts",
    "LockManager",
    "LockFreeObjectTable",
    "RetryPolicy",
    "Kernel",
    "SimulationConfig",
    "SyncMode",
    "JobRecord",
    "SimulationResult",
    "TraceEvent",
    "TraceKind",
    "trace_events",
    "render_gantt",
]
