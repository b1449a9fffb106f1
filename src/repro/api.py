"""High-level convenience API.

The canonical entry point is :func:`simulate` applied to a
:class:`~repro.scenario.Scenario` — a frozen, declarative description of
one run (workload, sync style, horizon, seed, fault layer).  Everything
else is a thin wrapper:

* :func:`quick_simulation` builds the quick-look random-workload
  Scenario (see :func:`quick_scenario`) and runs it;
* :func:`run_simulations` is its campaign-aware batch counterpart;
* ``simulate(tasks, sync, horizon, seed, ...)`` — the legacy positional
  signature — still works but emits a :class:`DeprecationWarning`;
* the historical kwarg spellings ``fault_plan=`` (for ``faults=``) and
  ``obs=`` (for ``observer=``) are accepted everywhere with a
  :class:`DeprecationWarning`.

The resilient campaign layer is re-exported here for one-stop imports:
:class:`CampaignConfig` / :class:`CampaignEngine` (crash-isolated
parallel trials, per-trial timeouts, seeded retry with backoff,
checkpointed resume) and :func:`atomic_write` (interrupt-safe artifact
writes).
"""

from __future__ import annotations

import warnings

from repro.campaign import (           # noqa: F401 - public re-exports
    CampaignConfig,
    CampaignEngine,
    CampaignResult,
    CampaignStats,
    TrialFailure,
    atomic_write,
)

from repro.obs import (                # noqa: F401 - public re-exports
    NULL_OBSERVER,
    Observer,
)

from dataclasses import dataclass

from repro.core.edf import EDF
from repro.core.llf import LLF
from repro.core.rua_lockbased import LockBasedRUA
from repro.core.rua_lockfree import LockFreeRUA
from repro.scenario import Scenario
from repro.sim.kernel import Kernel, SimulationConfig, SyncMode
from repro.sim.metrics import SimulationResult
from repro.sim.overheads import KernelCosts
from repro.tasks.task import TaskSpec
from repro.tasks.taskset import approximate_load

__all__ = [
    "Scenario",
    "SimulationSummary",
    "simulate",
    "quick_scenario",
    "quick_simulation",
    "run_simulations",
    "build_policy_and_mode",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignResult",
    "CampaignStats",
    "TrialFailure",
    "atomic_write",
    "Observer",
    "NULL_OBSERVER",
]


@dataclass(frozen=True)
class SimulationSummary:
    """Headline numbers of one run, with the full result attached."""

    policy: str
    sync: str
    load: float
    aur: float
    cmr: float
    result: SimulationResult

    def __str__(self) -> str:
        return (
            f"{self.policy}/{self.sync}: AL={self.load:.2f} "
            f"AUR={self.aur:.3f} CMR={self.cmr:.3f} "
            f"({len(self.result.records)} jobs, "
            f"{self.result.total_retries} retries, "
            f"{self.result.total_blockings} blockings)"
        )


def build_policy_and_mode(sync: str):
    """Map a sync style name to (policy, SyncMode, KernelCosts).

    * ``"lockfree"`` — lock-free RUA over lock-free objects;
    * ``"lockbased"`` — lock-based RUA over locks;
    * ``"ideal"`` — lock-free RUA over ideal (zero-cost) objects, the
      paper's "ideal RUA" baseline;
    * ``"edf"`` — EDF over ideal objects.
    """
    if sync == "lockfree":
        return LockFreeRUA(), SyncMode.LOCK_FREE, KernelCosts()
    if sync == "lockbased":
        return LockBasedRUA(), SyncMode.LOCK_BASED, KernelCosts()
    if sync == "ideal":
        return LockFreeRUA(), SyncMode.NONE, KernelCosts.ideal()
    if sync == "edf":
        return EDF(), SyncMode.NONE, KernelCosts.ideal()
    raise ValueError(f"unknown sync style {sync!r}")


def _coalesce_deprecated(canonical_name: str, canonical_value,
                         old_name: str, old_value, *,
                         stacklevel: int = 3):
    """Resolve a renamed keyword: prefer the canonical spelling, accept
    the old one with a DeprecationWarning, reject both at once."""
    if old_value is None:
        return canonical_value
    warnings.warn(
        f"{old_name}= is deprecated; use {canonical_name}=",
        DeprecationWarning, stacklevel=stacklevel)
    if canonical_value is not None:
        raise TypeError(
            f"pass {canonical_name}= or {old_name}=, not both")
    return old_value


def _run_scenario(scenario: Scenario, observer=None, checkpoints=None,
                  checkpoint_sink=None,
                  resume_from=None) -> SimulationSummary:
    """Execute one Scenario on a fresh kernel (optionally restored from
    a :class:`~repro.sim.checkpoint.KernelCheckpoint`)."""
    if observer is None and scenario.trace:
        observer = Observer()       # trace=True: record this run
    tasks, traces = scenario.materialize()
    policy, mode, costs = build_policy_and_mode(scenario.sync)
    if scenario.policy == "edf":
        policy = EDF()
    elif scenario.policy == "llf":
        policy = LLF()
    if scenario.costs is not None:
        costs = scenario.costs
    config = SimulationConfig(
        tasks=tasks,
        arrival_traces=traces,
        policy=policy,
        horizon=scenario.horizon,
        sync=mode,
        costs=costs,
        retry_policy=scenario.retry_policy,
        fault_plan=scenario.faults,
        admission=scenario.admission,
        retry_guard=scenario.retry_guard,
        monitors=scenario.monitors,
        observer=observer,
        checkpoints=checkpoints,
        checkpoint_sink=checkpoint_sink,
    )
    if resume_from is not None:
        kernel = Kernel.restore(config, resume_from)
    else:
        kernel = Kernel(config)
    result = kernel.run()
    return SimulationSummary(
        policy=policy.name,
        sync=scenario.sync,
        load=approximate_load(tasks),
        aur=result.aur,
        cmr=result.cmr,
        result=result,
    )


def simulate(scenario=None, sync=None, horizon=None, seed=None,
             arrival_style: str = "uniform",
             trace: bool = False,
             faults=None,
             fault_plan=None,
             admission=None,
             retry_guard=None,
             monitors: bool = False,
             observer=None,
             obs=None,
             tasks=None,
             checkpoints=None,
             checkpoint_sink=None,
             resume_from=None) -> SimulationSummary:
    """Run one simulation.

    Canonical form: ``simulate(scenario)`` with a
    :class:`~repro.scenario.Scenario` (plus an optional ``observer=`` to
    attach a recording :class:`repro.obs.Observer`; its end-of-run
    summary lands on ``summary.result.obs``).

    Legacy form (deprecated, still exact): ``simulate(tasks, sync,
    horizon, seed, ...)`` — a concrete task list with arrivals drawn
    from ``random.Random(seed)``.  It is equivalent to::

        simulate(Scenario(tasks=tuple(tasks), sync=sync, horizon=horizon,
                          seed=seed, seeding="shared", ...))

    The optional fault/degradation arguments (see :mod:`repro.faults`)
    inject a deterministic fault plan, guard UAM admission, bound
    lock-free retries, and attach the runtime invariant monitors; the
    run's degradation report lands on ``summary.result.degradation``.

    Crash recovery (see :mod:`repro.sim.checkpoint`): ``checkpoints=``
    attaches a :class:`~repro.sim.checkpoint.CheckpointPolicy` (each
    snapshot goes to ``checkpoint_sink``, a callable, or accumulates on
    the kernel); ``resume_from=`` restores a
    :class:`~repro.sim.checkpoint.KernelCheckpoint` and finishes the
    run byte-identically to the uninterrupted simulation.
    """
    observer = _coalesce_deprecated("observer", observer, "obs", obs)
    faults = _coalesce_deprecated("faults", faults, "fault_plan",
                                  fault_plan)
    if isinstance(scenario, Scenario):
        extras = (sync, horizon, seed, tasks, faults, admission,
                  retry_guard)
        if (any(value is not None for value in extras) or trace
                or monitors or arrival_style != "uniform"):
            raise TypeError(
                "simulate(scenario) takes the full configuration from "
                "the Scenario; only observer=, checkpoints=, "
                "checkpoint_sink= and resume_from= may be passed "
                "alongside")
        return _run_scenario(scenario, observer=observer,
                             checkpoints=checkpoints,
                             checkpoint_sink=checkpoint_sink,
                             resume_from=resume_from)
    if checkpoints is not None or checkpoint_sink is not None \
            or resume_from is not None:
        raise TypeError(
            "checkpoints=/checkpoint_sink=/resume_from= require the "
            "canonical simulate(scenario) form")
    if tasks is None:
        tasks = scenario
    if tasks is None or sync is None or horizon is None or seed is None:
        raise TypeError(
            "simulate() needs a Scenario, or the legacy "
            "(tasks, sync, horizon, seed) signature")
    warnings.warn(
        "simulate(tasks, sync, horizon, seed, ...) is deprecated; "
        "build a repro.Scenario and call simulate(scenario)",
        DeprecationWarning, stacklevel=2)
    legacy = Scenario(
        sync=sync,
        horizon=horizon,
        seed=seed,
        tasks=tuple(tasks),
        seeding="shared",
        arrival_style=arrival_style,
        trace=trace,
        faults=faults,
        admission=admission,
        retry_guard=retry_guard,
        monitors=monitors,
    )
    return _run_scenario(legacy, observer=observer)


def quick_scenario(n_tasks: int = 5,
                   n_objects: int = 3,
                   sync: str = "lockfree",
                   load: float = 0.8,
                   horizon_us: int = 500_000,
                   seed: int = 0,
                   tuf_class: str = "step",
                   arrival_style: str = "uniform") -> Scenario:
    """The declarative form of :func:`quick_simulation`'s run: the
    paper-style random workload with the quick-look parameter defaults.

    ``horizon_us`` is in microseconds for convenience; everything else in
    the package uses nanosecond ticks.  ``seeding="split"`` preserves the
    historical convention exactly: tasks from ``Random(seed)``, arrivals
    from ``Random(seed + 1)``.
    """
    from repro.experiments.workloads import BuilderSpec

    workload = BuilderSpec.make(
        "paper",
        n_tasks=n_tasks,
        n_objects=n_objects,
        accesses_per_job=min(2, n_objects),
        avg_exec=300_000,                   # 300 µs
        access_duration=5_000,              # 5 µs per operation
        tuf_class=tuf_class,
        target_load=load,
    )
    return Scenario(
        sync=sync,
        horizon=horizon_us * 1_000,
        seed=seed,
        workload=workload,
        seeding="split",
        arrival_style=arrival_style,
    )


def quick_simulation(n_tasks: int = 5,
                     n_objects: int = 3,
                     sync: str = "lockfree",
                     load: float = 0.8,
                     horizon_us: int = 500_000,
                     seed: int = 0,
                     tuf_class: str = "step",
                     arrival_style: str = "uniform",
                     observer=None,
                     obs=None) -> SimulationSummary:
    """One-call random-workload simulation (see the package docstring):
    a thin wrapper over ``simulate(quick_scenario(...))``."""
    observer = _coalesce_deprecated("observer", observer, "obs", obs)
    scenario = quick_scenario(
        n_tasks=n_tasks, n_objects=n_objects, sync=sync, load=load,
        horizon_us=horizon_us, seed=seed, tuf_class=tuf_class,
        arrival_style=arrival_style)
    return simulate(scenario, observer=observer)


def run_simulations(seeds: list[int],
                    n_tasks: int = 5,
                    n_objects: int = 3,
                    sync: str = "lockfree",
                    load: float = 0.8,
                    horizon_us: int = 500_000,
                    tuf_class: str = "step",
                    arrival_style: str = "uniform",
                    campaign: "CampaignConfig | CampaignEngine | None" = None
                    ) -> list[SimulationSummary]:
    """Batch counterpart of :func:`quick_simulation`: one seeded run per
    entry of ``seeds``, optionally routed through the resilient campaign
    engine (``campaign=CampaignConfig(workers=4, ...)``).  Each trial
    derives everything from its own seed (a seed-parameterized
    :func:`quick_scenario`), so serial and parallel execution return
    identical summaries; trials that failed terminally under a campaign
    are dropped from the returned list.
    """
    from repro.campaign import as_engine

    engine = as_engine(campaign, tag=f"quick:{sync}")
    if engine is None:
        return [
            quick_simulation(n_tasks=n_tasks, n_objects=n_objects,
                             sync=sync, load=load, horizon_us=horizon_us,
                             seed=seed, tuf_class=tuf_class,
                             arrival_style=arrival_style)
            for seed in seeds
        ]
    batch = engine.map(
        quick_simulation,
        [(n_tasks, n_objects, sync, load, horizon_us, seed, tuf_class,
          arrival_style)
         for seed in seeds],
    )
    return batch.values
