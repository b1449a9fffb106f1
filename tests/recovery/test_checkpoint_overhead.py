"""Overhead guard: checkpointing machinery must be free when disabled.

Mirrors the DESIGN.md §10 observability guard, as a deterministic count
rather than a wall-clock comparison: with ``checkpoints=None`` (the
default) the kernel never evaluates the checkpoint cadence and never
snapshots — the hook is one attribute test per event — and an
armed-but-idle policy (interval larger than the run) evaluates the
cadence but never snapshots.
"""

from repro.api import quick_scenario, simulate
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.kernel import Kernel

SEED = 99


def _reference_run(policy=None):
    scenario = quick_scenario(n_tasks=4, n_objects=3, sync="lockfree",
                              load=1.0, horizon_us=50_000, seed=SEED)
    sink = [].append if policy is not None else None
    return simulate(scenario, checkpoints=policy, checkpoint_sink=sink)


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(Kernel, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Kernel, name, counted)
    return calls


def test_disabled_checkpointing_never_snapshots(monkeypatch):
    calls = _count_calls(monkeypatch, "_checkpoint_due", "snapshot")
    _reference_run(policy=None)
    assert calls == {"_checkpoint_due": 0, "snapshot": 0}

    never = CheckpointPolicy(every_events=10**9)
    summary = _reference_run(policy=never)
    assert calls["_checkpoint_due"] > 0
    assert calls["snapshot"] == 0
    assert summary.result.records
