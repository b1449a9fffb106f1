"""Self-test of the benchmark: seeding, tracing, output checks and the
declared metric set.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, sim_workloads  # noqa: E402
from perfbench.common import BenchError, Report, declared_metrics  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
SIM = sorted(inputs.SIM_WORKLOADS)


def _inputs_digest(workload: str, seed: int, hash_seed: str) -> str:
    code = ("import hashlib, sys; from perfbench.inputs import "
            "canonical_inputs; print(hashlib.sha256(canonical_inputs("
            f"{workload!r}, {seed})).hexdigest())")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True
                          ).stdout.strip()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = _inputs_digest(workload, 7, "1")
    assert first == _inputs_digest(workload, 7, "2")
    if workload != "cli_campaign":    # two figures: orders repeat
        assert first != _inputs_digest(workload, 8, "1")


@pytest.mark.parametrize("workload", SIM)
def test_traced_results_equal_untraced_and_expected(workload):
    from repro.sim.kernel import Kernel

    original_run = Kernel.__dict__["run"]
    state = sim_workloads.setup(workload, seed=3)
    batch = state.batch[:3]
    _, plain, _ = sim_workloads.run_batch(batch)
    tracer = Tracer()
    sim_workloads.install(tracer)
    try:
        _, traced, _ = sim_workloads.run_batch(batch)
    finally:
        tracer.restore()
    assert traced == plain
    assert plain == [state.expected[index] for index, _ in batch]
    assert tracer.count("kernel.run") == len(batch)
    assert Kernel.__dict__["run"] is original_run


def test_serve_trace_targets_exist():
    from perfbench import serve_workload

    with Tracer() as tracer:
        serve_workload.install(tracer)    # raises if a target is gone


def test_missing_trace_target_stops_the_traced_run():
    from repro.sim.kernel import Kernel

    original_run = Kernel.__dict__["run"]
    with pytest.raises(BenchError, match="Kernel.no_such_layer"):
        with Tracer() as tracer:
            tracer.wrap(Kernel, "run", "kernel.run")
            tracer.wrap(Kernel, "no_such_layer", "kernel.gone")
    assert Kernel.__dict__["run"] is original_run


def test_wrong_expected_digest_is_a_failure(capsys):
    workload = "sim_lockfree_retry"
    state = sim_workloads.setup(workload, seed=5)
    state.batch = state.batch[:2]
    wrong = state.batch[1][0]
    state.expected = list(state.expected)
    state.expected[wrong] = "0" * 64
    report = Report(workload, trace=False)
    sim_workloads.measure(state, report, seconds=0.0)
    passes = sim_workloads.MIN_PASSES
    assert (report.attempted, report.failed) == (1 + 2 * passes, passes)
    assert not report.correct
    report.metrics.update(setup_s=1.0, peak_rss_mb=1.0)
    assert report.emit() == 1
    out = capsys.readouterr().out
    assert f"scenario {wrong}: result digest" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_report_refuses_undeclared_or_missing_metrics():
    end_to_end, _ = declared_metrics()
    report = Report("sim_lockfree_retry", trace=False)
    report.op(True)
    report.metrics = {name: 1.0 for name in end_to_end}
    assert set(report.result()["metrics"]) == set(end_to_end)
    report.metrics["undeclared_s"] = 1.0
    with pytest.raises(BenchError, match="undeclared"):
        report.result()
    del report.metrics["undeclared_s"]
    del report.metrics["setup_s"]
    with pytest.raises(BenchError, match="missing"):
        report.result()


def test_layer_map_matches_benchmark_json():
    end_to_end, per_layer = declared_metrics()
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert list(WORKLOADS) == list(LAYERS["workloads"])
    assert workloads == [w for w in WORKLOADS
                         if LAYERS["workloads"][w].get("gated", True)]
    for notes in LAYERS["workloads"].values():
        assert set(notes["end_to_end"]) == set(end_to_end)
    assert set(LAYERS["per_layer"]) == set(per_layer)
    for name, entry in LAYERS["per_layer"].items():
        assert set(entry["moves"]) <= set(end_to_end), name
        assert set(entry["on"]) <= set(WORKLOADS), name
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_parse_importtime():
    from perfbench.cli_workload import parse_importtime

    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |   scipy.special\n"
            "import time:      3000 |    1250000 | repro.experiments.stats\n"
            "noise\n")
    assert parse_importtime(text) == {"scipy.special": 0.00012,
                                      "repro.experiments.stats": 1.25}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_exactly_the_declared_metrics(trace):
    completed = _run(ROOT, "--workload", "sim_lockfree_retry", "--seed",
                     "9", "--seconds", "1", "--trace", trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = declared_metrics()[int(trace)]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "--workload", "serve_mixed", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert completed.returncode not in (0, None)
    assert not re.search(r'"correct"', completed.stdout)
