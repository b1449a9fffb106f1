"""``cli_campaign``: ``python -m repro`` in subprocesses.

Set-up is CLI start-up: ``python -m repro --help``, which imports the
CLI and runs no simulation, timed several times.  The measured work is
journaled ``figure --workers 1`` campaigns run back to back (see
:data:`perfbench.inputs.CLI_WORKERS`); each one's figure series must
match its committed digest and its journal must hold every trial.  The
traced run parses ``python -X importtime`` for the import breakdown,
runs the same campaigns in-process, through ``repro.cli.main``, with the
campaign layer wrapped, and then traces the serve layers.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench import inputs
from perfbench.common import (
    ROOT,
    BenchError,
    Report,
    WORK_DIR,
    fresh_dir,
    median,
    program_env,
    run_sampled,
    to_reference,
)
from perfbench.tracer import Tracer

#: Modules whose cumulative import time the traced run reports.
IMPORT_MODULES = {"repro.cli": "import.repro_cli_s",
                  "repro.api": "import.repro_api_s",
                  "repro.experiments.stats": "import.experiments_stats_s"}
IMPORT_PROBES = 3
#: About how long one round (a campaign per figure) takes on a 2-core
#: host.
ROUND_S = 8.0
SUBPROCESS_TIMEOUT_S = 150


@dataclass
class CliState:
    seed: int
    figures: list[str]
    expected: dict[str, str]
    work: Path


def setup(workload: str, seed: int) -> CliState:
    return CliState(seed, inputs.cli_figures(seed),
                    inputs.load_expected()["cli_campaign"],
                    fresh_dir(f"cli-{seed}"))


def teardown(state: CliState) -> None:
    shutil.rmtree(state.work, ignore_errors=True)


def time_help() -> tuple[float, float]:
    """Wall seconds of one ``python -m repro --help`` and the reference
    loop's seconds while it ran."""
    completed, wall, loop_s = run_sampled(
        [sys.executable, "-m", "repro", "--help"], SUBPROCESS_TIMEOUT_S)
    if completed.returncode != 0:
        raise BenchError(f"python -m repro --help exited "
                         f"{completed.returncode}: {completed.stderr[-400:]}")
    return wall, loop_s


def cli_start_s() -> float:
    """Seconds of one ``python -m repro --help`` at the reference
    speed."""
    return to_reference(*time_help())


def setup_samples(workload: str, seed: int, own_s: float | None,
                  probes: int) -> list[float]:
    """CLI start-up is this workload's set-up; time it ``probes`` times,
    once more in place of the run's own set-up unless ``own_s`` is
    ``None``."""
    return [cli_start_s() for _ in range(probes + (own_s is not None))]


def series_digest(document: dict[str, Any]) -> str:
    """Digest of a figure's ``--json`` series (the campaign's output)."""
    return hashlib.sha256(json.dumps(
        document["series"], sort_keys=True,
        separators=(",", ":")).encode("utf-8")).hexdigest()


def check_campaign(state: CliState, report: Report, figure: str,
                   exit_code: int, out_json: Path, journal: Path
                   ) -> dict[str, Any] | None:
    """Check one campaign's outputs; return its ``--json`` document."""
    if exit_code != 0 or not out_json.is_file():
        report.op(False, f"{figure}: exit code {exit_code}")
        return None
    document = json.loads(out_json.read_text())
    report.op(series_digest(document) == state.expected[figure],
              f"{figure}: figure series differs from the committed digest")
    trials = {}
    for line in journal.read_text().splitlines():
        record = json.loads(line)
        if record.get("type") == "trial":
            trials[record["index"]] = record["ok"]
    for index in range(inputs.CLI_TRIALS):
        report.op(trials.get(index, False),
                  f"{figure}: trial {index} is not journaled as ok")
    return document


def _paths(state: CliState, run: int, figure: str) -> tuple[Path, Path]:
    return (state.work / f"{run}-{figure}.journal.jsonl",
            state.work / f"{run}-{figure}.json")


def rounds_for(seconds: float) -> int:
    """Rounds a run of ``seconds`` makes: one per :data:`ROUND_S`, at
    least one.  A function of the arguments only, so every run at one
    ``--seconds`` does the same work."""
    return max(1, round(seconds / ROUND_S))


def measure(state: CliState, report: Report, seconds: float) -> None:
    """Rounds of campaigns back to back, each one campaign per figure in
    the seeded order; whole rounds keep the figure mix the same in every
    run.  A campaign's times count at the reference speed sampled while
    it ran (see :func:`perfbench.common.run_sampled`); each figure
    counts with its median round.

    A one-repeat campaign runs first, untimed: the first campaign after
    a pause runs its trials about 15 % slower than the ones after it.
    """
    rounds = rounds_for(seconds)
    journal, out_json = _paths(state, -1, state.figures[0])
    completed, _, _ = run_sampled(
        [sys.executable, "-m", "repro", *inputs.cli_campaign_args(
            state.figures[0], str(journal), str(out_json), repeats=1)],
        SUBPROCESS_TIMEOUT_S)
    report.op(completed.returncode == 0,
              f"warm-up campaign exited {completed.returncode}")
    # figure -> (wall, trial p50, trial p90) of each round, at the
    # reference speed
    runs: dict[str, list[tuple[float, float, float]]] = {
        figure: [] for figure in state.figures}
    run = 0
    for _ in range(rounds):
        for figure in state.figures:
            journal, out_json = _paths(state, run, figure)
            completed, wall, loop_s = run_sampled(
                [sys.executable, "-m", "repro", *inputs.cli_campaign_args(
                    figure, str(journal), str(out_json))],
                SUBPROCESS_TIMEOUT_S)
            document = check_campaign(state, report, figure,
                                      completed.returncode, out_json,
                                      journal)
            if document is not None:
                trials = document["obs"]["histograms"][
                    "campaign.trial_wall_s"]
                runs[figure].append(tuple(
                    to_reference(seconds, loop_s) for seconds
                    in (wall, trials["p50"], trials["p90"])))
            run += 1
    if not all(runs.values()):
        raise BenchError("a figure had no campaign that finished")

    def per_figure(field: int) -> list[float]:
        return [median([done[field] for done in runs[figure]])
                for figure in state.figures]

    walls = per_figure(0)
    p50, p90 = median(per_figure(1)), median(per_figure(2))
    trials_per_s = inputs.CLI_TRIALS * len(walls) / sum(walls)
    report.metrics.update(op_p50_s=p50, op_p90_s=p90, ops_per_s=trials_per_s)
    report.note(f"campaign.trial_p50_s {p50:.6f} s  trial_p90_s {p90:.6f} s"
                f" (each figure's median of {rounds} campaigns of "
                f"{inputs.CLI_TRIALS} trials: {', '.join(state.figures)}; "
                f"at the reference speed)")
    report.note(f"campaign_wall_s {median(walls):.3f} s")
    report.note(f"trials_per_s {trials_per_s:.2f} 1/s (--workers "
                f"{inputs.CLI_WORKERS}, journaled)")


def import_times() -> dict[str, float]:
    """Cumulative import seconds of :data:`IMPORT_MODULES`, median of
    :data:`IMPORT_PROBES` ``python -X importtime -c 'import repro.cli'``."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_PROBES):
        completed = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=ROOT, env=program_env(), capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S, check=False)
        if completed.returncode != 0:
            raise BenchError(f"import repro.cli failed: "
                             f"{completed.stderr[-400:]}")
        found = parse_importtime(completed.stderr)
        for module in IMPORT_MODULES:
            samples[module].append(found.get(module, 0.0))
    return {module: median(values) for module, values in samples.items()}


def parse_importtime(text: str) -> dict[str, float]:
    """``{module: cumulative seconds}`` from ``-X importtime`` output
    (``import time: self [us] | cumulative | package``)."""
    found = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        found[fields[2].strip()] = int(fields[1]) / 1e6
    return found


def _in_process_campaign(state: CliState, run: int, figure: str,
                         report: Report) -> tuple[float, dict | None]:
    from repro.cli import main as cli_main

    journal, out_json = _paths(state, run, figure)
    started = time.perf_counter()
    with open(state.work / "stdout.txt", "w") as sink:
        saved, sys.stdout = sys.stdout, sink
        try:
            code = cli_main(inputs.cli_campaign_args(
                figure, str(journal), str(out_json)))
        finally:
            sys.stdout = saved
    wall = time.perf_counter() - started
    return wall, check_campaign(state, report, figure, code, out_json,
                                journal)


def trace(state: CliState, report: Report, seconds: float) -> None:
    from repro.campaign.journal import CampaignJournal

    imports = import_times()
    for module, name in IMPORT_MODULES.items():
        report.metrics[name] = imports[module]
    figure = state.figures[0]
    # Untraced runs before and after the traced one, so the first
    # in-process campaign's one-off costs do not read as tracing cost.
    before_wall, plain = _in_process_campaign(state, 0, figure, report)
    with Tracer() as tracer:
        tracer.wrap(CampaignJournal, "record", "campaign.journal_record")
        traced_wall, traced = _in_process_campaign(state, 1, figure, report)
    after_wall, _ = _in_process_campaign(state, 2, figure, report)
    plain_wall = (before_wall + after_wall) / 2
    if plain is not None and traced is not None:
        report.op(series_digest(plain) == series_digest(traced),
                  f"{figure}: traced series differs from untraced")
        wall = traced["obs"]["histograms"]["campaign.trial_wall_s"]
        report.metrics["campaign.trial_p50_s"] = wall["p50"]
        report.metrics["campaign.busy_ratio"] = (
            wall["mean"] * wall["count"]
            / (inputs.CLI_WORKERS * traced_wall))
    records = tracer.durations("campaign.journal_record")
    if records:
        report.metrics["campaign.journal_record_s"] = median(records)
    report.metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    tracer.write(WORK_DIR / "traces" / f"cli_campaign-{state.seed}.jsonl")
    # Host seconds, like the import times it is compared with.
    start = median([time_help()[0] for _ in range(IMPORT_PROBES)])
    share = imports["repro.experiments.stats"] / start
    report.note(f"cli_start_s {start:.3f} s; import repro.cli "
                f"{imports['repro.cli']:.3f} s, of which "
                f"repro.experiments.stats {imports['repro.experiments.stats']:.3f}"
                f" s ({share:.0%} of start-up)")
    report.note(f"in-process campaign {figure}: untraced {before_wall:.3f}"
                f" s and {after_wall:.3f} s, traced {traced_wall:.3f} s")
    # serve_mixed is not in BENCHMARK.json (its latencies follow the
    # host's state; see layers.json), so the serve layers are traced
    # here too, with the other entry point that is not simulate().
    from perfbench import serve_workload

    serve = serve_workload.setup("serve_mixed", state.seed)
    try:
        serve_workload.trace_layers(serve, report, seconds / 2)
    finally:
        serve_workload.teardown(serve)
