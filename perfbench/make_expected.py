"""Regenerate ``perfbench/expected.json``: the committed output digests
the benchmark checks every run against.

    python3 perfbench/make_expected.py

* ``sim_*``: for each pool scenario (and the warm-up one), the SHA-256
  of ``repro.sim.checkpoint.fingerprint_result`` of ``simulate()``;
* ``cli_campaign``: for each figure, the SHA-256 of the ``series`` of
  the figure campaign's ``--json`` output.

Regenerate only when a change to the program is meant to change
results; a performance change must leave every digest as it is.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.api import simulate
    from repro.scenario import Scenario

    from perfbench import inputs
    from perfbench.cli_workload import series_digest
    from perfbench.common import fresh_dir, program_env
    from perfbench.sim_workloads import result_digest

    expected: dict = {}
    for workload in inputs.SIM_WORKLOADS:
        expected[workload] = [
            result_digest(simulate(Scenario.from_dict(
                inputs.sim_scenario_dict(workload, index))))
            for index in range(inputs.SIM_POOL + 1)]
        print(f"{workload}: {len(expected[workload])} digests")
    work = fresh_dir("make-expected")
    expected["cli_campaign"] = {}
    for figure in inputs.CLI_FIGURES:
        out_json = work / f"{figure}.json"
        subprocess.run(
            [sys.executable, "-m", "repro", *inputs.cli_campaign_args(
                figure, str(work / f"{figure}.journal.jsonl"),
                str(out_json))],
            cwd=ROOT, env=program_env(), check=True,
            stdout=subprocess.DEVNULL)
        expected["cli_campaign"][figure] = series_digest(
            json.loads(out_json.read_text()))
        print(f"cli_campaign {figure}: {expected['cli_campaign'][figure]}")
    shutil.rmtree(work, ignore_errors=True)
    inputs.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
