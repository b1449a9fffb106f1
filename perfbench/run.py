"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every output checked out, 1 on any mismatch, and 2 when
the benchmark cannot run (for instance without the program's ``src``
tree beside it).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim_lockfree_retry", "sim_lockbased_chain", "serve_mixed",
             "cli_campaign")
#: Set-ups in fresh interpreters besides the run's own, half before the
#: measurement and half after it.  The host's speed drifts over tens of
#: seconds, so samples spread over the run give a steadier median than
#: samples taken back to back.
SETUP_PROBES = 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _module(workload: str):
    if workload.startswith("sim_"):
        from perfbench import sim_workloads
        return sim_workloads
    if workload == "serve_mixed":
        from perfbench import serve_workload
        return serve_workload
    from perfbench import cli_workload
    return cli_workload


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import (
        WORK_DIR,
        BenchError,
        LoopSampler,
        Report,
        declared_metrics,
        median,
        peak_rss_mb,
        to_reference,
    )

    # Keep the temporary files of this process and its children inside
    # the checkout.
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)

    try:
        # Set-up counts at the reference speed the sampler saw while it
        # ran.
        with LoopSampler() as sampler:
            module = _module(args.workload)
            state = module.setup(args.workload, args.seed)
        host_setup_s = time.perf_counter() - STARTED
        setup_s = to_reference(host_setup_s, sampler.loop_s())
        if args.setup_probe:
            module.teardown(state)
            print(json.dumps({"setup_s": setup_s,
                              "host_setup_s": host_setup_s}))
            return 0
        report = Report(args.workload, bool(args.trace))
        try:
            if args.trace:
                report.metrics.update(
                    {name: 0.0 for name in declared_metrics()[1]})
                module.trace(state, report, args.seconds)
            else:
                samples = module.setup_samples(args.workload, args.seed,
                                               setup_s, SETUP_PROBES // 2)
                module.measure(state, report, args.seconds)
        finally:
            module.teardown(state)
        if not args.trace:
            samples += module.setup_samples(
                args.workload, args.seed, None,
                SETUP_PROBES - SETUP_PROBES // 2)
            report.metrics["setup_s"] = median(samples)
            report.metrics["peak_rss_mb"] = peak_rss_mb()
            report.note("setup_s samples " + " ".join(
                f"{sample:.3f}" for sample in samples))
        return report.emit()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _terminate(signum: int, frame) -> None:
    """Turn SIGTERM into SystemExit, so the ``finally`` blocks stop the
    server, its pool workers and any subprocess before the run ends."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
