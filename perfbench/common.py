"""Shared helpers: paths, percentiles, memory, the declared metric set,
and the result line every run ends with."""

from __future__ import annotations

import heapq
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for caches, logs, journals and traces; listed in the
#: repository's ``.gitignore``.
WORK_DIR = ROOT / ".perfbench"

#: The tail percentile every timing reports beside its median.  Each
#: workload takes at least :data:`MIN_SAMPLES` samples of its timed
#: operation, so at least ten samples lie beyond it.
TAIL_Q = 0.90
MIN_SAMPLES = 100


#: Seconds one :func:`reference_loop` takes at the reference speed.
#: Timings are reported at that speed; see :func:`to_reference`.
REFERENCE_LOOP_S = 0.0005
#: How often :func:`run_sampled` times the reference loop while the
#: subprocess it waits for runs.
SAMPLE_EVERY_S = 0.02


class _Item:
    __slots__ = ("rank", "key")

    def __init__(self, rank: int, key: int) -> None:
        self.rank = rank
        self.key = key


def reference_loop() -> int:
    """A fixed piece of pure-Python work: small objects, a heap and a
    dict, as the simulator's inner loops use them.  It calls nothing of
    the program, so only the host's speed changes its time."""
    heap: list[tuple[int, int]] = []
    table = {}
    for key in range(600):
        item = _Item(key * 7919 % 1000, key)
        heapq.heappush(heap, (item.rank, item.key))
        table[item.key] = item
    total = 0
    while heap:
        _, key = heapq.heappop(heap)
        total += table[key].rank
    return total


def reference_s(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds of one :func:`reference_loop` by ``clock``."""
    started = clock()
    reference_loop()
    return clock() - started


def to_reference(seconds: float, loop_s: float) -> float:
    """``seconds`` of host time, taken while one reference loop took
    ``loop_s``, as seconds at the reference speed.

    The host is shared: other tenants slow CPU-bound work by up to 1.5x
    for spans of seconds to minutes, so the same work reads up to that
    much slower in one run than in the next.  The reference loop, timed
    next to the work, slows with it, and the ratio of the two does not.
    A change to the program moves the ratio as it moves the time.
    """
    return seconds * REFERENCE_LOOP_S / loop_s


class LoopSampler:
    """Times the reference loop, in CPU time, every
    :data:`SAMPLE_EVERY_S` from a thread of this process while the body
    of its ``with`` block runs, so the loop shares the process and its
    CPU with that work; :meth:`loop_s` is the median."""

    def __init__(self) -> None:
        self._stop = threading.Event()
        self._samples: list[float] = []
        self._thread = threading.Thread(target=self._run,
                                        name="perfbench-sampler")

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._samples.append(reference_s(time.thread_time))

    def __enter__(self) -> "LoopSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def loop_s(self) -> float:
        return median(self._samples or [reference_s(time.thread_time)])


def run_sampled(argv: list[str], timeout: float
                ) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run ``argv`` from the checkout's root with the program on the
    path; return its completed process, its wall seconds and the median
    seconds of the reference loop while it ran.

    The loop is timed every :data:`SAMPLE_EVERY_S` over the whole life
    of the subprocess, in this thread's CPU time, so the subprocess's
    own processes sharing the CPUs do not count as a slow host.  On a
    timeout or an exception the subprocess's process group (its pool
    workers included) is killed and the subprocess waited for.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        process = subprocess.Popen(argv, cwd=ROOT, env=program_env(),
                                   stdout=out, stderr=err,
                                   start_new_session=True)
        ended: list[float] = []
        waiter = threading.Thread(
            target=lambda: (process.wait(),
                            ended.append(time.perf_counter())))
        waiter.start()
        loops = []
        try:
            while waiter.is_alive():
                if time.perf_counter() - started > timeout:
                    raise BenchError(f"{' '.join(argv[1:4])} ran over "
                                     f"{timeout:g} s")
                loops.append(reference_s(time.thread_time))
                waiter.join(SAMPLE_EVERY_S)
        finally:
            # Not waiter.is_alive(): a join an exception interrupted can
            # leave the thread reading as stopped.
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            waiter.join()
        out.seek(0)
        err.seek(0)
        completed = subprocess.CompletedProcess(
            argv, process.returncode, out.read().decode(errors="replace"),
            err.read().decode(errors="replace"))
    return completed, ended[0] - started, median(loops)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments, a
    traced layer that no longer exists)."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail_label(count: int) -> str:
    """How many samples lie beyond the tail percentile, for the report."""
    beyond = count - max(1, math.ceil(TAIL_Q * count))
    return f"n={count}, {beyond} beyond p{round(TAIL_Q * 100)}"


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for
    (pool workers, CLI subprocesses, set-up probes), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def program_env() -> dict[str, str]:
    """Environment for subprocesses that import the program from the
    checkout's ``src`` tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_dir(name: str) -> Path:
    path = WORK_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def default_setup_samples(workload: str, seed: int, own_s: float | None,
                          probes: int) -> list[float]:
    """The run's own set-up seconds (unless ``None``) plus those of
    ``probes`` more set-ups, each in a fresh interpreter; all at the
    reference speed (see ``run.py``)."""
    samples = [] if own_s is None else [own_s]
    for _ in range(probes):
        completed, _, _ = run_sampled(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", str(seed), "--setup-probe"], timeout=120)
        if completed.returncode != 0:
            raise BenchError(
                f"set-up probe failed ({completed.returncode}): "
                f"{completed.stderr.strip()[-400:]}")
        samples.append(json.loads(
            completed.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Report:
    """Accumulates one run's outcome and prints it.

    ``metrics`` holds the numbers of the JSON result line and must be
    exactly the declared end-to-end set (``--trace 0``) or per-layer set
    (``--trace 1``).  ``notes`` are human-readable lines printed before
    the result: the issue-named aliases, sample counts and checks.
    """

    def __init__(self, workload: str, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                self.mismatches.append(what)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def result(self) -> dict[str, Any]:
        end_to_end, per_layer = declared_metrics()
        declared = per_layer if self.trace else end_to_end
        if set(self.metrics) != set(declared):
            missing = sorted(set(declared) - set(self.metrics))
            extra = sorted(set(self.metrics) - set(declared))
            raise BenchError(
                f"metric set differs from BENCHMARK.json: "
                f"missing {missing}, undeclared {extra}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": float(self.metrics[name]),
                               "unit": declared[name]}
                        for name in declared},
        }

    def emit(self) -> int:
        result = self.result()
        for line in self.notes:
            print(line)
        for problem in self.mismatches[:20]:
            print(f"MISMATCH {problem}")
        if self.attempted:
            print(f"error_ratio {self.failed / self.attempted:.6f} "
                  f"({self.failed}/{self.attempted})")
        print(json.dumps(result, sort_keys=True))
        sys.stdout.flush()
        return 0 if result["correct"] else 1
