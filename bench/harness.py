"""Measurement plumbing shared by the workloads, the probes and the runner.

Nothing here imports ``repro``: timing, statistics, the host fingerprint,
the bench-owned span recorder and the scratch directory are all the
benchmark's own, so the program under test only ever sees its inputs.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
#: everything the benchmark writes lands here (gitignored, inside the checkout).
OUT_DIR = ROOT / ".bench_out"

now = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark's own correctness gate failed (not a program error)."""


# -- resource readings ----------------------------------------------------------


def cpu_seconds() -> float:
    """User+system CPU of this process and its waited-for descendants."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """High-water RSS in MB: this interpreter or its largest waited child."""
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak_kb / 1024.0


def calibrate_ms() -> float:
    """Wall time of a fixed 2M-iteration pure-Python spin loop.

    The host-noise canary. The shared reference box does not run at one
    speed: a process that slept runs up to 4x slower for a second or two
    after waking, and busy processes drift between faster and slower
    phases lasting tens of seconds (the two vCPUs look like siblings of
    one core). Every workload brackets itself with this reading and the
    fingerprint carries its range. Raw metrics are never rescaled by it:
    the loop is core-bound and swings up to 1.7x where the engine's
    memory-bound loops swing 1.2-1.4x, so a correction would add more
    noise than it removes (tried, measured, dropped). ``compare.py`` uses
    it to call a difference unresolved rather than worse.
    """
    started = now()
    count = 0
    while count < 2_000_000:
        count += 1
    return (now() - started) * 1e3


# -- statistics -----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def metric(
    value: float | None, unit: str, samples: list[float] | None = None, **extra: Any
) -> dict[str, Any]:
    """One reported metric.

    With ``samples`` and no ``value`` the value is their median, and the
    count, min and quartiles ride along so every median is reported with
    its spread.
    """
    record: dict[str, Any] = {"value": value, "unit": unit, **extra}
    if samples:
        if value is None:
            record["value"] = statistics.median(samples)
        record["n"] = len(samples)
        record["min"] = min(samples)
        if len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            record["q1"], record["q3"] = q1, q3
        record["samples"] = list(samples)
    return record


def skipped(unit: str, reason: str) -> dict[str, Any]:
    """A per-layer probe whose target no longer exists: null, never a failure."""
    return {"value": None, "unit": unit, "skipped": reason}


# -- timing ---------------------------------------------------------------------


def measure(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """``(result, wall seconds, cpu seconds)`` of one call, after a GC sweep."""
    gc.collect()
    cpu0 = cpu_seconds()
    wall0 = now()
    result = fn()
    wall = now() - wall0
    return result, wall, cpu_seconds() - cpu0


def repeat_for(
    fn: Callable[[], Any], seconds: float, min_units: int
) -> list[tuple[Any, float, float]]:
    """Call ``fn`` until ``seconds`` are used up, at least ``min_units`` times.

    Returns ``(result, wall, cpu)`` per call. Stops early rather than
    start a unit that would overshoot the budget by more than half its
    expected length. Never sleeps: a sleep would put the process into the
    host's slow just-woke-up state.
    """
    runs: list[tuple[Any, float, float]] = []
    started = now()
    while True:
        runs.append(measure(fn))
        elapsed = now() - started
        if len(runs) >= min_units and elapsed + 0.5 * elapsed / len(runs) >= seconds:
            return runs


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls (micro-probe timing)."""
    return statistics.median(measure(fn)[1] for _ in range(repeats))


# -- bench-owned spans ----------------------------------------------------------


class BenchTracer:
    """Spans recorded by the benchmark around its calls into each layer.

    Rows carry name, start, end, parent and the workload id; they stay in
    memory and are written as JSONL when the benchmark ends. Engine span
    trees (from the program's public ``RecordingTracer``) can be adopted
    under the open bench span so one file holds the whole traced pass.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[dict[str, Any]]:
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": now(),
            "end": None,
            **attributes,
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = now()
            self._stack.pop()

    def adopt(self, engine_span: Any, parent: int | None = None) -> None:
        """Copy an engine span tree in as rows under the open bench span."""
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        row = {
            "id": len(self.rows),
            "name": engine_span.name,
            "kind": engine_span.kind.value,
            "parent": parent,
            "workload": self.workload,
            "start": engine_span.wall_start,
            "end": engine_span.wall_end,
        }
        self.rows.append(row)
        for child in engine_span.children:
            self.adopt(child, row["id"])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")


# -- scratch space --------------------------------------------------------------


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A private temp dir inside the checkout, also exported as ``TMPDIR``.

    The service's spool, the block store's spill files and the server
    subprocess all ask ``tempfile`` for space; pointing it here keeps
    every write inside the checkout, and the directory is removed on exit.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    previous_env, previous_default = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = previous_default
        if previous_env is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = previous_env
        shutil.rmtree(path, ignore_errors=True)


# -- host fingerprint -----------------------------------------------------------


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint() -> dict[str, Any]:
    """Where these numbers came from: cores, versions, commit, load."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "git_commit": _git_commit(),
        "loadavg": list(os.getloadavg()),
    }
