"""S6 — intra-job parallel execution backends.

Two claims about :mod:`repro.runtime.parallel`:

1. **Equivalence** — for every recovery strategy, a run under a seeded
   failure schedule is bit-identical (final records, simulated time,
   superstep count) on the serial, thread and process backends. The
   simulated cost model charges from record counts in the driver
   thread, so *where* partition kernels execute cannot leak into any
   reported number.
2. **Speedup** — the process backend shortens *wall-clock* time on a
   large failure-free PageRank run while leaving the simulated cost
   untouched. The ≥1.5× assertion needs real cores; on machines with
   fewer than 4 CPUs the measurement is still reported but not
   asserted (process dispatch cannot beat serial on one core).
"""

import os
import time

import pytest

from repro.algorithms import connected_components, pagerank
from repro.analysis import Table
from repro.config import EngineConfig
from repro.core import (
    CheckpointRecovery,
    IncrementalCheckpointRecovery,
    RestartRecovery,
)
from repro.graph import multi_component_graph, twitter_like_graph
from repro.runtime import FailureSchedule

from .conftest import run_once

BACKENDS = ("serial", "threads", "processes")
SPEEDUP_WORKERS = 4


def _config(backend, workers=3):
    return EngineConfig(
        parallelism=4,
        spare_workers=8,
        parallel_backend=backend,
        parallel_workers=workers,
    )


def _strategy(job, name):
    return {
        "optimistic": job.optimistic,
        "checkpoint": lambda: CheckpointRecovery(interval=2),
        "incremental": IncrementalCheckpointRecovery,
        "restart": RestartRecovery,
    }[name]()


def _fingerprint(result):
    return (
        sorted(result.final_records),
        result.clock.now,
        result.supersteps,
        result.converged,
    )


def test_s6_backend_equivalence_all_recoveries(benchmark, report):
    """Every recovery strategy, every backend, seeded failures: identical."""

    def run_matrix():
        rows = []
        for algo, recoveries in (
            ("pagerank", ("optimistic", "checkpoint", "restart")),
            ("cc", ("optimistic", "checkpoint", "incremental", "restart")),
        ):
            for recovery in recoveries:
                prints = {}
                for backend in BACKENDS:
                    if algo == "pagerank":
                        job = pagerank(twitter_like_graph(300, seed=7), epsilon=1e-4)
                        failures = FailureSchedule.single(3, [1])
                    else:
                        job = connected_components(
                            multi_component_graph(3, 40, seed=7)
                        )
                        failures = FailureSchedule.single(2, [0, 2])
                    result = job.run(
                        config=_config(backend),
                        recovery=_strategy(job, recovery),
                        failures=failures,
                    )
                    prints[backend] = _fingerprint(result)
                rows.append((algo, recovery, prints))
        return rows

    rows = run_once(benchmark, run_matrix)
    table = Table(
        ["algorithm", "recovery", "supersteps", "sim time", "identical"],
        title="S6 — backend equivalence under seeded failure schedules",
    )
    for algo, recovery, prints in rows:
        identical = prints["serial"] == prints["threads"] == prints["processes"]
        table.add_row(
            algo,
            recovery,
            prints["serial"][2],
            round(prints["serial"][1], 6),
            "yes" if identical else "NO",
        )
    report(str(table))
    for algo, recovery, prints in rows:
        assert prints["threads"] == prints["serial"], (algo, recovery, "threads")
        assert prints["processes"] == prints["serial"], (algo, recovery, "processes")


def test_s6_process_backend_speedup(benchmark, report):
    """Wall-clock speedup on large failure-free PageRank, simulated cost
    unchanged."""
    graph = twitter_like_graph(1500, seed=7)

    def run_pair():
        timings = {}
        results = {}
        for backend in ("serial", "processes"):
            job = pagerank(graph, epsilon=1e-4)
            started = time.perf_counter()
            results[backend] = job.run(
                config=_config(backend, workers=SPEEDUP_WORKERS),
                recovery=job.optimistic(),
            )
            timings[backend] = time.perf_counter() - started
        return timings, results

    timings, results = run_once(benchmark, run_pair)
    speedup = timings["serial"] / timings["processes"]
    table = Table(
        ["backend", "workers", "wall seconds", "sim time", "supersteps"],
        title=f"S6 — PageRank {graph.num_vertices} vertices, failure-free "
        f"(host cores: {os.cpu_count()})",
    )
    for backend in ("serial", "processes"):
        table.add_row(
            backend,
            1 if backend == "serial" else SPEEDUP_WORKERS,
            round(timings[backend], 3),
            round(results[backend].clock.now, 6),
            results[backend].supersteps,
        )
    report(str(table) + f"\n\nspeedup (serial / processes): {speedup:.2f}x")

    # Simulated results never depend on the backend.
    assert _fingerprint(results["processes"]) == _fingerprint(results["serial"])
    # The wall-clock claim needs real cores to parallelize over.
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 1.5, f"expected >= 1.5x with 4 cores, got {speedup:.2f}x"
    else:
        pytest.skip(
            f"speedup assertion needs >= 4 cores (host has {os.cpu_count()}); "
            f"measured {speedup:.2f}x"
        )
