"""Absolute pin of the superstep driver's observable behaviour.

``golden_fingerprint.json`` was first generated at the last commit that
still had two hand-written driver loops (``iteration/bulk.py`` and
``iteration/delta.py`` before the unified ``iteration/driver.py``). It
was regenerated once since, when the simulated clock became a count
ledger (``runtime/clock.py``): simulated time is now a fixed-order dot
product of integer counts with the cost model instead of a float summed
charge by charge, so the last bits of every simulated-time value moved
(at most 5e-15 relative; ``sim_duration`` differences up to 1.3e-11).
Only the ``sim_time`` reprs, the time fields of ``stats`` and
``events_sha256`` changed; everything else was pinned unchanged. Every
cell — PageRank (bulk) and Connected Components (delta) × the six
registry strategies × {failure-free, a two-failure schedule, one failure
at superstep 0 before anything was persisted} — records what a run may
never change without saying so: superstep count, the ``repr`` of the
final simulated time, a sha256 of the sorted final records, every
superstep's ``IterationStats.to_dict()``, the engine event-kind sequence
plus a sha256 over every event's full ``to_dict()`` (times and payloads:
``restored_from``, ``records``, ``lost_partitions``, ``reason``,
``estimates``, ...) and the ``(SpanKind, name)`` sequence of a
``RecordingTracer`` (the driver- and strategy-level spans verbatim, the
full sequence including operator/partition spans as count + sha256).
Where a strategy refuses the mode — incremental checkpointing on a bulk
iteration — the cell pins the error message instead.

A second, wider set of cells (``WIDE_JOBS``) pins every other shipped
job — SSSP, K-Means, ALS, HITS and the vertex-centric Connected
Components — under optimistic and checkpoint recovery, plus PageRank and
Connected Components through the engine options the driver matrix leaves
at their defaults (combiners, informed compensation, two partitions per
worker) under optimistic recovery, each failure-free and with two
failures. These cells also pin a sha256 over the run's metrics registry
(every counter, gauge and histogram), so a change that moves a shuffle
or delivery count without moving simulated time still shows.

Unlike the identity tests next door, which compare two runs of the *same*
code, this compares against committed numbers — so a refactor of the
driver or of the recovery strategies is held to the old behaviour
bit for bit. Regenerate (only when a behaviour change is intended and
documented) with::

    PYTHONPATH=src python -m tests.iteration.test_golden_fingerprint
"""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.algorithms.als import als, synthetic_ratings
from repro.algorithms.connected_components import (
    NeighborInformedCompensation,
    connected_components,
)
from repro.algorithms.hits import hits
from repro.algorithms.kmeans import kmeans
from repro.algorithms.pagerank import InformedPageRankCompensation, pagerank
from repro.algorithms.sssp import sssp
from repro.config import EngineConfig
from repro.core.strategies import STRATEGY_NAMES, build_strategy
from repro.errors import IterationError
from repro.graph.generators import grid_graph, twitter_like_graph
from repro.observability.span import SpanKind
from repro.observability.tracer import RecordingTracer
from repro.pregel.library import pregel_connected_components
from repro.runtime.failures import FailureSchedule

GOLDEN_PATH = Path(__file__).with_name("golden_fingerprint.json")

JOBS = {
    "pagerank": lambda: pagerank(twitter_like_graph(60, seed=11), epsilon=1e-3),
    "connected-components": lambda: connected_components(grid_graph(5, 5)),
}

SCHEDULES = {
    "failure-free": FailureSchedule.none,
    "two-failures": lambda: FailureSchedule.at((2, [1]), (4, [0, 3])),
    # strikes before the first checkpoint / base / snapshot exists: the
    # restart fallbacks and confined's pinned-input branch
    "early-failure": lambda: FailureSchedule.at((0, [2])),
}

CONFIG = EngineConfig(parallelism=4, spare_workers=8)


def _points(seed: int = 3, per_cluster: int = 10) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    return [
        (cx + rng.gauss(0.0, 0.5), cy + rng.gauss(0.0, 0.5))
        for cx, cy in ((0.0, 0.0), (6.0, 1.0), (2.0, 7.0))
        for _ in range(per_cluster)
    ]


def _informed(factory, compensation):
    """``factory``'s job with its compensation swapped for an informed one."""

    def build():
        job = factory()
        job.compensation = compensation()
        return job

    return build


ROLLBACK_PAIR = ("optimistic", "checkpoint")
COMBINED = replace(CONFIG, combiners=True)
TWO_PER_WORKER = replace(CONFIG, parallelism=8, partitions_per_worker=2)
PAGERANK, COMPONENTS = JOBS["pagerank"], JOBS["connected-components"]

#: ``{name: (job factory, engine config, strategies)}`` for the wide cells.
WIDE_JOBS = {
    "sssp": (lambda: sssp(twitter_like_graph(40, seed=5), 0), CONFIG, ROLLBACK_PAIR),
    "kmeans": (lambda: kmeans(_points(), 3, iterations=8, seed=1), CONFIG, ROLLBACK_PAIR),
    "als": (
        lambda: als(synthetic_ratings(12, 9, rank=2, density=0.4, seed=1), rank=2, iterations=6),
        CONFIG,
        ROLLBACK_PAIR,
    ),
    "hits": (lambda: hits(twitter_like_graph(40, seed=11), epsilon=1e-6), CONFIG, ROLLBACK_PAIR),
    "pregel-cc": (lambda: pregel_connected_components(grid_graph(5, 5)), CONFIG, ROLLBACK_PAIR),
    "pagerank+combiners": (PAGERANK, COMBINED, ("optimistic",)),
    "connected-components+combiners": (COMPONENTS, COMBINED, ("optimistic",)),
    "pagerank+informed": (
        _informed(PAGERANK, lambda: InformedPageRankCompensation(0.85, 60)),
        CONFIG,
        ("optimistic",),
    ),
    "connected-components+informed": (
        _informed(COMPONENTS, NeighborInformedCompensation),
        CONFIG,
        ("optimistic",),
    ),
    "pagerank+2-per-worker": (PAGERANK, TWO_PER_WORKER, ("optimistic",)),
    "connected-components+2-per-worker": (COMPONENTS, TWO_PER_WORKER, ("optimistic",)),
}

WIDE_SCHEDULES = ("failure-free", "two-failures")

CELLS = [
    (algorithm, strategy, schedule)
    for algorithm in JOBS
    for strategy in STRATEGY_NAMES
    for schedule in SCHEDULES
] + [
    (algorithm, strategy, schedule)
    for algorithm, (_, _, strategies) in WIDE_JOBS.items()
    for strategy in strategies
    for schedule in WIDE_SCHEDULES
]

_ENGINE_SPAN_KINDS = {SpanKind.OPERATOR.value, SpanKind.PARTITION.value}


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _metrics_sha256(metrics) -> str:
    """Every counter, gauge and histogram of the run."""
    return _sha256(metrics.snapshot_all())


def fingerprint(algorithm: str, strategy: str, schedule: str) -> dict:
    wide = algorithm in WIDE_JOBS
    factory, config, _ = WIDE_JOBS[algorithm] if wide else (JOBS[algorithm], CONFIG, None)
    job = factory()
    tracer = RecordingTracer()
    try:
        result = job.run(
            config=config,
            recovery=build_strategy(
                strategy, compensation=job.compensation, invariants=job.invariants
            ),
            failures=SCHEDULES[schedule](),
            tracer=tracer,
        )
    except IterationError as exc:
        return {"error": str(exc)}
    spans = [
        [span.kind.value, span.name] for root in tracer.roots for span in _walk(root)
    ]
    cell = {
        "supersteps": result.supersteps,
        "converged": result.converged,
        "sim_time": repr(result.clock.now),
        "records_sha256": _sha256([repr(r) for r in sorted(result.final_records)]),
        "stats": [stats.to_dict() for stats in result.stats],
        "events": [event.kind.value for event in result.events],
        "events_sha256": _sha256([event.to_dict() for event in result.events]),
        "driver_spans": [span for span in spans if span[0] not in _ENGINE_SPAN_KINDS],
        "all_spans": {"count": len(spans), "sha256": _sha256(spans)},
    }
    if wide:
        cell["metrics_sha256"] = _metrics_sha256(result.metrics)
    return cell


def _cell_id(cell) -> str:
    return "/".join(cell)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(_cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_run_reproduces_the_golden_fingerprint(golden, cell):
    expected = golden[_cell_id(cell)]
    actual = json.loads(json.dumps(fingerprint(*cell)))
    for field in expected:
        assert actual[field] == expected[field], f"{_cell_id(cell)}: {field} drifted"
    assert actual.keys() == expected.keys()


if __name__ == "__main__":
    # One cell per line: compact, and a regeneration diff names the cell.
    lines = [
        f"{json.dumps(_cell_id(cell))}: {json.dumps(fingerprint(*cell), sort_keys=True)}"
        for cell in sorted(CELLS)
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(CELLS)} cells)")
