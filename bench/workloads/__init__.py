"""The five workloads and the shape every one of them reports in.

A workload object has a ``name``, a one-line ``why``, ``run(seed,
seconds, smoke)`` returning an :class:`Outcome` with every
end-to-end metric, and ``engine_unit(seed, smoke)`` returning the
:data:`bench.spans.RunUnit` the traced pass drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..harness import metric, peak_rss_mb


class Unit(NamedTuple):
    """One timed unit of work: its wall and CPU seconds, the records it
    moved and the jobs it completed."""

    wall: float
    cpu: float
    records: int
    jobs: int


@dataclass
class Outcome:
    """What one end-to-end run of a workload measured."""

    metrics: dict[str, dict[str, Any]]
    attempted: int
    failures: list[str] = field(default_factory=list)
    detail: dict[str, Any] = field(default_factory=dict)


def end_to_end(
    setup_s: list[float],
    units: list[Unit],
    latencies_ms: list[float],
    cpu_s: list[float] | None = None,
) -> dict[str, dict[str, Any]]:
    """Assemble the end-to-end metrics every workload reports.

    Every metric is a median over the run's samples — unit wall and CPU
    seconds, per-unit rates (records or jobs of a unit over its wall),
    latencies, set-ups — because a slow phase of the host stretches some
    units of nearly every run, and a mean or a total would carry them.
    ``cpu_s`` overrides the per-unit CPU samples where a workload can only
    read CPU once its child processes have exited.
    """
    return {
        "setup_s": metric(None, "s", setup_s),
        "wall_s": metric(None, "s", [unit.wall for unit in units]),
        "cpu_s": metric(None, "s", cpu_s or [unit.cpu for unit in units]),
        "records_per_s": metric(None, "1/s", [unit.records / unit.wall for unit in units]),
        "jobs_per_s": metric(None, "1/s", [unit.jobs / unit.wall for unit in units]),
        "latency_p50_ms": metric(None, "ms", latencies_ms),
        "peak_rss_mb": metric(peak_rss_mb(), "MB", pool="max"),
    }


def all_workloads() -> dict[str, Any]:
    """``{name: workload}`` in the order the suite runs them."""
    from .jobs import CC_DELTA, PR_BULK
    from .recover_matrix import RECOVER_MATRIX
    from .serve_http import SERVE_HTTP
    from .views_refresh import VIEWS_REFRESH

    ordered = (PR_BULK, CC_DELTA, RECOVER_MATRIX, SERVE_HTTP, VIEWS_REFRESH)
    return {workload.name: workload for workload in ordered}
