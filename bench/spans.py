"""The traced pass over a workload's own engine work.

The workload's units run alternately untraced and with the program's
public ``RecordingTracer`` handed to ``job.run(tracer=...)``; the span
trees give each layer's *self* time (a span's wall duration minus the
part its children cover), grouped by ``SpanKind``, and the ratio of the
two walls is the tracing overhead.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable

from repro.observability import RecordingTracer, SpanKind

from .harness import BenchError, BenchTracer, metric, now

#: ``run_unit(make_tracer)`` runs one unit of a workload's engine work and
#: returns ``(results, wall seconds of the timed region)``; it asks
#: ``make_tracer()`` for a fresh tracer per job, or gets ``None`` for an
#: untraced unit.
RunUnit = Callable[[Callable[[], Any] | None], tuple[list[Any], float]]

_OPERATOR = {SpanKind.OPERATOR, SpanKind.PARTITION}
_DRIVER = {SpanKind.RUN, SpanKind.SUPERSTEP, SpanKind.PHASE}

#: metric name -> unit, for every metric :func:`traced_pass` reports.
METRICS = {
    "observability.tracer_wall_ratio": "ratio",
    "executor.operators_self_s": "s",
    "executor.operators_share": "ratio",
    "executor.top_op_self_s": "s",
    "executor.records_in": "count",
    "iteration.driver_self_s": "s",
    "iteration.driver_share": "ratio",
    "iteration.supersteps": "count",
    "iteration.overhead_us_per_superstep": "us",
    "core.recovery_self_s": "s",
    "core.recovery_spans": "count",
    "cache.hit_rate": "ratio",
    "engine.sim_time_s": "sim_s",
    "trace.engine_spans": "count",
}


def self_seconds(span: Any) -> float:
    """A span's own wall time: its duration minus the part its children cover."""
    return span.wall_duration - sum(child.wall_duration for child in span.children)


def _unit_profile(tracers: list[RecordingTracer], results: list[Any]) -> dict[str, Any]:
    """Self times and exact counts of one traced unit."""
    operators = driver = recovery = total = 0.0
    by_operator: dict[str, float] = {}
    spans = recovery_spans = 0
    for tracer in tracers:
        for root in tracer.roots:
            total += root.wall_duration
            for span in root.walk():
                spans += 1
                own = self_seconds(span)
                if span.kind in _OPERATOR:
                    operators += own
                    name = span.attributes.get("operator", span.name)
                    by_operator[name] = by_operator.get(name, 0.0) + own
                elif span.kind in _DRIVER:
                    driver += own
                else:
                    # includes the per-superstep commit hook every strategy
                    # gets, so failure-free runs read small, not zero
                    recovery += own
                    recovery_spans += 1
    counters: dict[str, int] = {}
    for result in results:
        for name, value in result.metrics.snapshot().items():
            counters[name] = counters.get(name, 0) + value
    top = max(by_operator, key=by_operator.__getitem__) if by_operator else ""
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    return {
        "total": total,
        "operators": operators,
        "driver": driver,
        "recovery": recovery,
        "top_op": top,
        "top_op_self": by_operator.get(top, 0.0),
        "spans": spans,
        "recovery_spans": recovery_spans,
        "supersteps": sum(r.supersteps for r in results),
        "sim_time": sum(r.sim_time for r in results),
        "records_in": sum(v for k, v in counters.items() if k.startswith("records_in.")),
        "hit_rate": counters.get("cache.hits", 0) / lookups if lookups else 0.0,
    }


def traced_pass(run_unit: RunUnit, seconds: float, bench: BenchTracer) -> dict[str, dict[str, Any]]:
    """Alternate untraced and traced units for ``seconds`` (at least two
    pairs, so the exact counts can be checked to repeat); report medians."""
    plain: list[float] = []
    traced: list[float] = []
    profiles: list[dict[str, Any]] = []
    started = now()
    while len(profiles) < 2 or now() - started < seconds:
        with bench.span("unit:untraced"):
            plain.append(run_unit(None)[1])
        tracers: list[RecordingTracer] = []

        def make_tracer() -> RecordingTracer:
            tracers.append(RecordingTracer())
            return tracers[-1]

        with bench.span("unit:traced"):
            results, wall = run_unit(make_tracer)
            for tracer in tracers:
                for root in tracer.roots:
                    bench.adopt(root)
        traced.append(wall)
        profiles.append(_unit_profile(tracers, results))

    def med(field: str) -> float:
        return statistics.median(p[field] for p in profiles)

    def exact(field: str) -> float:
        values = {p[field] for p in profiles}
        if len(values) != 1:
            raise BenchError(f"{field} differs between traced units: {sorted(values)}")
        return values.pop()

    total = med("total")
    supersteps = exact("supersteps")
    values = {
        "observability.tracer_wall_ratio": statistics.median(traced) / statistics.median(plain),
        "executor.operators_self_s": med("operators"),
        "executor.operators_share": med("operators") / total,
        "executor.top_op_self_s": med("top_op_self"),
        "executor.records_in": exact("records_in"),
        "iteration.driver_self_s": med("driver"),
        "iteration.driver_share": med("driver") / total,
        "iteration.supersteps": supersteps,
        "iteration.overhead_us_per_superstep": med("driver") / supersteps * 1e6,
        "core.recovery_self_s": med("recovery"),
        "core.recovery_spans": exact("recovery_spans"),
        "cache.hit_rate": exact("hit_rate"),
        "engine.sim_time_s": exact("sim_time"),
        "trace.engine_spans": exact("spans"),
    }
    report = {name: metric(values[name], unit) for name, unit in METRICS.items()}
    report["executor.top_op_self_s"]["operator"] = profiles[0]["top_op"]
    report["observability.tracer_wall_ratio"].update(
        untraced_wall_s=statistics.median(plain),
        traced_wall_s=statistics.median(traced),
        pairs=len(profiles),
    )
    return report
