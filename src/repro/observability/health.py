"""SLO health reports rendered as a ``repro status`` / ``repro top`` frame.

:meth:`repro.service.api.JobService.health` assembles a machine-readable
dict — queue depth, pool utilization, p50/p95/p99 latencies, per-job
convergence snapshots, recent alerts. This module is the presentation
half: :func:`render_status` turns that dict into the terminal frame the
``serve --status-interval`` CLI prints, in the spirit of ``top``::

    === repro status · 12.3s up ===
    queue   depth=7/64        in-flight=4/4 slots (100% busy)
    jobs    submitted=50 ok=31 failed=0 cancelled=0 timed-out=1 retries=2
    latency queue-wait p50=1.2ms p95=8.0ms p99=11.2ms
            job        p50=90ms  p95=310ms p99=480ms
    running
      17 pagerank-seed42    attempt 0  superstep 12  l1=3.1e-03 rate=0.62 eta=4
      23 cc-seed99          attempt 1  superstep  3  workset=88 rate=0.41 eta=3  STALLED
    alerts
      [warning] stall job=17 superstep=9 (no progress in 5 supersteps)

The renderer is pure (dict in, string out) and tolerant: every section
renders from whatever keys are present, so it works on degraded reports
(telemetry off, no jobs running) and on health dicts loaded from JSON.
"""

from __future__ import annotations

from typing import Any, Mapping


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def _fmt_float(value: float | None, digits: int = 2) -> str:
    if value is None:
        return "-"
    if value != 0 and (abs(value) < 0.01 or abs(value) >= 10000):
        return f"{value:.1e}"
    return f"{value:.{digits}f}"


def _fmt_pct(value: float | None) -> str:
    return "-" if value is None else f"{value * 100.0:.0f}%"


def _latency_line(name: str, stats: Mapping[str, Any] | None) -> str:
    if not stats:
        return f"  {name:<11} -"
    return (
        f"  {name:<11} p50={_fmt_seconds(stats.get('p50'))} "
        f"p95={_fmt_seconds(stats.get('p95'))} "
        f"p99={_fmt_seconds(stats.get('p99'))} "
        f"(n={stats.get('count', 0)})"
    )


def _job_line(job: Mapping[str, Any]) -> str:
    parts = [
        f"  {job.get('job_id', '?'):>4} {str(job.get('name', '?')):<26}",
        f"{str(job.get('state', '?')):<9}",
    ]
    attempt = job.get("attempt")
    if attempt is not None:
        parts.append(f"attempt={attempt}")
    convergence = job.get("convergence") or {}
    superstep = convergence.get("superstep")
    if superstep is not None:
        parts.append(f"superstep={superstep}")
    residual = convergence.get("residual")
    if residual is not None:
        signal = convergence.get("signal") or "residual"
        parts.append(f"{signal}={_fmt_float(residual)}")
    rate = convergence.get("rate")
    if rate is not None:
        parts.append(f"rate={_fmt_float(rate)}")
    eta = convergence.get("eta_supersteps")
    if eta is not None:
        parts.append(f"eta={eta}")
    if convergence.get("recovering"):
        parts.append("RECOVERING")
    if convergence.get("diverging"):
        parts.append("DIVERGING")
    if convergence.get("stalled"):
        parts.append("STALLED")
    return " ".join(parts)


def render_status(health: Mapping[str, Any], max_jobs: int = 12, max_alerts: int = 6) -> str:
    """One ``repro status`` frame for a :meth:`JobService.health` dict."""
    lines: list[str] = []
    wall = health.get("wall_seconds")
    title = "repro status"
    if wall is not None:
        title += f" · {wall:.1f}s up"
    if not health.get("accepting", True):
        title += " · draining"
    lines.append(f"=== {title} ===")

    queue = health.get("queue") or {}
    pool = health.get("pool") or {}
    capacity = queue.get("capacity")
    depth_text = f"depth={queue.get('depth', 0)}"
    if capacity is not None:
        depth_text += f"/{capacity}"
    pool_text = (
        f"in-flight={pool.get('in_flight', 0)}/{pool.get('size', '?')} slots"
    )
    busy = pool.get("utilization")
    if busy is not None:
        pool_text += f" ({_fmt_pct(busy)} busy)"
    discarded = queue.get("discarded")
    if discarded:
        depth_text += f" discarded={discarded}"
    lines.append(f"queue   {depth_text:<18} {pool_text}")

    fairness = health.get("fairness") or {}
    if fairness.get("enabled"):
        shed_text = (
            f"fair    shed={fairness.get('shed_jobs', 0)} "
            f"deadline-rejects={fairness.get('deadline_rejects', 0)}"
        )
        lines.append(shed_text)
        tenants = fairness.get("tenants") or {}
        for tenant in sorted(tenants):
            stats = tenants[tenant]
            lines.append(
                f"  tenant {tenant:<12} w={stats.get('weight', 1)} "
                f"queued={stats.get('queued', 0)} "
                f"served={stats.get('dequeued', 0)} "
                f"shed={stats.get('shed', 0)}"
            )

    counters = health.get("counters") or {}
    if counters:
        lines.append(
            "jobs    "
            f"submitted={counters.get('submitted', 0)} "
            f"ok={counters.get('succeeded', 0)} "
            f"failed={counters.get('failed', 0)} "
            f"cancelled={counters.get('cancelled', 0)} "
            f"timed-out={counters.get('timed_out', 0)} "
            f"retries={counters.get('retries', 0)} "
            f"rejected={counters.get('rejected', 0)}"
        )

    latency = health.get("latency") or {}
    if latency:
        lines.append("latency")
        lines.append(_latency_line("queue-wait", latency.get("queue_wait")))
        lines.append(_latency_line("attempt", latency.get("attempt")))
        lines.append(_latency_line("job", latency.get("job")))

    jobs = health.get("jobs") or []
    if jobs:
        lines.append(f"running ({len(jobs)})")
        for job in jobs[:max_jobs]:
            lines.append(_job_line(job))
        if len(jobs) > max_jobs:
            lines.append(f"  ... and {len(jobs) - max_jobs} more")

    alerts = health.get("alerts") or []
    if alerts:
        lines.append(f"alerts ({len(alerts)})")
        for alert in alerts[-max_alerts:]:
            where = []
            if alert.get("job_id") is not None:
                where.append(f"job={alert['job_id']}")
            if alert.get("superstep") is not None:
                where.append(f"superstep={alert['superstep']}")
            details = alert.get("details") or {}
            detail_text = " ".join(f"{k}={v}" for k, v in sorted(details.items()))
            lines.append(
                f"  [{alert.get('level', '?')}] {alert.get('kind', '?')} "
                + " ".join(where)
                + (f" ({detail_text})" if detail_text else "")
            )

    telemetry = health.get("telemetry") or {}
    if telemetry:
        lines.append(
            "telemetry "
            + ("on" if telemetry.get("enabled") else "off")
            + f" · samples={telemetry.get('samples', 0)}"
            + f" series={telemetry.get('series', 0)}"
            + f" events={telemetry.get('events', 0)}"
            + (
                f" dropped={telemetry['events_dropped']}"
                if telemetry.get("events_dropped")
                else ""
            )
        )
    return "\n".join(lines)
