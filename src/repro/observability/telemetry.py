"""Live telemetry: bounded time series sampled from running jobs.

The recovery-cost profiler and the JSONL traces explain a run *after* it
finished; this module watches runs *while they execute*. Three pieces:

* :class:`TimeSeries` — one metric's history as a bounded ring buffer of
  ``(wall_time, sim_time, value)`` points with a drop counter; old
  points fall off, memory stays O(capacity) however long the service
  lives.
* :class:`TelemetryCollector` — the sampler. Sources (the service's
  :class:`repro.runtime.metrics.MetricsRegistry`, each running job's
  per-run registry) register
  with a scope and optional ``(job_id, attempt)`` correlation; the
  collector periodically takes each registry's *atomic*
  ``snapshot_all()`` and appends every counter and gauge to the matching
  series. Sampling is read-only and wall-clock driven — it never touches
  simulated clocks, RNGs or run state, so results are bit-identical with
  the collector on or off.
* :class:`RunTelemetry` — the per-attempt bundle the iteration drivers
  accept: it registers the run's registry with the collector, mirrors
  the run's engine events into the level-tagged
  :class:`~repro.observability.telemetry_log.TelemetryLog` with
  correlation ids, and feeds each superstep's stats to a
  :class:`~repro.observability.convergence.ConvergenceMonitor`.

Everything is duck-typed (a "registry" is anything with
``snapshot_all()``; a "clock" anything with ``.now``), keeping this
package a leaf with no engine imports.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .convergence import ConvergenceMonitor
from .telemetry_log import TelemetryLog


@dataclass(frozen=True)
class SeriesKey:
    """Identity of one time series: metric name plus correlation ids."""

    metric: str
    job_id: int | None = None
    attempt: int | None = None

    def labels(self) -> dict[str, str]:
        """The key's correlation ids as exposition labels."""
        labels: dict[str, str] = {}
        if self.job_id is not None:
            labels["job_id"] = str(self.job_id)
        if self.attempt is not None:
            labels["attempt"] = str(self.attempt)
        return labels


@dataclass(frozen=True)
class SeriesPoint:
    """One sample: wall-clock stamp, simulated stamp (if any), value."""

    wall_time: float
    sim_time: float | None
    value: float


class TimeSeries:
    """A bounded ring buffer of :class:`SeriesPoint`."""

    def __init__(self, key: SeriesKey, capacity: int = 512, origin: str = "sampled"):
        if capacity < 1:
            raise ValueError(f"time series capacity must be >= 1, got {capacity}")
        self.key = key
        self.capacity = capacity
        #: ``"sampled"`` (swept from a registry) or ``"recorded"``
        #: (pushed directly, e.g. per-superstep run series).
        self.origin = origin
        self._points: deque[SeriesPoint] = deque(maxlen=capacity)
        self._appended = 0

    def append(
        self, value: float, wall_time: float | None = None, sim_time: float | None = None
    ) -> None:
        self._points.append(
            SeriesPoint(
                wall_time=wall_time if wall_time is not None else time.time(),
                sim_time=sim_time,
                value=float(value),
            )
        )
        self._appended += 1

    @property
    def dropped(self) -> int:
        """Points evicted by the ring buffer."""
        return self._appended - len(self._points)

    @property
    def last(self) -> SeriesPoint | None:
        return self._points[-1] if self._points else None

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[SeriesPoint]:
        return iter(list(self._points))

    def points(self) -> list[SeriesPoint]:
        return list(self._points)

    def values(self) -> list[float]:
        return [p.value for p in self._points]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (for dashboards / tests)."""
        return {
            "metric": self.key.metric,
            "job_id": self.key.job_id,
            "attempt": self.key.attempt,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "points": [
                {"wall_time": p.wall_time, "sim_time": p.sim_time, "value": p.value}
                for p in self._points
            ],
        }


@dataclass
class _Source:
    """One registered registry the collector sweeps."""

    registry: Any
    scope: str
    job_id: int | None
    attempt: int | None
    clock: Any | None


class TelemetryCollector:
    """Samples registered metric registries into bounded time series.

    Thread-safe throughout: the job service's worker threads register and
    unregister run registries while the sampler thread sweeps.

    Args:
        interval: background sampling period in wall seconds.
        series_capacity: ring size of each time series.
        log: the telemetry event log health events and lifecycle
            markers land in (created bounded-default when omitted).
    """

    def __init__(
        self,
        interval: float = 0.25,
        series_capacity: int = 512,
        log: TelemetryLog | None = None,
    ):
        if interval <= 0:
            raise ValueError(f"sample interval must be > 0, got {interval}")
        if series_capacity < 1:
            raise ValueError(f"series capacity must be >= 1, got {series_capacity}")
        self.interval = interval
        self.series_capacity = series_capacity
        self.log = log if log is not None else TelemetryLog()
        self._lock = threading.Lock()
        self._sources: dict[int, _Source] = {}
        self._next_token = 0
        self._series: dict[SeriesKey, TimeSeries] = {}
        self._samples = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- sources -----------------------------------------------------------------

    def register(
        self,
        registry: Any,
        *,
        scope: str = "service",
        job_id: int | None = None,
        attempt: int | None = None,
        clock: Any | None = None,
    ) -> int:
        """Start sampling ``registry``; returns an unregistration token.

        ``clock`` (anything with ``.now``) stamps this source's points
        with simulated time alongside the wall clock.
        """
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._sources[token] = _Source(registry, scope, job_id, attempt, clock)
        return token

    def unregister(self, token: int, final_sample: bool = True) -> None:
        """Stop sampling a source (by default after one last sweep of it)."""
        with self._lock:
            source = self._sources.pop(token, None)
        if source is not None and final_sample:
            self._sample_source(source)

    @property
    def sources(self) -> int:
        """How many registries are currently being sampled."""
        with self._lock:
            return len(self._sources)

    # -- sampling ----------------------------------------------------------------

    def sample(self) -> None:
        """Take one sweep over every registered source, now."""
        with self._lock:
            sources = list(self._sources.values())
            self._samples += 1
        for source in sources:
            self._sample_source(source)

    def _sample_source(self, source: _Source) -> None:
        snapshot = source.registry.snapshot_all(include_histograms=False)
        wall = time.time()
        sim = None
        if source.clock is not None:
            sim = getattr(source.clock, "now", None)
        for name, value in snapshot["counters"].items():
            self._append(name, value, source, wall, sim)
        for name, value in snapshot["gauges"].items():
            self._append(name, value, source, wall, sim)

    def _append(
        self,
        metric: str,
        value: float,
        source: _Source,
        wall: float,
        sim: float | None,
    ) -> None:
        key = SeriesKey(metric=metric, job_id=source.job_id, attempt=source.attempt)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = TimeSeries(key, self.series_capacity, origin="sampled")
                self._series[key] = series
            series.append(value, wall_time=wall, sim_time=sim)

    def record(
        self,
        metric: str,
        value: float,
        *,
        job_id: int | None = None,
        attempt: int | None = None,
        sim_time: float | None = None,
    ) -> None:
        """Append one point directly (drivers push per-superstep values —
        updates, L1 — that never live in a registry)."""
        self.record_batch(((metric, value),), job_id=job_id, attempt=attempt, sim_time=sim_time)

    def record_batch(
        self,
        values: Any,
        *,
        job_id: int | None = None,
        attempt: int | None = None,
        sim_time: float | None = None,
    ) -> None:
        """Append several ``(metric, value)`` points under one lock and one
        wall stamp — the drivers push a handful of series per superstep,
        and batching keeps that on the hot path cheap."""
        wall = time.time()
        with self._lock:
            for metric, value in values:
                key = SeriesKey(metric=metric, job_id=job_id, attempt=attempt)
                series = self._series.get(key)
                if series is None:
                    series = TimeSeries(key, self.series_capacity, origin="recorded")
                    self._series[key] = series
                series.append(value, wall_time=wall, sim_time=sim_time)

    # -- access ------------------------------------------------------------------

    @property
    def samples(self) -> int:
        """Background/manual sweeps taken so far."""
        with self._lock:
            return self._samples

    def series(
        self, metric: str, job_id: int | None = None, attempt: int | None = None
    ) -> TimeSeries | None:
        """The series for ``(metric, job_id, attempt)``, if any."""
        with self._lock:
            return self._series.get(SeriesKey(metric, job_id, attempt))

    def series_keys(self) -> list[SeriesKey]:
        """All series identities collected so far, sorted by metric."""
        with self._lock:
            return sorted(
                self._series,
                key=lambda k: (k.metric, k.job_id or -1, k.attempt or -1),
            )

    def all_series(self) -> list[TimeSeries]:
        with self._lock:
            return list(self._series.values())

    def last_values(self, origin: str | None = None) -> dict[SeriesKey, float]:
        """The newest point of every series (the "current" dashboard view),
        optionally restricted to one origin (``"sampled"``/``"recorded"``)."""
        with self._lock:
            return {
                key: series.last.value
                for key, series in self._series.items()
                if series.last is not None
                and (origin is None or series.origin == origin)
            }

    def registered_snapshots(self) -> list[tuple[dict[str, str], dict[str, Any]]]:
        """``(labels, snapshot_all)`` per live source, for exposition."""
        with self._lock:
            sources = list(self._sources.values())
        out: list[tuple[dict[str, str], dict[str, Any]]] = []
        for source in sources:
            labels = {"scope": source.scope}
            if source.job_id is not None:
                labels["job_id"] = str(source.job_id)
            if source.attempt is not None:
                labels["attempt"] = str(source.attempt)
            out.append((labels, source.registry.snapshot_all()))
        return out

    # -- background thread -------------------------------------------------------

    def start(self) -> None:
        """Start the background sampler (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-telemetry", daemon=True
            )
            self._thread.start()

    def stop(self, final_sample: bool = True) -> None:
        """Stop the background sampler and optionally sweep once more."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
        if final_sample:
            self.sample()

    @property
    def running(self) -> bool:
        with self._lock:
            return self._thread is not None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "TelemetryCollector":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


@dataclass
class RunTelemetry:
    """Per-attempt telemetry bundle handed to an iteration driver.

    The driver calls :meth:`bind_runtime` once its runtime exists,
    :meth:`on_superstep` after every superstep, and :meth:`close` in its
    cleanup path. Everything here observes; nothing charges the
    simulation.
    """

    collector: TelemetryCollector | None = None
    monitor: ConvergenceMonitor | None = None
    log: TelemetryLog | None = None
    job_id: int | None = None
    attempt: int | None = None
    #: per-superstep series recorded via ``collector.record``.
    series_metrics: tuple[str, ...] = (
        "run.updates",
        "run.l1_delta",
        "run.workset_size",
        "run.converged",
        "run.messages",
    )
    _token: int | None = field(default=None, repr=False)
    _events: Any = field(default=None, repr=False)
    _forwarder: Callable[[Any], None] | None = field(default=None, repr=False)
    _clock: Any = field(default=None, repr=False)

    def bind_runtime(
        self, metrics: Any, clock: Any, events: Any, job: str | None = None
    ) -> None:
        """Attach a run's registry, simulated clock and engine event log."""
        if self.collector is not None:
            self._token = self.collector.register(
                metrics,
                scope="run" if job is None else f"run:{job}",
                job_id=self.job_id,
                attempt=self.attempt,
                clock=clock,
            )
        self._clock = clock
        if self.log is not None and events is not None:
            log, job_id, attempt = self.log, self.job_id, self.attempt

            def _forward(event: Any) -> None:
                log.emit(
                    f"engine.{event.kind.value}",
                    "debug",
                    job_id=job_id,
                    attempt=attempt,
                    superstep=event.superstep,
                    sim_time=event.time,
                    **event.details,
                )

            events.subscribe(_forward)
            self._events = events
            self._forwarder = _forward

    def on_superstep(self, stats: Any) -> None:
        """Feed one superstep's stats to the monitor and the series."""
        if self.monitor is not None:
            self.monitor.observe(stats)
        if self.collector is not None:
            batch = [
                (metric, value)
                for metric, value in (
                    ("run.updates", stats.updates),
                    ("run.l1_delta", stats.l1_delta),
                    ("run.workset_size", stats.workset_size),
                    ("run.converged", stats.converged),
                    ("run.messages", stats.messages),
                )
                if metric in self.series_metrics and value is not None
            ]
            if batch:
                self.collector.record_batch(
                    batch,
                    job_id=self.job_id,
                    attempt=self.attempt,
                    sim_time=stats.sim_time_end,
                )

    def set_target(self, target: float | None) -> None:
        """Forward the termination threshold to the ETA estimator."""
        if self.monitor is not None and target is not None:
            self.monitor.target = target

    def close(self) -> None:
        """Unregister from the collector and the engine event log."""
        if self.collector is not None and self._token is not None:
            self.collector.unregister(self._token)
            self._token = None
        if self._events is not None and self._forwarder is not None:
            self._events.unsubscribe(self._forwarder)
            self._events = None
            self._forwarder = None
