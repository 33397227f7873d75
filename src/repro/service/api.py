"""The public facade: :class:`JobService`.

Usage::

    from repro.config import ServiceConfig
    from repro.service import JobService, JobSpec

    with JobService(ServiceConfig(pool_size=4)) as service:
        handle = service.submit(JobSpec(name="cc", make_job=lambda: job))
        result = handle.result(timeout=30)

``submit`` admits a job (or raises :class:`repro.errors.AdmissionError`
under backpressure), ``status``/``result``/``cancel`` observe and steer
it, ``drain`` stops admissions and waits for the in-flight work, and
``run_all`` is the synchronous convenience the CLI and benchmarks use.

Everything observable lands on one :class:`repro.runtime.metrics.MetricsRegistry`:

==============================  ===========================================
``service.submitted``           submit calls (before admission control)
``service.admitted``            jobs accepted into the queue
``service.admission_rejects``   jobs refused by backpressure
``service.attempts``            engine runs started
``service.retries``             infrastructure retries performed
``service.succeeded`` /         terminal-state counters
``service.failed`` /
``service.cancelled`` /
``service.timed_out``
``service.queue_discarded``     terminal corpses dropped from the queue
``service.shed_jobs``           jobs evicted/refused by load shedding
``service.deadline_rejects``    jobs refused as provably unmeetable
``service.tenant.<t>.*``        per-tenant submitted/admitted/dequeued/shed
``service.queue_depth``         gauge: live queue depth
``service.jobs_in_flight``      gauge: jobs currently executing
``service.queue_depth_sampled`` histogram: depth observed at each admission
``service.time_in_queue_seconds``  histogram: submit → first dequeue
``service.attempt_seconds``     histogram: wall seconds per engine run
``service.job_seconds``         histogram: submit → terminal state
``service.worker_busy_seconds`` histogram: seconds per worker dispatch
==============================  ===========================================

With :attr:`repro.config.ServiceConfig.telemetry` enabled the service
additionally runs a :class:`repro.observability.telemetry.TelemetryCollector`
(periodic time-series sampling of this registry plus every running
attempt's per-run registry), a bounded
:class:`repro.observability.telemetry_log.TelemetryLog` with per-job
correlation ids, and per-attempt convergence monitors — all surfaced
through :meth:`JobService.health` and the Prometheus renderer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Any

from ..config import DEFAULT_SERVICE_CONFIG, ServiceConfig
from ..errors import AdmissionError, ServiceError
from ..iteration.result import IterationResult
from ..observability.telemetry import TelemetryCollector
from ..observability.telemetry_log import TelemetryLog
from ..runtime.metrics import MetricsRegistry
from .fair import FairAdmissionQueue, tenant_metric
from .job import JobHandle, JobSpec, JobState
from .queue import AdmissionQueue
from .scheduler import WorkerPool
from .supervisor import JobSupervisor


class JobService:
    """Admits, queues, schedules and supervises many concurrent runs."""

    def __init__(
        self,
        config: ServiceConfig = DEFAULT_SERVICE_CONFIG,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if config.fairness.enabled:
            self._queue: AdmissionQueue | FairAdmissionQueue = FairAdmissionQueue(
                capacity=config.queue_capacity,
                policy=config.backpressure,
                block_timeout=config.admission_timeout,
                fairness=config.fairness,
                metrics=self.metrics,
            )
        else:
            self._queue = AdmissionQueue(
                capacity=config.queue_capacity,
                policy=config.backpressure,
                block_timeout=config.admission_timeout,
                metrics=self.metrics,
            )
        # The telemetry layer is purely observational: the collector
        # samples registries on the wall clock and the log records
        # health/lifecycle events. Job results are bit-identical with it
        # on or off.
        telemetry_cfg = config.telemetry
        self.telemetry_log: TelemetryLog | None = None
        self.collector: TelemetryCollector | None = None
        if telemetry_cfg.enabled:
            self.telemetry_log = TelemetryLog(
                capacity=telemetry_cfg.event_capacity,
                path=telemetry_cfg.jsonl_path,
            )
            self.collector = TelemetryCollector(
                interval=telemetry_cfg.sample_interval,
                series_capacity=telemetry_cfg.series_capacity,
                log=self.telemetry_log,
            )
            self.collector.register(self.metrics, scope="service")
            self.collector.start()
        self._supervisor = JobSupervisor(
            metrics=self.metrics,
            trace_jobs=config.trace_jobs,
            collector=self.collector,
            telemetry_log=self.telemetry_log,
            stall_supersteps=telemetry_cfg.stall_supersteps,
            divergence_supersteps=telemetry_cfg.divergence_supersteps,
        )
        self._pool = WorkerPool(
            self._queue,
            self._run_one,
            pool_size=config.pool_size,
            poll_interval=config.poll_interval,
            on_timeout=self._on_queue_timeout,
            metrics=self.metrics,
        )
        self._lock = threading.Lock()
        self._handles: dict[int, JobHandle] = {}
        self._next_job_id = 0
        self._accepting = True
        self._closed = False
        self._started_at = time.monotonic()
        self.metrics.set_gauge("service.pool_size", config.pool_size)
        self.metrics.set_gauge("service.jobs_in_flight", 0)
        self.metrics.set_gauge("service.queue_depth", 0)

    # -- internal --------------------------------------------------------------

    def _run_one(self, handle: JobHandle) -> None:
        if handle.started_at is None:
            handle.started_at = time.monotonic()
            wait = handle.time_in_queue or 0.0
            self.metrics.observe("service.time_in_queue_seconds", wait)
            # Feed the fair queue's deadline-admission estimator (a no-op
            # on the base AdmissionQueue).
            self._queue.note_wait(wait)
        self.metrics.set_gauge("service.queue_depth", self._queue.depth)
        self.metrics.set_gauge("service.jobs_in_flight", self._pool.in_flight)
        try:
            self._supervisor.run_job(handle)
        finally:
            self.metrics.set_gauge("service.jobs_in_flight", self._pool.in_flight - 1)
            total = handle.total_seconds
            if total is not None:
                self.metrics.observe("service.job_seconds", total)

    def _on_queue_timeout(self, handle: JobHandle) -> None:
        # Deadline missed while queued: the pool never handed the job to
        # the supervisor, so account for the terminal state here.
        self.metrics.increment("service.timed_out")
        total = handle.total_seconds
        if total is not None:
            self.metrics.observe("service.job_seconds", total)

    # -- submission ------------------------------------------------------------

    def submit(self, spec: JobSpec, timeout: float | None = None) -> JobHandle:
        """Admit one job; returns its handle.

        Raises :class:`repro.errors.AdmissionError` when backpressure
        refuses the job, and :class:`repro.errors.ServiceError` when the
        service is draining or shut down.

        Specs that did not pick a recovery strategy (``recovery=None``)
        inherit :attr:`repro.config.ServiceConfig.default_recovery` when
        the service defines one; explicit per-job choices always win.
        """
        self.metrics.increment("service.submitted")
        if self.config.fairness.enabled:
            self.metrics.increment(tenant_metric(spec.tenant, "submitted"))
        if spec.recovery is None and self.config.default_recovery is not None:
            spec = replace(spec, recovery=self.config.default_recovery)
        with self._lock:
            if not self._accepting:
                raise ServiceError(
                    "service is draining or shut down; not accepting jobs"
                )
            job_id = self._next_job_id
            self._next_job_id += 1
        handle = JobHandle(job_id, spec)
        try:
            self._queue.put(handle, timeout=timeout)
        except AdmissionError:
            self.metrics.increment("service.admission_rejects")
            raise
        with self._lock:
            self._handles[job_id] = handle
        self.metrics.increment("service.admitted")
        if self.config.fairness.enabled:
            self.metrics.increment(tenant_metric(spec.tenant, "admitted"))
        depth = self._queue.depth
        self.metrics.set_gauge("service.queue_depth", depth)
        self.metrics.observe("service.queue_depth_sampled", depth)
        return handle

    # -- observation and steering ----------------------------------------------

    def handle(self, job_id: int) -> JobHandle:
        """The handle of a submitted job."""
        with self._lock:
            if job_id not in self._handles:
                raise ServiceError(f"unknown job id {job_id}")
            return self._handles[job_id]

    def handles(self) -> list[JobHandle]:
        """All handles, in submission order."""
        with self._lock:
            return [self._handles[jid] for jid in sorted(self._handles)]

    def status(self, job_id: int) -> JobState:
        """Current lifecycle state of a job."""
        return self.handle(job_id).state

    def result(self, job_id: int, timeout: float | None = None) -> IterationResult:
        """Block for and return a job's result (see :meth:`JobHandle.result`)."""
        return self.handle(job_id).result(timeout)

    def cancel(self, job_id: int) -> bool:
        """Cancel a job; False when it already reached a terminal state."""
        return self.handle(job_id).request_cancel()

    # -- drain / shutdown -------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admissions and wait until every admitted job is terminal.

        Returns False when ``timeout`` expired first (the service keeps
        working on the remainder; call again or :meth:`shutdown`).
        """
        with self._lock:
            self._accepting = False
        return self._pool.wait_idle(timeout)

    def shutdown(self, cancel_pending: bool = True) -> None:
        """Drain admissions, stop the workers, cancel queued jobs."""
        with self._lock:
            if self._closed:
                return
            self._accepting = False
            self._closed = True
        for handle in self._pool.shutdown(cancel_pending=cancel_pending):
            self.metrics.increment("service.cancelled")
        self.metrics.set_gauge("service.queue_depth", self._queue.depth)
        self.metrics.set_gauge("service.jobs_in_flight", 0)
        if self.collector is not None:
            self.collector.stop()
        if self.telemetry_log is not None:
            self.telemetry_log.emit("service_shutdown", "info")
            self.telemetry_log.close()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.drain()
        self.shutdown()

    # -- conveniences ------------------------------------------------------------

    def run_all(
        self, specs: list[JobSpec], timeout: float | None = None
    ) -> list[JobHandle]:
        """Submit every spec, wait for all of them, return the handles.

        Admission uses the service's backpressure policy; a rejected spec
        surfaces as :class:`repro.errors.AdmissionError` immediately.
        Handles come back in submission order regardless of completion
        order; inspect each handle's state/result individually.
        """
        handles = [self.submit(spec, timeout=timeout) for spec in specs]
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in handles:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            handle.wait(remaining)
        return handles

    def report(self) -> "ServiceReport":
        """A snapshot report of the service's counters and latencies."""
        return ServiceReport.from_service(self)

    def health(self) -> dict[str, Any]:
        """A machine-readable live SLO/health report.

        One dict with queue depth and overload state, worker-pool
        utilization, job counters, p50/p95/p99 latency summaries, a
        per-running-job convergence snapshot (rate, ETA, stall/divergence
        flags) and the most recent warning-level telemetry alerts. Works with
        telemetry disabled (jobs/alerts sections are then empty);
        :func:`repro.observability.health.render_status` renders the same
        dict as a ``repro status`` terminal frame.
        """
        metrics = self.metrics
        summaries = metrics.histogram_summaries()

        def _latency(name: str) -> dict[str, Any] | None:
            stats = summaries.get(name)
            if stats is None:
                return None
            return {
                "p50": stats.p50,
                "p95": stats.p95,
                "p99": stats.p99,
                "mean": stats.mean,
                "count": stats.count,
            }

        with self._lock:
            accepting = self._accepting
        depth = self._queue.depth
        capacity = self.config.queue_capacity
        jobs = []
        for monitor in self._supervisor.live_monitors():
            snap = monitor.snapshot()
            jobs.append(
                {
                    "job_id": snap["job_id"],
                    "name": snap["job"],
                    "state": "running",
                    "attempt": snap["attempt"],
                    "convergence": snap,
                }
            )
        jobs.sort(key=lambda j: j["job_id"] if j["job_id"] is not None else -1)
        alerts: list[dict[str, Any]] = []
        if self.telemetry_log is not None:
            alerts = [
                event.to_dict()
                for event in self.telemetry_log.events(min_level="warning")[-20:]
            ]
        return {
            "wall_seconds": time.monotonic() - self._started_at,
            "accepting": accepting,
            "queue": {
                "depth": depth,
                "capacity": capacity,
                "overloaded": capacity is not None and depth >= capacity,
                "backpressure": self.config.backpressure,
                "discarded": self._queue.discarded,
            },
            "fairness": {
                "enabled": self.config.fairness.enabled,
                "shed_jobs": getattr(self._queue, "shed_jobs", 0),
                "deadline_rejects": getattr(self._queue, "deadline_rejects", 0),
                "tenants": self._queue.tenant_stats()
                if isinstance(self._queue, FairAdmissionQueue)
                else {},
            },
            "pool": {
                "size": self.config.pool_size,
                "in_flight": self._pool.in_flight,
                "utilization": self._pool.utilization(),
                "busy_seconds": self._pool.busy_seconds,
            },
            "counters": {
                "submitted": metrics.get("service.submitted"),
                "admitted": metrics.get("service.admitted"),
                "rejected": metrics.get("service.admission_rejects"),
                "attempts": metrics.get("service.attempts"),
                "retries": metrics.get("service.retries"),
                "succeeded": metrics.get("service.succeeded"),
                "failed": metrics.get("service.failed"),
                "cancelled": metrics.get("service.cancelled"),
                "timed_out": metrics.get("service.timed_out"),
            },
            "latency": {
                "queue_wait": _latency("service.time_in_queue_seconds"),
                "attempt": _latency("service.attempt_seconds"),
                "job": _latency("service.job_seconds"),
            },
            "jobs": jobs,
            "alerts": alerts,
            "telemetry": {
                "enabled": self.collector is not None,
                "samples": self.collector.samples if self.collector else 0,
                "series": len(self.collector.series_keys()) if self.collector else 0,
                "events": self.telemetry_log.emitted if self.telemetry_log else 0,
                "events_dropped": self.telemetry_log.dropped
                if self.telemetry_log
                else 0,
            },
        }


@dataclass
class ServiceReport:
    """A printable summary of one service's activity."""

    submitted: int
    admitted: int
    rejected: int
    attempts: int
    retries: int
    by_state: dict[str, int]
    wall_seconds: float
    queue_depth_p50: float | None
    queue_depth_max: float | None
    time_in_queue_p50: float | None
    time_in_queue_p95: float | None
    attempt_seconds_p50: float | None
    attempt_seconds_p95: float | None
    job_seconds_p95: float | None

    @classmethod
    def from_service(cls, service: JobService) -> "ServiceReport":
        metrics = service.metrics
        terminal = {
            state.value: sum(
                1 for h in service.handles() if h.state is state
            )
            for state in (
                JobState.SUCCEEDED,
                JobState.FAILED,
                JobState.CANCELLED,
                JobState.TIMED_OUT,
            )
        }

        def _stats(name: str):
            return metrics.histogram(name)

        depth = _stats("service.queue_depth_sampled")
        queue_time = _stats("service.time_in_queue_seconds")
        attempt = _stats("service.attempt_seconds")
        job = _stats("service.job_seconds")
        return cls(
            submitted=metrics.get("service.submitted"),
            admitted=metrics.get("service.admitted"),
            rejected=metrics.get("service.admission_rejects"),
            attempts=metrics.get("service.attempts"),
            retries=metrics.get("service.retries"),
            by_state=terminal,
            wall_seconds=time.monotonic() - service._started_at,
            queue_depth_p50=depth.p50 if depth else None,
            queue_depth_max=depth.maximum if depth else None,
            time_in_queue_p50=queue_time.p50 if queue_time else None,
            time_in_queue_p95=queue_time.p95 if queue_time else None,
            attempt_seconds_p50=attempt.p50 if attempt else None,
            attempt_seconds_p95=attempt.p95 if attempt else None,
            job_seconds_p95=job.p95 if job else None,
        )

    @property
    def completed(self) -> int:
        """Jobs that reached any terminal state."""
        return sum(self.by_state.values())

    @property
    def throughput(self) -> float:
        """Terminal jobs per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def format(self, title: str = "job service report") -> str:
        """Human-readable report block (the ``serve`` CLI prints this)."""

        def _sec(value: float | None) -> str:
            return "-" if value is None else f"{value * 1000:.1f}ms"

        lines = [
            f"=== {title} ===",
            f"submitted={self.submitted} admitted={self.admitted} "
            f"rejected={self.rejected}",
            "terminal: "
            + " ".join(f"{state}={count}" for state, count in self.by_state.items()),
            f"attempts={self.attempts} retries={self.retries}",
            f"throughput: {self.completed} jobs in {self.wall_seconds:.3f}s "
            f"({self.throughput:.1f} jobs/s)",
            f"queue depth: p50={self.queue_depth_p50 if self.queue_depth_p50 is not None else '-'} "
            f"max={self.queue_depth_max if self.queue_depth_max is not None else '-'}",
            f"time in queue: p50={_sec(self.time_in_queue_p50)} "
            f"p95={_sec(self.time_in_queue_p95)}",
            f"attempt time:  p50={_sec(self.attempt_seconds_p50)} "
            f"p95={_sec(self.attempt_seconds_p95)}",
            f"job time:      p95={_sec(self.job_seconds_p95)}",
        ]
        return "\n".join(lines)
