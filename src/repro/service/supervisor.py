"""Per-job supervision: attempts, retries, deadlines, cancellation.

The supervisor draws the line the paper's failure model implies:

* **Expected failures** — the partition failures a
  :class:`repro.runtime.failures.FailureSchedule` injects *inside* a run.
  These are the whole point of the reproduction: the in-run recovery
  strategy (optimistic compensation, rollback, restart) absorbs them and
  the run completes normally. The supervisor never sees them and never
  retries them.
* **Infrastructure failures** — the run itself dying in a way no in-run
  strategy can absorb: the spare pool is exhausted
  (:class:`repro.errors.RecoveryError`) or the job missed its wall-clock
  deadline mid-run. Spare exhaustion is retried with exponential backoff
  and seeded jitter, optionally on a boosted spare pool
  (:attr:`repro.service.job.JobSpec.retry_spare_boost` models acquiring
  replacement machines); deadline misses are terminal.
* **Permanent failures** — deterministic errors (bad config, malformed
  plans, strict-mode non-convergence). Retrying a deterministic engine
  reproduces the same error, so these fail the job immediately.

Deadlines are enforced cooperatively mid-run by wrapping the job's
tracer: every superstep span opening checks the wall clock and raises
:class:`repro.errors.JobTimeoutError` once the deadline passed. The
check reads the wall clock only — the simulated clock and the run's
results are untouched for every job that does not time out.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..errors import JobTimeoutError, RecoveryError, ReproError
from ..observability.convergence import ConvergenceMonitor
from ..observability.span import SpanKind
from ..observability.telemetry import RunTelemetry, TelemetryCollector
from ..observability.telemetry_log import TelemetryLog
from ..observability.tracer import NOOP_TRACER, RecordingTracer, Tracer
from ..runtime.metrics import MetricsRegistry
from .job import JobHandle, JobState

#: exception types classified as retryable infrastructure failures.
INFRA_ERRORS = (RecoveryError,)


class DeadlineTracer(Tracer):
    """Tracer wrapper that aborts a run once its wall deadline passes.

    Forwards everything to the inner tracer; the deadline check happens
    only on superstep spans, keeping operator/partition hot paths free
    of extra work.
    """

    def __init__(self, inner: Tracer, deadline_at: float):
        self._inner = inner
        self._deadline_at = deadline_at
        self.enabled = inner.enabled

    def bind(self, clock: Any) -> None:
        self._inner.bind(clock)

    def span(self, name: str, kind: SpanKind = SpanKind.PHASE, **attributes: Any):
        if kind is SpanKind.SUPERSTEP and time.monotonic() >= self._deadline_at:
            raise JobTimeoutError(
                f"run aborted at {name}: wall-clock deadline passed"
            )
        return self._inner.span(name, kind, **attributes)

    def point(self, name: str, kind: SpanKind = SpanKind.PHASE, **attributes: Any) -> None:
        self._inner.point(name, kind, **attributes)

    @property
    def roots(self):
        return self._inner.roots

    @property
    def root(self):
        return self._inner.root


class JobSupervisor:
    """Runs one job to a terminal state, attempt by attempt.

    Args:
        metrics: the service-level registry ``service.*`` metrics land in.
        trace_jobs: record a per-attempt span tree on each handle.
        sleep: injectable sleep (tests replace it to skip real backoff).
        collector: optional :class:`TelemetryCollector` each attempt's
            per-run registry is registered with while it executes.
        telemetry_log: optional :class:`TelemetryLog` job lifecycle and
            convergence health events land in, correlated by
            ``job_id``/``attempt``.
        stall_supersteps / divergence_supersteps: thresholds of the
            per-attempt :class:`ConvergenceMonitor` (see
            :class:`repro.config.TelemetryConfig`).
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        trace_jobs: bool = False,
        sleep: Callable[[JobHandle, float], None] | None = None,
        collector: TelemetryCollector | None = None,
        telemetry_log: TelemetryLog | None = None,
        stall_supersteps: int = 5,
        divergence_supersteps: int = 3,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace_jobs = trace_jobs
        self.collector = collector
        self.telemetry_log = telemetry_log
        self.stall_supersteps = stall_supersteps
        self.divergence_supersteps = divergence_supersteps
        self._monitors_lock = threading.Lock()
        self._monitors: dict[int, ConvergenceMonitor] = {}
        self._sleep = sleep if sleep is not None else self._interruptible_sleep

    # -- telemetry ----------------------------------------------------------------

    @property
    def telemetry_enabled(self) -> bool:
        return self.collector is not None or self.telemetry_log is not None

    def live_monitors(self) -> list[ConvergenceMonitor]:
        """Convergence monitors of the attempts executing right now."""
        with self._monitors_lock:
            return list(self._monitors.values())

    def _make_telemetry(
        self, handle: JobHandle, attempt: int
    ) -> RunTelemetry | None:
        if not self.telemetry_enabled:
            return None
        monitor = ConvergenceMonitor(
            handle.spec.name,
            job_id=handle.job_id,
            attempt=attempt,
            log=self.telemetry_log,
            stall_after=self.stall_supersteps,
            divergence_after=self.divergence_supersteps,
        )
        with self._monitors_lock:
            self._monitors[handle.job_id] = monitor
        return RunTelemetry(
            collector=self.collector,
            monitor=monitor,
            log=self.telemetry_log,
            job_id=handle.job_id,
            attempt=attempt,
        )

    def _drop_monitor(self, job_id: int) -> None:
        with self._monitors_lock:
            self._monitors.pop(job_id, None)

    def _emit(
        self, kind: str, level: str, handle: JobHandle, **details: Any
    ) -> None:
        if self.telemetry_log is not None:
            self.telemetry_log.emit(
                kind,
                level,
                job_id=handle.job_id,
                attempt=max(0, handle.attempts - 1),
                job=handle.spec.name,
                **details,
            )

    @staticmethod
    def _interruptible_sleep(handle: JobHandle, delay: float) -> None:
        """Backoff sleep that cancel/shutdown can cut short."""
        handle._wake.wait(delay)

    def _attempt_tracer(self, handle: JobHandle, attempt: int) -> tuple[Tracer, Any]:
        """The tracer for one attempt plus the open job root span."""
        if not self.trace_jobs:
            inner: Tracer = NOOP_TRACER
        else:
            inner = RecordingTracer()
        root_ctx = inner.span(
            f"job:{handle.job_id}",
            kind=SpanKind.PHASE,
            job_id=handle.job_id,
            job_name=handle.spec.name,
            attempt=attempt,
            priority=handle.spec.priority,
        )
        tracer: Tracer = inner
        if handle.deadline_at is not None:
            tracer = DeadlineTracer(inner, handle.deadline_at)
        return tracer, (inner, root_ctx)

    def run_job(self, handle: JobHandle) -> None:
        """Drive ``handle`` from QUEUED/RETRYING to a terminal state."""
        try:
            self._run_job(handle)
        finally:
            self._drop_monitor(handle.job_id)
            if handle.is_terminal:
                self._emit(
                    "job_finished",
                    "info" if handle.state is JobState.SUCCEEDED else "warning",
                    handle,
                    state=handle.state.value,
                    attempts=handle.attempts,
                    retries=handle.retries,
                    total_seconds=handle.total_seconds,
                )

    def _run_job(self, handle: JobHandle) -> None:
        spec = handle.spec
        while True:
            if handle.is_terminal:
                return
            if handle.cancel_requested:
                handle.try_transition(JobState.CANCELLED)
                self.metrics.increment("service.cancelled")
                return
            if handle.deadline_expired:
                handle.try_transition(JobState.TIMED_OUT)
                self.metrics.increment("service.timed_out")
                return

            handle.transition(JobState.RUNNING)
            attempt = handle.attempts
            handle.attempts += 1
            self.metrics.increment("service.attempts")
            self._emit("attempt_started", "info", handle, queued_seconds=handle.time_in_queue)
            telemetry = self._make_telemetry(handle, attempt)
            tracer, (inner, root_ctx) = self._attempt_tracer(handle, attempt)
            attempt_started = time.monotonic()
            error: BaseException | None = None
            result = None
            with root_ctx as root_span:
                try:
                    result = spec.run_standalone(
                        attempt=attempt,
                        tracer=tracer,
                        telemetry=telemetry,
                    )
                    root_span.set_attribute("outcome", "completed")
                except BaseException as exc:  # noqa: BLE001 — workers must survive
                    error = exc
                    root_span.set_attribute("outcome", type(exc).__name__)
            self.metrics.observe(
                "service.attempt_seconds", time.monotonic() - attempt_started
            )
            if inner.enabled:
                handle.trace_roots.extend(inner.roots)

            if error is None:
                if handle.cancel_requested:
                    # Cooperative cancel: the attempt completed but the
                    # caller no longer wants the result.
                    handle.try_transition(JobState.CANCELLED)
                    self.metrics.increment("service.cancelled")
                elif handle.deadline_expired:
                    handle.try_transition(JobState.TIMED_OUT)
                    self.metrics.increment("service.timed_out")
                else:
                    handle.set_result(result)
                    handle.transition(JobState.SUCCEEDED)
                    self.metrics.increment("service.succeeded")
                return

            if isinstance(error, JobTimeoutError):
                handle.set_error(error)
                handle.try_transition(JobState.TIMED_OUT)
                self.metrics.increment("service.timed_out")
                return

            retryable = isinstance(error, INFRA_ERRORS)
            retries_left = spec.retry.max_retries - handle.retries
            if retryable and retries_left > 0 and not handle.cancel_requested:
                handle.set_error(error)
                handle.transition(JobState.RETRYING)
                handle.retries += 1
                self.metrics.increment("service.retries")
                self._emit(
                    "attempt_retrying",
                    "warning",
                    handle,
                    error=type(error).__name__,
                    retries=handle.retries,
                )
                delay = spec.retry.delay(handle.retries - 1, handle.rng)
                if handle.deadline_at is not None:
                    delay = min(delay, max(0.0, handle.deadline_at - time.monotonic()))
                if delay > 0:
                    self._sleep(handle, delay)
                continue

            if handle.cancel_requested:
                handle.set_error(error)
                handle.try_transition(JobState.CANCELLED)
                self.metrics.increment("service.cancelled")
                return

            handle.set_error(error)
            handle.try_transition(JobState.FAILED)
            self.metrics.increment("service.failed")
            if not isinstance(error, ReproError):
                # Engine bugs are recorded on the handle like any failure,
                # but counted separately so they stand out in reports.
                self.metrics.increment("service.internal_errors")
            return
