"""Job specifications, lifecycle state machine, and handles.

A :class:`JobSpec` is everything needed to run one iterative job exactly
the way a standalone call to ``job.run(...)`` would: a factory producing
the algorithm job, an :class:`repro.config.EngineConfig`, a recovery
strategy name, a :class:`repro.runtime.failures.FailureSchedule`, plus
the service-level attributes — priority, deadline, and retry policy.
Because the engine is deterministic, :meth:`JobSpec.run_standalone` is
both the execution path the service's workers use *and* the oracle the
benchmarks compare against: a job run through the service is bit-identical
to the same spec run alone.

A :class:`JobHandle` is the caller's view of one submitted job: a
thread-safe lifecycle state machine

.. code-block:: text

    QUEUED ──▶ RUNNING ──▶ SUCCEEDED
       │  │     │  ▲  └──▶ FAILED
       │  │     ▼  │
       │  │   RETRYING ──▶ FAILED
       │  │     │
       │  └─────┼────────▶ FAILED (load shedding: rejected, never run)
       └────────┴────────▶ CANCELLED | TIMED_OUT

plus the result/error slot, attempt counters, and wall-clock timestamps
the service's metrics are computed from.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..config import DEFAULT_CONFIG, RECOVERY_STRATEGIES, EngineConfig
from ..core.recovery import RecoveryStrategy
from ..core.strategies import build_strategy
from ..errors import (
    ConfigError,
    JobCancelledError,
    JobTimeoutError,
    ServiceError,
)
from ..iteration.result import IterationResult
from ..iteration.snapshots import SnapshotStore
from ..observability.tracer import Tracer
from ..runtime.failures import FailureSchedule

#: recovery strategy names a :class:`JobSpec` accepts (``None`` keeps the
#: driver default, which is restart — no fault tolerance). Tracks the
#: engine-wide registry so the service accepts exactly what the drivers do.
JOB_RECOVERIES = RECOVERY_STRATEGIES


class JobState(enum.Enum):
    """Lifecycle state of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    RETRYING = "retrying"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"


#: states a job can never leave.
TERMINAL_STATES = frozenset(
    {JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED, JobState.TIMED_OUT}
)

#: the legal transitions of the lifecycle state machine.
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    # QUEUED -> FAILED is the load-shedding edge: a fair queue evicting a
    # queued victim under overload marks it FAILED with an AdmissionError
    # so the rejection is always observable, never a silent drop.
    JobState.QUEUED: frozenset(
        {JobState.RUNNING, JobState.FAILED, JobState.CANCELLED, JobState.TIMED_OUT}
    ),
    JobState.RUNNING: frozenset(
        {
            JobState.SUCCEEDED,
            JobState.FAILED,
            JobState.RETRYING,
            JobState.CANCELLED,
            JobState.TIMED_OUT,
        }
    ),
    JobState.RETRYING: frozenset(
        {JobState.RUNNING, JobState.FAILED, JobState.CANCELLED, JobState.TIMED_OUT}
    ),
    JobState.SUCCEEDED: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.TIMED_OUT: frozenset(),
}


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for infrastructure retries.

    The delay before retry attempt ``k`` (0-based) is::

        min(backoff_cap, backoff_base * backoff_factor ** k) * (1 + jitter * u)

    with ``u`` drawn uniformly from ``[0, 1)`` out of the job's seeded
    RNG, so a workload's retry timing is reproducible per seed.

    Attributes:
        max_retries: how many times an infrastructure failure is retried
            before the job is marked FAILED (0 = never retry).
        backoff_base: first delay, in wall-clock seconds.
        backoff_factor: multiplier per further retry.
        backoff_cap: upper bound on the un-jittered delay.
        jitter: fraction of random spread added on top (0 = none).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ConfigError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_cap < 0:
            raise ConfigError(f"backoff_cap must be >= 0, got {self.backoff_cap}")
        if self.jitter < 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter}")

    def delay(self, retry_index: int, rng: random.Random) -> float:
        """Backoff delay (seconds) before 0-based retry ``retry_index``."""
        base = min(self.backoff_cap, self.backoff_base * self.backoff_factor**retry_index)
        return base * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class JobSpec:
    """One iterative-recovery job, as submitted to the service.

    Attributes:
        name: human-readable job name (used in reports and span tags).
        make_job: zero-argument factory returning a fresh runnable job
            (:class:`repro.algorithms.base.BulkJob` or
            :class:`~repro.algorithms.base.DeltaJob`). A factory rather
            than an instance so every retry attempt starts from pristine
            plan/state objects.
        config: engine configuration of the run.
        recovery: recovery strategy name (one of :data:`JOB_RECOVERIES`)
            or ``None`` for the driver default (restart).
        checkpoint_interval: interval for ``recovery="checkpoint"``.
        failures: partition failures injected *inside* the run; these are
            expected failures, handled by the in-run recovery strategy
            and never retried at the job level.
        snapshots: record per-superstep snapshots during the run.
        priority: admission priority; higher runs sooner. Ties are FIFO.
        tenant: the tenant this job is billed to. Tenant-fair scheduling
            (:class:`repro.service.fair.FairAdmissionQueue`) runs a
            deficit round-robin across tenants so one heavy tenant cannot
            starve the rest; the plain queue ignores the field.
        deadline: wall-clock budget in seconds from submission; ``None``
            = unbounded. Enforced when the job is dequeued, between retry
            attempts, and cooperatively at superstep granularity mid-run.
        retry: the infrastructure-failure retry policy.
        retry_spare_boost: extra spare workers granted per retry attempt
            (models acquiring replacement machines after a spare-pool
            exhaustion); attempt ``k`` runs with
            ``spare_workers + k * retry_spare_boost``.
        seed: seed of the per-job RNG that draws backoff jitter.
    """

    name: str
    make_job: Callable[[], Any]
    config: EngineConfig = DEFAULT_CONFIG
    recovery: str | None = "optimistic"
    checkpoint_interval: int = 2
    failures: FailureSchedule | None = None
    snapshots: bool = False
    priority: int = 0
    tenant: str = "default"
    deadline: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    retry_spare_boost: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a job spec needs a non-empty name")
        if not callable(self.make_job):
            raise ConfigError("make_job must be a zero-argument job factory")
        if not self.tenant:
            raise ConfigError("a job spec needs a non-empty tenant")
        if self.recovery is not None and self.recovery not in JOB_RECOVERIES:
            raise ConfigError(
                f"recovery must be one of {JOB_RECOVERIES} or None, "
                f"got {self.recovery!r}"
            )
        if self.checkpoint_interval < 1:
            raise ConfigError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.deadline is not None and self.deadline < 0:
            raise ConfigError(f"deadline must be >= 0, got {self.deadline}")
        if self.retry_spare_boost < 0:
            raise ConfigError(
                f"retry_spare_boost must be >= 0, got {self.retry_spare_boost}"
            )

    def config_for_attempt(self, attempt: int) -> EngineConfig:
        """The engine config of 0-based attempt ``attempt``.

        Retries may run with a boosted spare pool (see
        :attr:`retry_spare_boost`); everything else is unchanged, so a
        retried run is the same deterministic simulation on a slightly
        larger cluster.
        """
        if attempt == 0 or self.retry_spare_boost == 0:
            return self.config
        return replace(
            self.config,
            spare_workers=self.config.spare_workers + attempt * self.retry_spare_boost,
        )

    def build_recovery(self, job: Any) -> RecoveryStrategy | None:
        """Construct a fresh recovery strategy for one attempt."""
        if self.recovery is None:
            return None
        if self.recovery == "optimistic":
            return job.optimistic()  # the job's own error when it has no compensation
        return build_strategy(
            self.recovery,
            compensation=getattr(job, "compensation", None),
            invariants=getattr(job, "invariants", None),
            checkpoint_interval=self.checkpoint_interval,
        )

    def run_standalone(
        self,
        attempt: int = 0,
        *,
        tracer: Tracer | None = None,
        telemetry: Any | None = None,
    ) -> IterationResult:
        """Run this spec exactly as a service worker would.

        This is the single execution path shared by the service and by
        standalone callers, which is what makes the service's results
        provably bit-identical to single-run execution. ``telemetry``
        is a :class:`repro.observability.telemetry.RunTelemetry` bundle —
        observational only, so telemetry on/off changes nothing either.
        """
        job = self.make_job()
        return job.run(
            config=self.config_for_attempt(attempt),
            recovery=self.build_recovery(job),
            failures=self.failures,
            snapshots=SnapshotStore() if self.snapshots else None,
            tracer=tracer,
            telemetry=telemetry,
        )


class JobHandle:
    """The caller's thread-safe view of one submitted job."""

    def __init__(self, job_id: int, spec: JobSpec):
        self.job_id = job_id
        self.spec = spec
        self._lock = threading.RLock()
        self._state = JobState.QUEUED
        self._done = threading.Event()
        #: set to interrupt a retry backoff sleep (cancel / shutdown).
        self._wake = threading.Event()
        self._cancel_requested = False
        self._result: IterationResult | None = None
        self._error: BaseException | None = None
        #: attempts started (1 after the first run begins).
        self.attempts = 0
        #: retries performed (attempts - 1 for a retried job).
        self.retries = 0
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: True when load shedding evicted/refused this job (the handle is
        #: then FAILED with the AdmissionError stored as its error).
        self.shed = False
        #: span trees recorded for this job's attempts (when tracing).
        self.trace_roots: list[Any] = []
        #: jitter RNG; seeded per job so retry timing reproduces per seed.
        self.rng = random.Random(f"{spec.seed}:{job_id}")

    # -- state machine ---------------------------------------------------------

    @property
    def state(self) -> JobState:
        with self._lock:
            return self._state

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def cancel_requested(self) -> bool:
        with self._lock:
            return self._cancel_requested

    def transition(self, new_state: JobState) -> None:
        """Move the state machine; raises ServiceError on illegal moves."""
        with self._lock:
            if new_state not in _TRANSITIONS[self._state]:
                raise ServiceError(
                    f"job {self.job_id} ({self.spec.name!r}): illegal transition "
                    f"{self._state.value} -> {new_state.value}"
                )
            self._state = new_state
            if new_state in TERMINAL_STATES:
                self.finished_at = time.monotonic()
                self._done.set()
                self._wake.set()

    def try_transition(self, new_state: JobState) -> bool:
        """Like :meth:`transition` but returns False instead of raising."""
        with self._lock:
            if new_state not in _TRANSITIONS[self._state]:
                return False
            self.transition(new_state)
            return True

    # -- deadline --------------------------------------------------------------

    @property
    def deadline_at(self) -> float | None:
        """Monotonic timestamp the deadline expires at (``None`` = never)."""
        if self.spec.deadline is None:
            return None
        return self.submitted_at + self.spec.deadline

    @property
    def deadline_expired(self) -> bool:
        deadline_at = self.deadline_at
        return deadline_at is not None and time.monotonic() >= deadline_at

    # -- cancellation ----------------------------------------------------------

    def request_cancel(self) -> bool:
        """Ask for cancellation; returns False when already terminal.

        A QUEUED job is cancelled immediately (the queue discards it on
        dequeue). A RUNNING or RETRYING job is cancelled cooperatively at
        its next attempt boundary; its in-flight attempt's result is
        discarded.
        """
        with self._lock:
            if self._state in TERMINAL_STATES:
                return False
            self._cancel_requested = True
            if self._state is JobState.QUEUED:
                self.transition(JobState.CANCELLED)
            else:
                self._wake.set()
            return True

    # -- completion ------------------------------------------------------------

    def set_result(self, result: IterationResult) -> None:
        with self._lock:
            self._result = result

    def set_error(self, error: BaseException) -> None:
        with self._lock:
            self._error = error

    @property
    def error(self) -> BaseException | None:
        with self._lock:
            return self._error

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; True when it finished."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> IterationResult:
        """The job's :class:`repro.iteration.result.IterationResult`.

        Blocks up to ``timeout`` seconds. Raises the job's stored error
        for FAILED jobs, :class:`repro.errors.JobCancelledError` /
        :class:`repro.errors.JobTimeoutError` for cancelled / timed-out
        ones, and :class:`repro.errors.ServiceError` when the job is
        still not terminal after the wait.
        """
        self.wait(timeout)
        with self._lock:
            if self._state is JobState.SUCCEEDED:
                assert self._result is not None
                return self._result
            if self._state is JobState.FAILED:
                assert self._error is not None
                raise self._error
            if self._state is JobState.CANCELLED:
                raise JobCancelledError(
                    f"job {self.job_id} ({self.spec.name!r}) was cancelled"
                )
            if self._state is JobState.TIMED_OUT:
                raise JobTimeoutError(
                    f"job {self.job_id} ({self.spec.name!r}) missed its "
                    f"deadline of {self.spec.deadline}s"
                )
            raise ServiceError(
                f"job {self.job_id} ({self.spec.name!r}) is still "
                f"{self._state.value}; no result yet"
            )

    # -- timings ---------------------------------------------------------------

    @property
    def time_in_queue(self) -> float | None:
        """Wall seconds between submission and first dequeue."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def total_seconds(self) -> float | None:
        """Wall seconds between submission and the terminal state."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def __repr__(self) -> str:
        return (
            f"JobHandle({self.job_id}, {self.spec.name!r}, "
            f"{self.state.value}, attempts={self.attempts})"
        )
