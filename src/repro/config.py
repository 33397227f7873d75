"""Engine-wide configuration.

:class:`EngineConfig` bundles the knobs a user would set on a real cluster:
degree of parallelism, number of spare workers held in reserve for
recovery, and the simulated cost model. It is immutable so a config can be
shared between the cluster, the executor and the recovery strategies
without aliasing surprises.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError

#: recovery strategy names accepted by ``EngineConfig.recovery``, the service
#: and the CLI ``--strategy`` flag (see :func:`repro.core.build_strategy`).
RECOVERY_STRATEGIES = (
    "restart",
    "checkpoint",
    "incremental",
    "optimistic",
    "confined",
    "adaptive",
)


@dataclass(frozen=True)
class CostModel:
    """Simulated cost constants, in abstract "simulated seconds".

    The absolute values are arbitrary; only their ratios matter for the
    paper-shaped comparisons. Defaults model a commodity cluster where a
    checkpoint write to remote stable storage costs ~5x the per-record
    compute cost and a shuffle costs ~2x.

    Attributes:
        cpu_per_record: cost of pushing one record through one operator.
        network_per_record: cost of moving one record across a shuffle or
            broadcast channel.
        checkpoint_per_record: cost of writing one record of iterative
            state to stable storage (rollback recovery pays this).
        restore_per_record: cost of reading one record back from stable
            storage during a rollback.
        failure_detection: flat cost of detecting a failure and pausing
            the iteration.
        worker_acquisition: flat cost of acquiring and wiring in one spare
            worker to replace a failed one.
        compensation_per_record: cost of running the compensation function
            over one record of state.
        log_per_record: cost of appending one outgoing record to the
            confined-recovery message log on the shuffle path (a local
            sequential append — far below the network cost of moving the
            record itself).
        replay_per_record: cost of replaying one logged record into a
            lost partition during confined recovery.
    """

    cpu_per_record: float = 1.0e-6
    network_per_record: float = 2.0e-6
    checkpoint_per_record: float = 5.0e-6
    restore_per_record: float = 5.0e-6
    failure_detection: float = 0.5
    worker_acquisition: float = 2.0
    compensation_per_record: float = 1.0e-6
    log_per_record: float = 2.5e-7
    replay_per_record: float = 1.0e-6

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for constant in fields(self):
            value = getattr(self, constant.name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(
                    f"cost model field {constant.name!r} must be finite and >= 0, got {value}"
                )


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of the simulated engine.

    Attributes:
        parallelism: number of state partitions; iterative state is hash
            partitioned into exactly this many partitions.
        spare_workers: workers held in reserve. Optimistic recovery and
            rollback recovery acquire replacements from this pool when a
            worker fails permanently.
        partitions_per_worker: how many partitions each active worker
            hosts (parallelism must be divisible by it). With the default
            of 1 there is one worker per partition; larger values model
            denser clusters, where a single machine failure destroys
            several state partitions at once.
        cost_model: the simulated cost constants.
        combiners: enable map-side pre-aggregation for reduce_by_key
            operators (Flink's combiners). Results are unchanged; shuffle
            volume and network cost shrink. Off by default so the demo's
            per-operator message statistics keep their paper semantics.
        seed: seed for any randomized engine decisions (currently only
            used by helpers that need reproducible sampling).
        strict_iterations: when True, exceeding ``max_supersteps`` without
            convergence raises :class:`repro.errors.TerminationError`
            instead of returning the best-effort state.
        recovery: default recovery strategy name for drivers that were
            not handed an explicit strategy object (one of
            ``RECOVERY_STRATEGIES``, or ``None`` for the historical
            restart default). A :class:`repro.algorithms.base.BulkJob` /
            ``DeltaJob`` resolves the name with its own compensation
            function and invariants (so ``"optimistic"`` works and
            ``"adaptive"`` considers it); ``run_bulk_iteration`` /
            ``run_delta_iteration`` called directly have no compensation
            to offer, so there ``"optimistic"`` raises
            :class:`repro.errors.ConfigError` at run start.
        event_log_capacity: bound on the per-run engine
            :class:`repro.runtime.events.EventLog` ring buffer (``None``
            = unbounded, the historical behavior). Long-running services
            set this so a job's in-memory event history stays a window;
            evicted entries are counted (``events.dropped``) and the
            telemetry JSONL stream, when enabled, still sees everything.
    """

    parallelism: int = 4
    spare_workers: int = 2
    partitions_per_worker: int = 1
    cost_model: CostModel = field(default_factory=CostModel)
    combiners: bool = False
    seed: int = 42
    strict_iterations: bool = False
    recovery: str | None = None
    event_log_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.spare_workers < 0:
            raise ConfigError(f"spare_workers must be >= 0, got {self.spare_workers}")
        if self.partitions_per_worker < 1:
            raise ConfigError(
                f"partitions_per_worker must be >= 1, got {self.partitions_per_worker}"
            )
        if self.parallelism % self.partitions_per_worker != 0:
            raise ConfigError(
                f"parallelism ({self.parallelism}) must be divisible by "
                f"partitions_per_worker ({self.partitions_per_worker})"
            )
        if self.recovery is not None and self.recovery not in RECOVERY_STRATEGIES:
            raise ConfigError(
                f"recovery must be one of {RECOVERY_STRATEGIES} or None, "
                f"got {self.recovery!r}"
            )
        if self.event_log_capacity is not None and self.event_log_capacity < 1:
            raise ConfigError(
                f"event_log_capacity must be >= 1 or None, got {self.event_log_capacity}"
            )

    @property
    def active_workers(self) -> int:
        """Number of workers hosting partitions at job start."""
        return self.parallelism // self.partitions_per_worker

    def with_parallelism(self, parallelism: int) -> "EngineConfig":
        """Return a copy with a different degree of parallelism."""
        return replace(self, parallelism=parallelism)

    def with_spares(self, spare_workers: int) -> "EngineConfig":
        """Return a copy with a different spare-worker pool size."""
        return replace(self, spare_workers=spare_workers)

    def with_recovery(self, recovery: str | None) -> "EngineConfig":
        """Return a copy with a different default recovery strategy name."""
        return replace(self, recovery=recovery)


DEFAULT_CONFIG = EngineConfig()

#: admission backpressure policies of :class:`ServiceConfig`.
BACKPRESSURE_POLICIES = ("reject", "block")


def _env_telemetry_enabled() -> bool:
    """Default telemetry switch, overridable via ``REPRO_TELEMETRY``.

    The env hook lets CI run the whole suite with telemetry on without
    touching any call site.
    """
    return os.environ.get("REPRO_TELEMETRY", "").strip().lower() in ("on", "1", "true")


@dataclass(frozen=True)
class TelemetryConfig:
    """Configuration of the live telemetry layer
    (:mod:`repro.observability.telemetry`).

    Telemetry is purely observational — it samples metrics registries and
    consumes per-superstep stats but never touches simulated clocks, RNGs
    or iterative state, so records, simulated time and superstep counts
    are bit-identical with telemetry on or off.

    Attributes:
        enabled: master switch for the collector, the convergence
            monitors and the telemetry event log. Defaults to
            ``$REPRO_TELEMETRY`` (``on``/``1``/``true``).
        sample_interval: wall-clock seconds between background sweeps of
            the registered metrics registries.
        series_capacity: ring-buffer size of each time series (oldest
            points are evicted; a drop counter keeps the tally).
        event_capacity: ring-buffer size of the telemetry event log
            (``None`` = unbounded; streamed JSONL entries are never
            dropped regardless).
        jsonl_path: when set, every telemetry event is appended to this
            JSONL file as it is emitted (tail-able live).
        stall_supersteps: consecutive no-progress supersteps before a
            convergence monitor raises a ``stall`` health event.
        divergence_supersteps: consecutive post-compensation L1 rises
            before a ``divergence`` health event.
    """

    enabled: bool = field(default_factory=_env_telemetry_enabled)
    sample_interval: float = 0.25
    series_capacity: int = 512
    event_capacity: int | None = 1024
    jsonl_path: str | None = None
    stall_supersteps: int = 5
    divergence_supersteps: int = 3

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise ConfigError(
                f"sample_interval must be > 0, got {self.sample_interval}"
            )
        if self.series_capacity < 2:
            raise ConfigError(
                f"series_capacity must be >= 2, got {self.series_capacity}"
            )
        if self.event_capacity is not None and self.event_capacity < 1:
            raise ConfigError(
                f"event_capacity must be >= 1 or None, got {self.event_capacity}"
            )
        if self.stall_supersteps < 1:
            raise ConfigError(
                f"stall_supersteps must be >= 1, got {self.stall_supersteps}"
            )
        if self.divergence_supersteps < 1:
            raise ConfigError(
                f"divergence_supersteps must be >= 1, got {self.divergence_supersteps}"
            )


DEFAULT_TELEMETRY_CONFIG = TelemetryConfig()

#: refresh modes of :class:`ViewsConfig`: ``"auto"`` picks warm vs. cold
#: per refresh via the affected-keys threshold, the other two force one.
VIEW_REFRESH_MODES = ("auto", "warm", "cold")


def _env_view_refresh_mode() -> str:
    """Default view refresh mode, overridable via ``REPRO_VIEWS_REFRESH``.

    The env hook lets CI force every view refresh cold (or warm) without
    touching any call site.
    """
    return os.environ.get("REPRO_VIEWS_REFRESH", "auto").strip().lower() or "auto"


@dataclass(frozen=True)
class ViewsConfig:
    """Configuration of the dynamic-view layer (:mod:`repro.views`).

    Attributes:
        refresh_mode: ``"auto"`` (default) lets the orchestrator choose
            warm or cold per refresh — warm when the algorithm is
            warm-capable and the affected-key fraction stays at or below
            the view's ``warm_threshold`` — while ``"warm"``/``"cold"``
            force the choice (``"warm"`` still falls back to cold for the
            first materialization and for non-warm-capable algorithms).
            Defaults to ``$REPRO_VIEWS_REFRESH``.
        warm_threshold: default affected-key fraction above which an
            ``auto`` refresh goes cold (views can override per
            definition).
        target_lag: default number of source epochs a view may trail
            before a poll refreshes it (0 = refresh on any staleness).
        poll_interval: wall-clock seconds between background polls when
            the orchestrator's poller thread is running.
    """

    refresh_mode: str = field(default_factory=_env_view_refresh_mode)
    warm_threshold: float = 0.5
    target_lag: int = 0
    poll_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.refresh_mode not in VIEW_REFRESH_MODES:
            raise ConfigError(
                f"refresh_mode must be one of {VIEW_REFRESH_MODES}, "
                f"got {self.refresh_mode!r}"
            )
        if not 0.0 <= self.warm_threshold <= 1.0:
            raise ConfigError(
                f"warm_threshold must be in [0, 1], got {self.warm_threshold}"
            )
        if self.target_lag < 0:
            raise ConfigError(f"target_lag must be >= 0, got {self.target_lag}")
        if self.poll_interval <= 0:
            raise ConfigError(
                f"poll_interval must be > 0, got {self.poll_interval}"
            )


DEFAULT_VIEWS_CONFIG = ViewsConfig()


@dataclass(frozen=True)
class FairnessConfig:
    """Configuration of tenant-fair scheduling and load shedding
    (:class:`repro.service.fair.FairAdmissionQueue`).

    Attributes:
        enabled: run the admission path through the tenant-fair queue
            (deficit round-robin across per-tenant sub-queues) instead of
            the plain priority+FIFO queue.
        weights: per-tenant scheduling weights as ``(tenant, weight)``
            pairs; a tenant with weight 4 receives ~4x the dequeues of a
            weight-1 tenant while both stay backlogged. Tenants not named
            here get :attr:`default_weight`.
        default_weight: weight of tenants absent from :attr:`weights`.
        tenant_quota: per-tenant cap on *live* queued jobs (``None`` =
            no per-tenant cap); a tenant at quota gets an
            :class:`repro.errors.AdmissionError` even when the queue has
            global room, so one tenant cannot monopolize the backlog.
        deadline_admission: reject jobs at admission whose deadline is
            provably unmeetable — remaining deadline budget below the
            observed queue-wait p95 — instead of queueing work that is
            doomed to time out.
        min_wait_samples: queue-wait observations required before the
            deadline-admission estimator starts rejecting (cold starts
            never shed on a guess).
        shed_lowest_first: under overload (queue full), evict the newest
            lowest-priority job of the lowest-weight backlogged tenant to
            make room for a strictly higher-weight tenant's job; the
            victim is FAILED with an :class:`repro.errors.AdmissionError`
            (observable, never a silent drop). When the submitter itself
            belongs to the lowest-weight class, its job is the one shed.
    """

    enabled: bool = False
    weights: tuple[tuple[str, int], ...] = ()
    default_weight: int = 1
    tenant_quota: int | None = None
    deadline_admission: bool = True
    min_wait_samples: int = 10
    shed_lowest_first: bool = True

    def __post_init__(self) -> None:
        seen = set()
        for pair in self.weights:
            if len(pair) != 2:
                raise ConfigError(
                    f"weights must be (tenant, weight) pairs, got {pair!r}"
                )
            tenant, weight = pair
            if not tenant or not isinstance(tenant, str):
                raise ConfigError(f"tenant names must be non-empty strings, got {tenant!r}")
            if tenant in seen:
                raise ConfigError(f"tenant {tenant!r} appears twice in weights")
            seen.add(tenant)
            if not isinstance(weight, int) or weight < 1:
                raise ConfigError(
                    f"tenant weights must be integers >= 1, got {weight!r} for {tenant!r}"
                )
        if self.default_weight < 1:
            raise ConfigError(
                f"default_weight must be >= 1, got {self.default_weight}"
            )
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ConfigError(
                f"tenant_quota must be >= 1 or None, got {self.tenant_quota}"
            )
        if self.min_wait_samples < 1:
            raise ConfigError(
                f"min_wait_samples must be >= 1, got {self.min_wait_samples}"
            )

    def weight_of(self, tenant: str) -> int:
        """The scheduling weight of ``tenant``."""
        for name, weight in self.weights:
            if name == tenant:
                return weight
        return self.default_weight


DEFAULT_FAIRNESS_CONFIG = FairnessConfig()


@dataclass(frozen=True)
class ShardConfig:
    """Configuration of the sharded multi-process service
    (:class:`repro.service.shard.ShardedJobService`).

    Shards are independent scheduler *processes* coordinated purely
    through a shared spool directory: job descriptors are claimed by
    atomic rename, so there is no leader election and no shared mutable
    state beyond the filesystem.

    Attributes:
        num_shards: scheduler processes to run.
        spool_dir: shared spool directory path (``None`` = a fresh
            temporary directory owned by the coordinator).
        work_donation: when a shard's own pending directory runs dry it
            claims jobs from the most-backlogged sibling's directory, so
            a skewed tenant placement cannot idle half the fleet.
        claim_interval: seconds an idle shard sleeps between claim scans.
        max_inflight: jobs a shard keeps admitted into its local service
            at once (``None`` = ``2 * pool_size + 2``); keeping the rest
            in the spool is what makes work donation possible.
        health_interval: seconds between a shard's health-file updates.
        shutdown_timeout: seconds the coordinator waits for a shard
            process to drain and exit before terminating it.
    """

    num_shards: int = 2
    spool_dir: str | None = None
    work_donation: bool = True
    claim_interval: float = 0.02
    max_inflight: int | None = None
    health_interval: float = 0.5
    shutdown_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.claim_interval <= 0:
            raise ConfigError(
                f"claim_interval must be > 0, got {self.claim_interval}"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1 or None, got {self.max_inflight}"
            )
        if self.health_interval <= 0:
            raise ConfigError(
                f"health_interval must be > 0, got {self.health_interval}"
            )
        if self.shutdown_timeout <= 0:
            raise ConfigError(
                f"shutdown_timeout must be > 0, got {self.shutdown_timeout}"
            )


DEFAULT_SHARD_CONFIG = ShardConfig()


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of the multi-job service (:mod:`repro.service`).

    Engine knobs stay on the per-job :class:`EngineConfig`; this class
    holds the knobs of the layer above — the admission queue and the
    worker pool that runs many independent engine runs concurrently.

    Attributes:
        pool_size: number of jobs executed concurrently. Each job's
            engine is self-contained and deterministic, so cross-job
            wall-clock parallelism never changes per-job results.
        queue_capacity: admission-queue bound (``None`` = unbounded).
            Jobs wait here between ``submit`` and a free worker.
        backpressure: what a full queue does to ``submit``:
            ``"reject"`` raises :class:`repro.errors.AdmissionError`
            immediately; ``"block"`` waits up to ``admission_timeout``
            seconds for room, then raises.
        admission_timeout: how long a ``block`` admission may wait.
        poll_interval: how often idle workers re-check the queue and the
            shutdown flag (also bounds how quickly ``drain`` notices an
            empty service).
        trace_jobs: record a per-attempt span tree per job (tagged with
            ``job_id``) via :class:`repro.observability.tracer.RecordingTracer`.
        telemetry: the live telemetry layer's knobs (collector sampling,
            ring capacities, stall/divergence thresholds, JSONL path).
        default_recovery: recovery strategy name applied to submitted
            jobs that did not pick one themselves (``JobSpec.recovery is
            None``); ``None`` leaves such jobs on the per-spec default.
            One of ``RECOVERY_STRATEGIES``.
        views: the dynamic-view layer's knobs (refresh mode, warm
            threshold, target lag, poll cadence) for orchestrators that
            submit their refreshes through this service.
        fairness: tenant-fair scheduling and load-shedding knobs; with
            ``fairness.enabled`` the admission queue becomes a
            :class:`repro.service.fair.FairAdmissionQueue` (deficit
            round-robin across tenants, quotas, deadline-aware admission,
            lowest-weight-first shedding under overload).
    """

    pool_size: int = 4
    queue_capacity: int | None = 64
    backpressure: str = "reject"
    admission_timeout: float = 10.0
    poll_interval: float = 0.02
    trace_jobs: bool = True
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    default_recovery: str | None = None
    views: ViewsConfig = field(default_factory=ViewsConfig)
    fairness: FairnessConfig = field(default_factory=FairnessConfig)

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ConfigError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1 or None, got {self.queue_capacity}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.admission_timeout < 0:
            raise ConfigError(
                f"admission_timeout must be >= 0, got {self.admission_timeout}"
            )
        if self.poll_interval <= 0:
            raise ConfigError(f"poll_interval must be > 0, got {self.poll_interval}")
        if (
            self.default_recovery is not None
            and self.default_recovery not in RECOVERY_STRATEGIES
        ):
            raise ConfigError(
                f"default_recovery must be one of {RECOVERY_STRATEGIES} or None, "
                f"got {self.default_recovery!r}"
            )


DEFAULT_SERVICE_CONFIG = ServiceConfig()
