"""Bulk iterations.

A bulk iteration "always recomputes the intermediate result of an
iteration as a whole" (§2.1): every superstep executes the step plan over
the full current state and replaces it with the plan's output. PageRank is
the paper's bulk workload.

Failure semantics: scheduled failures fire at the end of a superstep's
compute phase, destroying the freshly computed state partitions hosted on
the failed workers. The driver then pauses (charging failure detection),
acquires replacement workers, and delegates state repair to the configured
:class:`repro.core.recovery.RecoveryStrategy`.
"""

from __future__ import annotations

from contextlib import closing, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..config import DEFAULT_CONFIG, EngineConfig
from ..core.recovery import RecoveryContext, RecoveryStrategy
from ..core.restart import RestartRecovery
from ..core.strategies import resolve_recovery
from ..dataflow.datatypes import KeySpec
from ..dataflow.invariants import analyze_invariants
from ..dataflow.plan import Plan
from ..errors import IterationError, TerminationError
from ..observability.span import SpanKind
from ..observability.telemetry import RunTelemetry
from ..observability.tracer import NOOP_TRACER, Tracer
from ..runtime.cache import SuperstepExecutionCache
from ..runtime.events import EventKind
from ..runtime.executor import PartitionedDataset
from ..runtime.failures import FailureSchedule
from ..runtime.metrics import IterationStats, StatsSeries
from ._runtime import bind_statics, build_runtime, count_converged, pin_initial_inputs
from .result import IterationResult
from .snapshots import SnapshotPhase, SnapshotStore
from .termination import TerminationCriterion


@dataclass
class BulkIterationSpec:
    """Description of a bulk-iterative job.

    Attributes:
        name: job name (used in storage keys and reports).
        step_plan: the dataflow executed once per superstep. It must have
            a source named ``state_source`` (bound to the current state)
            and may have further sources for loop-invariant inputs.
        state_source: name of the plan source carrying the current state.
        next_state_output: name of the operator whose output becomes the
            next state. State records are ``(key, value)`` tuples.
        state_key: key spec the state is partitioned by across supersteps.
        termination: convergence test, consulted after every failure-free
            superstep.
        max_supersteps: hard budget; exceeding it either raises (strict
            config) or returns an unconverged result.
        message_counter: metrics counter whose per-superstep increase is
            reported as "messages" (e.g. ``records_in.recompute-ranks``).
        value_fn: extracts a float from a state record; enables L1-delta
            computation between consecutive states (PageRank's
            convergence plot).
        truth: precomputed correct final values keyed by state key, for
            the converged-count plot; optional.
        truth_tolerance: tolerance for float truth comparison.
    """

    name: str
    step_plan: Plan
    state_source: str
    next_state_output: str
    state_key: KeySpec
    termination: TerminationCriterion
    max_supersteps: int = 100
    message_counter: str | None = None
    value_fn: Callable[[Any], float] | None = None
    truth: dict[Any, Any] | None = None
    truth_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.max_supersteps < 1:
            raise IterationError(f"max_supersteps must be >= 1, got {self.max_supersteps}")
        source_names = {op.name for op in self.step_plan.sources()}
        if self.state_source not in source_names:
            raise IterationError(
                f"step plan has no source named {self.state_source!r} "
                f"(sources: {sorted(source_names)})"
            )
        self.step_plan.operator_by_name(self.next_state_output)


def _values(records: Iterable[Any]) -> dict[Any, Any]:
    return {record[0]: record[1] for record in records}


def _l1_delta(
    old: list[Any], new: list[Any], value_fn: Callable[[Any], float]
) -> float:
    old_values = {record[0]: value_fn(record) for record in old}
    new_values = {record[0]: value_fn(record) for record in new}
    keys = old_values.keys() | new_values.keys()
    return sum(abs(new_values.get(k, 0.0) - old_values.get(k, 0.0)) for k in keys)


def _count_updates(old: list[Any], new: list[Any]) -> int:
    old_values = _values(old)
    changed = 0
    for record in new:
        if old_values.get(record[0]) != record[1]:
            changed += 1
    return changed


def run_bulk_iteration(
    spec: BulkIterationSpec,
    initial_records: Iterable[Any],
    statics: dict[str, Iterable[Any]] | None = None,
    *,
    config: EngineConfig = DEFAULT_CONFIG,
    recovery: RecoveryStrategy | None = None,
    failures: FailureSchedule | None = None,
    snapshots: SnapshotStore | None = None,
    tracer: Tracer | None = None,
    telemetry: RunTelemetry | None = None,
) -> IterationResult:
    """Run a bulk iteration to convergence (or budget exhaustion).

    Args:
        spec: the job description.
        initial_records: the initial state as ``(key, value)`` records.
        statics: loop-invariant inputs, ``{plan source name: records}``.
        config: engine configuration (parallelism, spares, cost model).
        recovery: fault-tolerance strategy; ``None`` builds the strategy
            named by ``config.recovery``, and when that is also unset
            defaults to :class:`repro.core.restart.RestartRecovery` (no
            fault tolerance — restart is all an unprotected system can
            do).
        failures: the failure schedule to inject (default: none).
        snapshots: optional store capturing per-superstep state copies.
        tracer: optional span tracer (default: the no-op tracer). A
            :class:`repro.observability.tracer.RecordingTracer` captures
            the run → superstep → operator → partition span tree.
        telemetry: optional live-telemetry bundle
            (:class:`repro.observability.telemetry.RunTelemetry`). Purely
            observational — the run's records, simulated time and
            superstep count are bit-identical with or without it.

    Returns:
        An :class:`repro.iteration.result.IterationResult`.
    """
    if recovery is None:
        recovery = resolve_recovery(config)
    recovery = recovery if recovery is not None else RestartRecovery()
    tracer = tracer if tracer is not None else NOOP_TRACER
    runtime = build_runtime(config, failures, tracer=tracer)
    if telemetry is not None:
        telemetry.bind_runtime(
            runtime.metrics, runtime.clock, runtime.events, job=spec.name
        )
        telemetry.set_target(getattr(spec.termination, "epsilon", None))
    parallelism = config.parallelism
    bound_statics = bind_statics(
        spec.step_plan, dict(statics or {}), {spec.state_source}, parallelism
    )
    initial_state = PartitionedDataset.from_records(
        initial_records, parallelism, key=spec.state_key
    )
    if initial_state.num_records() == 0:
        raise IterationError(f"bulk iteration {spec.name!r} started with empty state")
    cache: SuperstepExecutionCache | None = None
    if config.execution_cache != "off":
        cache = SuperstepExecutionCache(
            analyze_invariants(spec.step_plan, {spec.state_source}),
            metrics=runtime.metrics,
        )
    ctx = RecoveryContext(
        job_name=spec.name,
        cluster=runtime.cluster,
        executor=runtime.executor,
        storage=runtime.storage,
        state_key=spec.state_key,
        statics=bound_statics,
        initial_state=initial_state,
        execution_cache=cache,
    )
    pin_initial_inputs(runtime, ctx, initial_state, None)
    recovery.reset()
    recovery.on_start(ctx)
    spec.termination.reset()

    series = StatsSeries()
    state = initial_state.copy()
    if snapshots is not None:
        snapshots.add(-1, SnapshotPhase.INITIAL, state.all_records())
    converged = False
    supersteps_run = 0
    track_l1 = spec.value_fn is not None
    # Update counting is an O(|state|) dict-building pass; run it only
    # when something consumes ``stats.updates``: L1 tracking, snapshot
    # capture, truth comparison, or a termination criterion that reads it.
    track_updates = (
        track_l1
        or snapshots is not None
        or spec.truth is not None
        or spec.termination.uses_updates
    )

    # closing() releases worker-resident side values even when the run
    # raises (the shared thread/process pools themselves stay up); the
    # telemetry bundle unhooks from the collector and event log likewise.
    with closing(runtime), (
        closing(telemetry) if telemetry is not None else nullcontext()
    ), tracer.span(
        f"run:{spec.name}",
        kind=SpanKind.RUN,
        job=spec.name,
        mode="bulk",
        strategy=recovery.name,
        parallelism=parallelism,
        parallel_backend=runtime.executor.backend.name,
        parallel_workers=runtime.executor.backend.workers,
    ) as run_span:
        for superstep in range(spec.max_supersteps):
            supersteps_run = superstep + 1
            stats = IterationStats(superstep, sim_time_start=runtime.clock.now)
            runtime.events.record(
                EventKind.SUPERSTEP_STARTED, time=runtime.clock.now, superstep=superstep
            )
            metrics_before = runtime.metrics.snapshot()
            previous_records = state.all_records() if track_updates else None

            with tracer.span(
                f"superstep:{superstep}", kind=SpanKind.SUPERSTEP, superstep=superstep
            ) as superstep_span:
                outputs = runtime.executor.execute(
                    spec.step_plan,
                    {spec.state_source: state, **bound_statics},
                    outputs=[spec.next_state_output],
                    cache=cache,
                )
                next_state = runtime.executor.repartition(
                    outputs[spec.next_state_output],
                    spec.state_key,
                    context=f"{spec.name}.state",
                )
                if spec.message_counter is not None:
                    stats.messages = runtime.metrics.diff(metrics_before).get(
                        spec.message_counter, 0
                    )
                # One materialization pass per superstep, shared by update
                # counting, L1 tracking, truth comparison and snapshots.
                computed_records = next_state.all_records() if track_updates else None
                if track_updates:
                    stats.updates = _count_updates(previous_records, computed_records)
                if track_l1:
                    stats.l1_delta = _l1_delta(
                        previous_records, computed_records, spec.value_fn
                    )

                due = runtime.injector.pop(superstep)
                if due:
                    if snapshots is not None:
                        snapshots.add(
                            superstep, SnapshotPhase.BEFORE_FAILURE, computed_records
                        )
                    with tracer.span(
                        "recovery", kind=SpanKind.RECOVERY, superstep=superstep
                    ) as recovery_span:
                        lost: list[int] = []
                        for event in due:
                            lost.extend(
                                runtime.cluster.fail_workers(
                                    list(event.worker_ids), superstep
                                )
                            )
                        runtime.clock.charge_failure_detection()
                        stats.failed = True
                        if lost:
                            if recovery.needs_preloss_capture:
                                # Confined recovery's replay oracle: the
                                # partition contents the failure is about
                                # to destroy (what a deterministic replay
                                # would recompute).
                                recovery.capture_preloss(
                                    superstep, next_state, None, lost
                                )
                            next_state.lose(lost)
                            runtime.cluster.reassign_lost(superstep)
                            if cache is not None:
                                # Cached partitions lived on the failed
                                # workers; recovery must recompute them.
                                cache.invalidate(lost)
                            # Worker-resident copies of the invalidated
                            # build sides are stale too.
                            runtime.executor.release_residents()
                            outcome = recovery.recover(ctx, superstep, next_state, None, lost)
                            next_state = runtime.executor.repartition(
                                outcome.state,
                                spec.state_key,
                                context=f"{spec.name}.recovered",
                            )
                            stats.compensated = outcome.compensated
                            stats.rolled_back = outcome.rolled_back_to is not None
                            stats.restarted = outcome.restarted
                            stats.confined = outcome.healed_partitions is not None
                            if outcome.restarted:
                                spec.termination.reset()
                            recovery_span.set_attribute("lost_partitions", sorted(lost))
                            recovery_span.set_attribute(
                                "outcome",
                                "replay"
                                if stats.confined
                                else "compensation"
                                if outcome.compensated
                                else "rollback"
                                if stats.rolled_back
                                else "restart",
                            )
                            if snapshots is not None:
                                phase = (
                                    SnapshotPhase.AFTER_CONFINED
                                    if stats.confined
                                    else SnapshotPhase.AFTER_COMPENSATION
                                    if outcome.compensated
                                    else SnapshotPhase.AFTER_ROLLBACK
                                    if stats.rolled_back
                                    else SnapshotPhase.AFTER_RESTART
                                )
                                snapshots.add(superstep, phase, next_state.all_records())
                else:
                    with tracer.span(
                        "commit", kind=SpanKind.CHECKPOINT, superstep=superstep
                    ):
                        recovery.on_superstep_committed(ctx, superstep, next_state, None)

                if stats.failed and track_updates:
                    # Recovery replaced the state computed above.
                    computed_records = next_state.all_records()
                if spec.truth is not None:
                    stats.converged = count_converged(
                        computed_records, spec.truth, spec.truth_tolerance, job=spec.name
                    )
                else:
                    stats.converged = 0
                stats.sim_time_end = runtime.clock.now
                superstep_span.set_attribute("messages", stats.messages)
                superstep_span.set_attribute("updates", stats.updates)
                superstep_span.set_attribute("failed", stats.failed)
            series.append(stats)
            if telemetry is not None:
                telemetry.on_superstep(stats)
            runtime.events.record(
                EventKind.SUPERSTEP_FINISHED, time=runtime.clock.now, superstep=superstep
            )
            if snapshots is not None:
                snapshots.add(superstep, SnapshotPhase.AFTER_SUPERSTEP, computed_records)

            state = next_state
            if not stats.failed and spec.termination.should_stop(stats):
                converged = True
                runtime.events.record(
                    EventKind.CONVERGED, time=runtime.clock.now, superstep=superstep
                )
                break
        run_span.set_attribute("supersteps", supersteps_run)
        run_span.set_attribute("converged", converged)

    if not converged and config.strict_iterations:
        raise TerminationError(
            f"bulk iteration {spec.name!r} did not converge within "
            f"{spec.max_supersteps} supersteps"
        )
    if snapshots is not None and converged:
        snapshots.add(supersteps_run - 1, SnapshotPhase.CONVERGED, state.all_records())
    runtime.events.record(
        EventKind.TERMINATED,
        time=runtime.clock.now,
        superstep=supersteps_run - 1,
        converged=converged,
    )
    return IterationResult(
        job_name=spec.name,
        final_records=state.all_records(),
        converged=converged,
        supersteps=supersteps_run,
        stats=series,
        events=runtime.events,
        clock=runtime.clock,
        metrics=runtime.metrics,
        cluster=runtime.cluster,
        snapshots=snapshots,
    )
