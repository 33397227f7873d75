"""Delta iterations.

A delta iteration (§2.1) maintains two datasets: the **solution set**
holding the current intermediate result and the **workset** holding
pending updates. Every superstep consumes the workset, selectively updates
elements of the solution set, and computes the next workset; the iteration
terminates once the workset runs empty. Connected Components is the
paper's delta workload.

The step plan sees two dynamic sources — the solution set and the
workset — and produces two outputs: the *delta* (``(key, value)`` records
replacing/inserting solution-set entries) and the next workset. The driver
keeps the solution set in a keyed state backend
(:mod:`repro.runtime.state`): partitioned by the state key like Flink's
co-located solution sets (so no shuffle is needed) and indexed per
partition, so applying the delta costs O(|delta|) — not O(|state|) — per
superstep. ``EngineConfig.state_backend`` selects the backend
implementation.

Failures destroy the freshly updated solution-set partitions *and* the
next workset partitions on the failed workers.
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
from ..runtime.state import make_state_backend
from ._runtime import bind_statics, build_runtime, pin_initial_inputs
from .result import IterationResult
from .snapshots import SnapshotPhase, SnapshotStore
from .termination import EmptyWorkset, TerminationCriterion


@dataclass
class DeltaIterationSpec:
    """Description of a delta-iterative job.

    Attributes:
        name: job name.
        step_plan: dataflow executed once per superstep, with sources
            named ``solution_source`` and ``workset_source`` plus any
            loop-invariant inputs.
        solution_source: plan source bound to the current solution set.
        workset_source: plan source bound to the current workset.
        delta_output: operator whose output records ``(key, value)``
            replace/insert solution-set entries.
        workset_output: operator whose output becomes the next workset.
        state_key: key spec both solution set and workset are partitioned
            by.
        termination: convergence test; defaults to the canonical
            empty-workset criterion.
        max_supersteps: hard superstep budget.
        message_counter: metrics counter reported as "messages" per
            superstep (e.g. ``records_in.candidate-label``).
        truth: precomputed correct final solution, for convergence plots.
        truth_tolerance: tolerance for float truth comparison.
        value_fn: optional float extraction for L1-delta tracking.
    """

    name: str
    step_plan: Plan
    solution_source: str
    workset_source: str
    delta_output: str
    workset_output: str
    state_key: KeySpec
    termination: TerminationCriterion | None = None
    max_supersteps: int = 100
    message_counter: str | None = None
    truth: dict[Any, Any] | None = None
    truth_tolerance: float = 0.0
    value_fn: Callable[[Any], float] | None = None

    def __post_init__(self) -> None:
        if self.max_supersteps < 1:
            raise IterationError(f"max_supersteps must be >= 1, got {self.max_supersteps}")
        if self.termination is None:
            self.termination = EmptyWorkset()
        source_names = {op.name for op in self.step_plan.sources()}
        for required in (self.solution_source, self.workset_source):
            if required not in source_names:
                raise IterationError(
                    f"step plan has no source named {required!r} "
                    f"(sources: {sorted(source_names)})"
                )
        self.step_plan.operator_by_name(self.delta_output)
        self.step_plan.operator_by_name(self.workset_output)


def run_delta_iteration(
    spec: DeltaIterationSpec,
    initial_solution: Iterable[Any],
    initial_workset: Iterable[Any] | None = None,
    statics: dict[str, Iterable[Any]] | None = None,
    *,
    config: EngineConfig = DEFAULT_CONFIG,
    recovery: RecoveryStrategy | None = None,
    failures: FailureSchedule | None = None,
    snapshots: SnapshotStore | None = None,
    tracer: Tracer | None = None,
    telemetry: RunTelemetry | None = None,
) -> IterationResult:
    """Run a delta iteration until the workset empties (or budget ends).

    Args:
        spec: the job description.
        initial_solution: initial solution set, ``(key, value)`` records.
        initial_workset: initial workset; defaults to a copy of the
            initial solution set (the paper's Connected Components does
            exactly this: "the workset initially equals the labels
            input").
        statics: loop-invariant inputs ``{plan source name: records}``.
        config: engine configuration.
        recovery: fault-tolerance strategy; ``None`` builds the strategy
            named by ``config.recovery`` (default: restart / no FT).
        failures: failure schedule to inject.
        snapshots: optional per-superstep state snapshot store.
        tracer: optional span tracer (default: the no-op tracer). A
            :class:`repro.observability.tracer.RecordingTracer` captures
            the run → superstep → operator → partition span tree.
        telemetry: optional live-telemetry bundle
            (:class:`repro.observability.telemetry.RunTelemetry`). Purely
            observational — the run's records, simulated time and
            superstep count are bit-identical with or without it.

    Returns:
        An :class:`repro.iteration.result.IterationResult`; its
        ``final_records`` are the solution set.
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
        spec.step_plan,
        dict(statics or {}),
        {spec.solution_source, spec.workset_source},
        parallelism,
    )
    initial_solution = list(initial_solution)
    if not initial_solution:
        raise IterationError(f"delta iteration {spec.name!r} started with empty solution set")
    workset_records = (
        list(initial_workset) if initial_workset is not None else list(initial_solution)
    )
    solution = PartitionedDataset.from_records(
        initial_solution, parallelism, key=spec.state_key
    )
    workset = PartitionedDataset.from_records(
        workset_records, parallelism, key=spec.state_key
    )
    backend = make_state_backend(
        config.state_backend,
        solution,
        spec.state_key,
        metrics=runtime.metrics,
        value_fn=spec.value_fn,
        truth=spec.truth,
        truth_tolerance=spec.truth_tolerance,
    )
    cache: SuperstepExecutionCache | None = None
    if config.execution_cache != "off":
        cache = SuperstepExecutionCache(
            analyze_invariants(
                spec.step_plan, {spec.solution_source, spec.workset_source}
            ),
            metrics=runtime.metrics,
        )
    ctx = RecoveryContext(
        job_name=spec.name,
        cluster=runtime.cluster,
        executor=runtime.executor,
        storage=runtime.storage,
        state_key=spec.state_key,
        statics=bound_statics,
        initial_state=solution.copy(),
        initial_workset=workset.copy(),
        state_backend=backend,
        execution_cache=cache,
    )
    pin_initial_inputs(runtime, ctx, solution, workset)
    recovery.reset()
    recovery.on_start(ctx)
    assert spec.termination is not None
    spec.termination.reset()

    series = StatsSeries()
    if snapshots is not None:
        snapshots.add(-1, SnapshotPhase.INITIAL, backend.records_view())
    converged = False
    supersteps_run = 0

    # closing() releases worker-resident side values even when the run
    # raises (the shared thread/process pools themselves stay up); the
    # telemetry bundle unhooks from the collector and event log likewise.
    with closing(runtime), (
        closing(telemetry) if telemetry is not None else nullcontext()
    ), tracer.span(
        f"run:{spec.name}",
        kind=SpanKind.RUN,
        job=spec.name,
        mode="delta",
        strategy=recovery.name,
        parallelism=parallelism,
        state_backend=backend.name,
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
            entering_workset = workset.num_records()
            runtime.metrics.set_gauge("workset_size", entering_workset)
            runtime.metrics.observe("workset_size", entering_workset)

            with tracer.span(
                f"superstep:{superstep}",
                kind=SpanKind.SUPERSTEP,
                superstep=superstep,
                workset_size=entering_workset,
            ) as superstep_span:
                outputs = runtime.executor.execute(
                    spec.step_plan,
                    {
                        spec.solution_source: backend.to_dataset(),
                        spec.workset_source: workset,
                        **bound_statics,
                    },
                    outputs=[spec.delta_output, spec.workset_output],
                    cache=cache,
                )
                delta = runtime.executor.repartition(
                    outputs[spec.delta_output], spec.state_key, context=f"{spec.name}.delta"
                )
                next_workset = runtime.executor.repartition(
                    outputs[spec.workset_output],
                    spec.state_key,
                    context=f"{spec.name}.workset",
                )
                if next_workset is delta:
                    # One operator may feed both outputs (Connected Components'
                    # label-update does); decouple so losing workset partitions
                    # cannot alias into the delta.
                    next_workset = delta.copy()
                if spec.message_counter is not None:
                    stats.messages = runtime.metrics.diff(metrics_before).get(
                        spec.message_counter, 0
                    )
                stats.updates = backend.apply_delta(delta)
                if spec.value_fn is not None:
                    stats.l1_delta = backend.last_l1_delta

                due = runtime.injector.pop(superstep)
                if due:
                    if snapshots is not None:
                        snapshots.add(
                            superstep,
                            SnapshotPhase.BEFORE_FAILURE,
                            backend.records_view(),
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
                                    superstep,
                                    backend.to_dataset(),
                                    next_workset,
                                    lost,
                                )
                            backend.lose(lost)
                            next_workset.lose(lost)
                            runtime.cluster.reassign_lost(superstep)
                            if cache is not None:
                                # Cached partitions lived on the failed
                                # workers; recovery must recompute them.
                                cache.invalidate(lost)
                            # Worker-resident copies of the invalidated
                            # build sides are stale too.
                            runtime.executor.release_residents()
                            outcome = recovery.recover(
                                ctx, superstep, backend.to_dataset(), next_workset, lost
                            )
                            recovered_state = runtime.executor.repartition(
                                outcome.state,
                                spec.state_key,
                                context=f"{spec.name}.recovered",
                            )
                            if outcome.healed_partitions is not None:
                                # Confined recovery: survivors' partitions
                                # (and their indexes) are untouched — only
                                # the healed ones are reinstalled.
                                for pid in outcome.healed_partitions:
                                    backend.replace_partition(
                                        pid, recovered_state.partitions[pid] or []
                                    )
                            else:
                                backend.restore_from(recovered_state)
                            if outcome.workset is None:
                                raise IterationError(
                                    f"recovery strategy {recovery.name!r} returned no "
                                    f"workset for delta iteration {spec.name!r}"
                                )
                            next_workset = runtime.executor.repartition(
                                outcome.workset,
                                spec.state_key,
                                context=f"{spec.name}.recovered-ws",
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
                                snapshots.add(
                                    superstep, phase, backend.records_view()
                                )
                else:
                    with tracer.span(
                        "commit", kind=SpanKind.CHECKPOINT, superstep=superstep
                    ):
                        recovery.on_superstep_committed(
                            ctx, superstep, backend.to_dataset(), next_workset
                        )

                stats.workset_size = next_workset.num_records()
                stats.converged = backend.converged_count()
                stats.sim_time_end = runtime.clock.now
                superstep_span.set_attribute("messages", stats.messages)
                superstep_span.set_attribute("updates", stats.updates)
                superstep_span.set_attribute("next_workset_size", stats.workset_size)
                superstep_span.set_attribute("failed", stats.failed)
            series.append(stats)
            if telemetry is not None:
                telemetry.on_superstep(stats)
            runtime.events.record(
                EventKind.SUPERSTEP_FINISHED, time=runtime.clock.now, superstep=superstep
            )
            if snapshots is not None:
                snapshots.add(
                    superstep, SnapshotPhase.AFTER_SUPERSTEP, backend.records_view()
                )

            workset = next_workset
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
            f"delta iteration {spec.name!r} did not converge within "
            f"{spec.max_supersteps} supersteps"
        )
    if snapshots is not None and converged:
        snapshots.add(supersteps_run - 1, SnapshotPhase.CONVERGED, backend.records_view())
    runtime.events.record(
        EventKind.TERMINATED,
        time=runtime.clock.now,
        superstep=supersteps_run - 1,
        converged=converged,
    )
    return IterationResult(
        job_name=spec.name,
        final_records=backend.records_view(),
        converged=converged,
        supersteps=supersteps_run,
        stats=series,
        events=runtime.events,
        clock=runtime.clock,
        metrics=runtime.metrics,
        cluster=runtime.cluster,
        snapshots=snapshots,
    )
