"""The superstep driver: one failure → recover → commit loop for both modes.

Bulk and delta iterations (§2.1) are two shapes of one superstep loop:
compute, then — at the end of the compute phase — a scheduled failure may
strike; the driver pauses (charging failure detection), acquires
replacement workers and hands the damaged state to the configured
:class:`repro.core.recovery.RecoveryStrategy` (§2.2); otherwise the
superstep commits and termination is tested. All of that lives here, once.
What differs between the modes is supplied by a :class:`StepPlugin` — the
per-run loop state of one mode (:mod:`repro.iteration.bulk` and
:mod:`repro.iteration.delta` each define one):

* ``mode``, ``spec``, ``dynamic_sources`` — the mode's name (run span,
  errors), the job description (the driver reads ``name``, ``step_plan``,
  ``state_key``, ``termination``, ``max_supersteps``, ``message_counter``)
  and the plan sources the plug-in binds itself every superstep;
* ``start(runtime)`` — keep ``runtime``, partition the initial datasets
  (raising on empty state) and return what the recovery context pins:
  ``(state, workset, state_backend)``;
* ``begin()`` — called as a superstep opens; returns mode-specific
  attributes its span opens with;
* ``step(statics, stats)`` — execute the step plan, make its result
  the current state, fill ``stats.updates`` / ``stats.l1_delta``;
* ``view()`` — the ``(state, workset)`` pair handed to the recovery SPI;
* ``lose(lost)`` / ``install(outcome, recovery)`` — destroy partitions of
  every iterative dataset / make a strategy's repaired datasets current;
* ``finish(stats)`` — fill the end-of-superstep stats (``converged``, ...);
  returns mode-specific attributes the superstep span closes with;
* ``records()`` — the current state's records (snapshots, final result).

The driver never asks which mode it serves: a ``None`` workset is data,
exactly as it is in the recovery SPI.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Iterable

from ..config import EngineConfig
from ..core.recovery import RecoveryContext, RecoveryOutcome, RecoveryStrategy
from ..core.restart import RestartRecovery
from ..core.strategies import resolve_recovery
from ..errors import TerminationError
from ..observability.span import SpanKind
from ..observability.telemetry import RunTelemetry
from ..observability.tracer import NOOP_TRACER, Tracer
from ..runtime.events import EventKind
from ..runtime.executor import PartitionedDataset
from ..runtime.failures import FailureEvent, FailureSchedule
from ..runtime.metrics import IterationStats, StatsSeries
from ._runtime import JobRuntime, bind_statics, build_runtime
from .result import IterationResult
from .snapshots import SnapshotPhase, SnapshotStore


class StepPlugin:
    """Base of the two step plug-ins (contract: see the module docstring)."""

    mode: str
    runtime: JobRuntime

    def __init__(self, spec: Any, dynamic_sources: set[str]):
        self.spec = spec
        self.dynamic_sources = dynamic_sources

    def begin(self) -> dict[str, Any]:
        return {}

    def _partition(self, records: Iterable[Any]) -> PartitionedDataset:
        return PartitionedDataset.from_records(
            records, self.runtime.config.parallelism, key=self.spec.state_key
        )

    def _repartition(self, dataset: PartitionedDataset, role: str) -> PartitionedDataset:
        return self.runtime.executor.repartition(
            dataset, self.spec.state_key, context=f"{self.spec.name}.{role}"
        )


def _classify(outcome: RecoveryOutcome) -> tuple[str, SnapshotPhase]:
    """The recovery span's ``outcome`` label and the matching snapshot phase."""
    if outcome.healed_partitions is not None:
        return "replay", SnapshotPhase.AFTER_CONFINED
    if outcome.compensated:
        return "compensation", SnapshotPhase.AFTER_COMPENSATION
    if outcome.rolled_back_to is not None:
        return "rollback", SnapshotPhase.AFTER_ROLLBACK
    return "restart", SnapshotPhase.AFTER_RESTART


def _fail_and_recover(
    loop: StepPlugin, recovery: RecoveryStrategy, ctx: RecoveryContext,
    due: list[FailureEvent], stats: IterationStats,
) -> tuple[list[int], RecoveryOutcome | None]:
    """Kill the scheduled workers and have ``recovery`` repair their loss.

    Returns the lost partition ids and the strategy's outcome (``None``
    when the failed workers hosted no partition, so nothing was lost).
    """
    superstep = stats.superstep
    lost: list[int] = []
    for event in due:
        lost.extend(ctx.cluster.fail_workers(list(event.worker_ids), superstep))
    ctx.cluster.clock.charge_failure_detection()
    stats.failed = True
    if not lost:
        return lost, None
    # What the failure is about to destroy (what a deterministic replay
    # would recompute) travels to the strategy as data on the context.
    state, workset = loop.view()
    ctx.destroyed_state = {pid: state.partitions[pid] or [] for pid in lost}
    ctx.destroyed_workset = (
        None if workset is None else {pid: workset.partitions[pid] or [] for pid in lost}
    )
    loop.lose(lost)
    ctx.cluster.reassign_lost(superstep)
    outcome = recovery.recover(ctx, superstep, *loop.view(), lost)
    ctx.destroyed_state = ctx.destroyed_workset = None
    loop.install(outcome, recovery)
    stats.compensated = outcome.compensated
    stats.rolled_back = outcome.rolled_back_to is not None
    stats.restarted = outcome.restarted
    stats.confined = outcome.healed_partitions is not None
    return lost, outcome


def run_supersteps(
    loop: StepPlugin,
    statics: dict[str, Iterable[Any]] | None,
    *,
    config: EngineConfig,
    recovery: RecoveryStrategy | None,
    failures: FailureSchedule | None,
    snapshots: SnapshotStore | None,
    tracer: Tracer | None,
    telemetry: RunTelemetry | None,
) -> IterationResult:
    """Drive ``loop`` to convergence (or budget exhaustion).

    The keyword arguments are those of
    :func:`repro.iteration.run_bulk_iteration` /
    :func:`repro.iteration.run_delta_iteration`, which document them.
    """
    spec = loop.spec
    termination, counter = spec.termination, spec.message_counter
    if recovery is None:
        recovery = resolve_recovery(config) or RestartRecovery()
    tracer = tracer if tracer is not None else NOOP_TRACER
    runtime = build_runtime(config, failures, tracer=tracer)
    executor = runtime.executor
    clock, events, metrics = runtime.clock, runtime.cluster.events, runtime.metrics
    series = StatsSeries()
    converged = False
    supersteps_run = 0

    # The stack unhooks the telemetry bundle from the collector and event
    # log even when the run raises. Setup runs inside it: a missing static
    # or an empty initial state must not leave a dead run registered with
    # the collector.
    with ExitStack() as cleanup:
        if telemetry is not None:
            cleanup.callback(telemetry.close)
            telemetry.bind_runtime(metrics, clock, events, job=spec.name)
            telemetry.set_target(getattr(termination, "epsilon", None))
        bound_statics = bind_statics(
            spec.step_plan, dict(statics or {}), loop.dynamic_sources, config.parallelism
        )
        initial_state, initial_workset, state_backend = loop.start(runtime)
        ctx = RecoveryContext(
            job_name=spec.name,
            cluster=runtime.cluster,
            executor=executor,
            storage=runtime.storage,
            state_key=spec.state_key,
            statics=bound_statics,
            initial_state=initial_state,
            initial_workset=initial_workset,
            state_backend=state_backend,
        )
        ctx.persist(ctx.input_prefix, initial_state, initial_workset, charge=False)
        recovery.reset()
        recovery.on_start(ctx)
        termination.reset()
        if snapshots is not None:
            snapshots.add(-1, SnapshotPhase.INITIAL, loop.records())

        run_span = cleanup.enter_context(
            tracer.span(
                f"run:{spec.name}",
                kind=SpanKind.RUN,
                job=spec.name,
                mode=loop.mode,
                strategy=recovery.name,
                parallelism=config.parallelism,
            )
        )
        for superstep in range(spec.max_supersteps):
            supersteps_run = superstep + 1
            stats = IterationStats(superstep, sim_time_start=clock.now)
            events.record(EventKind.SUPERSTEP_STARTED, time=clock.now, superstep=superstep)
            messages_before = metrics.get(counter) if counter is not None else 0

            with tracer.span(
                f"superstep:{superstep}",
                kind=SpanKind.SUPERSTEP,
                superstep=superstep,
                **loop.begin(),
            ) as superstep_span:
                loop.step(bound_statics, stats)
                if counter is not None:
                    stats.messages = metrics.get(counter) - messages_before

                due = runtime.injector.pop(superstep)
                if due:
                    if snapshots is not None:
                        snapshots.add(superstep, SnapshotPhase.BEFORE_FAILURE, loop.records())
                    with tracer.span(
                        "recovery", kind=SpanKind.RECOVERY, superstep=superstep
                    ) as recovery_span:
                        lost, outcome = _fail_and_recover(loop, recovery, ctx, due, stats)
                        if outcome is not None:
                            if outcome.restarted:
                                termination.reset()
                            label, phase = _classify(outcome)
                            recovery_span.set_attribute("lost_partitions", sorted(lost))
                            recovery_span.set_attribute("outcome", label)
                            if snapshots is not None:
                                snapshots.add(superstep, phase, loop.records())
                else:
                    with tracer.span("commit", kind=SpanKind.CHECKPOINT, superstep=superstep):
                        recovery.on_superstep_committed(ctx, superstep, *loop.view())

                closing_attributes = loop.finish(stats)
                stats.sim_time_end = clock.now
                superstep_span.set_attribute("messages", stats.messages)
                superstep_span.set_attribute("updates", stats.updates)
                for name, value in closing_attributes.items():
                    superstep_span.set_attribute(name, value)
                superstep_span.set_attribute("failed", stats.failed)
            series.append(stats)
            if telemetry is not None:
                telemetry.on_superstep(stats)
            events.record(EventKind.SUPERSTEP_FINISHED, time=clock.now, superstep=superstep)
            if snapshots is not None:
                snapshots.add(superstep, SnapshotPhase.AFTER_SUPERSTEP, loop.records())

            if not stats.failed and termination.should_stop(stats):
                converged = True
                events.record(EventKind.CONVERGED, time=clock.now, superstep=superstep)
                break
        run_span.set_attribute("supersteps", supersteps_run)
        run_span.set_attribute("converged", converged)

    if not converged and config.strict_iterations:
        raise TerminationError(
            f"{loop.mode} iteration {spec.name!r} did not converge within "
            f"{spec.max_supersteps} supersteps"
        )
    final_records = loop.records()
    if snapshots is not None and converged:
        snapshots.add(supersteps_run - 1, SnapshotPhase.CONVERGED, final_records)
    events.record(
        EventKind.TERMINATED, time=clock.now, superstep=supersteps_run - 1, converged=converged
    )
    return IterationResult(
        job_name=spec.name,
        final_records=final_records,
        converged=converged,
        supersteps=supersteps_run,
        stats=series,
        events=events,
        clock=clock,
        metrics=metrics,
        cluster=runtime.cluster,
        snapshots=snapshots,
    )
