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

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..config import DEFAULT_CONFIG, EngineConfig
from ..core.recovery import RecoveryOutcome, RecoveryStrategy
from ..dataflow.datatypes import KeySpec
from ..dataflow.plan import Plan
from ..errors import IterationError
from ..observability.telemetry import RunTelemetry
from ..observability.tracer import Tracer
from ..runtime.failures import FailureSchedule
from ..runtime.metrics import IterationStats
from ._runtime import JobRuntime, count_converged
from .driver import StepPlugin, run_supersteps
from .result import IterationResult
from .snapshots import SnapshotStore
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


def _l1_delta(
    old: list[Any], new: list[Any], value_fn: Callable[[Any], float]
) -> float:
    old_values = {record[0]: value_fn(record) for record in old}
    new_values = {record[0]: value_fn(record) for record in new}
    keys = old_values.keys() | new_values.keys()
    return sum(abs(new_values.get(k, 0.0) - old_values.get(k, 0.0)) for k in keys)


def _count_updates(old: list[Any], new: list[Any]) -> int:
    old_values = {record[0]: record[1] for record in old}
    changed = 0
    for record in new:
        if old_values.get(record[0]) != record[1]:
            changed += 1
    return changed


class _BulkLoop(StepPlugin):
    """The bulk step plug-in: the state is one dataset, replaced wholesale
    every superstep."""

    mode = "bulk"

    def __init__(
        self, spec: BulkIterationSpec, initial_records: Iterable[Any], snapshotting: bool
    ):
        super().__init__(spec, {spec.state_source})
        self._initial_records = initial_records
        self._track_l1 = spec.value_fn is not None
        # Update counting is an O(|state|) dict-building pass; run it only
        # when something consumes ``stats.updates``: L1 tracking, snapshot
        # capture, truth comparison, or a termination criterion that reads it.
        self._track_updates = (
            self._track_l1
            or snapshotting
            or spec.truth is not None
            or spec.termination.uses_updates
        )

    def start(self, runtime: JobRuntime):
        self.runtime = runtime
        initial_state = self._partition(self._initial_records)
        if initial_state.num_records() == 0:
            raise IterationError(
                f"bulk iteration {self.spec.name!r} started with empty state"
            )
        self.state = initial_state.copy()
        return initial_state, None, None

    def step(self, statics, stats: IterationStats) -> None:
        spec = self.spec
        previous = self.state.all_records() if self._track_updates else None
        outputs = self.runtime.executor.execute(
            spec.step_plan,
            {spec.state_source: self.state, **statics},
            outputs=[spec.next_state_output],
        )
        self.state = self._repartition(outputs[spec.next_state_output], "state")
        # One materialization pass per superstep, shared by update
        # counting, L1 tracking and truth comparison.
        if self._track_updates:
            self._computed = self.state.all_records()
            stats.updates = _count_updates(previous, self._computed)
        if self._track_l1:
            stats.l1_delta = _l1_delta(previous, self._computed, spec.value_fn)

    def view(self):
        return self.state, None

    def lose(self, lost: list[int]) -> None:
        self.state.lose(lost)

    def install(self, outcome: RecoveryOutcome, recovery: RecoveryStrategy) -> None:
        self.state = self._repartition(outcome.state, "recovered")

    def finish(self, stats: IterationStats) -> dict[str, Any]:
        spec = self.spec
        if spec.truth is not None:
            # A failed superstep's recovery replaced the computed state.
            records = self.records() if stats.failed else self._computed
            stats.converged = count_converged(
                records, spec.truth, spec.truth_tolerance, job=spec.name
            )
        return {}

    def records(self) -> list[Any]:
        return self.state.all_records()


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
    return run_supersteps(
        _BulkLoop(spec, initial_records, snapshotting=snapshots is not None), statics,
        config=config, recovery=recovery, failures=failures,
        snapshots=snapshots, tracer=tracer, telemetry=telemetry,
    )
