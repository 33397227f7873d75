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
superstep.

Failures destroy the freshly updated solution-set partitions *and* the
next workset partitions on the failed workers.
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
from ..runtime.state import KeyedStateBackend
from ._runtime import JobRuntime
from .driver import StepPlugin, run_supersteps
from .result import IterationResult
from .snapshots import SnapshotStore
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


class _DeltaLoop(StepPlugin):
    """The delta step plug-in: the state is a solution set held in a keyed
    backend, plus a workset."""

    mode = "delta"

    def __init__(
        self,
        spec: DeltaIterationSpec,
        initial_solution: Iterable[Any],
        initial_workset: Iterable[Any] | None,
    ):
        super().__init__(spec, {spec.solution_source, spec.workset_source})
        self._initial_solution = initial_solution
        self._initial_workset = initial_workset

    def start(self, runtime: JobRuntime):
        self.runtime = runtime
        spec = self.spec
        solution_records = list(self._initial_solution)
        if not solution_records:
            raise IterationError(
                f"delta iteration {spec.name!r} started with empty solution set"
            )
        solution = self._partition(solution_records)
        self.workset = self._partition(
            solution_records if self._initial_workset is None else self._initial_workset
        )
        self.backend = KeyedStateBackend(
            solution,
            spec.state_key,
            metrics=runtime.metrics,
            value_fn=spec.value_fn,
            truth=spec.truth,
            truth_tolerance=spec.truth_tolerance,
        )
        return solution.copy(), self.workset.copy(), self.backend

    def begin(self) -> dict[str, Any]:
        entering_workset = self.workset.num_records()
        self.runtime.metrics.set_gauge("workset_size", entering_workset)
        self.runtime.metrics.observe("workset_size", entering_workset)
        return {"workset_size": entering_workset}

    def step(self, statics, stats: IterationStats) -> None:
        spec = self.spec
        outputs = self.runtime.executor.execute(
            spec.step_plan,
            {
                spec.solution_source: self.backend.to_dataset(),
                spec.workset_source: self.workset,
                **statics,
            },
            outputs=[spec.delta_output, spec.workset_output],
        )
        delta = self._repartition(outputs[spec.delta_output], "delta")
        self.workset = self._repartition(outputs[spec.workset_output], "workset")
        if self.workset is delta:
            # One operator may feed both outputs (Connected Components'
            # label-update does); decouple so losing workset partitions
            # cannot alias into the delta.
            self.workset = delta.copy()
        stats.updates = self.backend.apply_delta(delta)
        if spec.value_fn is not None:
            stats.l1_delta = self.backend.last_l1_delta

    def view(self):
        return self.backend.to_dataset(), self.workset

    def lose(self, lost: list[int]) -> None:
        self.backend.lose(lost)
        self.workset.lose(lost)

    def install(self, outcome: RecoveryOutcome, recovery: RecoveryStrategy) -> None:
        recovered_state = self._repartition(outcome.state, "recovered")
        if outcome.healed_partitions is not None:
            # Confined recovery: survivors' partitions (and their indexes)
            # are untouched — only the healed ones are reinstalled.
            for pid in outcome.healed_partitions:
                self.backend.replace_partition(pid, recovered_state.partitions[pid] or [])
        else:
            self.backend.restore_from(recovered_state)
        if outcome.workset is None:
            raise IterationError(
                f"recovery strategy {recovery.name!r} returned no "
                f"workset for delta iteration {self.spec.name!r}"
            )
        self.workset = self._repartition(outcome.workset, "recovered-ws")

    def finish(self, stats: IterationStats) -> dict[str, Any]:
        stats.workset_size = self.workset.num_records()
        stats.converged = self.backend.converged_count()
        return {"next_workset_size": stats.workset_size}

    def records(self) -> list[Any]:
        return self.backend.records_view()


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
    return run_supersteps(
        _DeltaLoop(spec, initial_solution, initial_workset), statics,
        config=config, recovery=recovery, failures=failures,
        snapshots=snapshots, tracer=tracer, telemetry=telemetry,
    )
