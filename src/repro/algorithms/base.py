"""Job wrappers: a spec bundled with its inputs and compensation.

The algorithm factories (:func:`repro.algorithms.pagerank`, ...) return
one of these. A job knows everything needed to run — the step plan, the
initial state, the static inputs, the ground truth — plus the algorithm's
compensation function and consistency invariants, so callers can switch
recovery strategies with one argument::

    job = pagerank(graph)
    baseline = job.run()                                   # no failures
    optimistic = job.run(recovery=job.optimistic(),
                         failures=FailureSchedule.single(5, [0]))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..config import DEFAULT_CONFIG, EngineConfig
from ..core.compensation import CompensationFunction
from ..core.guarantees import StateInvariant
from ..core.optimistic import OptimisticRecovery
from ..core.recovery import RecoveryStrategy
from ..core.strategies import resolve_recovery
from ..iteration.bulk import BulkIterationSpec, run_bulk_iteration
from ..iteration.delta import DeltaIterationSpec, run_delta_iteration
from ..iteration.result import IterationResult
from ..iteration.snapshots import SnapshotStore
from ..observability.telemetry import RunTelemetry
from ..observability.tracer import Tracer
from ..runtime.failures import FailureSchedule


class _IterativeJob:
    """What :class:`BulkJob` and :class:`DeltaJob` share; only the inputs
    their ``_launch`` hands to its ``run_*_iteration`` differ."""

    def run(
        self,
        *,
        config: EngineConfig = DEFAULT_CONFIG,
        recovery: RecoveryStrategy | None = None,
        failures: FailureSchedule | None = None,
        snapshots: SnapshotStore | None = None,
        tracer: Tracer | None = None,
        telemetry: RunTelemetry | None = None,
    ) -> IterationResult:
        """Execute the job; see :func:`repro.iteration.run_bulk_iteration` /
        :func:`repro.iteration.run_delta_iteration` for the options.

        Without an explicit ``recovery``, the strategy named by
        ``config.recovery`` is built with this job's compensation function
        and invariants."""
        if recovery is None:
            recovery = resolve_recovery(
                config, compensation=self.compensation, invariants=self.invariants
            )
        return self._launch(
            config=config, recovery=recovery, failures=failures,
            snapshots=snapshots, tracer=tracer, telemetry=telemetry,
        )

    def optimistic(self) -> OptimisticRecovery:
        """An :class:`OptimisticRecovery` wired with this algorithm's
        compensation function and invariants."""
        if self.compensation is None:
            raise ValueError(f"job {self.spec.name!r} defines no compensation function")
        return OptimisticRecovery(self.compensation, self.invariants)

    @property
    def truth(self) -> dict[Any, Any] | None:
        """The precomputed correct final state, if the factory provided one."""
        return self.spec.truth


@dataclass
class BulkJob(_IterativeJob):
    """A runnable bulk-iterative job (PageRank, K-Means)."""

    spec: BulkIterationSpec
    initial_records: list[Any]
    statics: dict[str, list[Any]] = field(default_factory=dict)
    compensation: CompensationFunction | None = None
    invariants: list[StateInvariant] = field(default_factory=list)

    def _launch(self, **options: Any) -> IterationResult:
        return run_bulk_iteration(self.spec, self.initial_records, self.statics, **options)


@dataclass
class DeltaJob(_IterativeJob):
    """A runnable delta-iterative job (Connected Components, SSSP)."""

    spec: DeltaIterationSpec
    initial_solution: list[Any]
    initial_workset: list[Any] | None = None
    statics: dict[str, list[Any]] = field(default_factory=dict)
    compensation: CompensationFunction | None = None
    invariants: list[StateInvariant] = field(default_factory=list)

    def _launch(self, **options: Any) -> IterationResult:
        return run_delta_iteration(
            self.spec, self.initial_solution, self.initial_workset, self.statics, **options
        )
