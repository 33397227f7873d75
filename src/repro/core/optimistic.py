"""Optimistic recovery via compensation functions — the paper's mechanism.

Failure-free behaviour: **nothing**. No checkpoints are written, no
lineage is tracked, so a failure-free run is exactly as fast as running
with no fault tolerance at all ("optimal failure-free performance", §1).

On failure, the driver has already paused the iteration and acquired
replacement workers; this strategy then:

1. asks the compensation function for a global aggregate over the damaged
   state (:meth:`CompensationFunction.prepare`),
2. invokes the compensation on **all** partitions — re-initializing the
   lost ones and letting survivors be adjusted if the algorithm requires
   it ("the system invokes the compensation function on all partitions to
   restore a consistent state", §2.2),
3. optionally validates the declared consistency invariants
   (:mod:`repro.core.guarantees`),
4. for delta iterations, rebuilds the workset so the re-initialized
   vertices propagate again.

The compensation work is charged to the simulated clock so recovery-cost
experiments account for it.
"""

from __future__ import annotations

from ..errors import CompensationError
from ..observability.span import SpanKind
from ..runtime.events import EventKind
from ..runtime.executor import PartitionedDataset
from .compensation import CompensationContext, CompensationFunction
from .guarantees import StateInvariant, check_invariants
from .recovery import RecoveryContext, RecoveryOutcome, RecoveryStrategy


class OptimisticRecovery(RecoveryStrategy):
    """Checkpoint-free recovery with a user-supplied compensation.

    Policy: persist nothing, never; roll back nothing — compensate.

    Args:
        compensation: the algorithm's compensation function.
        invariants: consistency checks run on every compensated state;
            violations raise :class:`repro.errors.CompensationError`.
    """

    name = "optimistic"

    def __init__(
        self,
        compensation: CompensationFunction,
        invariants: list[StateInvariant] | None = None,
    ):
        self.compensation = compensation
        self.invariants = list(invariants or [])

    def recover(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None,
        lost_partitions: list[int],
    ) -> RecoveryOutcome:
        comp_ctx = CompensationContext(
            parallelism=ctx.parallelism,
            state_key=ctx.state_key,
            statics=ctx.statics,
            initial_state=ctx.initial_state,
        )
        with ctx.tracer.span(
            "compensation",
            kind=SpanKind.COMPENSATION,
            superstep=superstep,
            compensation=self.compensation.name,
        ) as span:
            aggregate = self.compensation.prepare(state, lost_partitions, comp_ctx)
            new_partitions: list[list | None] = []
            compensated_records = 0
            for partition_id, records in enumerate(state.partitions):
                surviving = list(records) if records is not None else None
                rebuilt = self.compensation.compensate_partition(
                    partition_id, surviving, aggregate, comp_ctx
                )
                if rebuilt is None:
                    raise CompensationError(
                        f"compensation {self.compensation.name!r} returned None "
                        f"for partition {partition_id}"
                    )
                new_partitions.append(list(rebuilt))
                compensated_records += len(rebuilt)
            ctx.executor.clock.charge_compensation(compensated_records)
            new_state = PartitionedDataset(
                partitions=new_partitions, partitioned_by=ctx.state_key
            )
            check_invariants(
                self.invariants, new_state, comp_ctx, self.compensation.name
            )
            new_workset: PartitionedDataset | None = None
            if workset is not None:
                new_workset = self.compensation.rebuild_workset(
                    new_state, workset, lost_partitions, comp_ctx
                )
                new_workset = ctx.executor.repartition(
                    new_workset,
                    ctx.state_key,
                    context=f"{self.compensation.name}.workset",
                )
            span.set_attribute("records", compensated_records)
        ctx.cluster.events.record(
            EventKind.COMPENSATION,
            time=ctx.executor.clock.now,
            superstep=superstep,
            compensation=self.compensation.name,
            lost_partitions=sorted(lost_partitions),
            records=compensated_records,
        )
        return RecoveryOutcome(
            state=new_state, workset=new_workset, compensated=True
        )
