"""Restart-based recovery: no fault tolerance.

:class:`RestartRecovery` models a system without any fault-tolerance
mechanism for iterative state: after a failure the only option is to
re-read the inputs from stable storage and run the whole iteration again.
Its failure-free performance is optimal (it pays nothing), which makes it
the baseline optimistic recovery must match. It also stands in for
Spark-style lineage recovery, which §2.2 argues degenerates to a restart
whenever a superstep contains a reducer (see DESIGN.md).
"""

from __future__ import annotations

from ..observability.span import SpanKind
from ..runtime.events import EventKind
from ..runtime.executor import PartitionedDataset
from .recovery import RecoveryContext, RecoveryOutcome, RecoveryStrategy


class RestartRecovery(RecoveryStrategy):
    """Re-run the iteration from its initial inputs after any failure."""

    name = "restart"

    def recover(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None,
        lost_partitions: list[int],
    ) -> RecoveryOutcome:
        with ctx.tracer.span(
            "restart", kind=SpanKind.RESTART, superstep=superstep, strategy=self.name
        ):
            restored_state = PartitionedDataset(
                partitions=[
                    ctx.storage.read(ctx.initial_state_key(pid))
                    for pid in range(ctx.parallelism)
                ],
                partitioned_by=ctx.state_key,
            )
            restored_workset: PartitionedDataset | None = None
            if workset is not None:
                restored_workset = PartitionedDataset(
                    partitions=[
                        ctx.storage.read(ctx.initial_workset_key(pid))
                        for pid in range(ctx.parallelism)
                    ],
                    partitioned_by=ctx.state_key,
                )
        ctx.cluster.events.record(
            EventKind.RESTART,
            time=ctx.executor.clock.now,
            superstep=superstep,
            strategy=self.name,
            lost_partitions=sorted(lost_partitions),
        )
        return RecoveryOutcome(
            state=restored_state, workset=restored_workset, restarted=True
        )
