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

from ..runtime.executor import PartitionedDataset
from .recovery import RecoveryContext, RecoveryOutcome, RecoveryStrategy


class RestartRecovery(RecoveryStrategy):
    """Re-run the iteration from its initial inputs after any failure.

    Policy: persist nothing, never; roll everything back to the inputs.
    """

    name = "restart"

    def recover(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None,
        lost_partitions: list[int],
    ) -> RecoveryOutcome:
        return ctx.restart_from_inputs(
            superstep, workset=workset is not None,
            strategy=self.name, lost_partitions=sorted(lost_partitions),
        )
