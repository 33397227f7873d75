"""Rollback recovery — the pessimistic baseline.

"The usual approach to fault tolerance is to periodically checkpoint the
algorithm state to stable storage. Upon failure, the system restores the
state from a checkpoint and continues the algorithm's execution." (§1)

This strategy writes every state partition (and the workset, for delta
iterations) to simulated stable storage every ``interval`` supersteps,
paying ``checkpoint_per_record`` of simulated time per record — the
failure-free overhead the paper's optimistic approach eliminates. On
failure it performs a synchronous global rollback: *all* partitions are
restored from the most recent checkpoint (surviving progress since the
checkpoint is discarded, exactly as in coordinated checkpointing), and the
iteration re-executes from there. When a failure strikes before the first
checkpoint was written, rollback degenerates to a restart from the pinned
initial inputs.
"""

from __future__ import annotations

from ..errors import IterationError
from ..runtime.executor import PartitionedDataset
from .recovery import RecoveryContext, RecoveryOutcome, RecoveryStrategy


class CheckpointRecovery(RecoveryStrategy):
    """Coordinated checkpointing with global rollback.

    Policy: persist the full pair every ``interval`` supersteps; roll
    everything back to the last checkpoint, else restart.

    Args:
        interval: write a checkpoint every ``interval`` supersteps
            (``interval=1`` checkpoints after every superstep — maximum
            safety, maximum overhead).
        keep_history: keep all checkpoints instead of only the latest;
            useful for inspecting storage costs in experiments.
    """

    name = "checkpoint"

    def __init__(self, interval: int = 1, keep_history: bool = False):
        if interval < 1:
            raise IterationError(f"checkpoint interval must be >= 1, got {interval}")
        self.interval = interval
        self.keep_history = keep_history
        self._last_checkpoint: int | None = None
        self.checkpoints_written = 0

    def _prefix(self, ctx: RecoveryContext, superstep: int) -> str:
        return f"checkpoint/{ctx.job_name}/{superstep}/"

    def on_superstep_committed(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None = None,
    ) -> None:
        if (superstep + 1) % self.interval != 0:
            return
        ctx.checkpoint(
            "checkpoint-write", superstep, self._prefix(ctx, superstep), state, workset
        )
        if not self.keep_history and self._last_checkpoint is not None:
            ctx.storage.delete_prefix(self._prefix(ctx, self._last_checkpoint))
        self._last_checkpoint = superstep
        self.checkpoints_written += 1

    def recover(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None,
        lost_partitions: list[int],
    ) -> RecoveryOutcome:
        checkpoint = self._last_checkpoint
        if checkpoint is None:
            return ctx.restart_from_inputs(
                superstep, workset=workset is not None, reason="no checkpoint available"
            )
        return ctx.rollback(
            "rollback", superstep, self._prefix(ctx, checkpoint),
            restored_from=checkpoint, workset=workset is not None,
        )

    def reset(self) -> None:
        self._last_checkpoint = None
        self.checkpoints_written = 0
