"""Confined recovery — replay only the lost partitions.

Both existing failure paths touch *every* partition: optimistic recovery
compensates all of them and checkpoint recovery rewinds all of them.
Following the survivor-replay designs of lightweight graph-processing
fault tolerance (Yan et al.) and the logical-time rollback reasoning of
Falkirk Wheel, this strategy confines recovery to the failed partitions:

* During normal execution every shuffle / broadcast / union delivery is
  *counted* into a bounded per-partition :class:`MessageLog` (the
  simulator logs volumes, not payloads — the replay cost model only needs
  how many records each partition received). Appends are charged at
  ``log_per_record``, far below the network cost of the records
  themselves, so the failure-free overhead stays a small, reported tax.
* Every ``snapshot_interval`` commits the strategy writes a *local*
  per-partition snapshot of state (and workset) to stable storage and
  drops the retained log epochs — the log is bounded by the interval.
* On failure, survivors keep their state untouched. Only the lost
  partitions are rebuilt: their last snapshot is re-read (restore I/O for
  the confined subset only) and the logged messages addressed to them
  since that snapshot are replayed forward, charged at
  ``replay_per_record`` — recovery cost scales with the number of *lost*
  partitions, not with the cluster size.

Replay in the simulator is deterministic, so the replayed contents equal
the exact pre-failure partition state; the driver hands those contents to
``recover`` on the context (``RecoveryContext.destroyed_state`` /
``destroyed_workset``) and this strategy reinstalls them — the stand-in
for the value a real deterministic replay would recompute, with the cost
charged as replay.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from ..dataflow.datatypes import KeySpec
from ..errors import IterationError, ReplayError
from ..observability.span import SpanKind
from ..runtime.events import EventKind
from ..runtime.executor import PartitionedDataset
from .recovery import RecoveryContext, RecoveryOutcome, RecoveryStrategy


class MessageLog:
    """Bounded per-partition outgoing-delivery log (record *counts*).

    One instance is attached to the run's :class:`PlanExecutor` as
    ``executor.message_log``; the shuffle, broadcast and union paths call
    :meth:`deliver` with the per-destination-partition record counts of
    each delivery. Counts accumulate into the *current epoch*; the owning
    strategy rotates the epoch at every superstep boundary and drops the
    retained epochs after each snapshot, so retained volume is bounded by
    ``snapshot_interval`` supersteps of traffic.
    """

    def __init__(self, parallelism: int):
        if parallelism < 1:
            raise IterationError(f"parallelism must be >= 1, got {parallelism}")
        self.parallelism = parallelism
        self._current = [0] * parallelism
        self._epochs: deque[list[int]] = deque()
        #: total records ever appended over network channels (charged).
        self.logged_records = 0
        #: total records ever appended over partition-local channels.
        self.local_records = 0

    def deliver(self, sizes: Sequence[int], *, local: bool = False) -> None:
        """Count one delivery: ``sizes[pid]`` records went to partition
        ``pid``. ``local`` deliveries (union merges) cross no network but
        still must be regenerated during a replay."""
        current = self._current
        total = 0
        for pid, count in enumerate(sizes):
            current[pid] += count
            total += count
        if local:
            self.local_records += total
        else:
            self.logged_records += total

    def rotate(self) -> None:
        """Close the current epoch (one superstep's deliveries)."""
        self._epochs.append(self._current)
        self._current = [0] * self.parallelism

    def drop_retained(self) -> None:
        """Forget all closed epochs (called after a snapshot)."""
        self._epochs.clear()

    def replayable_records(self, partition_ids: Sequence[int]) -> int:
        """Logged records addressed to ``partition_ids`` since the last
        snapshot (retained epochs plus the still-open current one)."""
        total = 0
        for pid in partition_ids:
            total += self._current[pid]
            for epoch in self._epochs:
                total += epoch[pid]
        return total

    def retained_records(self) -> int:
        """Records currently held in the log across all partitions."""
        return sum(self._current) + sum(sum(epoch) for epoch in self._epochs)

    @property
    def epochs_retained(self) -> int:
        """Closed epochs currently retained (excludes the open one)."""
        return len(self._epochs)

    def __repr__(self) -> str:
        return (
            f"MessageLog(n={self.parallelism}, epochs={self.epochs_retained}, "
            f"retained={self.retained_records()})"
        )


def _heal(
    dataset: PartitionedDataset, destroyed: dict[int, list], key: KeySpec
) -> PartitionedDataset:
    """``dataset`` with its lost partitions refilled from ``destroyed``;
    survivors are the very same lists — untouched, not rebuilt."""
    return PartitionedDataset(
        partitions=[
            destroyed.get(pid) if part is None else part
            for pid, part in enumerate(dataset.partitions)
        ],
        partitioned_by=key,
    )


class ConfinedRecovery(RecoveryStrategy):
    """Rebuild only the lost partitions from local snapshots + log replay.

    Policy: persist the full pair (and truncate the message log) every
    ``snapshot_interval`` supersteps; roll back the lost partitions only.

    Args:
        snapshot_interval: write the per-partition local snapshot (and
            truncate the message log) every this many committed
            supersteps. Small intervals bound the log tightly but pay
            more snapshot I/O; large intervals reverse the trade.
    """

    name = "confined"

    def __init__(self, snapshot_interval: int = 4):
        if snapshot_interval < 1:
            raise IterationError(
                f"snapshot interval must be >= 1, got {snapshot_interval}"
            )
        self.snapshot_interval = snapshot_interval
        self._log: MessageLog | None = None
        self._snapshot_superstep: int | None = None
        self.snapshots_written = 0

    def _prefix(self, ctx: RecoveryContext) -> str:
        return f"confined/{ctx.job_name}/"

    # -- strategy hooks ----------------------------------------------------------

    def on_start(self, ctx: RecoveryContext) -> None:
        self._log = MessageLog(ctx.parallelism)
        ctx.executor.message_log = self._log

    def detach(self, ctx: RecoveryContext) -> None:
        """Stop logging on this executor (adaptive mid-run switches)."""
        if getattr(ctx.executor, "message_log", None) is self._log:
            ctx.executor.message_log = None

    def on_superstep_committed(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None = None,
    ) -> None:
        log = self._require_log()
        log.rotate()
        if (superstep + 1) % self.snapshot_interval == 0:
            ctx.checkpoint(
                "confined-snapshot", superstep, self._prefix(ctx), state, workset,
                strategy=self.name,
            )
            self._snapshot_superstep = superstep
            self.snapshots_written += 1
            log.drop_retained()
        ctx.executor.metrics.set_gauge(
            "message_log.retained", log.retained_records()
        )

    def recover(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None,
        lost_partitions: list[int],
    ) -> RecoveryOutcome:
        log = self._require_log()
        captured = ctx.destroyed_state
        if captured is None or any(pid not in captured for pid in lost_partitions):
            raise ReplayError(
                f"confined recovery at superstep {superstep} was not handed the "
                f"destroyed contents of partitions {sorted(lost_partitions)}"
            )
        lost = sorted(lost_partitions)
        with ctx.tracer.span(
            "confined-replay",
            kind=SpanKind.REPLAY,
            superstep=superstep,
            lost_partitions=lost,
            snapshot_superstep=self._snapshot_superstep,
        ) as span:
            # Restore the lost partitions' last local snapshot (or the
            # pinned initial inputs before the first snapshot) — restore
            # I/O for the confined subset only. The contents themselves
            # are superseded by the replay below.
            frontier = (
                self._prefix(ctx)
                if self._snapshot_superstep is not None
                else ctx.input_prefix
            )
            restored = sum(
                dataset.num_records()
                for pid in lost  # pid by pid: state, then workset
                for dataset in ctx.restore(
                    frontier, workset=workset is not None, partitions=[pid]
                )
                if dataset is not None
            )
            # Replay survivors' logged deliveries addressed to the lost
            # partitions, forward from the snapshot to the current
            # superstep.
            replayed = log.replayable_records(lost)
            ctx.executor.clock.charge_replay(replayed)
            healed_state = _heal(state, captured, ctx.state_key)
            healed_workset = None
            if workset is not None:
                healed_workset = _heal(
                    workset, ctx.destroyed_workset or {}, ctx.state_key
                )
            span.set_attribute("restored_records", restored)
            span.set_attribute("replayed_records", replayed)
        ctx.executor.metrics.increment("confined.replayed_records", replayed)
        ctx.executor.metrics.increment("confined.healed_partitions", len(lost))
        ctx.cluster.events.record(
            EventKind.CONFINED_REPLAY,
            time=ctx.executor.clock.now,
            superstep=superstep,
            lost_partitions=lost,
            replayed_records=replayed,
            restored_records=restored,
            snapshot_superstep=self._snapshot_superstep,
        )
        # The failed superstep never committed, so rotate its epoch here;
        # the log keeps everything since the last snapshot in case a
        # second failure strikes before the next one.
        log.rotate()
        return RecoveryOutcome(
            state=healed_state,
            workset=healed_workset,
            healed_partitions=lost,
        )

    def reset(self) -> None:
        self._log = None
        self._snapshot_superstep = None
        self.snapshots_written = 0

    def _require_log(self) -> MessageLog:
        if self._log is None:
            raise ReplayError(
                "confined recovery used before on_start attached its message log"
            )
        return self._log
