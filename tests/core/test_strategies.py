"""Tests for the recovery strategies against a hand-built context."""

from typing import Any

import pytest

from repro.core.checkpointing import CheckpointRecovery
from repro.core.compensation import CompensationContext, CompensationFunction
from repro.core.guarantees import KeySetPreserved, MassConservation
from repro.core.optimistic import OptimisticRecovery
from repro.core.restart import RestartRecovery
from repro.errors import CompensationError, IterationError
from repro.runtime.clock import CostCategory
from repro.runtime.events import EventKind
from repro.runtime.executor import PartitionedDataset

from .conftest import KEY, PARALLELISM, damaged_state


class ResetCompensation(CompensationFunction):
    name = "reset"

    def compensate_partition(self, partition_id, records, aggregate, ctx):
        if records is not None:
            return records
        return ctx.initial_partition(partition_id)


class BrokenCompensation(CompensationFunction):
    """Deliberately returns an empty partition — violates key-set."""

    name = "broken"

    def compensate_partition(self, partition_id, records, aggregate, ctx):
        return records if records is not None else []


class NoneCompensation(CompensationFunction):
    name = "returns-none"

    def compensate_partition(self, partition_id, records, aggregate, ctx):
        return None


class TestRestartRecovery:
    def test_restores_initial_state(self, recovery_ctx, initial_records):
        state = damaged_state(recovery_ctx, [1])
        outcome = RestartRecovery().recover(recovery_ctx, 3, state, None, [1])
        assert outcome.restarted
        assert sorted(outcome.state.all_records()) == sorted(initial_records)

    def test_restores_initial_workset_for_delta(self, recovery_ctx, initial_records):
        state = damaged_state(recovery_ctx, [1])
        workset = damaged_state(recovery_ctx, [1])
        outcome = RestartRecovery().recover(recovery_ctx, 3, state, workset, [1])
        assert outcome.workset is not None
        assert sorted(outcome.workset.all_records()) == sorted(initial_records)

    def test_charges_restore_io(self, recovery_ctx):
        state = damaged_state(recovery_ctx, [1])
        before = recovery_ctx.executor.clock.spent(CostCategory.RESTORE_IO)
        RestartRecovery().recover(recovery_ctx, 3, state, None, [1])
        assert recovery_ctx.executor.clock.spent(CostCategory.RESTORE_IO) > before

    def test_emits_restart_event(self, recovery_ctx):
        state = damaged_state(recovery_ctx, [2])
        RestartRecovery().recover(recovery_ctx, 5, state, None, [2])
        events = recovery_ctx.cluster.events.of_kind(EventKind.RESTART)
        assert len(events) == 1
        assert events[0].superstep == 5


class TestCheckpointRecovery:
    def test_interval_validation(self):
        with pytest.raises(IterationError):
            CheckpointRecovery(interval=0)

    def test_checkpoints_written_on_interval(self, recovery_ctx):
        strategy = CheckpointRecovery(interval=2)
        live = damaged_state(recovery_ctx, [])
        for superstep in range(4):
            strategy.on_superstep_committed(recovery_ctx, superstep, live)
        # supersteps 1 and 3 hit the interval
        assert strategy.checkpoints_written == 2

    def test_checkpoint_charges_io(self, recovery_ctx):
        strategy = CheckpointRecovery(interval=1)
        live = damaged_state(recovery_ctx, [])
        strategy.on_superstep_committed(recovery_ctx, 0, live)
        assert recovery_ctx.executor.clock.spent(CostCategory.CHECKPOINT_IO) > 0

    def test_old_checkpoints_garbage_collected(self, recovery_ctx):
        strategy = CheckpointRecovery(interval=1)
        live = damaged_state(recovery_ctx, [])
        strategy.on_superstep_committed(recovery_ctx, 0, live)
        strategy.on_superstep_committed(recovery_ctx, 1, live)
        keys = recovery_ctx.storage.keys_with_prefix("checkpoint/")
        assert all("/1/" in key for key in keys)

    def test_keep_history_retains_everything(self, recovery_ctx):
        strategy = CheckpointRecovery(interval=1, keep_history=True)
        live = damaged_state(recovery_ctx, [])
        strategy.on_superstep_committed(recovery_ctx, 0, live)
        strategy.on_superstep_committed(recovery_ctx, 1, live)
        keys = recovery_ctx.storage.keys_with_prefix("checkpoint/")
        assert any("/0/" in key for key in keys)
        assert any("/1/" in key for key in keys)

    def test_recover_restores_latest_checkpoint(self, recovery_ctx):
        strategy = CheckpointRecovery(interval=1)
        live = damaged_state(recovery_ctx, [])
        strategy.on_superstep_committed(recovery_ctx, 0, live)
        state = damaged_state(recovery_ctx, [1])
        outcome = strategy.recover(recovery_ctx, 2, state, None, [1])
        assert outcome.rolled_back_to == 0
        assert not outcome.restarted
        assert sorted(outcome.state.all_records()) == sorted(live.all_records())

    def test_rollback_is_global_not_partial(self, recovery_ctx):
        """All partitions revert to the checkpoint, including survivors."""
        strategy = CheckpointRecovery(interval=1)
        checkpointed = damaged_state(recovery_ctx, [])
        strategy.on_superstep_committed(recovery_ctx, 0, checkpointed)
        progressed = PartitionedDataset(
            partitions=[
                [(k, v * 10) for k, v in part]
                for part in checkpointed.partitions
            ],
            partitioned_by=KEY,
        )
        progressed.lose([0])
        outcome = strategy.recover(recovery_ctx, 3, progressed, None, [0])
        # surviving partitions' newer values are discarded
        assert sorted(outcome.state.all_records()) == sorted(checkpointed.all_records())

    def test_recover_without_checkpoint_restarts(self, recovery_ctx, initial_records):
        strategy = CheckpointRecovery(interval=5)
        state = damaged_state(recovery_ctx, [1])
        outcome = strategy.recover(recovery_ctx, 1, state, None, [1])
        assert outcome.restarted
        assert sorted(outcome.state.all_records()) == sorted(initial_records)

    def test_recover_charges_restore(self, recovery_ctx):
        strategy = CheckpointRecovery(interval=1)
        strategy.on_superstep_committed(recovery_ctx, 0, damaged_state(recovery_ctx, []))
        before = recovery_ctx.executor.clock.spent(CostCategory.RESTORE_IO)
        strategy.recover(recovery_ctx, 1, damaged_state(recovery_ctx, [0]), None, [0])
        assert recovery_ctx.executor.clock.spent(CostCategory.RESTORE_IO) > before

    def test_workset_checkpointed_and_restored(self, recovery_ctx):
        strategy = CheckpointRecovery(interval=1)
        live = damaged_state(recovery_ctx, [])
        workset = damaged_state(recovery_ctx, [])
        strategy.on_superstep_committed(recovery_ctx, 0, live, workset)
        damaged = damaged_state(recovery_ctx, [2])
        outcome = strategy.recover(recovery_ctx, 1, damaged, damaged.copy(), [2])
        assert outcome.workset is not None
        assert sorted(outcome.workset.all_records()) == sorted(workset.all_records())

    def test_reset_forgets_checkpoints(self, recovery_ctx):
        strategy = CheckpointRecovery(interval=1)
        strategy.on_superstep_committed(recovery_ctx, 0, damaged_state(recovery_ctx, []))
        strategy.reset()
        outcome = strategy.recover(
            recovery_ctx, 1, damaged_state(recovery_ctx, [0]), None, [0]
        )
        assert outcome.restarted  # no checkpoint known anymore


class TestOptimisticRecovery:
    def test_failure_free_hooks_are_noops(self, recovery_ctx):
        strategy = OptimisticRecovery(ResetCompensation())
        before = recovery_ctx.executor.clock.now
        strategy.on_start(recovery_ctx)
        strategy.on_superstep_committed(
            recovery_ctx, 0, damaged_state(recovery_ctx, [])
        )
        assert recovery_ctx.executor.clock.now == before
        assert len(recovery_ctx.storage.keys_with_prefix("checkpoint/")) == 0

    def test_recover_compensates_lost_partitions(self, recovery_ctx):
        strategy = OptimisticRecovery(ResetCompensation())
        state = damaged_state(recovery_ctx, [1, 3])
        outcome = strategy.recover(recovery_ctx, 2, state, None, [1, 3])
        assert outcome.compensated
        result = outcome.state
        assert result.lost_partitions() == []
        # lost partitions reset to initial, survivors keep doubled values
        for record in result.partitions[1]:
            assert record[1] == float(record[0])
        for record in result.partitions[0]:
            assert record[1] == float(record[0]) * 2.0

    def test_recover_emits_compensation_event(self, recovery_ctx):
        strategy = OptimisticRecovery(ResetCompensation())
        strategy.recover(recovery_ctx, 4, damaged_state(recovery_ctx, [0]), None, [0])
        events = recovery_ctx.cluster.events.of_kind(EventKind.COMPENSATION)
        assert len(events) == 1
        assert events[0].details["compensation"] == "reset"
        assert events[0].details["lost_partitions"] == [0]

    def test_recover_charges_compensation_time(self, recovery_ctx):
        strategy = OptimisticRecovery(ResetCompensation())
        strategy.recover(recovery_ctx, 4, damaged_state(recovery_ctx, [0]), None, [0])
        assert recovery_ctx.executor.clock.spent(CostCategory.COMPENSATION) > 0

    def test_invariant_violation_raises(self, recovery_ctx):
        strategy = OptimisticRecovery(BrokenCompensation(), invariants=[KeySetPreserved()])
        with pytest.raises(CompensationError, match="key-set-preserved"):
            strategy.recover(recovery_ctx, 1, damaged_state(recovery_ctx, [0]), None, [0])

    def test_none_return_raises(self, recovery_ctx):
        strategy = OptimisticRecovery(NoneCompensation())
        with pytest.raises(CompensationError, match="returned None"):
            strategy.recover(recovery_ctx, 1, damaged_state(recovery_ctx, [0]), None, [0])

    def test_workset_rebuilt_for_delta(self, recovery_ctx):
        strategy = OptimisticRecovery(ResetCompensation())
        state = damaged_state(recovery_ctx, [2])
        workset = damaged_state(recovery_ctx, [2])
        outcome = strategy.recover(recovery_ctx, 1, state, workset, [2])
        assert outcome.workset is not None
        # default rebuild: full solution set becomes the workset
        assert sorted(r[0] for r in outcome.workset.all_records()) == list(range(12))
