"""Unit tests for confined recovery: the message log, the snapshot
cycle, replay cost confinement, and failure handling."""

import pytest

from repro.core.confined import ConfinedRecovery, MessageLog
from repro.errors import IterationError, RecoveryError, ReplayError
from repro.runtime.clock import CostCategory
from repro.runtime.events import EventKind

from .conftest import damaged_state, destroy


class TestMessageLog:
    def test_rejects_bad_parallelism(self):
        with pytest.raises(IterationError):
            MessageLog(0)

    def test_deliver_accumulates_per_partition(self):
        log = MessageLog(3)
        log.deliver([1, 2, 3])
        log.deliver([10, 0, 0])
        assert log.replayable_records([0]) == 11
        assert log.replayable_records([1, 2]) == 5
        assert log.logged_records == 16
        assert log.local_records == 0

    def test_local_deliveries_counted_separately(self):
        log = MessageLog(2)
        log.deliver([4, 4], local=True)
        assert log.local_records == 8
        assert log.logged_records == 0
        # local records still count toward replay volume
        assert log.replayable_records([0, 1]) == 8

    def test_rotation_keeps_epochs_replayable(self):
        log = MessageLog(2)
        log.deliver([5, 0])
        log.rotate()
        log.deliver([3, 0])
        assert log.epochs_retained == 1
        assert log.replayable_records([0]) == 8

    def test_drop_retained_forgets_closed_epochs_only(self):
        log = MessageLog(2)
        log.deliver([5, 0])
        log.rotate()
        log.deliver([3, 0])
        log.drop_retained()
        assert log.epochs_retained == 0
        assert log.replayable_records([0]) == 3
        assert log.retained_records() == 3


class TestConfinedRecovery:
    def test_interval_validation(self):
        with pytest.raises(IterationError):
            ConfinedRecovery(snapshot_interval=0)

    def test_on_start_attaches_log_to_executor(self, recovery_ctx):
        strategy = ConfinedRecovery()
        strategy.on_start(recovery_ctx)
        assert recovery_ctx.executor.message_log is not None
        strategy.detach(recovery_ctx)
        assert recovery_ctx.executor.message_log is None

    def test_snapshot_written_on_interval(self, recovery_ctx):
        strategy = ConfinedRecovery(snapshot_interval=2)
        strategy.on_start(recovery_ctx)
        live = damaged_state(recovery_ctx, [])
        for superstep in range(4):
            strategy.on_superstep_committed(recovery_ctx, superstep, live)
        assert strategy.snapshots_written == 2
        keys = recovery_ctx.storage.keys_with_prefix("confined/")
        assert len(keys) == 4  # one state key per partition
        events = recovery_ctx.cluster.events.of_kind(EventKind.CHECKPOINT_WRITTEN)
        assert all(e.details["strategy"] == "confined" for e in events)

    def test_snapshot_truncates_the_log(self, recovery_ctx):
        strategy = ConfinedRecovery(snapshot_interval=2)
        strategy.on_start(recovery_ctx)
        log = recovery_ctx.executor.message_log
        live = damaged_state(recovery_ctx, [])
        log.deliver([7, 0, 0, 0])
        strategy.on_superstep_committed(recovery_ctx, 0, live)
        assert log.epochs_retained == 1
        strategy.on_superstep_committed(recovery_ctx, 1, live)  # snapshot
        assert log.epochs_retained == 0
        assert log.retained_records() == 0

    def test_recover_without_capture_raises_replay_error(self, recovery_ctx):
        strategy = ConfinedRecovery()
        strategy.on_start(recovery_ctx)
        state = damaged_state(recovery_ctx, [1])
        with pytest.raises(ReplayError):
            strategy.recover(recovery_ctx, 2, state, None, [1])

    def test_recover_without_on_start_raises_replay_error(self, recovery_ctx):
        with pytest.raises(ReplayError):
            ConfinedRecovery().recover(
                recovery_ctx, 0, damaged_state(recovery_ctx, [0]), None, [0]
            )

    def test_replay_error_is_a_recovery_error(self):
        # The service supervisor classifies RecoveryError subclasses as
        # retryable infrastructure failures.
        assert issubclass(ReplayError, RecoveryError)

    def test_recover_heals_only_lost_partitions(self, recovery_ctx):
        strategy = ConfinedRecovery()
        strategy.on_start(recovery_ctx)
        live = damaged_state(recovery_ctx, [])
        pre_loss = [list(part) for part in live.partitions]
        destroy(recovery_ctx, live, None, [1])
        outcome = strategy.recover(recovery_ctx, 2, live, None, [1])
        assert outcome.healed_partitions == [1]
        assert not outcome.restarted and not outcome.compensated
        assert outcome.rolled_back_to is None
        assert outcome.state.partitions[1] == pre_loss[1]
        # survivors are the very same lists — untouched, not rebuilt
        for pid in (0, 2, 3):
            assert outcome.state.partitions[pid] is live.partitions[pid]

    def test_recover_charges_replay_for_lost_volume_only(self, recovery_ctx):
        strategy = ConfinedRecovery()
        strategy.on_start(recovery_ctx)
        log = recovery_ctx.executor.message_log
        log.deliver([100, 50, 0, 0])
        live = damaged_state(recovery_ctx, [])
        destroy(recovery_ctx, live, None, [1])
        strategy.recover(recovery_ctx, 1, live, None, [1])
        clock = recovery_ctx.executor.clock
        replay_cost = clock.spent(CostCategory.REPLAY)
        # 50 records were addressed to partition 1; the 100 to partition 0
        # are never replayed.
        assert replay_cost == pytest.approx(
            50 * clock.cost_model.replay_per_record
        )

    def test_recover_restores_from_initial_inputs_before_first_snapshot(
        self, recovery_ctx
    ):
        strategy = ConfinedRecovery(snapshot_interval=10)
        strategy.on_start(recovery_ctx)
        live = damaged_state(recovery_ctx, [])
        destroy(recovery_ctx, live, None, [0])
        before = recovery_ctx.executor.clock.spent(CostCategory.RESTORE_IO)
        strategy.recover(recovery_ctx, 0, live, None, [0])
        assert recovery_ctx.executor.clock.spent(CostCategory.RESTORE_IO) > before

    def test_recover_emits_confined_replay_event(self, recovery_ctx):
        strategy = ConfinedRecovery()
        strategy.on_start(recovery_ctx)
        live = damaged_state(recovery_ctx, [])
        destroy(recovery_ctx, live, None, [2])
        strategy.recover(recovery_ctx, 3, live, None, [2])
        events = recovery_ctx.cluster.events.of_kind(EventKind.CONFINED_REPLAY)
        assert len(events) == 1
        assert events[0].details["lost_partitions"] == [2]

    def test_second_failure_before_next_snapshot_still_replayable(
        self, recovery_ctx
    ):
        strategy = ConfinedRecovery(snapshot_interval=10)
        strategy.on_start(recovery_ctx)
        log = recovery_ctx.executor.message_log
        live = damaged_state(recovery_ctx, [])
        log.deliver([10, 10, 10, 10])
        lost_once = live.copy()
        destroy(recovery_ctx, lost_once, None, [0])
        strategy.recover(recovery_ctx, 1, lost_once, None, [0])
        # second failure, no commit in between: the log kept the epochs
        lost_twice = live.copy()
        destroy(recovery_ctx, lost_twice, None, [1])
        outcome = strategy.recover(recovery_ctx, 2, lost_twice, None, [1])
        assert outcome.healed_partitions == [1]
        events = recovery_ctx.cluster.events.of_kind(EventKind.CONFINED_REPLAY)
        assert events[1].details["replayed_records"] == 10

    def test_workset_captured_and_healed_for_delta(self, recovery_ctx):
        strategy = ConfinedRecovery()
        strategy.on_start(recovery_ctx)
        live = damaged_state(recovery_ctx, [])
        workset = damaged_state(recovery_ctx, [])
        expected = list(workset.partitions[1])
        destroy(recovery_ctx, live, workset, [1])
        outcome = strategy.recover(recovery_ctx, 2, live, workset, [1])
        assert outcome.workset is not None
        assert outcome.workset.partitions[1] == expected

    def test_reset_forgets_everything(self, recovery_ctx):
        strategy = ConfinedRecovery()
        strategy.on_start(recovery_ctx)
        strategy.on_superstep_committed(
            recovery_ctx, 3, damaged_state(recovery_ctx, [])
        )
        strategy.reset()
        assert strategy.snapshots_written == 0
        with pytest.raises(ReplayError):
            strategy.recover(
                recovery_ctx, 0, damaged_state(recovery_ctx, [0]), None, [0]
            )
