"""Spare-pool accounting and reassign/recover ordering regressions.

Two audits ride along with confined recovery:

* every strategy must observe an identical *healed* cluster assignment
  inside ``recover`` — the drivers call ``reassign_lost`` first, so a
  strategy never sees orphaned partitions;
* ``Cluster.fail_workers`` must keep spare-pool accounting consistent
  when injected events hit spares, including spares already promoted by
  an earlier recovery in the same run.
"""

import pytest

from repro.algorithms.connected_components import connected_components
from repro.config import EngineConfig
from repro.core.checkpointing import CheckpointRecovery
from repro.core.confined import ConfinedRecovery
from repro.core.recovery import RecoveryStrategy
from repro.core.restart import RestartRecovery
from repro.errors import RecoveryError
from repro.graph.generators import demo_graph
from repro.runtime.clock import CostCategory
from repro.runtime.cluster import SimulatedCluster, WorkerState
from repro.runtime.failures import FailureSchedule


def make_cluster(parallelism=4, spares=4) -> SimulatedCluster:
    return SimulatedCluster(
        EngineConfig(parallelism=parallelism, spare_workers=spares)
    )


class TestSparePoolAccounting:
    def test_failing_unpromoted_spare_shrinks_pool_without_losses(self):
        cluster = make_cluster()
        lost = cluster.fail_workers([5])  # worker 5 is a spare
        assert lost == []
        assert len(cluster.spare_pool()) == 3
        assert cluster.clock.spent(CostCategory.RECOVERY) == 0.0

    def test_failing_promoted_spare_orphans_its_partitions(self):
        cluster = make_cluster()
        cluster.fail_workers([0])
        moves = cluster.reassign_lost()
        replacement = moves[0]
        assert cluster.worker(replacement).state is WorkerState.ACTIVE
        # the promoted spare dies too: its partition is orphaned again
        lost = cluster.fail_workers([replacement])
        assert lost == [0]
        assert cluster.orphaned_partitions() == [0]

    def test_no_double_promotion_after_spare_death(self):
        cluster = make_cluster()
        cluster.fail_workers([0])
        first_moves = cluster.reassign_lost()
        cluster.fail_workers([first_moves[0]])
        second_moves = cluster.reassign_lost()
        # a fresh spare is promoted, never the dead one
        assert second_moves[0] != first_moves[0]
        assert cluster.worker(first_moves[0]).state is WorkerState.FAILED
        # pool shrank by exactly the two promotions
        assert len(cluster.spare_pool()) == 2
        active_ids = {w.worker_id for w in cluster.active_workers()}
        assert second_moves[0] in active_ids

    def test_acquisition_charged_once_per_promotion(self):
        cluster = make_cluster()
        cluster.fail_workers([0])
        cluster.reassign_lost()
        one = cluster.clock.spent(CostCategory.RECOVERY)
        cluster.fail_workers([1])
        cluster.reassign_lost()
        assert cluster.clock.spent(CostCategory.RECOVERY) == pytest.approx(2 * one)

    def test_mixed_event_active_plus_spare(self):
        cluster = make_cluster()
        lost = cluster.fail_workers([2, 6])  # one active, one spare
        assert lost == [2]
        assert len(cluster.spare_pool()) == 3
        moves = cluster.reassign_lost()
        assert set(moves) == {2}
        assert len(cluster.spare_pool()) == 2

    def test_double_failure_of_same_worker_is_ignored(self):
        cluster = make_cluster()
        assert cluster.fail_workers([0]) == [0]
        assert cluster.fail_workers([0]) == []
        from repro.runtime.events import EventKind

        assert len(cluster.events.of_kind(EventKind.FAILURE)) == 1

    def test_pool_exactly_exhausted_then_one_more_raises(self):
        cluster = make_cluster(parallelism=4, spares=1)
        cluster.fail_workers([0])
        cluster.reassign_lost()
        assert cluster.spare_pool() == []
        cluster.fail_workers([1])
        with pytest.raises(RecoveryError):
            cluster.reassign_lost()


class _AssertsHealedAssignment(RecoveryStrategy):
    """Wraps a strategy and asserts recover() sees no orphans."""

    def __init__(self, inner: RecoveryStrategy):
        self.inner = inner
        self.name = inner.name
        self.observed_orphans: list[list[int]] = []

    def on_start(self, ctx):
        self.inner.on_start(ctx)

    def on_superstep_committed(self, ctx, superstep, state, workset=None):
        self.inner.on_superstep_committed(ctx, superstep, state, workset)

    def recover(self, ctx, superstep, state, workset, lost_partitions):
        self.observed_orphans.append(ctx.cluster.orphaned_partitions())
        return self.inner.recover(ctx, superstep, state, workset, lost_partitions)

    def reset(self):
        self.inner.reset()


def _strategies(job):
    return [
        RestartRecovery(),
        CheckpointRecovery(interval=1),
        job.optimistic(),
        ConfinedRecovery(),
    ]


class TestReassignRecoverOrdering:
    def test_every_strategy_observes_a_healed_assignment(self):
        for build in range(4):
            job = connected_components(demo_graph())
            audited = _AssertsHealedAssignment(_strategies(job)[build])
            result = job.run(
                config=EngineConfig(parallelism=4, spare_workers=4),
                recovery=audited,
                failures=FailureSchedule.single(1, [0]),
            )
            assert result.converged
            assert audited.observed_orphans == [[]], (
                f"{audited.name} saw orphaned partitions during recover"
            )

    def test_spare_pool_exactly_needed_size_recovers(self):
        # Regression: one worker dies, and the pool holds exactly the one
        # spare the reassignment needs — every strategy must finish.
        for build in range(4):
            job = connected_components(demo_graph())
            strategy = _strategies(job)[build]
            result = job.run(
                config=EngineConfig(parallelism=4, spare_workers=1),
                recovery=strategy,
                failures=FailureSchedule.single(1, [2]),
            )
            assert result.converged, f"{strategy.name} failed with an exact pool"
            assert result.cluster.spare_pool() == []

    def test_exhausted_pool_still_raises_recovery_error(self):
        job = connected_components(demo_graph())
        with pytest.raises(RecoveryError):
            job.run(
                config=EngineConfig(parallelism=4, spare_workers=0),
                recovery=RestartRecovery(),
                failures=FailureSchedule.single(1, [0]),
            )
