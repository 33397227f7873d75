"""Tests for the Connected Components dataflow job — correctness under
every recovery strategy, plus the paper's demo statistics shapes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.connected_components import (
    ComponentsCompensation,
    connected_components,
)
from repro.algorithms.reference import exact_connected_components
from repro.config import EngineConfig
from repro.core.checkpointing import CheckpointRecovery
from repro.core.restart import RestartRecovery
from repro.graph.generators import (
    chain_graph,
    demo_graph,
    erdos_renyi_graph,
    grid_graph,
    multi_component_graph,
    star_graph,
)
from repro.runtime.events import EventKind
from repro.runtime.failures import FailureSchedule

CONFIG = EngineConfig(parallelism=4, spare_workers=16)


def _assert_correct(graph, result):
    assert result.converged
    assert result.final_dict == exact_connected_components(graph)


class TestFailureFree:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            demo_graph,
            lambda: chain_graph(12),
            lambda: star_graph(9),
            lambda: grid_graph(4, 5),
            lambda: multi_component_graph(3, 15, seed=2),
            lambda: erdos_renyi_graph(40, 0.04, seed=8),
        ],
    )
    def test_correct_on_varied_graphs(self, graph_factory):
        graph = graph_factory()
        _assert_correct(graph, connected_components(graph).run(config=CONFIG))

    def test_supersteps_bounded_by_diameter(self):
        # a chain of length n needs ~n supersteps (plus the empty check)
        graph = chain_graph(10)
        result = connected_components(graph).run(config=CONFIG)
        assert result.supersteps <= 12

    def test_workset_empties(self):
        result = connected_components(demo_graph()).run(config=CONFIG)
        assert result.stats.last.workset_size == 0

    def test_messages_are_counted(self):
        graph = demo_graph()
        result = connected_components(graph).run(config=CONFIG)
        # superstep 0: every vertex sends its label along every incident
        # edge direction = 2 * |E|
        assert result.stats.messages_series()[0] == 2 * graph.num_edges

    def test_no_recovery_events_without_failures(self):
        result = connected_components(demo_graph()).run(config=CONFIG)
        assert result.num_failures == 0
        assert not result.events.of_kind(EventKind.COMPENSATION)
        assert not result.events.of_kind(EventKind.ROLLBACK)

    def test_converged_series_ends_at_vertex_count(self):
        graph = demo_graph()
        result = connected_components(graph).run(config=CONFIG)
        assert result.stats.converged_series()[-1] == graph.num_vertices


class TestWithFailures:
    @pytest.mark.parametrize("failed_workers", [[0], [1], [2], [0, 1], [0, 1, 2, 3]])
    def test_optimistic_correct_for_any_failed_subset(self, failed_workers):
        graph = multi_component_graph(3, 15, seed=2)
        job = connected_components(graph)
        result = job.run(
            config=CONFIG,
            recovery=job.optimistic(),
            failures=FailureSchedule.single(2, failed_workers),
        )
        _assert_correct(graph, result)

    @pytest.mark.parametrize("superstep", [0, 1, 2, 3])
    def test_optimistic_correct_for_any_failure_time(self, superstep):
        graph = demo_graph()
        job = connected_components(graph)
        result = job.run(
            config=CONFIG,
            recovery=job.optimistic(),
            failures=FailureSchedule.single(superstep, [0]),
        )
        _assert_correct(graph, result)

    def test_optimistic_multiple_failures(self):
        graph = grid_graph(5, 6)
        job = connected_components(graph)
        result = job.run(
            config=CONFIG,
            recovery=job.optimistic(),
            failures=FailureSchedule.at((1, [0]), (4, [2]), (6, [1])),
        )
        _assert_correct(graph, result)

    def test_checkpoint_recovery_correct(self):
        graph = demo_graph()
        result = connected_components(graph).run(
            config=CONFIG,
            recovery=CheckpointRecovery(interval=1),
            failures=FailureSchedule.single(2, [0]),
        )
        _assert_correct(graph, result)
        assert result.events.of_kind(EventKind.ROLLBACK)

    def test_restart_recovery_correct(self):
        graph = demo_graph()
        result = connected_components(graph).run(
            config=CONFIG,
            recovery=RestartRecovery(),
            failures=FailureSchedule.single(2, [0]),
        )
        _assert_correct(graph, result)

    def test_compensation_resets_only_lost_partitions(self):
        graph = demo_graph()
        job = connected_components(graph)
        result = job.run(
            config=CONFIG,
            recovery=job.optimistic(),
            failures=FailureSchedule.single(1, [0]),
            snapshots=__import__("repro.iteration.snapshots", fromlist=["SnapshotStore"]).SnapshotStore(),
        )
        from repro.iteration.snapshots import SnapshotPhase

        compensated = result.snapshots.of_phase(SnapshotPhase.AFTER_COMPENSATION)[0]
        before = result.snapshots.of_phase(SnapshotPhase.BEFORE_FAILURE)[0]
        state = compensated.as_dict()
        pre = before.as_dict()
        for vertex, label in state.items():
            if vertex % 4 == 0:  # partition 0: reset to initial label
                assert label == vertex
            else:  # survivors untouched
                assert label == pre[vertex]

    def test_post_failure_message_spike(self):
        """The paper's §3.2: recovery iterations process more messages
        than the failure-free trend."""
        graph = multi_component_graph(3, 15, seed=2)
        job = connected_components(graph)
        baseline = job.run(config=CONFIG)
        failing = connected_components(graph)
        result = failing.run(
            config=CONFIG,
            recovery=failing.optimistic(),
            failures=FailureSchedule.single(2, [0]),
        )
        b_messages = baseline.stats.messages_series()
        f_messages = result.stats.messages_series()
        assert f_messages[3] > b_messages[3]

    def test_convergence_plummet_vs_failure_free(self):
        """Converged-vertex counts drop relative to the failure-free run
        at the failure superstep (Figure 2's plummet)."""
        graph = multi_component_graph(3, 15, seed=2)
        job = connected_components(graph)
        baseline = job.run(config=CONFIG)
        failing = connected_components(graph)
        result = failing.run(
            config=CONFIG,
            recovery=failing.optimistic(),
            failures=FailureSchedule.single(2, [0]),
        )
        assert result.stats.converged_series()[2] < baseline.stats.converged_series()[2]

    def test_extra_supersteps_after_failure(self):
        graph = multi_component_graph(3, 15, seed=2)
        job = connected_components(graph)
        baseline = job.run(config=CONFIG)
        failing = connected_components(graph)
        result = failing.run(
            config=CONFIG,
            recovery=failing.optimistic(),
            failures=FailureSchedule.single(2, [0]),
        )
        assert result.supersteps >= baseline.supersteps


class TestCompensationUnit:
    def test_rebuild_workset_activates_reset_and_neighbors(self):
        from repro.core.compensation import CompensationContext
        from repro.runtime.executor import PartitionedDataset
        from repro.algorithms.connected_components import VERTEX_KEY

        graph = demo_graph()
        parallelism = 4
        initial = PartitionedDataset.from_records(
            [(v, v) for v in graph.vertices], parallelism, key=VERTEX_KEY
        )
        statics = {
            "graph": PartitionedDataset.from_records(
                graph.symmetric_edge_records(), parallelism, key=VERTEX_KEY
            )
        }
        ctx = CompensationContext(
            parallelism=parallelism,
            state_key=VERTEX_KEY,
            statics=statics,
            initial_state=initial,
        )
        solution = initial.copy()
        damaged_workset = PartitionedDataset.empty(parallelism, key=VERTEX_KEY)
        damaged_workset.lose([0])
        workset = ComponentsCompensation().rebuild_workset(
            solution, damaged_workset, [0], ctx
        )
        active = {record[0] for record in workset.all_records()}
        reset = {v for v in graph.vertices if v % 4 == 0}
        neighbors = {n for v in reset for n in graph.neighbors(v)}
        assert active == reset | neighbors

    def test_rebuild_workset_keeps_surviving_pending_updates(self):
        from repro.core.compensation import CompensationContext
        from repro.runtime.executor import PartitionedDataset
        from repro.algorithms.connected_components import VERTEX_KEY

        graph = demo_graph()
        parallelism = 4
        initial = PartitionedDataset.from_records(
            [(v, v) for v in graph.vertices], parallelism, key=VERTEX_KEY
        )
        ctx = CompensationContext(
            parallelism=parallelism,
            state_key=VERTEX_KEY,
            statics={
                "graph": PartitionedDataset.from_records(
                    graph.symmetric_edge_records(), parallelism, key=VERTEX_KEY
                )
            },
            initial_state=initial,
        )
        # vertex 14 (partition 2) has a pending update that survived the
        # failure of partition 0; it must stay in the rebuilt workset.
        damaged_workset = PartitionedDataset.from_records(
            [(14, 13)], parallelism, key=VERTEX_KEY
        )
        damaged_workset.lose([0])
        workset = ComponentsCompensation().rebuild_workset(
            initial.copy(), damaged_workset, [0], ctx
        )
        assert 14 in {record[0] for record in workset.all_records()}


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    failure_seed=st.integers(min_value=0, max_value=10_000),
    num_failures=st.integers(min_value=1, max_value=3),
)
def test_property_correct_under_random_failures(seed, failure_seed, num_failures):
    """The headline guarantee of [Schelter et al. 2013]: for *any* failure
    schedule, optimistic recovery converges to the exact same result."""
    graph = erdos_renyi_graph(30, 0.06, seed=seed)
    job = connected_components(graph)
    schedule = FailureSchedule.random(
        num_workers=4, max_superstep=5, num_failures=num_failures, seed=failure_seed
    )
    result = job.run(config=CONFIG, recovery=job.optimistic(), failures=schedule)
    assert result.converged
    assert result.final_dict == exact_connected_components(graph)
