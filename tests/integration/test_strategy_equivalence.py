"""Property: all recovery strategies compute the same answer, and all
runs are bit-for-bit deterministic.

The first is the correctness core of the paper (the recovery mechanism
must never change the result); the second is the engine property every
experiment in this reproduction relies on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import connected_components, pagerank, sssp
from repro.algorithms.reference import (
    exact_connected_components,
    exact_pagerank,
    exact_sssp,
)
from repro.config import EngineConfig
from repro.core import (
    CheckpointRecovery,
    IncrementalCheckpointRecovery,
    RestartRecovery,
)
from repro.graph.generators import erdos_renyi_graph, twitter_like_graph
from repro.runtime.failures import FailureSchedule

CONFIG = EngineConfig(parallelism=4, spare_workers=24)


def _delta_strategies(job):
    return [
        job.optimistic(),
        CheckpointRecovery(interval=2),
        IncrementalCheckpointRecovery(),
        RestartRecovery(),
    ]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    failure_superstep=st.integers(min_value=0, max_value=3),
    worker=st.integers(min_value=0, max_value=3),
)
def test_property_cc_all_strategies_agree(seed, failure_superstep, worker):
    graph = erdos_renyi_graph(25, 0.08, seed=seed)
    truth = exact_connected_components(graph)
    schedule = FailureSchedule.single(failure_superstep, [worker])
    for strategy in _delta_strategies(connected_components(graph)):
        result = connected_components(graph).run(
            config=CONFIG, recovery=strategy, failures=schedule
        )
        assert result.converged, strategy.name
        assert result.final_dict == truth, strategy.name


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    failure_superstep=st.integers(min_value=0, max_value=10),
)
def test_property_pagerank_all_strategies_agree(seed, failure_superstep):
    graph = twitter_like_graph(50, seed=seed)
    truth = exact_pagerank(graph)
    schedule = FailureSchedule.single(failure_superstep, [1])
    strategies = [
        pagerank(graph).optimistic(),
        CheckpointRecovery(interval=3),
        RestartRecovery(),
    ]
    for strategy in strategies:
        result = pagerank(graph, max_supersteps=600).run(
            config=CONFIG, recovery=strategy, failures=schedule
        )
        assert result.converged, strategy.name
        for vertex, rank in result.final_dict.items():
            assert rank == pytest.approx(truth[vertex], abs=1e-6), strategy.name


class TestDeterminism:
    """Identical inputs → identical runs, down to events and costs."""

    def _run_twice(self, job_factory, failures):
        results = []
        for _ in range(2):
            job = job_factory()
            results.append(
                job.run(config=CONFIG, recovery=job.optimistic(), failures=failures)
            )
        return results

    def test_cc_runs_are_identical(self):
        graph = twitter_like_graph(150, seed=3)
        first, second = self._run_twice(
            lambda: connected_components(graph), FailureSchedule.single(2, [0])
        )
        assert first.final_dict == second.final_dict
        assert first.sim_time == second.sim_time
        assert first.stats.messages_series() == second.stats.messages_series()
        assert first.stats.converged_series() == second.stats.converged_series()
        assert first.events.summary() == second.events.summary()
        assert first.metrics.snapshot() == second.metrics.snapshot()

    def test_pagerank_runs_are_identical(self):
        graph = twitter_like_graph(150, seed=3)
        first, second = self._run_twice(
            lambda: pagerank(graph), FailureSchedule.single(5, [2])
        )
        assert first.final_dict == second.final_dict
        assert first.stats.l1_series() == second.stats.l1_series()
        assert first.sim_time == second.sim_time

    def test_sssp_runs_are_identical(self):
        graph = erdos_renyi_graph(40, 0.08, seed=5)
        first, second = self._run_twice(
            lambda: sssp(graph, 0), FailureSchedule.single(2, [1])
        )
        assert first.final_dict == second.final_dict
        assert first.sim_time == second.sim_time
