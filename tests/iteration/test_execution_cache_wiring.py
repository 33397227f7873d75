"""Execution-cache-vs-off equivalence through both iteration drivers.

The acceptance bar of the execution-cache change: with
``EngineConfig.execution_cache="transparent"`` (the default) nothing
observable about a run may change relative to ``"off"`` — final records
(including their order), superstep counts, simulated-clock totals and
cost breakdowns, per-superstep statistics — failure-free and under every
recovery strategy, at any failure superstep.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.connected_components import connected_components
from repro.algorithms.pagerank import pagerank
from repro.config import EngineConfig
from repro.core.checkpointing import CheckpointRecovery
from repro.core.incremental import IncrementalCheckpointRecovery
from repro.core.restart import RestartRecovery
from repro.errors import ConfigError
from repro.graph.generators import multi_component_graph
from repro.runtime.failures import FailureSchedule

GRAPH = multi_component_graph(3, 8)


def _cc_job():
    return connected_components(GRAPH)


def _pr_job():
    return pagerank(GRAPH, epsilon=1e-6, max_supersteps=60)


def _run_both(job_factory, recovery_factory=None, failures=None):
    results = []
    for mode in ("off", "transparent"):
        job = job_factory()
        results.append(
            job.run(
                config=EngineConfig(execution_cache=mode),
                recovery=recovery_factory() if recovery_factory else None,
                failures=failures,
            )
        )
    return results


def _assert_identical(off, cached):
    assert off.final_records == cached.final_records  # bit-identical, order too
    assert off.supersteps == cached.supersteps
    assert off.converged == cached.converged
    assert off.sim_time == cached.sim_time
    assert off.cost_breakdown() == cached.cost_breakdown()
    assert [s.converged for s in off.stats] == [s.converged for s in cached.stats]
    assert [s.updates for s in off.stats] == [s.updates for s in cached.stats]
    assert [s.messages for s in off.stats] == [s.messages for s in cached.stats]
    assert off.stats.l1_series() == cached.stats.l1_series()


class TestFailureFree:
    def test_connected_components_identical(self):
        _assert_identical(*_run_both(_cc_job))

    def test_pagerank_identical(self):
        _assert_identical(*_run_both(_pr_job))

    def test_cached_runs_are_correct(self):
        _, cc = _run_both(_cc_job)
        assert cc.final_dict == _cc_job().truth
        _, pr = _run_both(_pr_job)
        truth = _pr_job().truth
        for vertex, rank in pr.final_dict.items():
            assert rank == pytest.approx(truth[vertex], abs=1e-4)

    def test_cache_served_work(self):
        _, cached = _run_both(_cc_job)
        assert cached.metrics.get("cache.hits.build") == cached.supersteps - 1
        assert cached.metrics.get("cache.misses") > 0


class TestUnderRecovery:
    FAILURES = FailureSchedule.single(2, [1])

    @pytest.mark.parametrize("job_factory", [_cc_job, _pr_job], ids=["cc", "pagerank"])
    def test_restart_identical(self, job_factory):
        _assert_identical(*_run_both(job_factory, RestartRecovery, self.FAILURES))

    @pytest.mark.parametrize("job_factory", [_cc_job, _pr_job], ids=["cc", "pagerank"])
    def test_checkpoint_identical(self, job_factory):
        _assert_identical(
            *_run_both(job_factory, lambda: CheckpointRecovery(interval=2), self.FAILURES)
        )

    @pytest.mark.parametrize("job_factory", [_cc_job, _pr_job], ids=["cc", "pagerank"])
    def test_optimistic_identical(self, job_factory):
        _assert_identical(
            *_run_both(job_factory, lambda: job_factory().optimistic(), self.FAILURES)
        )

    def test_incremental_identical(self):
        _assert_identical(
            *_run_both(_cc_job, IncrementalCheckpointRecovery, self.FAILURES)
        )

    def test_failure_invalidates_cache(self):
        _, cached = _run_both(
            _cc_job, lambda: _cc_job().optimistic(), self.FAILURES
        )
        assert cached.metrics.get("cache.invalidations") > 0
        assert cached.final_dict == _cc_job().truth

    @pytest.mark.parametrize("superstep", [0, 1, 3])
    def test_failures_at_assorted_supersteps(self, superstep):
        failures = FailureSchedule.single(superstep, [0])
        _assert_identical(
            *_run_both(_cc_job, lambda: CheckpointRecovery(interval=1), failures)
        )


class TestRandomFailureSchedules:
    """Property: transparent caching is observationally invisible under
    arbitrary failure schedules and recovery strategies."""

    STRATEGIES = {
        "restart": RestartRecovery,
        "checkpoint": lambda: CheckpointRecovery(interval=2),
        "optimistic": lambda: _cc_job().optimistic(),
    }

    @settings(max_examples=12, deadline=None)
    @given(
        failure_supersteps=st.lists(
            st.integers(min_value=0, max_value=6), min_size=1, max_size=2, unique=True
        ),
        worker=st.integers(min_value=0, max_value=3),
        strategy=st.sampled_from(sorted(STRATEGIES)),
    )
    def test_transparent_identical_under_random_failures(
        self, failure_supersteps, worker, strategy
    ):
        failures = FailureSchedule.at(
            *[(superstep, [worker]) for superstep in sorted(failure_supersteps)]
        )
        off, cached = _run_both(
            _cc_job, self.STRATEGIES[strategy], failures
        )
        _assert_identical(off, cached)


class TestConfig:
    def test_default_mode_is_transparent(self):
        assert EngineConfig().execution_cache == "transparent"

    def test_unknown_mode_rejected(self):
        for mode in ("bogus", "modeled"):
            with pytest.raises(ConfigError, match="execution_cache"):
                EngineConfig(execution_cache=mode)

    def test_with_execution_cache_helper(self):
        assert EngineConfig().with_execution_cache("off").execution_cache == "off"
