"""Tests for the seeded workload generator."""

import pytest

from repro.config import ServiceConfig
from repro.errors import ConfigError
from repro.service import (
    JobService,
    JobState,
    WorkloadConfig,
    generate_workload,
)


class TestWorkloadConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(num_jobs=0)
        with pytest.raises(ConfigError):
            WorkloadConfig(cc_fraction=1.5)
        with pytest.raises(ConfigError):
            WorkloadConfig(num_jobs=1, infra_failures=1, deadline_timeouts=1)
        with pytest.raises(ConfigError):
            WorkloadConfig(graph_vertices=(10, 4))


class TestGeneration:
    def test_job_count_and_mix(self):
        specs = generate_workload(WorkloadConfig(num_jobs=40, seed=3))
        assert len(specs) == 40
        kinds = {spec.name.split("-")[0] for spec in specs}
        assert kinds == {"cc", "pagerank"}

    def test_same_seed_same_workload(self):
        first = generate_workload(WorkloadConfig(num_jobs=20, seed=11))
        second = generate_workload(WorkloadConfig(num_jobs=20, seed=11))
        assert [s.name for s in first] == [s.name for s in second]
        assert [s.priority for s in first] == [s.priority for s in second]
        assert [s.failures for s in first] == [s.failures for s in second]

    def test_different_seed_different_workload(self):
        first = generate_workload(WorkloadConfig(num_jobs=20, seed=1))
        second = generate_workload(WorkloadConfig(num_jobs=20, seed=2))
        assert [s.name for s in first] != [s.name for s in second]

    def test_forced_scenarios_are_present(self):
        specs = generate_workload(
            WorkloadConfig(num_jobs=20, seed=5, infra_failures=2, deadline_timeouts=2)
        )
        infra = [s for s in specs if s.name.endswith("-infra")]
        late = [s for s in specs if s.name.endswith("-deadline")]
        assert len(infra) >= 1  # rng may pick the same slot twice
        assert len(late) == 2
        for spec in infra:
            assert spec.config.spare_workers == 0
            assert spec.failures is not None
            assert spec.retry_spare_boost > 0
        for spec in late:
            assert spec.deadline == 0.0

    def test_failure_density_controls_schedules(self):
        none = generate_workload(WorkloadConfig(num_jobs=20, failure_density=0.0,
                                                infra_failures=0, deadline_timeouts=0))
        assert all(s.failures is None for s in none)
        every = generate_workload(WorkloadConfig(num_jobs=20, failure_density=1.0,
                                                 infra_failures=0, deadline_timeouts=0))
        assert all(s.failures is not None for s in every)

    def test_generated_specs_run_standalone(self):
        specs = generate_workload(
            WorkloadConfig(num_jobs=4, seed=9, infra_failures=0, deadline_timeouts=0)
        )
        for spec in specs:
            assert spec.run_standalone().converged


class TestAcceptanceWorkload:
    """The acceptance experiment: a 50-job seeded workload through a
    pool of 4, every terminal result bit-identical to standalone."""

    @pytest.fixture(scope="class")
    def outcome(self):
        config = WorkloadConfig(num_jobs=50, seed=7)
        specs = generate_workload(config)
        with JobService(
            ServiceConfig(pool_size=4, poll_interval=0.01, trace_jobs=True)
        ) as service:
            handles = service.run_all(specs, timeout=120.0)
            report = service.report()
            metrics = service.metrics
        return specs, handles, report, metrics

    def test_every_job_reaches_a_terminal_state(self, outcome):
        _, handles, report, _ = outcome
        assert len(handles) == 50
        assert all(h.is_terminal for h in handles)
        assert report.completed == 50

    def test_forced_scenarios_played_out(self, outcome):
        _, handles, _, metrics = outcome
        infra = [h for h in handles if h.spec.name.endswith("-infra")]
        late = [h for h in handles if h.spec.name.endswith("-deadline")]
        assert infra and late
        for handle in infra:
            assert handle.state is JobState.SUCCEEDED
            assert handle.retries >= 1  # the forced infrastructure retry
        for handle in late:
            assert handle.state is JobState.TIMED_OUT
        assert metrics.get("service.retries") >= 1
        assert metrics.get("service.timed_out") == len(late)

    def test_results_are_bit_identical_to_standalone(self, outcome):
        _, handles, _, _ = outcome
        succeeded = [h for h in handles if h.state is JobState.SUCCEEDED]
        assert len(succeeded) >= 45
        for handle in succeeded:
            alone = handle.spec.run_standalone(attempt=handle.attempts - 1)
            via_service = handle.result(timeout=0)
            assert via_service.final_records == alone.final_records
            assert via_service.sim_time == alone.sim_time
            assert via_service.supersteps == alone.supersteps
            assert via_service.num_failures == alone.num_failures

    def test_outcomes_are_deterministic_per_seed(self, outcome):
        specs, handles, _, _ = outcome
        rerun_specs = generate_workload(WorkloadConfig(num_jobs=50, seed=7))
        with JobService(ServiceConfig(pool_size=4, poll_interval=0.01)) as service:
            rerun = service.run_all(rerun_specs, timeout=120.0)
        assert [h.spec.name for h in rerun] == [s.name for s in specs]
        assert [h.state for h in rerun] == [h.state for h in handles]
        for before, after in zip(handles, rerun):
            if before.state is JobState.SUCCEEDED:
                assert (
                    before.result(timeout=0).final_records
                    == after.result(timeout=0).final_records
                )

    def test_metrics_and_spans_are_exported(self, outcome):
        _, handles, report, metrics = outcome
        assert metrics.get("service.admitted") == 50
        assert metrics.get("service.attempts") >= 50
        assert metrics.histogram("service.job_seconds").count == 50
        assert report.throughput > 0
        for handle in handles:
            if handle.attempts == 0:
                continue  # timed out while queued: never ran, never traced
            assert len(handle.trace_roots) == handle.attempts
            assert handle.trace_roots[0].attributes["job_id"] == handle.job_id


class TestViewRefreshJobs:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(view_refresh_fraction=-0.1)
        with pytest.raises(ConfigError):
            WorkloadConfig(view_refresh_fraction=1.5)

    def test_zero_fraction_generates_none(self):
        specs = generate_workload(WorkloadConfig(num_jobs=20, seed=3))
        assert not [s for s in specs if s.name.startswith("view-refresh")]

    def test_fraction_one_generates_only_view_refreshes(self):
        specs = generate_workload(
            WorkloadConfig(
                num_jobs=4,
                seed=3,
                view_refresh_fraction=1.0,
                infra_failures=0,
                deadline_timeouts=0,
                failure_density=0.0,
            )
        )
        assert all(s.name.startswith("view-refresh") for s in specs)

    def test_view_refresh_jobs_are_reproducible_and_runnable(self):
        config = WorkloadConfig(
            num_jobs=3,
            seed=17,
            view_refresh_fraction=1.0,
            infra_failures=0,
            deadline_timeouts=0,
            failure_density=0.0,
        )
        first = [spec.run_standalone(0) for spec in generate_workload(config)]
        second = [spec.run_standalone(0) for spec in generate_workload(config)]
        for left, right in zip(first, second):
            assert left.converged
            assert sorted(left.final_records) == sorted(right.final_records)

    def test_view_refresh_jobs_run_through_the_service(self):
        config = WorkloadConfig(
            num_jobs=4,
            seed=5,
            view_refresh_fraction=0.5,
            infra_failures=0,
            deadline_timeouts=0,
            failure_density=0.2,
        )
        specs = generate_workload(config)
        kinds = {spec.name.split("-")[0] for spec in specs}
        with JobService(ServiceConfig(pool_size=2, poll_interval=0.01)) as svc:
            handles = [svc.submit(spec) for spec in specs]
            for handle in handles:
                assert handle.result(timeout=60.0).converged
                assert svc.status(handle.job_id) is JobState.SUCCEEDED
        assert "view" in kinds  # at least one view-refresh in the mix
