"""Telemetry is purely observational: runs are bit-identical on vs off.

The drivers accept a :class:`~repro.observability.telemetry.RunTelemetry`
bundle and feed it per-superstep stats plus engine events. None of that
may touch the simulated clock, the RNG or the record state — for every
recovery strategy, a run with full telemetry attached
must produce exactly the fingerprint of a bare run. These tests also pin
the positive side: the series the drivers push and the engine events the
bundle forwards actually arrive, correlated with (job_id, attempt).
"""

import pytest

from repro.algorithms.connected_components import connected_components
from repro.algorithms.pagerank import pagerank
from repro.config import EngineConfig
from repro.core.checkpointing import CheckpointRecovery
from repro.core.restart import RestartRecovery
from repro.errors import IterationError
from repro.graph.generators import multi_component_graph, twitter_like_graph
from repro.observability.convergence import ConvergenceMonitor
from repro.observability.telemetry import RunTelemetry, TelemetryCollector
from repro.observability.telemetry_log import TelemetryLog
from repro.runtime.failures import FailureSchedule

COMMON_RECOVERIES = ("optimistic", "checkpoint", "restart")


def _strategy(job, name):
    return {
        "optimistic": job.optimistic,
        "checkpoint": lambda: CheckpointRecovery(interval=2),
        "restart": RestartRecovery,
    }[name]()


def _config():
    return EngineConfig(parallelism=4, spare_workers=8)


def _fingerprint(result):
    return (
        sorted(result.final_records),
        result.clock.now,
        result.clock.breakdown(),
        result.supersteps,
        result.converged,
        [series.values for series in vars(result.stats).values()
         if hasattr(series, "values")],
    )


def _telemetry(job_name, job_id=1, attempt=0):
    log = TelemetryLog()
    collector = TelemetryCollector(interval=30.0, log=log)
    monitor = ConvergenceMonitor(job_name, job_id=job_id, attempt=attempt, log=log)
    return RunTelemetry(
        collector=collector, monitor=monitor, log=log, job_id=job_id, attempt=attempt
    )


def _run_pagerank(recovery_name, telemetry=None):
    job = pagerank(twitter_like_graph(60, seed=11), epsilon=1e-3)
    return job.run(
        config=_config(),
        recovery=_strategy(job, recovery_name),
        failures=FailureSchedule.single(3, [1]),
        telemetry=telemetry,
    )


def _run_cc(recovery_name, telemetry=None):
    job = connected_components(multi_component_graph(3, 12, seed=5))
    return job.run(
        config=_config(),
        recovery=_strategy(job, recovery_name),
        failures=FailureSchedule.single(2, [0, 2]),
        telemetry=telemetry,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("recovery_name", COMMON_RECOVERIES)
    def test_pagerank_identical_with_telemetry(self, recovery_name):
        bare = _fingerprint(_run_pagerank(recovery_name))
        instrumented = _fingerprint(
            _run_pagerank(recovery_name, telemetry=_telemetry("pr"))
        )
        assert instrumented == bare

    @pytest.mark.parametrize("recovery_name", COMMON_RECOVERIES)
    def test_connected_components_identical_with_telemetry(self, recovery_name):
        bare = _fingerprint(_run_cc(recovery_name))
        instrumented = _fingerprint(_run_cc(recovery_name, telemetry=_telemetry("cc")))
        assert instrumented == bare


class TestSeriesAndEvents:
    def test_driver_pushes_per_superstep_series(self):
        telemetry = _telemetry("pr", job_id=7, attempt=2)
        result = _run_pagerank("optimistic", telemetry=telemetry)
        collector = telemetry.collector
        l1 = collector.series("run.l1_delta", job_id=7, attempt=2)
        updates = collector.series("run.updates", job_id=7, attempt=2)
        assert l1 is not None and updates is not None
        assert len(l1) == result.supersteps
        assert l1.origin == "recorded"
        # Pushed values mirror the run's own stats series exactly.
        assert l1.values() == [s.l1_delta for s in result.stats]
        # Points carry the simulated clock, not just wall time.
        assert all(p.sim_time is not None for p in l1.points())

    def test_delta_driver_pushes_workset_series(self):
        telemetry = _telemetry("cc", job_id=3)
        result = _run_cc("optimistic", telemetry=telemetry)
        workset = telemetry.collector.series("run.workset_size", job_id=3, attempt=0)
        assert workset is not None
        assert workset.values() == [float(s.workset_size) for s in result.stats]

    def test_engine_events_forwarded_with_correlation_ids(self):
        telemetry = _telemetry("pr", job_id=7, attempt=1)
        _run_pagerank("optimistic", telemetry=telemetry)
        started = telemetry.log.of_kind("engine.superstep_started")
        assert started  # the run's engine events reached the telemetry log
        assert all(e.job_id == 7 and e.attempt == 1 for e in started)
        failures = telemetry.log.of_kind("engine.failure")
        assert len(failures) == 1
        assert failures[0].superstep == 3

    def test_monitor_observes_failure_and_recovery(self):
        telemetry = _telemetry("pr", job_id=1)
        _run_pagerank("optimistic", telemetry=telemetry)
        assert telemetry.monitor.snapshot()["failures"] == 1
        assert telemetry.log.of_kind("recovery")

    def test_run_registry_swept_into_collector(self):
        telemetry = _telemetry("pr", job_id=4)
        _run_pagerank("optimistic", telemetry=telemetry)
        # The driver registers the run registry; close() takes a final
        # sweep, so its counters exist as (job_id, attempt) series.
        sampled = telemetry.collector.last_values(origin="sampled")
        assert any(key.job_id == 4 for key in sampled)
        assert telemetry.collector.sources == 0  # unregistered at close

    def test_epsilon_forwarded_as_monitor_target(self):
        telemetry = _telemetry("pr")
        _run_pagerank("optimistic", telemetry=telemetry)
        assert telemetry.monitor.target == 1e-3


class TestSetupErrorsDoNotLeak:
    """A run that dies during setup must not stay registered.

    ``bind_runtime`` registers the run's registry with the collector (and
    subscribes an event forwarder); if the driver raises before its
    cleanup region begins — a missing static, an empty initial state —
    the collector would sample the dead run for the life of the service.
    """

    @staticmethod
    def _empty_state(job):
        if hasattr(job, "initial_solution"):
            job.initial_solution = []
        else:
            job.initial_records = []

    @staticmethod
    def _missing_static(job):
        job.statics = {}

    @pytest.mark.parametrize("sabotage", ("_empty_state", "_missing_static"))
    @pytest.mark.parametrize(
        "make_job",
        (
            lambda: pagerank(twitter_like_graph(60, seed=11), epsilon=1e-3),
            lambda: connected_components(multi_component_graph(3, 12, seed=5)),
        ),
        ids=("bulk", "delta"),
    )
    def test_collector_holds_no_source_after_a_setup_error(self, make_job, sabotage):
        job = make_job()
        getattr(self, sabotage)(job)
        telemetry = _telemetry(job.spec.name)
        with pytest.raises(IterationError):
            job.run(config=_config(), telemetry=telemetry)
        assert telemetry.collector.sources == 0
        assert telemetry._forwarder is None  # unsubscribed from the event log
