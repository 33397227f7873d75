"""Tests for JobService.health(), the status renderer, and live telemetry.

The health report is the machine-readable twin of ``repro status``: SLO
latency quantiles, queue/pool state, per-running-job convergence and the
latest warning alerts. These tests pin its shape with telemetry on and
off, prove an injected stall surfaces as a visible health event, and —
the tentpole guarantee — that enabling telemetry changes no job result.
"""

import threading

import pytest

from repro.config import EngineConfig, ServiceConfig, TelemetryConfig
from repro.observability.health import render_status
from repro.runtime import FailureSchedule
from repro.service import JobService, JobState

from .test_job import cc_spec


def service(telemetry=None, **overrides) -> JobService:
    defaults = dict(pool_size=2, poll_interval=0.01)
    if telemetry is not None:
        defaults["telemetry"] = telemetry
    defaults.update(overrides)
    return JobService(ServiceConfig(**defaults))


def telemetry_on(**overrides) -> TelemetryConfig:
    defaults = dict(enabled=True, sample_interval=0.02)
    defaults.update(overrides)
    return TelemetryConfig(**defaults)


class TestHealthShape:
    def test_health_without_telemetry(self):
        # explicit, so the test does not inherit $REPRO_TELEMETRY
        with service(telemetry=TelemetryConfig(enabled=False)) as svc:
            svc.run_all([cc_spec(), cc_spec(name="cc2")])
            health = svc.health()
        assert health["accepting"] is True  # captured before the drain
        assert health["queue"]["depth"] == 0
        assert health["queue"]["overloaded"] is False
        assert health["pool"]["size"] == 2
        assert 0.0 <= health["pool"]["utilization"] <= 1.0
        assert health["counters"]["submitted"] == 2
        assert health["counters"]["succeeded"] == 2
        assert health["telemetry"]["enabled"] is False
        assert health["jobs"] == []
        assert health["alerts"] == []

    def test_latency_quantiles_present_after_jobs(self):
        with service() as svc:
            svc.run_all([cc_spec() for _ in range(3)])
            health = svc.health()
        for section in ("queue_wait", "attempt", "job"):
            stats = health["latency"][section]
            assert stats is not None, section
            assert stats["count"] == 3
            assert stats["p50"] <= stats["p95"] <= stats["p99"]
            assert stats["p99"] <= stats["count"] * stats["mean"] + 1e-9

    def test_latency_sections_none_before_any_job(self):
        with service() as svc:
            health = svc.health()
        assert health["latency"] == {"queue_wait": None, "attempt": None, "job": None}

    def test_health_with_telemetry_enabled(self):
        with service(telemetry=telemetry_on()) as svc:
            svc.run_all([cc_spec()])
            health = svc.health()
            assert health["telemetry"]["enabled"] is True
            assert health["telemetry"]["series"] > 0
            assert health["telemetry"]["events"] > 0

    def test_running_job_appears_with_convergence_snapshot(self):
        release = threading.Event()
        started = threading.Event()
        graph_spec = cc_spec()

        class SlowJob:
            def run(self, **kwargs):
                started.set()
                release.wait(10.0)
                return graph_spec.make_job().run(**kwargs)

        spec = cc_spec(name="slow", make_job=lambda: SlowJob(), recovery=None)
        try:
            with service(telemetry=telemetry_on()) as svc:
                handle = svc.submit(spec)
                assert started.wait(10.0)
                health = svc.health()
                release.set()
                handle.result(timeout=10.0)
            assert [j["name"] for j in health["jobs"]] == ["slow"]
            job = health["jobs"][0]
            assert job["state"] == "running"
            assert job["job_id"] == handle.job_id
            assert "stalled" in job["convergence"]
        finally:
            release.set()


class TestStallVisibility:
    def test_injected_stall_surfaces_as_health_alert(self):
        # A failure injected at every superstep under restart recovery
        # repeats superstep 0 forever-ish: zero forward progress. With a
        # small stall threshold the monitor must flag it while the job
        # is still running — the operator sees WHY it is slow.
        schedule = FailureSchedule.at(*[(s, [0]) for s in range(12)])
        spec = cc_spec(
            name="stuck",
            recovery="restart",
            failures=schedule,
            config=EngineConfig(parallelism=4, spare_workers=64),
        )
        with service(telemetry=telemetry_on(stall_supersteps=3)) as svc:
            handle = svc.submit(spec)
            handle.result(timeout=30.0)
            health = svc.health()
            log = svc.telemetry_log
            stalls = log.of_kind("stall")
            assert stalls, "expected a stall event from the no-progress loop"
            assert stalls[0].level == "warning"
            assert stalls[0].job_id == handle.job_id
        assert any(a["kind"] == "stall" for a in health["alerts"])

    def test_clean_run_raises_no_stall(self):
        with service(telemetry=telemetry_on(stall_supersteps=3)) as svc:
            svc.run_all([cc_spec()])
            assert svc.telemetry_log.of_kind("stall") == []


class TestBitIdentityThroughService:
    def test_results_identical_with_telemetry_on(self):
        spec_kwargs = dict(failures=FailureSchedule.single(2, [0]))

        def run(telemetry):
            with service(telemetry=telemetry) as svc:
                handle = svc.submit(cc_spec(**spec_kwargs))
                result = handle.result(timeout=30.0)
                return (
                    sorted(result.final_records),
                    result.clock.now,
                    result.clock.breakdown(),
                    result.supersteps,
                    result.converged,
                )

        assert run(telemetry_on()) == run(TelemetryConfig(enabled=False))


class TestRenderStatus:
    def test_renders_all_sections(self):
        with service(telemetry=telemetry_on()) as svc:
            svc.run_all([cc_spec(), cc_spec(name="cc2")])
            text = render_status(svc.health())
        assert "queue" in text
        assert "in-flight" in text
        assert "p50" in text and "p95" in text and "p99" in text
        assert "submitted=2" in text
        assert "ok=2" in text

    def test_renders_running_jobs_and_alerts(self):
        schedule = FailureSchedule.at(*[(s, [0]) for s in range(12)])
        spec = cc_spec(
            name="stuck",
            recovery="restart",
            failures=schedule,
            config=EngineConfig(parallelism=4, spare_workers=64),
        )
        with service(telemetry=telemetry_on(stall_supersteps=3)) as svc:
            svc.submit(spec).result(timeout=30.0)
            text = render_status(svc.health())
        assert "stall" in text

    def test_renders_minimal_dict(self):
        # The renderer tolerates sparse dicts (e.g. older snapshots).
        assert "repro status" in render_status({})

    def test_status_method_matches_renderer(self):
        with service() as svc:
            svc.run_all([cc_spec()])
            health = svc.health()
        assert render_status(health)  # non-empty frame


class TestJobServiceStateAfterStall:
    def test_stalled_job_still_reaches_terminal_state(self):
        schedule = FailureSchedule.at(*[(s, [0]) for s in range(12)])
        spec = cc_spec(
            name="stuck",
            recovery="restart",
            failures=schedule,
            config=EngineConfig(parallelism=4, spare_workers=64),
        )
        with service(telemetry=telemetry_on(stall_supersteps=3)) as svc:
            handle = svc.submit(spec)
            result = handle.result(timeout=30.0)
            assert result.converged
            assert svc.status(handle.job_id) is JobState.SUCCEEDED
            # The stall was visible even though the job got through.
            assert svc.telemetry_log.of_kind("stall")


class TestHealthLifecycleEdges:
    """health() is safe at every point of the service lifecycle."""

    def test_health_on_empty_never_started_service(self):
        svc = service()
        try:
            health = svc.health()
        finally:
            svc.shutdown()
        assert health["accepting"] is True
        assert health["queue"]["depth"] == 0
        assert health["queue"]["overloaded"] is False
        assert health["pool"]["in_flight"] == 0
        assert health["pool"]["utilization"] == 0.0
        for counter in health["counters"].values():
            assert counter == 0
        # no jobs have run: every latency summary is absent, not zero
        assert all(stats is None for stats in health["latency"].values())
        assert health["jobs"] == []
        assert health["alerts"] == []
        assert health["wall_seconds"] >= 0.0
        assert render_status(health)  # the renderer handles the empty frame

    def test_health_after_shutdown(self):
        svc = service()
        svc.run_all([cc_spec()])
        svc.shutdown()
        health = svc.health()
        assert health["accepting"] is False
        assert health["counters"]["submitted"] == 1
        assert health["counters"]["succeeded"] == 1
        assert health["queue"]["depth"] == 0
        assert health["jobs"] == []
        assert render_status(health)

    def test_health_after_shutdown_of_idle_service(self):
        svc = service(telemetry=TelemetryConfig(enabled=False))
        svc.shutdown()
        health = svc.health()
        assert health["accepting"] is False
        assert health["counters"]["submitted"] == 0
        assert health["telemetry"]["enabled"] is False

    def test_shutdown_is_idempotent_for_health(self):
        svc = service()
        svc.shutdown()
        svc.shutdown()
        first = svc.health()
        second = svc.health()
        assert first["accepting"] is second["accepting"] is False
        assert first["counters"] == second["counters"]
