"""The acceptance bar: warm refreshes are bit-identical to cold ones.

The tentpole guarantee of :mod:`repro.views` — a warm refresh (seeded
from the previous fixpoint, workset shrunk to the affected keys) must
materialize *exactly* the records a cold recompute of the same source
epoch would, for every view, under every recovery strategy, and with failures injected *during* the refresh.
These tests drive the same seeded mutation stream twice (once forced
warm, once forced cold) and compare the installed records epoch by
epoch, then check warm actually saves supersteps where it should.
"""

import pytest

from repro.config import ViewsConfig
from repro.runtime import FailureSchedule
from repro.views import ScenarioConfig, run_scenario

VIEWS = ("cc-labels", "ranks", "component-mass")
EPOCHS = 3


def scenario(refresh_mode, *, recovery="optimistic", seed=7):
    return ScenarioConfig(
        num_components=3,
        component_size=8,
        seed=seed,
        mutations_per_epoch=4,
        removal_fraction=0.3,
        recovery=recovery,
        views=ViewsConfig(refresh_mode=refresh_mode),
    )


def epoch_records(config, **run_kwargs):
    """``[{view: records}]`` per epoch, read from the live catalog."""
    import random

    from repro.views import build_scenario, mutate_epoch

    catalog, orchestrator, mutable = build_scenario(config)
    rng = random.Random(config.seed)
    failures = run_kwargs.get("failures")
    fail_epoch = run_kwargs.get("fail_epoch")
    per_epoch = []
    orchestrator.poll_once(
        failures=failures if fail_epoch in (None, 0) and failures else None
    )
    per_epoch.append({view: catalog.read(view).records for view in VIEWS})
    for index in range(1, EPOCHS + 1):
        mutate_epoch(mutable, rng, config)
        inject = failures if fail_epoch in (None, index) and failures else None
        reports = orchestrator.poll_once(failures=inject)
        assert all(report.converged for report in reports)
        per_epoch.append({view: catalog.read(view).records for view in VIEWS})
    return per_epoch


def assert_identical(warm_config, cold_config, **run_kwargs):
    warm = epoch_records(warm_config, **run_kwargs)
    cold = epoch_records(cold_config)
    for epoch, (warm_records, cold_records) in enumerate(zip(warm, cold)):
        for view in VIEWS:
            assert warm_records[view] == cold_records[view], (
                f"{view} diverged at epoch {epoch}"
            )


class TestWarmColdIdentity:
    @pytest.mark.parametrize("recovery", ["restart", "optimistic", "confined"])
    def test_identical_across_recovery_strategies(self, recovery):
        assert_identical(
            scenario("warm", recovery=recovery), scenario("cold", recovery=recovery)
        )

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_identical_across_mutation_streams(self, seed):
        assert_identical(scenario("warm", seed=seed), scenario("cold", seed=seed))

    def test_auto_mode_matches_cold(self):
        assert_identical(scenario("auto"), scenario("cold"))


class TestIdentityUnderFailures:
    """A failure injected *during* a refresh must not change the records."""

    @pytest.mark.parametrize("recovery", ["restart", "optimistic", "confined"])
    def test_failure_during_warm_refresh(self, recovery):
        assert_identical(
            scenario("warm", recovery=recovery),
            scenario("cold", recovery=recovery),
            failures=FailureSchedule.single(superstep=2, worker_ids=[0]),
            fail_epoch=1,
        )

    def test_failure_during_every_epoch(self):
        assert_identical(
            scenario("warm"),
            scenario("cold"),
            failures=FailureSchedule.single(superstep=1, worker_ids=[1]),
            fail_epoch=None,  # inject into every epoch's refreshes
        )

    def test_failures_were_actually_injected(self):
        outcomes = run_scenario(
            scenario("warm"),
            epochs=EPOCHS,
            failures=FailureSchedule.single(superstep=1, worker_ids=[0]),
            fail_epoch=1,
        )
        failed = [
            report
            for outcome in outcomes
            for report in outcome.reports
            if report.failures > 0
        ]
        assert failed, "the injected failure never fired"


class TestWarmSavesWork:
    def test_warm_uses_fewer_supersteps_for_small_batches(self):
        config_warm = scenario("warm", seed=5)
        config_cold = scenario("cold", seed=5)
        warm = run_scenario(config_warm, epochs=EPOCHS)
        cold = run_scenario(config_cold, epochs=EPOCHS)
        warm_total = sum(
            outcome.report_for("ranks").supersteps for outcome in warm[1:]
        )
        cold_total = sum(
            outcome.report_for("ranks").supersteps for outcome in cold[1:]
        )
        assert warm_total < cold_total

    def test_warm_workset_is_a_strict_subset(self):
        outcomes = run_scenario(scenario("warm"), epochs=EPOCHS)
        for outcome in outcomes[1:]:
            report = outcome.report_for("cc-labels")
            assert report.mode == "warm"
            assert report.affected < report.total_keys
