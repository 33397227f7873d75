"""Tests for the name-based strategy registry and EngineConfig.recovery."""

import pytest

from repro.algorithms.connected_components import connected_components
from repro.algorithms.pagerank import pagerank
from repro.config import RECOVERY_STRATEGIES, EngineConfig
from repro.core import STRATEGY_NAMES, build_strategy, resolve_recovery
from repro.core.adaptive import AdaptiveRecovery
from repro.core.checkpointing import CheckpointRecovery
from repro.core.confined import ConfinedRecovery
from repro.core.incremental import IncrementalCheckpointRecovery
from repro.core.optimistic import OptimisticRecovery
from repro.core.restart import RestartRecovery
from repro.errors import ConfigError
from repro.graph.generators import multi_component_graph, twitter_like_graph
from repro.iteration.delta import run_delta_iteration
from repro.runtime.events import EventKind
from repro.runtime.failures import FailureSchedule

from .test_strategies import ResetCompensation


class TestBuildStrategy:
    def test_every_registered_name_builds(self):
        compensation = ResetCompensation()
        expected = {
            "restart": RestartRecovery,
            "checkpoint": CheckpointRecovery,
            "incremental": IncrementalCheckpointRecovery,
            "optimistic": OptimisticRecovery,
            "confined": ConfinedRecovery,
            "adaptive": AdaptiveRecovery,
        }
        assert set(expected) == set(STRATEGY_NAMES)
        for name, cls in expected.items():
            strategy = build_strategy(name, compensation=compensation)
            assert isinstance(strategy, cls)
            # strategies report their own (sometimes longer) names, e.g.
            # "incremental-checkpoint" for the "incremental" registry entry
            assert strategy.name.startswith(name)

    def test_unknown_name_lists_valid_strategies(self):
        # "lineage" is rejected like any unknown name: removed, not aliased.
        for name in ("telepathy", "lineage"):
            with pytest.raises(ConfigError, match="valid strategies"):
                build_strategy(name)

    def test_optimistic_without_compensation_is_a_config_error(self):
        with pytest.raises(ConfigError, match="compensation"):
            build_strategy("optimistic")

    def test_intervals_are_passed_through(self):
        checkpoint = build_strategy("checkpoint", checkpoint_interval=7)
        assert checkpoint.interval == 7
        confined = build_strategy("confined", snapshot_interval=9)
        assert confined.snapshot_interval == 9

    def test_registry_matches_config_literal(self):
        assert STRATEGY_NAMES == RECOVERY_STRATEGIES


class TestEngineConfigRecovery:
    def test_none_resolves_to_none(self):
        assert resolve_recovery(EngineConfig()) is None

    def test_named_strategy_resolves(self):
        config = EngineConfig(recovery="confined")
        strategy = resolve_recovery(config)
        assert isinstance(strategy, ConfinedRecovery)

    def test_unknown_name_rejected_at_config_construction(self):
        with pytest.raises(ConfigError):
            EngineConfig(recovery="telepathy")

    def test_with_recovery_helper(self):
        config = EngineConfig().with_recovery("adaptive")
        assert config.recovery == "adaptive"
        assert EngineConfig().recovery is None


class TestJobsResolveWithTheirOwnCompensation:
    """``EngineConfig.recovery`` run through a ``BulkJob`` / ``DeltaJob``
    resolves with the job's compensation function and invariants — the
    driver alone has none to offer."""

    FAILURES = FailureSchedule.single(2, [1])

    @staticmethod
    def _jobs():
        return {
            "bulk": pagerank(twitter_like_graph(60, seed=11), epsilon=1e-6),
            "delta": connected_components(multi_component_graph(3, 8)),
        }

    @pytest.mark.parametrize("mode", ["bulk", "delta"])
    def test_optimistic_by_name_compensates_and_reaches_the_fixpoint(self, mode):
        job = self._jobs()[mode]
        config = EngineConfig(parallelism=4, spare_workers=8)
        baseline = job.run(config=config)
        result = job.run(
            config=config.with_recovery("optimistic"), failures=self.FAILURES
        )
        assert result.events.of_kind(EventKind.COMPENSATION)
        assert result.converged
        assert result.final_dict.keys() == baseline.final_dict.keys()
        for key, value in baseline.final_dict.items():
            assert result.final_dict[key] == pytest.approx(value, abs=1e-4)

    @pytest.mark.parametrize("mode", ["bulk", "delta"])
    def test_adaptive_by_name_considers_the_optimistic_candidate(self, mode):
        job = self._jobs()[mode]
        result = job.run(
            config=EngineConfig(parallelism=4, spare_workers=8, recovery="adaptive"),
            failures=self.FAILURES,
        )
        selections = result.events.of_kind(EventKind.STRATEGY_SELECTED)
        assert selections
        assert all("optimistic" in event.details["estimates"] for event in selections)

    def test_the_bare_driver_still_has_no_compensation_to_offer(self):
        job = self._jobs()["delta"]
        with pytest.raises(ConfigError, match="compensation"):
            run_delta_iteration(
                job.spec,
                job.initial_solution,
                statics=job.statics,
                config=EngineConfig(recovery="optimistic"),
            )
