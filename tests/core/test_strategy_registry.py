"""Tests for the name-based strategy registry and EngineConfig.recovery."""

import pytest

from repro.config import RECOVERY_STRATEGIES, EngineConfig
from repro.core import STRATEGY_NAMES, build_strategy, resolve_recovery
from repro.core.adaptive import AdaptiveRecovery
from repro.core.checkpointing import CheckpointRecovery
from repro.core.confined import ConfinedRecovery
from repro.core.incremental import IncrementalCheckpointRecovery
from repro.core.optimistic import OptimisticRecovery
from repro.core.restart import RestartRecovery
from repro.errors import ConfigError

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
