"""Tests for engine configuration and the error hierarchy."""

from dataclasses import fields

import pytest

from repro.config import DEFAULT_CONFIG, CostModel, EngineConfig
from repro.errors import (
    CompensationError,
    ConfigError,
    ExecutionError,
    GraphError,
    IterationError,
    PartitionLostError,
    PlanError,
    RecoveryError,
    ReproError,
    StorageError,
    TerminationError,
)


class TestEngineConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.parallelism == 4
        assert DEFAULT_CONFIG.spare_workers == 2

    def test_parallelism_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(parallelism=0)

    def test_spares_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(spare_workers=-1)

    def test_cost_model_validation(self):
        for value in (-1.0, float("nan")):
            with pytest.raises(ConfigError):
                EngineConfig(cost_model=CostModel(cpu_per_record=value))

    def test_with_parallelism(self):
        config = EngineConfig(parallelism=2).with_parallelism(8)
        assert config.parallelism == 8
        assert config.spare_workers == 2  # untouched

    def test_with_spares(self):
        assert EngineConfig().with_spares(10).spare_workers == 10

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().parallelism = 99


class TestCostModel:
    def test_every_field_validated(self):
        # at construction, and NaN too: it compares false with 0
        for field in fields(CostModel):
            for value in (-0.5, float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigError):
                    CostModel(**{field.name: value})

    def test_zero_costs_allowed(self):
        CostModel(cpu_per_record=0.0).validate()


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            CompensationError,
            ConfigError,
            ExecutionError,
            GraphError,
            IterationError,
            PlanError,
            RecoveryError,
            StorageError,
            TerminationError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_compensation_error_is_recovery_error(self):
        assert issubclass(CompensationError, RecoveryError)

    def test_termination_error_is_iteration_error(self):
        assert issubclass(TerminationError, IterationError)

    def test_partition_lost_error_carries_ids(self):
        error = PartitionLostError([3, 1])
        assert error.partition_ids == (1, 3)
        assert issubclass(PartitionLostError, ExecutionError)
