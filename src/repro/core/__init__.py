"""Optimistic recovery — the paper's contribution.

This package implements the fault-tolerance layer of the reproduction:

* :mod:`repro.core.compensation` — the user-facing
  :class:`CompensationFunction` protocol ("a user-defined compensation
  function which a system uses to re-initialize lost partitions", §2.2);
* :mod:`repro.core.recovery` — the strategy interface and the context
  objects iteration drivers hand to strategies;
* :mod:`repro.core.optimistic` — checkpoint-free optimistic recovery;
* :mod:`repro.core.checkpointing` — classic rollback recovery with a
  configurable checkpoint interval (the pessimistic baseline);
* :mod:`repro.core.restart` — restart-from-scratch (no fault tolerance);
* :mod:`repro.core.guarantees` — consistency invariants compensation
  functions must uphold, checked after every compensation;
* :mod:`repro.core.confined` — confined recovery: a bounded message log
  on the shuffle path so only the *lost* partitions are rebuilt, from
  local snapshots plus survivor log replay;
* :mod:`repro.core.adaptive` — the adaptive selector that picks
  restart/checkpoint/optimistic/confined per job from a cost model;
* :mod:`repro.core.strategies` — the strategy-name registry behind
  ``EngineConfig.recovery``, the service and the CLI ``--strategy`` flag.
"""

from .adaptive import AdaptiveRecovery, WorkloadObservation, select_strategy
from .checkpointing import CheckpointRecovery
from .compensation import CompensationContext, CompensationFunction
from .confined import ConfinedRecovery, MessageLog
from .guarantees import (
    KeySetPreserved,
    MassConservation,
    PartitionPlacement,
    StateInvariant,
    ValuesFromInitial,
    check_invariants,
)
from .incremental import IncrementalCheckpointRecovery
from .optimistic import OptimisticRecovery
from .recovery import RecoveryContext, RecoveryOutcome, RecoveryStrategy
from .restart import RestartRecovery
from .strategies import STRATEGY_NAMES, build_strategy, resolve_recovery

__all__ = [
    "AdaptiveRecovery",
    "CheckpointRecovery",
    "CompensationContext",
    "CompensationFunction",
    "ConfinedRecovery",
    "IncrementalCheckpointRecovery",
    "KeySetPreserved",
    "MassConservation",
    "MessageLog",
    "OptimisticRecovery",
    "PartitionPlacement",
    "RecoveryContext",
    "RecoveryOutcome",
    "RecoveryStrategy",
    "RestartRecovery",
    "STRATEGY_NAMES",
    "StateInvariant",
    "ValuesFromInitial",
    "WorkloadObservation",
    "build_strategy",
    "check_invariants",
    "resolve_recovery",
    "select_strategy",
]
