"""Recovery-strategy name registry.

:func:`build_strategy` is the one place that maps the strategy names
accepted everywhere — the ``EngineConfig.recovery`` field, the service's
``JobSpec.recovery``, the demo controller, the CLI ``--strategy`` flag and
the adaptive selector's candidates — to constructed
:class:`RecoveryStrategy` instances, with a uniform
:class:`repro.errors.ConfigError` (listing the valid names) for unknown
ones.
"""

from __future__ import annotations

from ..config import RECOVERY_STRATEGIES, EngineConfig
from ..errors import ConfigError
from .checkpointing import CheckpointRecovery
from .compensation import CompensationFunction
from .confined import ConfinedRecovery
from .guarantees import StateInvariant
from .incremental import IncrementalCheckpointRecovery
from .optimistic import OptimisticRecovery
from .recovery import RecoveryStrategy
from .restart import RestartRecovery

#: all valid strategy names (re-exported from :mod:`repro.config` so the
#: frozen config dataclasses can validate without importing this package).
STRATEGY_NAMES = RECOVERY_STRATEGIES


def build_strategy(
    name: str,
    *,
    compensation: CompensationFunction | None = None,
    invariants: list[StateInvariant] | None = None,
    checkpoint_interval: int = 2,
    snapshot_interval: int = 4,
) -> RecoveryStrategy:
    """Construct the named recovery strategy.

    Args:
        name: one of :data:`STRATEGY_NAMES`.
        compensation: the job's compensation function — required by
            ``"optimistic"``, optional input to ``"adaptive"``.
        invariants: consistency checks for compensated states.
        checkpoint_interval: interval of ``"checkpoint"`` (and the
            adaptive selector's checkpoint candidate).
        snapshot_interval: local-snapshot interval of ``"confined"`` (and
            the adaptive selector's confined candidate).

    Raises:
        ConfigError: on an unknown name, or ``"optimistic"`` without a
            compensation function.
    """
    if name == "restart":
        return RestartRecovery()
    if name == "checkpoint":
        return CheckpointRecovery(interval=checkpoint_interval)
    if name == "incremental":
        return IncrementalCheckpointRecovery()
    if name == "optimistic":
        if compensation is None:
            raise ConfigError(
                "recovery strategy 'optimistic' requires a compensation "
                "function, and this job defines none"
            )
        return OptimisticRecovery(compensation, invariants)
    if name == "confined":
        return ConfinedRecovery(snapshot_interval=snapshot_interval)
    if name == "adaptive":
        # the selector builds its candidates through this registry
        from .adaptive import AdaptiveRecovery

        return AdaptiveRecovery(
            compensation,
            invariants,
            checkpoint_interval=checkpoint_interval,
            snapshot_interval=snapshot_interval,
        )
    raise ConfigError(
        f"unknown recovery strategy {name!r}; valid strategies: "
        f"{', '.join(STRATEGY_NAMES)}"
    )


def resolve_recovery(
    config: EngineConfig,
    *,
    compensation: CompensationFunction | None = None,
    invariants: list[StateInvariant] | None = None,
) -> RecoveryStrategy | None:
    """Build the strategy named by ``config.recovery`` (``None`` when the
    config leaves the choice to the driver's default)."""
    if config.recovery is None:
        return None
    return build_strategy(
        config.recovery, compensation=compensation, invariants=invariants
    )
