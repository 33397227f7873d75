"""Adaptive recovery-strategy selection.

The right fault-tolerance mechanism depends on the workload: restart is
free until a failure strikes but re-executes everything; checkpointing
taxes every superstep; optimistic recovery is free when failure-free but
pays compensation plus convergence washout per failure; confined recovery
pays a small log/snapshot tax and recovers only the lost partitions.
:class:`AdaptiveRecovery` picks between them per job from a
:class:`WorkloadObservation` — state size, message volume, expected
failure rate and blast radius — using the same cost constants the
simulated clock charges (:class:`repro.config.CostModel`), and re-selects
when the observed failure rate disagrees with the prediction.

The estimator intentionally mirrors the simulator's charging model (the
six-plus-two cost categories of the recovery-cost profiler) rather than
inventing its own units, so its break-even points line up with what the
A9/S8 benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config import CostModel
from ..runtime.events import EventKind
from ..runtime.executor import PartitionedDataset
from .compensation import CompensationFunction
from .confined import ConfinedRecovery
from .guarantees import StateInvariant
from .recovery import RecoveryContext, RecoveryOutcome, RecoveryStrategy
from .strategies import build_strategy


@dataclass(frozen=True)
class WorkloadObservation:
    """What the selector knows (or assumes) about a job.

    Attributes:
        state_records: total records of iterative state.
        parallelism: number of state partitions.
        failure_rate: expected failures per superstep.
        messages_per_superstep: records crossing shuffle/broadcast
            channels per superstep (the volume a message log would
            absorb).
        expected_supersteps: how long the job is expected to run.
        lost_fraction: fraction of partitions destroyed by one failure
            (one worker's share of the cluster).
    """

    state_records: int
    parallelism: int
    failure_rate: float
    messages_per_superstep: float
    expected_supersteps: int
    lost_fraction: float


def estimate_strategy_costs(
    obs: WorkloadObservation,
    cost_model: CostModel,
    *,
    checkpoint_interval: int = 2,
    snapshot_interval: int = 4,
    washout_supersteps: int = 3,
    has_compensation: bool = False,
) -> dict[str, float]:
    """Expected fault-tolerance cost per superstep, per strategy.

    Each estimate is ``failure-free overhead + failure_rate × per-failure
    recovery cost``, in simulated seconds, using the same per-record
    constants the clock charges. Strategies that are not applicable
    (optimistic without a compensation function) are omitted.
    """
    m = cost_model
    state = float(obs.state_records)
    messages = float(obs.messages_per_superstep)
    rate = max(0.0, obs.failure_rate)
    # Re-executing one superstep: push the state through the plan and
    # move the messages across the network.
    step_cost = state * m.cpu_per_record + messages * m.network_per_record
    restore_all = state * m.restore_per_record
    estimates: dict[str, float] = {}
    # Restart: no overhead; a failure re-reads the inputs and repeats (on
    # average) half the run so far.
    estimates["restart"] = rate * (
        restore_all + 0.5 * obs.expected_supersteps * step_cost
    )
    # Checkpoint: amortized global write; a failure restores everything
    # and repeats (on average) half an interval.
    estimates["checkpoint"] = (
        state * m.checkpoint_per_record / checkpoint_interval
        + rate * (restore_all + 0.5 * checkpoint_interval * step_cost)
    )
    # Optimistic: free when failure-free; a failure compensates all
    # partitions and washes the perturbation out over extra supersteps.
    if has_compensation:
        estimates["optimistic"] = rate * (
            state * m.compensation_per_record + washout_supersteps * step_cost
        )
    # Confined: log every delivery and snapshot periodically; a failure
    # restores and replays only the lost fraction.
    replay_window = 0.5 * (snapshot_interval + 1)
    estimates["confined"] = (
        messages * m.log_per_record
        + state * m.checkpoint_per_record / snapshot_interval
        + rate
        * obs.lost_fraction
        * (restore_all + replay_window * messages * m.replay_per_record)
    )
    return estimates


def select_strategy(
    obs: WorkloadObservation,
    cost_model: CostModel,
    *,
    checkpoint_interval: int = 2,
    snapshot_interval: int = 4,
    washout_supersteps: int = 3,
    has_compensation: bool = False,
) -> tuple[str, dict[str, float]]:
    """Pick the cheapest strategy for ``obs``; returns the name and all
    estimates (ties break deterministically by name)."""
    estimates = estimate_strategy_costs(
        obs,
        cost_model,
        checkpoint_interval=checkpoint_interval,
        snapshot_interval=snapshot_interval,
        washout_supersteps=washout_supersteps,
        has_compensation=has_compensation,
    )
    winner = min(sorted(estimates), key=lambda name: estimates[name])
    return winner, estimates


class AdaptiveRecovery(RecoveryStrategy):
    """Delegating strategy that picks restart/checkpoint/optimistic/confined.

    Selection happens at run start from a :class:`WorkloadObservation`
    (built from the initial state and the configured expectations) and is
    revisited after every failure with the *observed* failure rate; a
    switch takes effect from the next superstep on and is recorded as a
    ``strategy_selected`` event.

    Args:
        compensation: the job's compensation function — without one,
            optimistic recovery is simply not a candidate.
        invariants: consistency checks for the optimistic candidate.
        checkpoint_interval: interval of the checkpoint candidate.
        snapshot_interval: local-snapshot interval of the confined
            candidate.
        expected_failure_rate: assumed failures per superstep before any
            failure has been observed.
        expected_supersteps: assumed run length (restart's re-execution
            cost grows with it).
        washout_supersteps: assumed extra supersteps optimistic recovery
            needs to wash a compensation out.
        message_fanout: assumed shuffle records per state record per
            superstep (sizes the log/replay estimates before any traffic
            has been seen).
        reselect: whether to re-evaluate after each failure (disable for
            a pure ahead-of-time pick).
    """

    name = "adaptive"

    def __init__(
        self,
        compensation: CompensationFunction | None = None,
        invariants: list[StateInvariant] | None = None,
        *,
        checkpoint_interval: int = 2,
        snapshot_interval: int = 4,
        expected_failure_rate: float = 0.05,
        expected_supersteps: int = 20,
        washout_supersteps: int = 3,
        message_fanout: float = 2.0,
        reselect: bool = True,
    ):
        self.compensation = compensation
        self.invariants = list(invariants or [])
        self.checkpoint_interval = checkpoint_interval
        self.snapshot_interval = snapshot_interval
        self.expected_failure_rate = expected_failure_rate
        self.expected_supersteps = expected_supersteps
        self.washout_supersteps = washout_supersteps
        self.message_fanout = message_fanout
        self.reselect = reselect
        self._selected: RecoveryStrategy | None = None
        self._observation: WorkloadObservation | None = None
        self._estimates: dict[str, float] = {}
        self._failures = 0
        self.selections: list[tuple[int, str]] = []

    # -- selection ---------------------------------------------------------------

    @property
    def selected_name(self) -> str | None:
        """Name of the currently delegated-to strategy."""
        return self._selected.name if self._selected is not None else None

    @property
    def estimates(self) -> dict[str, float]:
        """Per-strategy cost estimates of the latest selection."""
        return dict(self._estimates)

    def _observe(self, ctx: RecoveryContext) -> WorkloadObservation:
        state_records = (
            ctx.initial_state.num_records() if ctx.initial_state is not None else 0
        )
        parallelism = ctx.parallelism
        per_worker = ctx.cluster.config.partitions_per_worker
        return WorkloadObservation(
            state_records=state_records,
            parallelism=parallelism,
            failure_rate=self.expected_failure_rate,
            messages_per_superstep=state_records * self.message_fanout,
            expected_supersteps=self.expected_supersteps,
            lost_fraction=min(1.0, per_worker / parallelism),
        )

    def _select(
        self, ctx: RecoveryContext, obs: WorkloadObservation, superstep: int
    ) -> None:
        name, estimates = select_strategy(
            obs,
            ctx.executor.clock.cost_model,
            checkpoint_interval=self.checkpoint_interval,
            snapshot_interval=self.snapshot_interval,
            washout_supersteps=self.washout_supersteps,
            has_compensation=self.compensation is not None,
        )
        self._estimates = estimates
        if self._selected is not None and self._selected.name == name:
            return
        previous = self._selected
        if isinstance(previous, ConfinedRecovery):
            previous.detach(ctx)
        self._selected = build_strategy(
            name,
            compensation=self.compensation,
            invariants=self.invariants,
            checkpoint_interval=self.checkpoint_interval,
            snapshot_interval=self.snapshot_interval,
        )
        self._selected.on_start(ctx)
        self.selections.append((superstep, name))
        ctx.cluster.events.record(
            EventKind.STRATEGY_SELECTED,
            time=ctx.executor.clock.now,
            superstep=superstep,
            strategy=name,
            previous=previous.name if previous is not None else None,
            failure_rate=obs.failure_rate,
            estimates={key: estimates[key] for key in sorted(estimates)},
        )

    # -- strategy hooks ----------------------------------------------------------

    def on_start(self, ctx: RecoveryContext) -> None:
        self._observation = self._observe(ctx)
        self._failures = 0
        self._select(ctx, self._observation, superstep=-1)

    def on_superstep_committed(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None = None,
    ) -> None:
        assert self._selected is not None
        self._selected.on_superstep_committed(ctx, superstep, state, workset)

    def recover(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None,
        lost_partitions: list[int],
    ) -> RecoveryOutcome:
        assert self._selected is not None
        outcome = self._selected.recover(
            ctx, superstep, state, workset, lost_partitions
        )
        self._failures += 1
        if self.reselect and self._observation is not None:
            observed_rate = self._failures / (superstep + 1)
            self._observation = replace(
                self._observation, failure_rate=observed_rate
            )
            # The switch, if any, applies from the next superstep on; the
            # failure that triggered it was handled by the old strategy.
            self._select(ctx, self._observation, superstep)
        return outcome

    def reset(self) -> None:
        if self._selected is not None:
            self._selected.reset()
        self._selected = None
        self._observation = None
        self._estimates = {}
        self._failures = 0
        self.selections = []
