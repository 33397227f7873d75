"""The superstep driver's contract with the recovery SPI, in both modes.

A spy strategy records every SPI call on one toy bulk job and one toy
delta job. On the failed superstep ``recover`` sees the lost partitions
as ``None`` while the context carries the complete pre-loss contents of exactly those partitions
(``ctx.destroyed_state`` / ``ctx.destroyed_workset``) — and no longer
carries them once ``recover`` returned; ``on_superstep_committed`` is not
called for that superstep and the termination criterion is not consulted.
Bulk and delta must emit the same ``EventKind`` sequence (the toys are
sized to run the same number of supersteps).
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core.recovery import RecoveryOutcome, RecoveryStrategy
from repro.iteration.bulk import BulkIterationSpec, run_bulk_iteration
from repro.iteration.delta import DeltaIterationSpec, run_delta_iteration
from repro.iteration.termination import (
    EmptyWorkset,
    FixedSupersteps,
    TerminationCriterion,
)
from repro.runtime.events import EventKind
from repro.runtime.executor import PartitionedDataset
from repro.runtime.failures import FailureSchedule

from .test_bulk import KEY, _halving_plan
from .test_delta import _countdown_plan

CONFIG = EngineConfig(parallelism=4, spare_workers=8)
FAILED_SUPERSTEP = 2
FAILED_WORKER = 1
SUPERSTEPS = 5


class SpyTermination(TerminationCriterion):
    """Delegating criterion that remembers which supersteps consulted it."""

    def __init__(self, inner):
        self.inner = inner
        self.consulted: list[int] = []
        self.uses_updates = inner.uses_updates

    def should_stop(self, stats):
        self.consulted.append(stats.superstep)
        return self.inner.should_stop(stats)

    def reset(self):
        self.inner.reset()


class SpyRecovery(RecoveryStrategy):
    """Heals lost partitions from the contents the driver put on the
    context; logs every call."""

    name = "spy"

    def __init__(self):
        self.calls: list[str] = []
        self.seen: dict[str, tuple] = {}
        self.ctx = None

    def on_start(self, ctx):
        self.calls.append("on_start")
        self.ctx = ctx

    @staticmethod
    def _lost_view(dataset, lost):
        return None if dataset is None else [dataset.partitions[p] for p in lost]

    def on_superstep_committed(self, ctx, superstep, state, workset=None):
        self.calls.append(f"committed:{superstep}")

    def recover(self, ctx, superstep, state, workset, lost_partitions):
        self.calls.append(f"recover:{superstep}")
        self.seen["recover"] = (
            self._lost_view(state, lost_partitions),
            self._lost_view(workset, lost_partitions),
        )
        self.seen["lost"] = tuple(lost_partitions)
        self.seen["destroyed"] = (ctx.destroyed_state, ctx.destroyed_workset)
        for dataset, destroyed in zip((state, workset), self.seen["destroyed"]):
            if dataset is not None:
                for p in lost_partitions:
                    dataset.partitions[p] = destroyed[p]
        return RecoveryOutcome(
            state=state, workset=workset, healed_partitions=list(lost_partitions)
        )


def _run_bulk(recovery, termination, failures):
    spec = BulkIterationSpec(
        name="halve",
        step_plan=_halving_plan(),
        state_source="state",
        next_state_output="halve",
        state_key=KEY,
        termination=termination,
    )
    return run_bulk_iteration(
        spec,
        [(k, 1.0) for k in range(8)],
        config=CONFIG,
        recovery=recovery,
        failures=failures,
    )


def _run_delta(recovery, termination, failures):
    spec = DeltaIterationSpec(
        name="countdown",
        step_plan=_countdown_plan(),
        solution_source="solution",
        workset_source="workset",
        delta_output="decrement",
        workset_output="decrement",
        state_key=KEY,
        termination=termination,
    )
    return run_delta_iteration(
        spec,
        [(k, k % 4 + 1) for k in range(8)],
        config=CONFIG,
        recovery=recovery,
        failures=failures,
    )


# Bulk commits four supersteps and loses one to the failure; the delta
# countdown from 4 empties its workset in the fifth superstep.
MODES = {
    "bulk": (_run_bulk, lambda: FixedSupersteps(SUPERSTEPS - 1)),
    "delta": (_run_delta, EmptyWorkset),
}


def _run(mode):
    runner, make_termination = MODES[mode]
    recovery = SpyRecovery()
    termination = SpyTermination(make_termination())
    result = runner(
        recovery, termination, FailureSchedule.single(FAILED_SUPERSTEP, [FAILED_WORKER])
    )
    return result, recovery, termination


@pytest.mark.parametrize("mode", MODES)
def test_spi_order_on_a_failed_superstep(mode):
    result, recovery, termination = _run(mode)
    assert result.converged and result.supersteps == SUPERSTEPS

    committed = [s for s in range(SUPERSTEPS) if s != FAILED_SUPERSTEP]
    before = [f"committed:{s}" for s in committed if s < FAILED_SUPERSTEP]
    after = [f"committed:{s}" for s in committed if s > FAILED_SUPERSTEP]
    expected = [
        "on_start",
        *before,
        f"recover:{FAILED_SUPERSTEP}",
        *after,
    ]
    assert recovery.calls == expected
    assert termination.consulted == committed


@pytest.mark.parametrize("mode", MODES)
def test_capture_sees_complete_partitions_and_recover_sees_them_lost(mode):
    _, recovery, _ = _run(mode)
    lost = recovery.seen["lost"]
    assert lost
    # The context carried the complete contents of exactly the lost
    # partitions ...
    destroyed_state, destroyed_workset = recovery.seen["destroyed"]
    assert sorted(destroyed_state) == sorted(lost)
    assert all(part is not None for part in destroyed_state.values())
    assert (destroyed_workset is None) == (mode == "bulk")
    if destroyed_workset is not None:
        assert sorted(destroyed_workset) == sorted(lost)
        assert all(part is not None for part in destroyed_workset.values())
    # ... which were non-trivial in both toys and are exactly what the
    # failed superstep had computed for those partitions ...
    assert any(destroyed_state.values())
    reference = MODES[mode][0](None, FixedSupersteps(FAILED_SUPERSTEP + 1), None)
    computed = PartitionedDataset.from_records(
        reference.final_records, CONFIG.parallelism, key=KEY
    )
    for pid, part in destroyed_state.items():
        assert sorted(part) == sorted(computed.partitions[pid])
    # ... while recover saw those partitions lost.
    state_lost, workset_lost = recovery.seen["recover"]
    assert all(part is None for part in state_lost)
    assert (workset_lost is None) == (mode == "bulk")
    assert workset_lost is None or all(part is None for part in workset_lost)
    # The contents do not outlive the recover call.
    assert recovery.ctx.destroyed_state is None
    assert recovery.ctx.destroyed_workset is None


def test_bulk_and_delta_emit_the_same_event_kind_sequence():
    sequences = {
        mode: [event.kind for event in _run(mode)[0].events] for mode in MODES
    }
    assert sequences["bulk"] == sequences["delta"]
    per_superstep = [EventKind.SUPERSTEP_STARTED, EventKind.SUPERSTEP_FINISHED]
    assert sequences["bulk"] == [
        *per_superstep * FAILED_SUPERSTEP,
        EventKind.SUPERSTEP_STARTED,
        EventKind.FAILURE,
        EventKind.WORKERS_ACQUIRED,
        EventKind.SUPERSTEP_FINISHED,
        *per_superstep * (SUPERSTEPS - FAILED_SUPERSTEP - 1),
        EventKind.CONVERGED,
        EventKind.TERMINATED,
    ]
