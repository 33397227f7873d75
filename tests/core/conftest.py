"""Shared fixtures for recovery-layer tests.

Builds a minimal :class:`RecoveryContext` around a 4-partition state of
``(key, value)`` records without running a full iteration.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core.recovery import RecoveryContext
from repro.dataflow.datatypes import first_field
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.executor import PartitionedDataset, PlanExecutor
from repro.runtime.storage import StableStorage

KEY = first_field("k")
PARALLELISM = 4


@pytest.fixture
def initial_records():
    return [(k, float(k)) for k in range(12)]


@pytest.fixture
def recovery_ctx(initial_records):
    config = EngineConfig(parallelism=PARALLELISM, spare_workers=8)
    cluster = SimulatedCluster(config)
    executor = PlanExecutor(PARALLELISM, clock=cluster.clock)
    storage = StableStorage(cluster.clock)
    initial_state = PartitionedDataset.from_records(
        initial_records, PARALLELISM, key=KEY
    )
    initial_workset = initial_state.copy()
    ctx = RecoveryContext(
        job_name="job",
        cluster=cluster,
        executor=executor,
        storage=storage,
        state_key=KEY,
        statics={},
        initial_state=initial_state,
        initial_workset=initial_workset,
    )
    ctx.persist(ctx.input_prefix, initial_state, initial_workset, charge=False)
    return ctx


def destroy(ctx: RecoveryContext, state, workset, lost: list[int]) -> None:
    """What the driver does on a failure: hand the strategy the pre-loss
    contents of the ``lost`` partitions on the context, then destroy them."""
    ctx.destroyed_state = {pid: state.partitions[pid] for pid in lost}
    state.lose(lost)
    ctx.destroyed_workset = None
    if workset is not None:
        ctx.destroyed_workset = {pid: workset.partitions[pid] for pid in lost}
        workset.lose(lost)


def damaged_state(ctx: RecoveryContext, lost: list[int]) -> PartitionedDataset:
    """A live state (values doubled vs. initial) with ``lost`` destroyed."""
    live = PartitionedDataset(
        partitions=[
            [(k, v * 2.0) for k, v in part]
            for part in ctx.initial_state.partitions
        ],
        partitioned_by=ctx.state_key,
    )
    live.lose(lost)
    return live
