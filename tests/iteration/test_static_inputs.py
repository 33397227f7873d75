"""Static inputs keep their placement and build index for the whole run.

A loop-invariant input is bound once as a
:class:`~repro.runtime.executor.StaticDataset`. Failures never destroy a
static, so its build index is built once per partition per static build
side of the step plan — not once per superstep, and not again after a
failure — while every shuffle of a static is still charged exactly what
re-routing it would cost.
"""

from repro.algorithms.connected_components import VERTEX_KEY, connected_components
from repro.config import EngineConfig
from repro.dataflow.datatypes import first_field
from repro.graph.generators import grid_graph
from repro.runtime import kernels
from repro.runtime.executor import PartitionedDataset, PlanExecutor, StaticDataset
from repro.runtime.failures import FailureSchedule

PARALLELISM = 4


def test_cc_builds_each_static_index_once_across_failures(monkeypatch):
    calls = []
    build = kernels.build_index_kernel

    def counting(part, key):
        calls.append(key)
        return build(part, key)

    monkeypatch.setattr(kernels, "build_index_kernel", counting)
    job = connected_components(grid_graph(6, 6))
    result = job.run(
        config=EngineConfig(parallelism=PARALLELISM, spare_workers=8),
        recovery=job.optimistic(),
        failures=FailureSchedule.at((2, [1]), (4, [0, 3])),
    )
    assert result.converged and result.supersteps > 5
    assert result.stats.failure_supersteps() == [2, 4]
    # One static build side in the step plan: the graph, probed by
    # ``label-to-neighbors`` (``label-update`` builds on the solution set).
    assert calls == [VERTEX_KEY] * PARALLELISM


def test_static_shuffle_routes_once_and_charges_every_time():
    key = first_field("k")
    records = [(i * 7 % 23, i) for i in range(40)]
    static = StaticDataset.from_records(records, PARALLELISM)
    dynamic = PartitionedDataset.from_records(records, PARALLELISM)
    static_exec, dynamic_exec = PlanExecutor(PARALLELISM), PlanExecutor(PARALLELISM)

    first = static_exec._shuffle(static, key, "op")
    second = static_exec._shuffle(static, key, "op")
    for _ in range(2):
        expected = dynamic_exec._shuffle(dynamic, key, "op")

    assert second is first and isinstance(first, StaticDataset)
    assert first.partitions == expected.partitions
    assert static_exec.clock.counts() == dynamic_exec.clock.counts()
    assert static_exec.metrics.snapshot_all() == dynamic_exec.metrics.snapshot_all()
