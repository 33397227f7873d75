"""S4 — the single-pass ``_shuffle`` fast path.

``PlanExecutor._shuffle`` routes every record of every source partition
in one pass. It must place records exactly like the per-record dispatch
loop it replaced, charge the same simulated cost, and be wall-clock
faster.
"""

import time

from repro.analysis.report import Table
from repro.dataflow.datatypes import first_field
from repro.runtime import PartitionedDataset, PlanExecutor
from repro.runtime.partition import HashPartitioner

from .conftest import run_once

PARALLELISM = 4


def test_s4_shuffle_fast_path_microbenchmark(benchmark, report):
    """The single-pass ``_shuffle`` beats the per-record dispatch loop it
    replaced, at fixed simulated cost."""
    KEY = first_field("k")
    records = [(k, k * 3) for k in range(60_000)]
    rounds = 5

    def naive_shuffle(executor, dataset, key, op_name):
        # the pre-optimization implementation: fresh partitioner lookup
        # and attribute-resolved append on every record, two-phase count
        partitioner = HashPartitioner(executor.parallelism)
        parts = [[] for _ in range(executor.parallelism)]
        moved = 0
        for part in dataset.partitions:
            for record in part:
                parts[partitioner.partition(key(record))].append(record)
                moved += 1
        executor.clock.charge_network(moved)
        executor.metrics.increment(f"shuffled.{op_name}", moved)
        executor.metrics.observe("shuffle_volume", moved)
        executor.metrics.observe(f"shuffle_volume.{op_name}", moved)
        return PartitionedDataset(partitions=parts, partitioned_by=key)

    def run_both():
        fast_exec, naive_exec = PlanExecutor(PARALLELISM), PlanExecutor(PARALLELISM)
        fast_time = naive_time = 0.0
        fast = naive = None
        for _ in range(rounds):
            dataset = PartitionedDataset.from_records(records, PARALLELISM)
            start = time.perf_counter()
            fast = fast_exec._shuffle(dataset, KEY, "bench")
            fast_time += time.perf_counter() - start
            dataset = PartitionedDataset.from_records(records, PARALLELISM)
            start = time.perf_counter()
            naive = naive_shuffle(naive_exec, dataset, KEY, "bench")
            naive_time += time.perf_counter() - start
        return fast_time, naive_time, fast, naive, fast_exec, naive_exec

    fast_time, naive_time, fast, naive, fast_exec, naive_exec = run_once(
        benchmark, run_both
    )

    table = Table(
        ["implementation", "wall clock (s)", "sim network cost"],
        title=f"S4 — _shuffle fast path ({len(records)} records x {rounds} rounds)",
    )
    table.add_row("single-pass (current)", f"{fast_time:.4f}", fast_exec.clock.now)
    table.add_row("per-record dispatch (old)", f"{naive_time:.4f}", naive_exec.clock.now)
    report(table.to_text())
    report(f"speedup: {naive_time / fast_time:.2f}x at identical simulated cost")

    # identical placement and identical simulated charges
    assert fast.partitions == naive.partitions
    assert fast_exec.clock.now == naive_exec.clock.now
    assert fast_exec.clock.accounts() == naive_exec.clock.accounts()
