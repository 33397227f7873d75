"""S3 — keyed solution-set state backend: O(|delta|) superstep maintenance.

The delta-iteration driver used to rebuild a ``{key: record}`` dict over
the entire solution set every superstep — O(|state|) maintenance work
where the paper's model is O(|delta|). The keyed backend applies deltas
in place through per-partition hash indexes, so per-superstep maintenance
work tracks the delta size, not the solution-set size: on chain graphs of
growing length, its late-superstep op counts are constant.

The cost of the rebuild semantics on this benchmark (54/104/204/404 tail
ops at n = 50/100/200/400 against 4, at identical records and simulated
time) is recorded in docs/REPRODUCING.md ("Removed modes"); the reference
implementation is the test oracle in ``tests/runtime/test_state_backend.py``.
"""

from repro.algorithms import connected_components
from repro.analysis import Series, format_figure
from repro.analysis.report import Table
from repro.config import EngineConfig
from repro.graph import chain_graph, multi_component_graph
from repro.runtime import FailureSchedule

from .conftest import run_once

PARALLELISM = 4


CONFIG = EngineConfig(parallelism=PARALLELISM, spare_workers=8)


def test_s3_maintenance_scales_with_delta_not_state(benchmark, report):
    """Late-superstep maintenance cost is O(|delta|).

    On a chain graph, CC's delta shrinks by one vertex per superstep, so
    the final supersteps apply near-constant-size deltas no matter how
    long the chain is. The keyed backend's op counts there must therefore
    be *independent of n*.
    """
    lengths = [50, 100, 200, 400]
    TAIL = 5  # compare the last TAIL supersteps of each run

    def run_all():
        ops = {}
        for n in lengths:
            result = connected_components(
                chain_graph(n), max_supersteps=n + 10
            ).run(config=CONFIG)
            ops[n] = [
                int(v)
                for v in result.metrics.histogram_values("state.maintenance_ops")
            ]
        return ops

    ops = run_once(benchmark, run_all)

    table = Table(
        ["n", "ops @ last supersteps", "max tail ops"],
        title="S3 — per-superstep state-maintenance ops (tail of the run)",
    )
    for n in lengths:
        tail = ops[n][-TAIL:]
        table.add_row(n, str(tail), max(tail))
    report(table.to_text())
    report(
        format_figure(
            f"S3 — maintenance ops per superstep (chain n={lengths[-1]})",
            [Series.of("keyed", ops[lengths[-1]])],
        )
    )

    tails = {n: ops[n][-TAIL:] for n in lengths}
    # O(|delta|): the tail op counts are identical for every chain length
    # — the keyed backend never touches the unchanged bulk of the state
    assert len({tuple(tail) for tail in tails.values()}) == 1
    for n in lengths:
        # and every late superstep costs less than one pass over the state
        assert max(tails[n]) < n


def test_s3_failure_free_has_no_index_rebuilds(benchmark, report):
    """Index rebuilds happen only on the failure path."""
    graph = multi_component_graph(3, 25)

    def run_both():
        free = connected_components(graph).run(config=CONFIG)
        job = connected_components(graph)
        failed = job.run(
            config=CONFIG,
            recovery=job.optimistic(),
            failures=FailureSchedule.single(2, [1]),
        )
        return free, failed

    free, failed = run_once(benchmark, run_both)
    table = Table(
        ["run", "delta applied", "index rebuilds"],
        title="S3 — state backend counters",
    )
    table.add_row(
        "failure-free",
        free.metrics.get("state.delta_applied"),
        free.metrics.get("state.index_rebuilds"),
    )
    table.add_row(
        "failure at superstep 2",
        failed.metrics.get("state.delta_applied"),
        failed.metrics.get("state.index_rebuilds"),
    )
    report(table.to_text())

    assert free.metrics.get("state.index_rebuilds") == 0
    assert free.metrics.get("state.delta_applied") > 0
    # recovery reinstalled every partition at least once
    assert failed.metrics.get("state.index_rebuilds") >= PARALLELISM
