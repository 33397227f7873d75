#!/usr/bin/env python3
"""Compare three recovery strategies on the Twitter-like graph.

Runs PageRank and Connected Components with one injected failure under
optimistic recovery, rollback (checkpoint) recovery and plain restart
(which is also what lineage recovery degenerates to when every superstep
has a reducer — §2.2), and prints total simulated time, its decomposition and
the superstep counts — the comparison behind the paper's "optimal
failure-free performance" argument.
"""

from repro.algorithms import connected_components, pagerank
from repro.analysis import Table
from repro.config import EngineConfig
from repro.core import CheckpointRecovery, RestartRecovery
from repro.graph import twitter_like_graph
from repro.runtime import FailureSchedule

CONFIG = EngineConfig(parallelism=4, spare_workers=8)


def compare(job_factory, failure_superstep: int, title: str) -> None:
    schedule = FailureSchedule.single(failure_superstep, [1])
    strategies = [
        ("optimistic", None),
        ("checkpoint(k=2)", CheckpointRecovery(interval=2)),
        ("restart", RestartRecovery()),
    ]
    table = Table(
        ["strategy", "supersteps", "sim time", "checkpoint io", "restore io", "compensation"],
        title=title,
    )
    for name, strategy in strategies:
        job = job_factory()
        strategy = strategy if strategy is not None else job.optimistic()
        result = job.run(config=CONFIG, recovery=strategy, failures=schedule)
        breakdown = result.cost_breakdown()
        table.add_row(
            name,
            result.supersteps,
            result.sim_time,
            breakdown.get("checkpoint_io", 0.0),
            breakdown.get("restore_io", 0.0),
            breakdown.get("compensation", 0.0),
        )
    print(table)
    print()


def main() -> None:
    graph = twitter_like_graph(500, seed=7)
    print(f"workload graph: {graph}\n")
    compare(
        lambda: pagerank(graph, max_supersteps=500),
        failure_superstep=10,
        title="PageRank, one failure at superstep 10",
    )
    compare(
        lambda: connected_components(graph),
        failure_superstep=2,
        title="Connected Components, one failure at superstep 2",
    )
    print("reading guide: optimistic recovery pays zero checkpoint I/O and")
    print("recovers through compensation; rollback pays I/O every interval;")
    print("restart re-runs the whole iteration.")


if __name__ == "__main__":
    main()
