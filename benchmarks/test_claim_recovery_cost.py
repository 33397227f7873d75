"""C2 — recovery cost under failures, per strategy and failure time.

§2.2 contrasts the strategies' behaviour after a failure: optimistic
recovery compensates and resumes; rollback restores the last checkpoint
and re-executes from there; restart pays a full re-run. Lineage recovery
has no rows of its own: with a reducer in every superstep it *is* a
restart (§2.2), which the footnote under each table records.

Expected shapes:

* optimistic beats restart everywhere, and the gap widens the later the
  failure strikes (a restart wastes all prior supersteps);
* rollback sits between: cheap recovery, but it pre-paid checkpoint I/O
  while failure-free — and for delta-iterative Connected Components the
  compensation converges so quickly that optimistic wins outright;
* every strategy reaches the same fixpoint.
"""

import pytest

from repro.algorithms import (
    connected_components,
    exact_connected_components,
    exact_pagerank,
    pagerank,
)
from repro.analysis import Table
from repro.config import EngineConfig
from repro.core import CheckpointRecovery, RestartRecovery
from repro.graph import twitter_like_graph
from repro.runtime import FailureSchedule

from .conftest import run_once

CONFIG = EngineConfig(parallelism=4, spare_workers=8)
GRAPH_SIZE = 600

LINEAGE_FOOTNOTE = (
    "note: lineage recovery (§2.2) is the restart rows — every superstep "
    "contains a reducer, so a lost partition depends on all partitions of "
    "the previous superstep and lineage re-computation is a restart."
)


def _strategies(job):
    return [
        ("optimistic", job.optimistic()),
        ("checkpoint(k=2)", CheckpointRecovery(interval=2)),
        ("restart", RestartRecovery()),
    ]


def _run_matrix(job_factory, failure_supersteps):
    results = {}
    for failure_superstep in failure_supersteps:
        schedule = FailureSchedule.single(failure_superstep, [1])
        for name, _ in _strategies(job_factory()):
            job = job_factory()
            strategy = dict(_strategies(job))[name]
            results[(failure_superstep, name)] = job.run(
                config=CONFIG, recovery=strategy, failures=schedule
            )
    return results


def _table(title, results, failure_supersteps):
    table = Table(
        ["failure at", "strategy", "supersteps", "sim time", "restore io", "compensation"],
        title=title,
    )
    for failure_superstep in failure_supersteps:
        for name in ("optimistic", "checkpoint(k=2)", "restart"):
            result = results[(failure_superstep, name)]
            breakdown = result.cost_breakdown()
            table.add_row(
                failure_superstep,
                name,
                result.supersteps,
                result.sim_time,
                breakdown.get("restore_io", 0.0),
                breakdown.get("compensation", 0.0),
            )
    return f"{table}\n{LINEAGE_FOOTNOTE}"


def test_c2_pagerank_recovery_cost(benchmark, report):
    graph = twitter_like_graph(GRAPH_SIZE, seed=7)
    failure_supersteps = (2, 10, 25)
    results = run_once(
        benchmark,
        lambda: _run_matrix(
            lambda: pagerank(graph, max_supersteps=500), failure_supersteps
        ),
    )
    report(
        _table(
            f"C2 — PageRank under one failure, Twitter-like n={GRAPH_SIZE}",
            results,
            failure_supersteps,
        )
    )
    truth = exact_pagerank(graph)
    for result in results.values():
        assert result.converged
        for vertex, rank in result.final_dict.items():
            assert rank == pytest.approx(truth[vertex], abs=1e-6)
    # for a late failure, restart's wasted work exceeds compensation's
    # wash-out (for an early failure the two can flip — compensation pays
    # a roughly constant number of extra supersteps, restart pays the
    # failure time)
    late = failure_supersteps[-1]
    assert (
        results[(late, "optimistic")].supersteps
        <= results[(late, "restart")].supersteps
    )
    assert (
        results[(late, "optimistic")].sim_time
        <= results[(late, "restart")].sim_time
    )
    # the restart penalty grows with the failure time; compensation's does not
    late, early = failure_supersteps[-1], failure_supersteps[0]
    restart_growth = (
        results[(late, "restart")].supersteps - results[(early, "restart")].supersteps
    )
    optimistic_growth = (
        results[(late, "optimistic")].supersteps
        - results[(early, "optimistic")].supersteps
    )
    # For PageRank at a tight epsilon the compensated (partially uniform)
    # state needs a wash-out comparable to a fresh start, so the growth
    # can tie; optimistic still never grows faster than restart.
    assert restart_growth >= optimistic_growth


def test_c2_connected_components_recovery_cost(benchmark, report):
    graph = twitter_like_graph(GRAPH_SIZE, seed=7)
    failure_supersteps = (1, 2, 3)
    results = run_once(
        benchmark,
        lambda: _run_matrix(lambda: connected_components(graph), failure_supersteps),
    )
    report(
        _table(
            f"C2 — Connected Components under one failure, Twitter-like n={GRAPH_SIZE}",
            results,
            failure_supersteps,
        )
    )
    truth = exact_connected_components(graph)
    for result in results.values():
        assert result.converged
        assert result.final_dict == truth
    # for the delta iteration, optimistic wins outright on total time
    for failure_superstep in failure_supersteps:
        optimistic = results[(failure_superstep, "optimistic")]
        for other in ("checkpoint(k=2)", "restart"):
            assert optimistic.sim_time <= results[(failure_superstep, other)].sim_time
