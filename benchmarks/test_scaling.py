"""S1 — workload scaling of the simulated engine.

Not a paper figure: a sanity series showing how the reproduction's costs
scale with input size, so that the absolute numbers in the other benches
can be put into proportion. Simulated compute/network time should grow
roughly with the edge count; the optimistic/failure-free identity from C1
must hold at every size.
"""

import pytest

from repro.algorithms import connected_components, pagerank
from repro.analysis import Table
from repro.config import EngineConfig
from repro.core import RestartRecovery
from repro.graph import twitter_like_graph

from .conftest import run_once

CONFIG = EngineConfig(parallelism=4, spare_workers=8)
SIZES = (200, 400, 800)


def test_s1_scaling_with_graph_size(benchmark, report):
    def run_sweep():
        rows = []
        for size in SIZES:
            graph = twitter_like_graph(size, seed=7)
            pr_job = pagerank(graph, max_supersteps=500)
            pr = pr_job.run(config=CONFIG, recovery=pr_job.optimistic())
            cc_job = connected_components(graph)
            cc = cc_job.run(config=CONFIG, recovery=cc_job.optimistic())
            rows.append((size, graph.num_edges, pr, cc))
        return rows

    rows = run_once(benchmark, run_sweep)
    table = Table(
        [
            "vertices",
            "edges",
            "PR supersteps",
            "PR sim time",
            "PR messages",
            "CC supersteps",
            "CC sim time",
            "CC messages",
        ],
        title="S1 — failure-free scaling, Twitter-like graphs",
    )
    for size, edges, pr, cc in rows:
        table.add_row(
            size,
            edges,
            pr.supersteps,
            pr.sim_time,
            pr.stats.total_messages(),
            cc.supersteps,
            cc.sim_time,
            cc.stats.total_messages(),
        )
    report(str(table))

    # monotone growth of work with input size
    pr_times = [pr.sim_time for _s, _e, pr, _cc in rows]
    cc_messages = [cc.stats.total_messages() for _s, _e, _pr, cc in rows]
    assert pr_times == sorted(pr_times)
    assert cc_messages == sorted(cc_messages)
    # everything converged
    for _size, _edges, pr, cc in rows:
        assert pr.converged and cc.converged


LARGE_SIZES = (5_000, 10_000, 20_000)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_s1_large_graphs(benchmark, report):
    """The large-graph leg: wall clock *and* peak RSS.

    Runs the same PR/CC pair over genuinely large Twitter-like graphs,
    recording wall-clock seconds and the process's peak resident set
    alongside the simulated costs — the footprint axis the small-size
    sweep above cannot show.
    """
    import time

    def run_sweep():
        rows = []
        for size in LARGE_SIZES:
            graph = twitter_like_graph(size, seed=7)
            started = time.perf_counter()
            pr_job = pagerank(graph, max_supersteps=500)
            pr = pr_job.run(config=CONFIG, recovery=pr_job.optimistic())
            pr_wall = time.perf_counter() - started
            started = time.perf_counter()
            cc_job = connected_components(graph)
            cc = cc_job.run(config=CONFIG, recovery=cc_job.optimistic())
            cc_wall = time.perf_counter() - started
            rows.append((size, graph.num_edges, pr, pr_wall, cc, cc_wall, _peak_rss_mb()))
        return rows

    rows = run_once(benchmark, run_sweep)
    table = Table(
        [
            "vertices",
            "edges",
            "PR supersteps",
            "PR wall s",
            "CC supersteps",
            "CC wall s",
            "peak RSS MB",
        ],
        title="S1 — large Twitter-like graphs (wall clock + peak RSS)",
    )
    for size, edges, pr, pr_wall, cc, cc_wall, rss in rows:
        table.add_row(
            size,
            edges,
            pr.supersteps,
            round(pr_wall, 2),
            cc.supersteps,
            round(cc_wall, 2),
            round(rss, 1),
        )
    report(str(table))

    for _size, _edges, pr, _pw, cc, _cw, _rss in rows:
        assert pr.converged and cc.converged
    # peak RSS is monotone by definition (high-water mark); the point of
    # archiving it is the absolute footprint, not a growth law.
    rss_series = [rss for *_rest, rss in rows]
    assert rss_series == sorted(rss_series)
    walls = [pr_wall for _s, _e, _pr, pr_wall, _cc, _cw, _rss in rows]
    assert all(wall > 0 for wall in walls)
