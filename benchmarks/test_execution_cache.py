"""S4 — superstep execution cache: loop-invariant work served once per run.

Every superstep used to re-execute the full step plan: the static build
side of each join was re-indexed every round and loop-invariant subplans
were recomputed identically. The :class:`repro.runtime.cache.\
SuperstepExecutionCache` materializes that work once per run. Three
things must hold:

* **equivalence** — ``execution_cache="transparent"`` (the default) is
  observably identical to ``"off"``: same final records (same order),
  same supersteps, same simulated-clock totals, failure-free and under
  recovery — every archived figure still reproduces exactly;
* **hit rates** — after the cold superstep 0, lookups are served from
  cache (> 90% hit rate on runs long enough to amortize a failure), and
  join build-side rebuilds drop to ~once per run;
* **wall clock** — transparent caching and the single-pass ``_shuffle``
  fast path make runs wall-clock faster at bit-identical simulated cost.
"""

import time

from repro.algorithms import connected_components, pagerank
from repro.analysis.report import Table
from repro.config import EngineConfig
from repro.dataflow.datatypes import first_field
from repro.graph import chain_graph
from repro.graph.generators import demo_graph, demo_pagerank_graph, twitter_like_graph
from repro.runtime import FailureSchedule, PartitionedDataset, PlanExecutor
from repro.runtime.partition import HashPartitioner

from .conftest import run_once

PARALLELISM = 4

#: the paper-narration demo failures (Figures 2–5): CC fails at the third
#: iteration, PageRank in iteration 5.
CC_FAILURE = FailureSchedule.single(2, [0])
PR_FAILURE = FailureSchedule.single(4, [1])


def _config(mode: str) -> EngineConfig:
    return EngineConfig(parallelism=PARALLELISM, spare_workers=8, execution_cache=mode)


def _scenarios():
    """The demo scenarios plus a long CC run (chain graph) whose superstep
    count is high enough to amortize a mid-run invalidation."""
    return {
        "cc-demo": (lambda: connected_components(demo_graph()), CC_FAILURE),
        "pagerank-demo": (lambda: pagerank(demo_pagerank_graph()), PR_FAILURE),
        "cc-chain": (lambda: connected_components(chain_graph(40)), CC_FAILURE),
        "pagerank-twitter": (
            lambda: pagerank(twitter_like_graph(500, seed=7)),
            PR_FAILURE,
        ),
    }


def _run(job_factory, mode, failures=None):
    job = job_factory()
    return job.run(
        config=_config(mode),
        recovery=job.optimistic() if failures is not None else None,
        failures=failures,
    )


def test_s4_transparent_equivalence(benchmark, report):
    """Transparent caching is observably identical to cache-off."""

    def run_all():
        results = {}
        for name, (factory, failures) in _scenarios().items():
            for mode in ("off", "transparent"):
                results[name, mode, "free"] = _run(factory, mode)
                results[name, mode, "failed"] = _run(factory, mode, failures)
        return results

    results = run_once(benchmark, run_all)

    table = Table(
        ["scenario", "run", "mode", "supersteps", "sim time", "cache hits"],
        title="S4 — transparent-cache equivalence",
    )
    for name in _scenarios():
        for scenario in ("free", "failed"):
            for mode in ("off", "transparent"):
                outcome = results[name, mode, scenario]
                table.add_row(
                    name,
                    scenario,
                    mode,
                    outcome.supersteps,
                    outcome.sim_time,
                    outcome.metrics.get("cache.hits"),
                )
    report(table.to_text())

    for name in _scenarios():
        for scenario in ("free", "failed"):
            off = results[name, "off", scenario]
            cached = results[name, "transparent", scenario]
            # bit-identical: same records in the same order, same costs
            assert off.final_records == cached.final_records
            assert off.supersteps == cached.supersteps
            assert off.sim_time == cached.sim_time
            assert off.cost_breakdown() == cached.cost_breakdown()
            assert off.metrics.get("cache.hits") == 0
            assert cached.metrics.get("cache.hits") > 0


def test_s4_cache_hit_rates(benchmark, report):
    """Build-side rebuilds happen ~once per run; post-cold hit rate > 90%."""

    def run_all():
        results = {}
        for name, (factory, failures) in _scenarios().items():
            results[name, "free"] = _run(factory, "transparent")
            results[name, "failed"] = _run(factory, "transparent", failures)
        return results

    results = run_once(benchmark, run_all)

    def rates(name, scenario):
        outcome = results[name, scenario]
        hits = outcome.metrics.get("cache.hits")
        misses = outcome.metrics.get("cache.misses")
        # Cold (first-touch) misses all land in superstep 0; the
        # failure-free twin's miss count is exactly that cold set.
        cold = results[name, "free"].metrics.get("cache.misses")
        warm_lookups = hits + misses - cold
        after_cold = hits / warm_lookups if warm_lookups else 1.0
        return hits, misses, cold, after_cold

    table = Table(
        [
            "scenario",
            "run",
            "supersteps",
            "hits",
            "misses",
            "cold misses",
            "hit rate after superstep 0",
        ],
        title="S4 — cache hit rates on the demo scenarios",
    )
    for name in _scenarios():
        for scenario in ("free", "failed"):
            hits, misses, cold, after_cold = rates(name, scenario)
            table.add_row(
                name,
                scenario,
                results[name, scenario].supersteps,
                hits,
                misses,
                cold,
                f"{after_cold:.1%}",
            )
    report(table.to_text())

    for name in _scenarios():
        free = results[name, scenario := "free"]
        # Once-per-run builds: a failure-free run misses each reusable
        # site exactly once, every later superstep is served from cache.
        assert free.metrics.get("cache.misses") == free.metrics.get(
            "cache.misses.build"
        ) + free.metrics.get("cache.misses.output") + free.metrics.get(
            "cache.misses.shuffle"
        )
        _, _, _, after_cold = rates(name, "free")
        assert after_cold == 1.0
    # Long runs amortize even a mid-run invalidation above the 90% bar.
    for name in ("pagerank-demo", "cc-chain", "pagerank-twitter"):
        _, _, _, after_cold = rates(name, "failed")
        assert after_cold > 0.9


def test_s4_wall_clock_speedup(benchmark, report):
    """Serving invariant work from cache is wall-clock visible at equal
    simulated cost."""
    factories = {
        "pagerank-twitter": lambda: pagerank(twitter_like_graph(500, seed=7)),
        "cc-chain": lambda: connected_components(chain_graph(40)),
    }

    def run_all():
        timings = {}
        for name, factory in factories.items():
            for mode in ("off", "transparent"):
                start = time.perf_counter()
                result = _run(factory, mode)
                timings[name, mode] = (time.perf_counter() - start, result)
        return timings

    timings = run_once(benchmark, run_all)

    table = Table(
        ["scenario", "mode", "wall clock (s)", "speedup vs off", "sim time"],
        title="S4 — wall-clock effect of the execution cache",
    )
    for name in factories:
        base = timings[name, "off"][0]
        for mode in ("off", "transparent"):
            seconds, result = timings[name, mode]
            table.add_row(
                name,
                mode,
                f"{seconds:.4f}",
                f"{base / seconds:.2f}x" if seconds else "inf",
                result.sim_time,
            )
    report(table.to_text())

    for name in factories:
        off = timings[name, "off"][1]
        transparent = timings[name, "transparent"][1]
        assert transparent.sim_time == off.sim_time  # fixed simulated cost
        assert transparent.final_records == off.final_records


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
