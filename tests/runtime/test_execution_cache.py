"""Executor-level behavior of the superstep execution cache.

Covers the three entry kinds (operator outputs, shuffle placements, join
build indexes), the cache's cost semantics (hits replay their charges
bit-identically), hit/miss accounting and invalidation-triggered
recomputation.
"""

import pytest

from repro.dataflow.datatypes import first_field
from repro.dataflow.invariants import analyze_invariants
from repro.dataflow.plan import Plan
from repro.errors import ExecutionError
from repro.runtime.cache import ChargeLog, SuperstepExecutionCache
from repro.runtime.clock import LEDGER, SimulatedClock
from repro.runtime.executor import PartitionedDataset, PlanExecutor
from repro.runtime.metrics import MetricsRegistry

KEY = first_field("k")
PARALLELISM = 4


def _chain_plan():
    """Dynamic state joined with a derived (map) view of a static input.

    The ``prep`` map is cacheable (output cache); the join's right side
    is loop-invariant (build-index cache), and shuffling ``prep``'s
    output to the join key is memoizable (shuffle cache).
    """
    plan = Plan("chain")
    state = plan.source("state", partitioned_by=KEY)
    lookup = plan.source("lookup")
    prepared = lookup.map(lambda r: (r[0], r[1] * 10), name="prep")
    state.join(
        prepared,
        left_key=KEY,
        right_key=KEY,
        fn=lambda a, b: (a[0], a[1] + b[1]),
        name="combine",
        preserves="left",
    )
    return plan


def _bindings(plan, superstep=0):
    state = PartitionedDataset.from_records(
        [(k, k + superstep) for k in range(12)], PARALLELISM, key=KEY
    )
    # Round-robin lookup placement: the shuffle to the join key is real.
    lookup = PartitionedDataset.from_records(
        [(k, k) for k in range(12)], PARALLELISM
    )
    return {"state": state, "lookup": lookup}


def _cache(plan, metrics=None):
    return SuperstepExecutionCache(analyze_invariants(plan, {"state"}), metrics=metrics)


def _run(executor, plan, cache=None, superstep=0):
    outputs = executor.execute(plan, _bindings(plan, superstep), cache=cache)
    return outputs["combine"].all_records()


class TestTransparentMode:
    def test_results_identical_to_uncached(self):
        plan = _chain_plan()
        cached_exec = PlanExecutor(PARALLELISM)
        plain_exec = PlanExecutor(PARALLELISM)
        cache = _cache(plan)
        for superstep in range(3):
            cached = _run(cached_exec, plan, cache, superstep)
            plain = _run(plain_exec, plan, superstep=superstep)
            assert cached == plain

    def test_simulated_charges_bit_identical(self):
        plan = _chain_plan()
        cached_exec = PlanExecutor(PARALLELISM)
        plain_exec = PlanExecutor(PARALLELISM)
        cache = _cache(plan)
        for superstep in range(3):
            _run(cached_exec, plan, cache, superstep)
            _run(plain_exec, plan, superstep=superstep)
            assert cached_exec.clock.now == plain_exec.clock.now
            assert cached_exec.clock.accounts() == plain_exec.clock.accounts()

    def test_operator_counters_replayed(self):
        plan = _chain_plan()
        cached_exec = PlanExecutor(PARALLELISM)
        plain_exec = PlanExecutor(PARALLELISM)
        cache = _cache(plan)
        for superstep in range(2):
            _run(cached_exec, plan, cache, superstep)
            _run(plain_exec, plan, superstep=superstep)
        for name in ("records_in.prep", "records_in.combine", "shuffled.combine"):
            assert cached_exec.metrics.get(name) == plain_exec.metrics.get(name)

    def test_hits_accumulate_after_first_execution(self):
        plan = _chain_plan()
        executor = PlanExecutor(PARALLELISM)
        cache = _cache(plan)
        _run(executor, plan, cache)
        assert cache.hits == 0
        assert cache.misses > 0
        misses_after_first = cache.misses
        _run(executor, plan, cache, superstep=1)
        assert cache.misses == misses_after_first
        assert cache.hits == misses_after_first  # every entry served once

    def test_hit_kinds_cover_output_shuffle_and_build(self):
        plan = _chain_plan()
        executor = PlanExecutor(PARALLELISM)
        metrics = MetricsRegistry()
        cache = _cache(plan, metrics=metrics)
        _run(executor, plan, cache)
        _run(executor, plan, cache, superstep=1)
        assert metrics.get("cache.hits.output") == 1  # prep
        assert metrics.get("cache.hits.shuffle") == 1  # prep -> join key
        assert metrics.get("cache.hits.build") == 1  # combine's right table
        assert metrics.get("cache.hits") == 3
        assert cache.hit_rate() == 0.5


class TestInvalidation:
    def test_entries_recomputed_after_invalidate(self):
        plan = _chain_plan()
        executor = PlanExecutor(PARALLELISM)
        cache = _cache(plan)
        _run(executor, plan, cache)
        entries = cache.misses
        dropped = cache.invalidate([1])
        assert dropped == entries
        assert cache.invalidations == entries
        result = _run(executor, plan, cache, superstep=1)
        assert cache.misses == 2 * entries  # everything re-materialized
        plain = PlanExecutor(PARALLELISM)
        assert result == _run(plain, plan, superstep=1)

    def test_invalidate_empty_cache_is_a_noop(self):
        plan = _chain_plan()
        metrics = MetricsRegistry()
        cache = _cache(plan, metrics=metrics)
        assert cache.invalidate() == 0
        assert metrics.get("cache.invalidations") == 0

    def test_invalidation_reason_counter(self):
        plan = _chain_plan()
        metrics = MetricsRegistry()
        cache = _cache(plan, metrics=metrics)
        _run(PlanExecutor(PARALLELISM), plan, cache)
        cache.invalidate([0], reason="failure")
        assert metrics.get("cache.invalidations.failure") == cache.invalidations

    def test_transparent_costs_identical_despite_invalidation(self):
        plan = _chain_plan()
        invalidated_exec = PlanExecutor(PARALLELISM)
        steady_exec = PlanExecutor(PARALLELISM)
        invalidated = _cache(plan)
        steady = _cache(plan)
        for superstep in range(3):
            _run(invalidated_exec, plan, invalidated, superstep)
            _run(steady_exec, plan, steady, superstep)
            invalidated.invalidate([superstep % PARALLELISM])
        # A miss charges exactly what a hit replays, so the clocks agree.
        assert invalidated_exec.clock.now == steady_exec.clock.now


class TestGuards:
    def test_wrong_plan_name_rejected(self):
        plan = _chain_plan()
        cache = _cache(plan)
        other = Plan("other")
        other.source("state", partitioned_by=KEY)
        executor = PlanExecutor(PARALLELISM)
        with pytest.raises(ExecutionError, match="analyzed for plan"):
            executor.execute(
                other,
                {"state": PartitionedDataset.from_records([(0, 0)], PARALLELISM, key=KEY)},
                cache=cache,
            )

    def test_different_plan_instance_rejected(self):
        plan = _chain_plan()
        clone = _chain_plan()
        executor = PlanExecutor(PARALLELISM)
        cache = _cache(plan)
        _run(executor, plan, cache)
        with pytest.raises(ExecutionError, match="different plan instance"):
            _run(executor, clone, cache)

    def test_executor_without_cache_unaffected(self):
        plan = _chain_plan()
        executor = PlanExecutor(PARALLELISM)
        first = _run(executor, plan)
        second = _run(executor, plan)
        assert first == second


class TestChargeLog:
    def test_replay_adds_the_recorded_count_vector(self):
        clock = SimulatedClock()
        metrics = MetricsRegistry()
        plan = _chain_plan()
        executor = PlanExecutor(PARALLELISM)
        cache = _cache(plan)
        with cache.recording(executor) as log:
            executor.clock.charge_compute(10)
            executor.clock.charge_network(4)
            executor.metrics.increment("x", 3)
            executor.metrics.observe("h", 1.5)
        assert isinstance(log, ChargeLog)
        assert log.counts == executor.clock.counts() == (10, 4) + (0,) * (len(LEDGER) - 2)
        clock.charge_compute(1)
        log.replay(clock, metrics)
        assert clock.counts() == (11, 4) + (0,) * (len(LEDGER) - 2)
        assert metrics.get("x") == 3

    def test_outer_recording_counts_inner_misses_and_hits(self):
        plan = _chain_plan()
        executor = PlanExecutor(PARALLELISM)
        cache = _cache(plan)
        with cache.recording(executor) as outer:
            executor.clock.charge_compute(1)
            with cache.recording(executor) as inner:
                executor.clock.charge_network(4)
            inner.replay(executor.clock, executor.metrics)
        assert inner.counts == (0, 4) + (0,) * (len(LEDGER) - 2)
        assert outer.counts == (1, 8) + (0,) * (len(LEDGER) - 2)
