"""Tests for PartitionedDataset and PlanExecutor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.datatypes import KeySpec, first_field
from repro.dataflow.plan import Plan
from repro.errors import ExecutionError, PartitionLostError
from repro.runtime.executor import PartitionedDataset, PlanExecutor

KEY = first_field("k")


class TestPartitionedDataset:
    def test_from_records_round_robin(self):
        dataset = PartitionedDataset.from_records(range(7), 3)
        assert dataset.num_partitions == 3
        assert dataset.num_records() == 7
        assert dataset.partitioned_by is None

    def test_from_records_by_key(self):
        records = [(i, i * 10) for i in range(20)]
        dataset = PartitionedDataset.from_records(records, 4, key=KEY)
        assert dataset.partitioned_by == KEY
        assert sorted(dataset.all_records()) == records
        for pid, part in enumerate(dataset.partitions):
            for record in part:
                assert record[0] % 4 == pid  # integer keys hash to themselves

    def test_empty(self):
        dataset = PartitionedDataset.empty(3, key=KEY)
        assert dataset.num_records() == 0
        assert dataset.partitioned_by == KEY

    def test_lose_marks_partitions(self):
        dataset = PartitionedDataset.from_records([(i, i) for i in range(8)], 4, key=KEY)
        lost_records = dataset.lose([1, 3])
        assert lost_records == 4
        assert dataset.lost_partitions() == [1, 3]

    def test_lose_is_idempotent_per_partition(self):
        dataset = PartitionedDataset.from_records([(i, i) for i in range(8)], 4, key=KEY)
        dataset.lose([1])
        assert dataset.lose([1]) == 0

    def test_lose_unknown_partition_raises(self):
        dataset = PartitionedDataset.empty(2)
        with pytest.raises(ExecutionError):
            dataset.lose([5])

    def test_all_records_raises_on_lost(self):
        dataset = PartitionedDataset.from_records([(i, i) for i in range(8)], 4, key=KEY)
        dataset.lose([0])
        with pytest.raises(PartitionLostError):
            dataset.all_records()

    def test_num_records_skips_lost(self):
        dataset = PartitionedDataset.from_records([(i, i) for i in range(8)], 4, key=KEY)
        dataset.lose([0])
        assert dataset.num_records() == 6

    def test_partition_sizes_marks_lost(self):
        dataset = PartitionedDataset.from_records([(i, i) for i in range(8)], 4, key=KEY)
        dataset.lose([2])
        sizes = dataset.partition_sizes()
        assert sizes[2] == -1
        assert sum(s for s in sizes if s >= 0) == 6

    def test_replace_partition(self):
        dataset = PartitionedDataset.from_records([(i, i) for i in range(8)], 4, key=KEY)
        dataset.lose([0])
        dataset.replace_partition(0, [(0, 99), (4, 99)])
        assert dataset.lost_partitions() == []
        assert (0, 99) in dataset.all_records()

    def test_copy_is_independent(self):
        dataset = PartitionedDataset.from_records([(i, i) for i in range(8)], 4, key=KEY)
        clone = dataset.copy()
        dataset.lose([0])
        assert clone.lost_partitions() == []

    def test_copy_preserves_lost_markers(self):
        dataset = PartitionedDataset.from_records([(i, i) for i in range(8)], 4, key=KEY)
        dataset.lose([1])
        assert dataset.copy().lost_partitions() == [1]


class TestExecutorBasics:
    def test_rejects_bad_parallelism(self):
        with pytest.raises(ExecutionError):
            PlanExecutor(0)

    def test_unbound_source_raises(self):
        plan = Plan("p")
        plan.source("input")
        with pytest.raises(ExecutionError, match="not bound"):
            PlanExecutor(2).execute(plan, {})

    def test_partition_count_mismatch_raises(self):
        plan = Plan("p")
        plan.source("input")
        data = PartitionedDataset.from_records([1], 3)
        with pytest.raises(ExecutionError, match="partitions"):
            PlanExecutor(2).execute(plan, {"input": data})

    def test_lost_partition_in_binding_raises(self):
        plan = Plan("p")
        plan.source("input")
        data = PartitionedDataset.from_records([(1, 1), (2, 2)], 2, key=KEY)
        data.lose([0])
        with pytest.raises(PartitionLostError):
            PlanExecutor(2).execute(plan, {"input": data})

    def test_default_outputs_are_sinks(self):
        plan = Plan("p")
        src = plan.source("input")
        src.map(lambda r: r, name="a")
        src.map(lambda r: r, name="b")
        data = PartitionedDataset.from_records([1, 2], 2)
        out = PlanExecutor(2).execute(plan, {"input": data})
        assert set(out) == {"a", "b"}

    def test_explicit_outputs(self):
        plan = Plan("p")
        src = plan.source("input")
        mid = src.map(lambda r: r + 1, name="mid")
        mid.map(lambda r: r * 2, name="final")
        data = PartitionedDataset.from_records([1, 2, 3], 2)
        out = PlanExecutor(2).execute(plan, {"input": data}, outputs=["mid"])
        assert sorted(out["mid"].all_records()) == [2, 3, 4]


class TestOperators:
    def _run(self, plan, bindings, output, parallelism=3):
        executor = PlanExecutor(parallelism)
        result = executor.execute(plan, bindings, outputs=[output])
        return result[output], executor

    def test_map(self):
        plan = Plan("p")
        plan.source("in").map(lambda r: r * 2, name="double")
        data = PartitionedDataset.from_records([1, 2, 3], 3)
        out, _ = self._run(plan, {"in": data}, "double")
        assert sorted(out.all_records()) == [2, 4, 6]

    def test_flat_map(self):
        plan = Plan("p")
        plan.source("in").flat_map(lambda r: [r] * r, name="repeat")
        data = PartitionedDataset.from_records([1, 2, 3], 3)
        out, _ = self._run(plan, {"in": data}, "repeat")
        assert sorted(out.all_records()) == [1, 2, 2, 3, 3, 3]

    def test_filter_keeps_partitioning(self):
        plan = Plan("p")
        plan.source("in", partitioned_by=KEY).filter(lambda r: r[0] % 2 == 0, name="evens")
        data = PartitionedDataset.from_records([(i, i) for i in range(10)], 3, key=KEY)
        out, _ = self._run(plan, {"in": data}, "evens")
        assert out.partitioned_by == KEY
        assert sorted(r[0] for r in out.all_records()) == [0, 2, 4, 6, 8]

    def test_map_output_placement_unknown(self):
        plan = Plan("p")
        plan.source("in", partitioned_by=KEY).map(lambda r: (r[1], r[0]), name="swap")
        data = PartitionedDataset.from_records([(i, i + 1) for i in range(4)], 2, key=KEY)
        out, _ = self._run(plan, {"in": data}, "swap", parallelism=2)
        assert out.partitioned_by is None

    def test_reduce_by_key(self):
        plan = Plan("p")
        plan.source("in").reduce_by_key(
            KEY, lambda a, b: (a[0], a[1] + b[1]), name="sum"
        )
        records = [(1, 1), (2, 2), (1, 10), (3, 3), (2, 20)]
        data = PartitionedDataset.from_records(records, 3)
        out, _ = self._run(plan, {"in": data}, "sum")
        assert sorted(out.all_records()) == [(1, 11), (2, 22), (3, 3)]
        assert out.partitioned_by == KEY

    def test_reduce_single_element_groups_untouched(self):
        plan = Plan("p")
        plan.source("in").reduce_by_key(
            KEY, lambda a, b: pytest.fail("reducer must not run"), name="r"
        )
        data = PartitionedDataset.from_records([(1, "x"), (2, "y")], 2)
        out, _ = self._run(plan, {"in": data}, "r", parallelism=2)
        assert sorted(out.all_records()) == [(1, "x"), (2, "y")]

    def test_group_reduce(self):
        plan = Plan("p")
        plan.source("in").group_reduce(
            KEY, lambda key, group: [(key, len(group))], name="count"
        )
        records = [(1, "a"), (1, "b"), (2, "c")]
        data = PartitionedDataset.from_records(records, 3)
        out, _ = self._run(plan, {"in": data}, "count")
        assert sorted(out.all_records()) == [(1, 2), (2, 1)]

    def test_join_inner_semantics(self):
        plan = Plan("p")
        left = plan.source("left")
        right = plan.source("right")
        left.join(
            right, KEY, KEY, lambda l, r: (l[0], l[1], r[1]), name="joined"
        )
        left_data = PartitionedDataset.from_records([(1, "a"), (2, "b"), (3, "c")], 3)
        right_data = PartitionedDataset.from_records([(1, "x"), (3, "y"), (4, "z")], 3)
        out, _ = self._run(plan, {"left": left_data, "right": right_data}, "joined")
        assert sorted(out.all_records()) == [(1, "a", "x"), (3, "c", "y")]

    def test_join_emits_all_matching_pairs(self):
        plan = Plan("p")
        left = plan.source("left")
        right = plan.source("right")
        left.join(right, KEY, KEY, lambda l, r: (l[0], l[1] + r[1]), name="joined")
        left_data = PartitionedDataset.from_records([(1, 10), (1, 20)], 2)
        right_data = PartitionedDataset.from_records([(1, 1), (1, 2)], 2)
        out, _ = self._run(plan, {"left": left_data, "right": right_data}, "joined", 2)
        assert sorted(r[1] for r in out.all_records()) == [11, 12, 21, 22]

    def test_join_none_emits_nothing(self):
        plan = Plan("p")
        left = plan.source("left")
        right = plan.source("right")
        left.join(
            right, KEY, KEY,
            lambda l, r: (l[0], l[1]) if l[1] > 5 else None,
            name="joined",
        )
        left_data = PartitionedDataset.from_records([(1, 3), (2, 9)], 2)
        right_data = PartitionedDataset.from_records([(1, 0), (2, 0)], 2)
        out, _ = self._run(plan, {"left": left_data, "right": right_data}, "joined", 2)
        assert out.all_records() == [(2, 9)]

    def test_join_preserves_left_partitioning(self):
        plan = Plan("p")
        left = plan.source("left")
        right = plan.source("right")
        left.join(right, KEY, KEY, lambda l, r: l, name="joined", preserves="left")
        left_data = PartitionedDataset.from_records([(1, "a")], 2)
        right_data = PartitionedDataset.from_records([(1, "x")], 2)
        out, _ = self._run(plan, {"left": left_data, "right": right_data}, "joined", 2)
        assert out.partitioned_by == KEY

    def test_co_group_sees_one_sided_keys(self):
        plan = Plan("p")
        left = plan.source("left")
        right = plan.source("right")

        def merge(key, left_group, right_group):
            yield (key, len(left_group), len(right_group))

        left.co_group(right, KEY, KEY, merge, name="merged")
        left_data = PartitionedDataset.from_records([(1, "a"), (2, "b")], 2)
        right_data = PartitionedDataset.from_records([(2, "x"), (3, "y")], 2)
        out, _ = self._run(plan, {"left": left_data, "right": right_data}, "merged", 2)
        assert sorted(out.all_records()) == [(1, 1, 0), (2, 1, 1), (3, 0, 1)]

    def test_cross_broadcasts_right_side(self):
        plan = Plan("p")
        left = plan.source("left")
        right = plan.source("right")
        left.cross(right, lambda l, r: (l, r), name="pairs")
        left_data = PartitionedDataset.from_records([1, 2, 3], 3)
        right_data = PartitionedDataset.from_records(["a", "b"], 3)
        out, _ = self._run(plan, {"left": left_data, "right": right_data}, "pairs")
        assert len(out.all_records()) == 6
        assert set(out.all_records()) == {(l, r) for l in (1, 2, 3) for r in ("a", "b")}

    def test_union(self):
        plan = Plan("p")
        a = plan.source("a")
        b = plan.source("b")
        a.union(b, name="both")
        a_data = PartitionedDataset.from_records([1, 2], 2)
        b_data = PartitionedDataset.from_records([3], 2)
        out, _ = self._run(plan, {"a": a_data, "b": b_data}, "both", 2)
        assert sorted(out.all_records()) == [1, 2, 3]

    def test_union_keeps_common_partitioning(self):
        plan = Plan("p")
        a = plan.source("a", partitioned_by=KEY)
        b = plan.source("b", partitioned_by=KEY)
        a.union(b, name="both")
        a_data = PartitionedDataset.from_records([(1, "x")], 2, key=KEY)
        b_data = PartitionedDataset.from_records([(2, "y")], 2, key=KEY)
        out, _ = self._run(plan, {"a": a_data, "b": b_data}, "both", 2)
        assert out.partitioned_by == KEY


class TestCostsAndMetrics:
    def test_records_in_counters(self):
        plan = Plan("p")
        plan.source("in").map(lambda r: r, name="identity")
        data = PartitionedDataset.from_records(range(10), 2)
        executor = PlanExecutor(2)
        executor.execute(plan, {"in": data})
        assert executor.metrics.get("records_in.identity") == 10

    def test_shuffle_counter_and_network_cost(self):
        plan = Plan("p")
        plan.source("in").reduce_by_key(KEY, lambda a, b: a, name="reduce")
        data = PartitionedDataset.from_records([(i, i) for i in range(10)], 2)
        executor = PlanExecutor(2)
        executor.execute(plan, {"in": data})
        assert executor.metrics.get("shuffled.reduce") == 10
        assert executor.clock.breakdown()["network"] > 0

    def test_copartitioned_input_skips_shuffle(self):
        plan = Plan("p")
        plan.source("in", partitioned_by=KEY).reduce_by_key(
            KEY, lambda a, b: a, name="reduce"
        )
        data = PartitionedDataset.from_records([(i, i) for i in range(10)], 2, key=KEY)
        executor = PlanExecutor(2)
        executor.execute(plan, {"in": data})
        assert executor.metrics.get("shuffled.reduce") == 0

    def test_source_declared_key_repartitions_mismatched_binding(self):
        plan = Plan("p")
        plan.source("in", partitioned_by=KEY).map(lambda r: r, name="m")
        data = PartitionedDataset.from_records([(i, i) for i in range(10)], 2)  # round robin
        executor = PlanExecutor(2)
        out = executor.execute(plan, {"in": data}, outputs=["m"])
        assert executor.metrics.get("shuffled.in") == 10
        assert sorted(out["m"].all_records()) == [(i, i) for i in range(10)]

    def test_compute_cost_proportional_to_records(self):
        plan = Plan("p")
        plan.source("in").map(lambda r: r, name="identity")
        executor_small = PlanExecutor(2)
        executor_small.execute(
            plan, {"in": PartitionedDataset.from_records(range(10), 2)}
        )
        executor_large = PlanExecutor(2)
        executor_large.execute(
            plan, {"in": PartitionedDataset.from_records(range(100), 2)}
        )
        small = executor_small.clock.breakdown()["compute"]
        large = executor_large.clock.breakdown()["compute"]
        assert large == pytest.approx(10 * small)

    def test_repartition_noop_when_placed(self):
        executor = PlanExecutor(2)
        data = PartitionedDataset.from_records([(i, i) for i in range(6)], 2, key=KEY)
        again = executor.repartition(data, KEY)
        assert again is data
        assert executor.clock.now == 0.0

    def test_repartition_moves_and_charges(self):
        executor = PlanExecutor(2)
        data = PartitionedDataset.from_records([(i, i) for i in range(6)], 2)
        placed = executor.repartition(data, KEY)
        assert placed.partitioned_by == KEY
        assert executor.clock.now > 0


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), st.integers()),
        max_size=60,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_reduce_by_key_result_independent_of_parallelism(records, parallelism):
    """The fold of each key group must not depend on how data was
    partitioned — the associativity contract of reduce_by_key."""
    plan = Plan("p")
    plan.source("in").reduce_by_key(
        KEY, lambda a, b: (a[0], a[1] + b[1]), name="sum"
    )
    data = PartitionedDataset.from_records(records, parallelism)
    out = PlanExecutor(parallelism).execute(plan, {"in": data}, outputs=["sum"])
    expected: dict[int, int] = {}
    for key, value in records:
        expected[key] = expected.get(key, 0) + value
    assert sorted(out["sum"].all_records()) == sorted(expected.items())


_field = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.booleans(),
    st.none(),
)
_ragged_record = st.one_of(*(st.tuples(*[_field] * width) for width in (1, 2, 3, 4)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.lists(_ragged_record, max_size=8), min_size=n, max_size=n)
    )
)
def test_repartition_places_like_from_records_in_source_order(partitions):
    """The shuffle routes every record to the partition ``from_records``
    would hash it to, keeps source order within each target partition,
    and leaves a dataset already placed by the key untouched."""
    parallelism = len(partitions)
    executor = PlanExecutor(parallelism)
    records = [record for part in partitions for record in part]
    placed = executor.repartition(PartitionedDataset(partitions=partitions), KEY)
    expected = PartitionedDataset.from_records(records, parallelism, key=KEY)
    assert placed.partitions == expected.partitions
    assert placed.partitioned_by == KEY
    assert executor.metrics.get("shuffled.repartition") == len(records)
    assert executor.repartition(placed, KEY) is placed


class TestLostPartitionGuards:
    """Executing over lost partitions must always raise PartitionLostError,
    never a raw TypeError from iterating ``None``."""

    def _lost_dataset(self, parallelism=4):
        dataset = PartitionedDataset.from_records(
            [(i, i) for i in range(12)], parallelism, key=KEY
        )
        dataset.lose([1])
        return dataset

    def test_shuffle_over_lost_partition_raises(self):
        executor = PlanExecutor(4)
        from repro.dataflow.datatypes import second_field
        other_key = second_field("other")
        with pytest.raises(PartitionLostError) as exc:
            executor._shuffle(self._lost_dataset(), other_key, "op")
        assert exc.value.partition_ids == (1,)

    def test_shuffle_of_already_placed_lost_dataset_raises(self):
        # placement matches, so pre-guard code returned the dataset
        # untouched and downstream operators crashed with TypeError later
        executor = PlanExecutor(4)
        with pytest.raises(PartitionLostError):
            executor._shuffle(self._lost_dataset(), KEY, "op")

    def test_union_over_lost_input_raises(self):
        executor = PlanExecutor(4)
        plan = Plan("u")
        a = plan.source("a")
        b = plan.source("b")
        a.union(b, name="both")
        op = plan.operator_by_name("both")
        complete = PartitionedDataset.from_records(
            [(i, i) for i in range(8)], 4, key=KEY
        )
        with pytest.raises(PartitionLostError) as exc:
            executor._run_union(op, [complete, self._lost_dataset()])
        assert exc.value.partition_ids == (1,)

    def test_kernel_error_surfaces_with_payload(self):
        def lose_on_five(record):
            if record[0] == 5:
                raise PartitionLostError([5])
            return record

        plan = Plan("p")
        plan.source("in").map(lose_on_five, name="copy")
        data = PartitionedDataset.from_records([(i, i) for i in range(8)], 4)
        with pytest.raises(PartitionLostError) as exc:
            PlanExecutor(4).execute(plan, {"in": data}, outputs=["copy"])
        assert exc.value.partition_ids == (5,)

    def test_plan_execution_over_lost_source_raises(self):
        plan = Plan("p")
        plan.source("in").map(lambda r: r, name="copy")
        with pytest.raises(PartitionLostError):
            PlanExecutor(4).execute(
                plan, {"in": self._lost_dataset()}, outputs=["copy"]
            )
