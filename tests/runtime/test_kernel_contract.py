"""The kernel contract: kernels call raw callables, one frame per record.

The executor hands each kernel a stock UDF wrapper's own function and a
key spec's extractor instead of the adapters around them. Kernels still
accept wrappers and key specs, and these tests pin that the shortcut
changes nothing observable:

* every kernel gives the same output for wrapped and raw callables;
* a wrapper subclass that overrides ``apply`` is called as it is;
* join and cross results of every shape emit exactly as :func:`emitted`
  normalises them;
* ``route_kernel`` places every key type where :class:`HashPartitioner`
  does;
* the once-per-run ``build_index_kernel`` still receives the key spec.
"""

from collections import namedtuple

import pytest

from repro.dataflow.datatypes import KeySpec, first_field
from repro.dataflow.functions import (
    CoGroupFunction,
    CrossFunction,
    FilterFunction,
    FlatMapFunction,
    GroupReduceFunction,
    JoinFunction,
    MapFunction,
    ReduceFunction,
)
from repro.dataflow.plan import Plan
from repro.runtime import kernels
from repro.runtime.executor import PartitionedDataset, PlanExecutor, StaticDataset
from repro.runtime.partition import HashPartitioner

KEY = first_field("k")
LEFT = [(i % 5, i) for i in range(17)]
RIGHT = [(i % 4, -i) for i in range(9)]
PARALLELISM = 3

Point = namedtuple("Point", "x y")


def _double(record):
    return (record[0], 2 * record[1])


def _expand(record):
    return [record, (record[0], 0)]


def _odd(record):
    return record[1] % 2


def _add(left, right):
    return (left[0], left[1] + right[1])


def _summarise(key, group):
    return [(key, len(group))]


def _pair(left, right):
    return (left[0], left[1], right[1])


def _sizes(key, lhs, rhs):
    return [(key, len(lhs), len(rhs))]


def _index(part, key):
    return kernels.build_index_kernel(part, key)


#: kernel -> (arguments with stock wrappers and key specs, the same with raw callables)
CASES = {
    "map": (kernels.map_kernel, (LEFT, MapFunction(_double)), (LEFT, _double)),
    "flat_map": (kernels.flat_map_kernel, (LEFT, FlatMapFunction(_expand)), (LEFT, _expand)),
    "filter": (kernels.filter_kernel, (LEFT, FilterFunction(_odd)), (LEFT, _odd)),
    "fold_by_key": (
        kernels.fold_by_key_kernel,
        (LEFT, KEY, ReduceFunction(_add)),
        (LEFT, KEY.extractor, _add),
    ),
    "group_reduce": (
        kernels.group_reduce_kernel,
        (LEFT, KEY, GroupReduceFunction(_summarise)),
        (LEFT, KEY.extractor, _summarise),
    ),
    "route": (kernels.route_kernel, (LEFT, KEY, 4), (LEFT, KEY.extractor, 4)),
    "build_index": (kernels.build_index_kernel, (RIGHT, KEY), (RIGHT, KEY.extractor)),
    "probe_join": (
        kernels.probe_join_kernel,
        (LEFT, _index(RIGHT, KEY), KEY, JoinFunction(_pair)),
        (LEFT, _index(RIGHT, KEY.extractor), KEY.extractor, _pair),
    ),
    "hash_join": (
        kernels.hash_join_kernel,
        (LEFT, RIGHT, KEY, KEY, JoinFunction(_pair)),
        (LEFT, RIGHT, KEY.extractor, KEY.extractor, _pair),
    ),
    "co_group": (
        kernels.co_group_kernel,
        (LEFT, RIGHT, KEY, KEY, CoGroupFunction(_sizes), False, False),
        (LEFT, RIGHT, KEY.extractor, KEY.extractor, _sizes, False, False),
    ),
    "cross": (kernels.cross_kernel, (LEFT, RIGHT, CrossFunction(_pair)), (LEFT, RIGHT, _pair)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_wrapped_and_raw_callables_give_the_same_output(name):
    kernel, wrapped, raw = CASES[name]
    assert kernel(*wrapped) == kernel(*raw)


def _run(plan, **records):
    bindings = {
        name: PartitionedDataset.from_records(rows, PARALLELISM) for name, rows in records.items()
    }
    (result,) = PlanExecutor(PARALLELISM).execute(plan, bindings).values()
    return sorted(result.all_records())


class TestExecutorUnwrapping:
    def test_kernels_receive_the_raw_function_and_extractor(self, monkeypatch):
        seen = []
        join = kernels.hash_join_kernel

        def spy(left, right, left_key, right_key, fn):
            seen.append((left_key, right_key, fn))
            return join(left, right, left_key, right_key, fn)

        monkeypatch.setattr(kernels, "hash_join_kernel", spy)
        plan = Plan("p")
        plan.source("left").join(plan.source("right"), KEY, KEY, _pair, "j")
        _run(plan, left=LEFT, right=RIGHT)
        assert seen == [(KEY.extractor, KEY.extractor, _pair)] * PARALLELISM

    def test_a_subclass_overriding_apply_is_called_as_it_is(self):
        class Tagged(MapFunction):
            def apply(self, record):
                return ("tagged", *super().apply(record))

        plan = Plan("p")
        plan.source("input").map(Tagged(_double), "m")
        assert _run(plan, input=LEFT) == sorted(("tagged", *_double(r)) for r in LEFT)

    def test_a_join_subclass_overriding_apply_is_called_as_it_is(self):
        class Swapped(JoinFunction):
            def apply(self, left, right):
                return super().apply(right, left)

        plan = Plan("p")
        plan.source("left").join(plan.source("right"), KEY, KEY, Swapped(_pair), "j")
        expected = sorted(_pair(r, l) for l in LEFT for r in RIGHT if l[0] == r[0])
        assert _run(plan, left=LEFT, right=RIGHT) == expected

    def test_a_stock_wrapper_without_fn_still_raises(self):
        plan = Plan("p")
        plan.source("input").map(MapFunction(), "m")
        with pytest.raises(NotImplementedError):
            _run(plan, input=LEFT)

    def test_static_build_index_still_receives_the_key_spec(self, monkeypatch):
        keys = []
        build = kernels.build_index_kernel

        def spy(part, key):
            keys.append(key)
            return build(part, key)

        monkeypatch.setattr(kernels, "build_index_kernel", spy)
        plan = Plan("p")
        plan.source("left").join(plan.source("right"), KEY, KEY, _pair, "j")
        bindings = {
            "left": PartitionedDataset.from_records(LEFT, PARALLELISM),
            "right": StaticDataset.from_records(RIGHT, PARALLELISM),
        }
        PlanExecutor(PARALLELISM).execute(plan, bindings)
        assert keys == [KEY] * PARALLELISM
        assert all(type(key) is KeySpec for key in keys)


def _generator():
    yield (7, "g1")
    yield (7, "g2")


#: a join/cross result -> the records it emits, as :func:`emitted` defines them
EMISSIONS = [
    (lambda: None, []),
    (lambda: (1, 2), [(1, 2)]),
    (lambda: Point(1, 2), [Point(1, 2)]),
    (lambda: [1, 2], [[1, 2]]),
    (_generator, [(7, "g1"), (7, "g2")]),
    (lambda: iter([(8, "i1"), (8, "i2")]), [(8, "i1"), (8, "i2")]),
]


@pytest.mark.parametrize("make, expected", EMISSIONS)
@pytest.mark.parametrize("kernel", ["probe_join", "hash_join", "cross"])
def test_every_result_shape_emits_as_before(kernel, make, expected):
    def udf(left, right):
        return make()

    part, other = [(0, "l")], [(0, "r")]
    if kernel == "probe_join":
        out = kernels.probe_join_kernel(part, {0: other}, KEY.extractor, udf)
    elif kernel == "hash_join":
        out = kernels.hash_join_kernel(part, other, KEY.extractor, KEY.extractor, udf)
    else:
        out = kernels.cross_kernel(part, other, udf)
    assert out == expected
    assert [type(record) for record in out] == [type(record) for record in expected]


@pytest.mark.parametrize("partitions", [1, 3, 4, 7])
def test_route_places_every_key_type_as_the_hash_partitioner_does(partitions):
    keys = [True, False, 0, 1, 5, -3, 2**70, -(2**65), "", "vertex", (1, "x"), (True, 2)]
    records = [(key, index) for index, key in enumerate(keys)]
    buckets = kernels.route_kernel(records, KEY.extractor, partitions)
    partitioner = HashPartitioner(partitions)
    assert buckets == partitioner.split(records, KEY)
