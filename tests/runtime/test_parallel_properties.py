"""Property-based backend equivalence.

Random small plans (random operator pipelines, random data, random
parallelism) and random failure schedules must produce bit-identical
results — records *in partition order*, simulated time and the full
counter snapshot — on the serial, thread and process backends. This is
the determinism contract of :mod:`repro.runtime.parallel` stated as a
property instead of hand-picked scenarios.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.connected_components import connected_components
from repro.config import EngineConfig
from repro.dataflow.datatypes import first_field
from repro.dataflow.plan import Plan
from repro.graph.generators import multi_component_graph
from repro.runtime.executor import PartitionedDataset, PlanExecutor
from repro.runtime.failures import FailureSchedule
from repro.runtime.parallel import get_backend

KEY = first_field("k")

# UDFs live at module level so the process backend ships them by reference.


def _inc(record):
    return (record[0], record[1] + 1)


def _stretch(record):
    yield record
    yield (record[0] + 1, record[1])


def _is_even(record):
    return record[1] % 2 == 0


def _add(left, right):
    return (left[0], left[1] + right[1])


def _group_sum(key, records):
    yield (key, sum(value for _k, value in records))


def _join_fn(left, right):
    return (left[0], left[1], right[1])


def _co_group_fn(key, left_group, right_group):
    yield (key, len(left_group), sum(v for _k, v in right_group))


def _cross_fn(record, other):
    return (record[0], record[1] + other[1])


UNARY = ("map", "flat_map", "filter", "reduce", "group_reduce")
BINARY = (None, "join", "co_group", "union", "cross")


def _build_plan(unary_ops, binary):
    plan = Plan("prop")
    ds = plan.source("a")
    for index, tag in enumerate(unary_ops):
        name = f"{tag}-{index}"
        if tag == "map":
            ds = ds.map(_inc, name=name)
        elif tag == "flat_map":
            ds = ds.flat_map(_stretch, name=name)
        elif tag == "filter":
            ds = ds.filter(_is_even, name=name)
        elif tag == "reduce":
            ds = ds.reduce_by_key(KEY, _add, name=name)
        else:
            ds = ds.group_reduce(KEY, _group_sum, name=name)
    if binary is not None:
        other = plan.source("b")
        if binary == "join":
            ds = ds.join(other, KEY, KEY, _join_fn, name="bin")
        elif binary == "co_group":
            ds = ds.co_group(other, KEY, KEY, _co_group_fn, name="bin")
        elif binary == "union":
            ds = ds.union(other, name="bin")
        else:
            ds = ds.cross(other, _cross_fn, name="bin")
    return plan, ds.op.name


def _execute(backend_name, plan, sources, output, parallelism):
    backend = get_backend(backend_name, 3)
    executor = PlanExecutor(parallelism, backend=backend)
    bindings = {
        name: PartitionedDataset.from_records(records, parallelism)
        for name, records in sources.items()
    }
    out = executor.execute(plan, bindings, outputs=[output])[output]
    executor.release_residents()
    return list(out.partitions), executor.clock.now, executor.metrics.snapshot()


keyed_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=-20, max_value=20),
    ),
    max_size=24,
)


@settings(max_examples=30, deadline=None)
@given(
    records=keyed_records,
    side=keyed_records.filter(lambda recs: len(recs) <= 8),
    unary_ops=st.lists(st.sampled_from(UNARY), max_size=4),
    binary=st.sampled_from(BINARY),
    parallelism=st.integers(min_value=1, max_value=5),
)
def test_random_plans_identical_across_backends(
    records, side, unary_ops, binary, parallelism
):
    plan, output = _build_plan(unary_ops, binary)
    sources = {"a": records}
    if binary is not None:
        sources["b"] = side
    baseline = _execute("serial", plan, sources, output, parallelism)
    assert _execute("threads", plan, sources, output, parallelism) == baseline
    assert _execute("processes", plan, sources, output, parallelism) == baseline


_field = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.booleans(),
    st.none(),
)
ragged_records = st.lists(
    st.one_of(*(st.tuples(*[_field] * width) for width in (1, 2, 3, 4))),
    max_size=24,
)


@settings(max_examples=30, deadline=None)
@given(records=ragged_records, parallelism=st.integers(min_value=1, max_value=5))
def test_shuffle_merge_matches_serial_loop_on_ragged_records(records, parallelism):
    """The pooled backends shuffle by routing each source partition into
    buckets and concatenating bucket ``p`` of every source; the serial
    backend fuses both into one loop. Same partitions, same order, for
    records of any width and field type."""
    plan = Plan("shuffle-only")
    plan.source("a", partitioned_by=KEY)
    sources = {"a": records}
    baseline = _execute("serial", plan, sources, "a", parallelism)
    assert sorted(map(repr, sum(baseline[0], []))) == sorted(map(repr, records))
    assert _execute("threads", plan, sources, "a", parallelism) == baseline
    assert _execute("processes", plan, sources, "a", parallelism) == baseline


@settings(max_examples=6, deadline=None)
@given(
    superstep=st.integers(min_value=1, max_value=4),
    partitions=st.sets(
        st.integers(min_value=0, max_value=3), min_size=1, max_size=2
    ),
    seed=st.integers(min_value=0, max_value=50),
)
def test_random_failure_schedules_identical_across_backends(
    superstep, partitions, seed
):
    failures = FailureSchedule.single(superstep, sorted(partitions))

    def run(backend):
        job = connected_components(multi_component_graph(2, 10, seed=seed))
        result = job.run(
            config=EngineConfig(
                parallelism=4,
                spare_workers=8,
                parallel_backend=backend,
                parallel_workers=3,
            ),
            recovery=job.optimistic(),
            failures=failures,
        )
        return (
            sorted(result.final_records),
            result.clock.now,
            result.supersteps,
            result.converged,
        )

    baseline = run("serial")
    assert run("threads") == baseline
    assert run("processes") == baseline
