"""Plan execution over partitioned data.

:class:`PlanExecutor` walks a logical plan in topological order and
materializes every operator's output as a :class:`PartitionedDataset` with
exactly ``parallelism`` partitions, charging simulated compute time per
record processed and network time per record shuffled, and incrementing
the ``records_in.<operator>`` / ``shuffled.<operator>`` counters that the
demo statistics are derived from. Each operator runs its partition
kernel (:mod:`repro.runtime.kernels`) over the partitions in order, in the
calling thread.

Partitioning is tracked through the plan: a dataset knows which
:class:`repro.dataflow.datatypes.KeySpec` it is currently hash-partitioned
by (if any), and keyed operators skip the shuffle when their input is
already partitioned correctly — the same co-location reasoning Flink
applies to delta-iteration solution sets.

Loop-invariant inputs arrive as :class:`StaticDataset` — Flink's
*constant data path* (Ewen et al., *Spinning Fast Iterative Data
Flows*): a static is re-placed and indexed once per run and the result
stays resident, while every superstep is still charged the exchange it
models, from the resident placement's partition sizes.

Kernels run a callable once per record, so the executor hands them raw
callables: a stock UDF wrapper's own function (:func:`_udf`) and a key
spec's extractor, rather than the adapters around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Sequence

from ..dataflow.datatypes import KeySpec
from ..dataflow.functions import (
    CoGroupFunction,
    CrossFunction,
    FilterFunction,
    FlatMapFunction,
    GroupReduceFunction,
    JoinFunction,
    MapFunction,
    ReduceFunction,
)
from ..dataflow.operators import (
    CoGroupOperator,
    CrossOperator,
    FilterOperator,
    FlatMapOperator,
    GroupReduceOperator,
    JoinOperator,
    MapOperator,
    Operator,
    ReduceByKeyOperator,
    SourceOperator,
    UnionOperator,
)
from ..dataflow.plan import Plan
from ..errors import ExecutionError, PartitionLostError
from ..observability.span import SpanKind
from ..observability.tracer import NOOP_TRACER, Tracer
from . import kernels
from .clock import SimulatedClock
from .metrics import MetricsRegistry
from .partition import HashPartitioner

#: the UDF wrappers whose ``apply`` only forwards to ``fn=``. A subclass
#: may override ``apply`` (the optimizer's fused chains do), so the
#: check is on the exact type.
_STOCK_UDFS = frozenset(
    {
        MapFunction,
        FlatMapFunction,
        FilterFunction,
        ReduceFunction,
        GroupReduceFunction,
        JoinFunction,
        CoGroupFunction,
        CrossFunction,
    }
)


def _udf(fn: Any) -> Any:
    """The callable a kernel should call per record in place of ``fn``.

    A stock wrapper built with ``fn=`` gives that function. Anything
    else, a wrapper subclass included, is called as it is. (A stock
    ``FilterFunction`` also applies ``bool``; the filter kernel tests
    truthiness, which is the same.)
    """
    if type(fn) in _STOCK_UDFS and fn._fn is not None:
        return fn._fn
    return fn


@dataclass
class PartitionedDataset:
    """A dataset split into ``n`` partitions.

    Attributes:
        partitions: one record list per partition. A partition may be
            ``None``, meaning its state was destroyed by a failure and
            has not been recovered yet; executing a plan over such a
            dataset raises :class:`repro.errors.PartitionLostError`.
        partitioned_by: the key spec the data is hash-partitioned by, or
            ``None`` for round-robin / unknown placement.
    """

    partitions: list[list[Any] | None]
    partitioned_by: KeySpec | None = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[Any],
        num_partitions: int,
        key: KeySpec | None = None,
    ) -> "PartitionedDataset":
        """Distribute ``records`` over ``num_partitions``.

        With a ``key``, records are hash-partitioned (and the result is
        marked as partitioned by that key); without one they are dealt
        round-robin.
        """
        records = list(records)
        if key is not None:
            partitioner = HashPartitioner(num_partitions)
            parts = partitioner.split(records, key)
            return cls(partitions=parts, partitioned_by=key)
        parts: list[list[Any]] = [[] for _ in range(num_partitions)]
        for index, record in enumerate(records):
            parts[index % num_partitions].append(record)
        return cls(partitions=parts, partitioned_by=None)

    @classmethod
    def empty(cls, num_partitions: int, key: KeySpec | None = None) -> "PartitionedDataset":
        """An empty dataset with ``num_partitions`` partitions."""
        return cls(partitions=[[] for _ in range(num_partitions)], partitioned_by=key)

    # -- inspection ------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def lost_partitions(self) -> list[int]:
        """Ids of partitions whose state is destroyed."""
        return [pid for pid, part in enumerate(self.partitions) if part is None]

    def require_complete(self, context: str = "dataset") -> None:
        """Raise :class:`PartitionLostError` if any partition is lost."""
        lost = self.lost_partitions()
        if lost:
            raise PartitionLostError(lost, f"{context}: state lost for partitions {lost}")

    def all_records(self) -> list[Any]:
        """All records, concatenated in partition order."""
        self.require_complete()
        result: list[Any] = []
        for part in self.partitions:
            result.extend(part)  # type: ignore[arg-type]
        return result

    def num_records(self) -> int:
        """Total record count over non-lost partitions."""
        return sum(len(part) for part in self.partitions if part is not None)

    def partition_sizes(self) -> list[int]:
        """Per-partition record counts (``-1`` for lost partitions)."""
        return [len(part) if part is not None else -1 for part in self.partitions]

    # -- mutation (used by iteration drivers and recovery) ----------------------

    def lose(self, partition_ids: Sequence[int]) -> int:
        """Destroy the state of the given partitions; returns records lost."""
        lost_records = 0
        for pid in partition_ids:
            if pid < 0 or pid >= self.num_partitions:
                raise ExecutionError(f"no partition {pid} in dataset of {self.num_partitions}")
            if self.partitions[pid] is not None:
                lost_records += len(self.partitions[pid])  # type: ignore[arg-type]
                self.partitions[pid] = None
        return lost_records

    def replace_partition(self, partition_id: int, records: list[Any]) -> None:
        """Install new contents for one partition."""
        if partition_id < 0 or partition_id >= self.num_partitions:
            raise ExecutionError(
                f"no partition {partition_id} in dataset of {self.num_partitions}"
            )
        self.partitions[partition_id] = list(records)

    def copy(self) -> "PartitionedDataset":
        """A deep-enough copy (fresh partition lists, shared records)."""
        return PartitionedDataset(
            partitions=[
                list(part) if part is not None else None for part in self.partitions
            ],
            partitioned_by=self.partitioned_by,
        )

    def __repr__(self) -> str:
        key = self.partitioned_by.name if self.partitioned_by else None
        return (
            f"PartitionedDataset(n={self.num_partitions}, "
            f"records={self.num_records()}, key={key!r})"
        )


class StaticDataset(PartitionedDataset):
    """A loop-invariant input of an iteration, bound once per run.

    Failures destroy only the iterative state and workset, never a
    static, so everything derived from one stays valid for the whole
    run. A static memoises that derived data: its re-placement by a key
    (itself a static) and its per-partition join build index per key.
    The executor still charges every superstep the exchange it models;
    only the wall-clock work is done once.
    """

    def __init__(
        self, partitions: list[list[Any] | None], partitioned_by: KeySpec | None = None
    ):
        super().__init__(partitions, partitioned_by)
        self._placements: dict[KeySpec, StaticDataset] = {}
        self._indexes: dict[KeySpec, list[dict[Any, list[Any]]]] = {}

    def placed_by(self, key: KeySpec) -> "StaticDataset":
        """This static hash-repartitioned by ``key``, routed once."""
        placed = self._placements.get(key)
        if placed is None:
            parts = kernels.route_kernel(
                chain.from_iterable(self.partitions), key.extractor, self.num_partitions
            )
            placed = self._placements[key] = StaticDataset(parts, key)
        return placed

    def index(self, key: KeySpec) -> list[dict[Any, list[Any]]]:
        """Per-partition ``{key: records}`` build tables, built once per key."""
        tables = self._indexes.get(key)
        if tables is None:
            tables = self._indexes[key] = [
                kernels.build_index_kernel(part, key) for part in self.partitions
            ]
        return tables


class PlanExecutor:
    """Executes logical plans with simulated costs.

    One executor is typically shared across all supersteps of a run so
    that costs and counters accumulate into a single clock / registry.
    """

    def __init__(
        self,
        parallelism: int,
        clock: SimulatedClock | None = None,
        metrics: MetricsRegistry | None = None,
        combiners: bool = False,
        tracer: Tracer | None = None,
    ):
        if parallelism < 1:
            raise ExecutionError(f"parallelism must be >= 1, got {parallelism}")
        self.parallelism = parallelism
        self.clock = clock if clock is not None else SimulatedClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: span tracer; the default no-op records nothing and costs nothing.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: when True, reduce_by_key pre-folds each source partition
        #: before shuffling (Flink's combiners), shrinking network volume.
        #: The result is unchanged — the fold is associative by contract —
        #: but per-operator input counts reflect the pre-combined records,
        #: so jobs that interpret those counters (e.g. the demo's
        #: "messages" statistic) run with combiners off.
        self.combiners = combiners
        #: confined recovery's per-partition delivery log, attached by
        #: :class:`repro.core.confined.ConfinedRecovery` at run start
        #: (duck-typed: anything with a ``deliver(sizes, local=)``
        #: method). ``None`` — the default — logs nothing and costs
        #: nothing, preserving optimistic recovery's zero failure-free
        #: overhead.
        self.message_log = None
        #: per-operator metric names, interned once instead of
        #: re-formatting f-strings on the per-superstep hot path.
        self._metric_keys: dict[str, tuple[str, str, str]] = {}

    # -- public API ------------------------------------------------------------

    def execute(
        self,
        plan: Plan,
        bindings: dict[str, PartitionedDataset],
        outputs: Sequence[str] | None = None,
    ) -> dict[str, PartitionedDataset]:
        """Run ``plan`` with its sources bound to concrete datasets.

        Args:
            plan: the logical plan.
            bindings: ``{source name: dataset}``; every source of the plan
                must be bound, and every bound dataset must have exactly
                ``parallelism`` partitions and no lost partitions. Bind
                loop-invariant inputs as :class:`StaticDataset` so their
                placements and build indexes are reused across calls.
            outputs: operator names whose results to return; defaults to
                the plan's sinks.

        Returns:
            ``{operator name: materialized dataset}`` for each requested
            output.
        """
        plan.validate()
        self._check_bindings(plan, bindings)
        results: dict[int, PartitionedDataset] = {}
        for op in plan.topological_order():
            with self.tracer.span(
                f"op:{op.name}",
                kind=SpanKind.OPERATOR,
                operator=op.name,
                op_kind=op.kind,
            ) as span:
                result = self._execute_operator(op, results, bindings)
                if self.tracer.enabled:
                    self._annotate_operator_span(span, result)
            results[op.op_id] = result
        wanted = list(outputs) if outputs is not None else [op.name for op in plan.sinks()]
        produced = {}
        for name in wanted:
            op = plan.operator_by_name(name)
            produced[name] = results[op.op_id]
        return produced

    def repartition(
        self, dataset: PartitionedDataset, key: KeySpec, context: str = "repartition"
    ) -> PartitionedDataset:
        """Hash-repartition ``dataset`` by ``key`` (no-op when already
        placed correctly), charging network costs. Iteration drivers use
        this to keep state partitioned by the state key across supersteps.
        """
        dataset.require_complete(context)
        with self.tracer.span(
            f"repartition:{context}", kind=SpanKind.OPERATOR, operator=context
        ) as span:
            result = self._shuffle(dataset, key, context)
            if self.tracer.enabled:
                self._annotate_operator_span(span, result)
        return result

    # -- internals ---------------------------------------------------------------

    def _annotate_operator_span(self, span, result: PartitionedDataset) -> None:
        """Attach output cardinalities and per-partition child spans."""
        sizes = result.partition_sizes()
        span.set_attribute("records_out", result.num_records())
        span.set_attribute("partition_sizes", sizes)
        for pid, size in enumerate(sizes):
            self.tracer.point(
                f"partition:{pid}", kind=SpanKind.PARTITION, partition=pid, records=size
            )

    def _check_bindings(self, plan: Plan, bindings: dict[str, PartitionedDataset]) -> None:
        for source in plan.sources():
            if source.name not in bindings:
                raise ExecutionError(
                    f"source {source.name!r} of plan {plan.name!r} is not bound"
                )
            dataset = bindings[source.name]
            if dataset.num_partitions != self.parallelism:
                raise ExecutionError(
                    f"source {source.name!r} has {dataset.num_partitions} partitions, "
                    f"executor parallelism is {self.parallelism}"
                )
            dataset.require_complete(f"source {source.name!r}")

    def _op_keys(self, name: str) -> tuple[str, str, str]:
        """Metric names for one operator, formatted once per executor."""
        keys = self._metric_keys.get(name)
        if keys is None:
            keys = (
                f"records_in.{name}",
                f"shuffled.{name}",
                f"shuffle_volume.{name}",
            )
            self._metric_keys[name] = keys
        return keys

    def _count_in(self, op: Operator, records: int) -> None:
        self.metrics.increment(self._op_keys(op.name)[0], records)
        self.clock.charge_compute(records)

    def _dispatch(self, kernel, tasks: list[tuple]) -> list[Any]:
        """Run one partition kernel over every task, in partition order."""
        return [kernel(*task) for task in tasks]

    def _shuffle(
        self, dataset: PartitionedDataset, key: KeySpec, op_name: str
    ) -> PartitionedDataset:
        """Hash-repartition ``dataset`` by ``key`` unless already placed.

        One routing pass over the source partitions in order, so every
        target partition keeps its records in source order; every record
        of every partition is charged as moved exactly once. A static
        routes once per run and keeps its placement, but is charged the
        same exchange every time it is shuffled.
        """
        dataset.require_complete(f"shuffle for {op_name!r}")
        if dataset.partitioned_by == key:
            return dataset
        if isinstance(dataset, StaticDataset):
            result: PartitionedDataset = dataset.placed_by(key)
        else:
            parts = kernels.route_kernel(
                chain.from_iterable(dataset.partitions), key.extractor, self.parallelism
            )
            result = PartitionedDataset(partitions=parts, partitioned_by=key)
        self._charge_exchange(op_name, [len(part) for part in result.partitions])
        return result

    def _charge_exchange(self, op_name: str, sizes: list[int]) -> None:
        """Charge the network (and confined recovery's message log) for
        delivering ``sizes[p]`` records to each partition ``p``."""
        keys = self._op_keys(op_name)
        moved = sum(sizes)
        self.clock.charge_network(moved)
        self.metrics.increment(keys[1], moved)
        self.metrics.observe("shuffle_volume", moved)
        self.metrics.observe(keys[2], moved)
        log = self.message_log
        if log is not None:
            self.clock.charge_log(moved)
            self.metrics.increment("message_log.logged", moved)
            log.deliver(sizes)

    def _execute_operator(
        self,
        op: Operator,
        results: dict[int, PartitionedDataset],
        bindings: dict[str, PartitionedDataset],
    ) -> PartitionedDataset:
        if isinstance(op, SourceOperator):
            dataset = bindings[op.name]
            if op.partitioned_by is not None:
                dataset = self._shuffle(dataset, op.partitioned_by, op.name)
            return dataset
        inputs = [results[inp.op_id] for inp in op.inputs]
        if isinstance(op, MapOperator):
            return self._run_map(op, inputs[0])
        if isinstance(op, FlatMapOperator):
            return self._run_flat_map(op, inputs[0])
        if isinstance(op, FilterOperator):
            return self._run_filter(op, inputs[0])
        if isinstance(op, ReduceByKeyOperator):
            return self._run_reduce_by_key(op, inputs[0])
        if isinstance(op, GroupReduceOperator):
            return self._run_group_reduce(op, inputs[0])
        if isinstance(op, JoinOperator):
            return self._run_join(op, inputs[0], inputs[1])
        if isinstance(op, CoGroupOperator):
            return self._run_co_group(op, inputs[0], inputs[1])
        if isinstance(op, CrossOperator):
            return self._run_cross(op, inputs[0], inputs[1])
        if isinstance(op, UnionOperator):
            return self._run_union(op, inputs)
        raise ExecutionError(f"unsupported operator type {type(op).__name__}")

    def _run_map(self, op: MapOperator, data: PartitionedDataset) -> PartitionedDataset:
        self._count_in(op, data.num_records())
        fn = _udf(op.fn)
        parts = self._dispatch(kernels.map_kernel, [(part, fn) for part in data.partitions])
        return PartitionedDataset(partitions=parts, partitioned_by=None)

    def _run_flat_map(self, op: FlatMapOperator, data: PartitionedDataset) -> PartitionedDataset:
        self._count_in(op, data.num_records())
        fn = _udf(op.fn)
        parts = self._dispatch(kernels.flat_map_kernel, [(part, fn) for part in data.partitions])
        # Placement survives only when the operator declares it never
        # rewrites records (e.g. a fused filter-only chain).
        partitioned_by = data.partitioned_by if op.preserves_partitioning else None
        return PartitionedDataset(partitions=parts, partitioned_by=partitioned_by)

    def _run_filter(self, op: FilterOperator, data: PartitionedDataset) -> PartitionedDataset:
        self._count_in(op, data.num_records())
        fn = _udf(op.fn)
        parts = self._dispatch(kernels.filter_kernel, [(part, fn) for part in data.partitions])
        # A filter never rewrites records, so hash placement survives.
        return PartitionedDataset(partitions=parts, partitioned_by=data.partitioned_by)

    def _combine_locally(
        self, op: ReduceByKeyOperator, data: PartitionedDataset
    ) -> PartitionedDataset:
        """Pre-fold each partition by key before the shuffle."""
        key, fn = op.key.extractor, _udf(op.fn)
        parts = self._dispatch(
            kernels.fold_by_key_kernel,
            [(part, key, fn) for part in data.partitions],
        )
        return PartitionedDataset(partitions=parts, partitioned_by=data.partitioned_by)

    def _run_reduce_by_key(
        self, op: ReduceByKeyOperator, data: PartitionedDataset
    ) -> PartitionedDataset:
        self._count_in(op, data.num_records())
        if self.combiners and data.partitioned_by != op.key:
            data = self._combine_locally(op, data)
        data = self._shuffle(data, op.key, op.name)
        key, fn = op.key.extractor, _udf(op.fn)
        parts = self._dispatch(
            kernels.fold_by_key_kernel,
            [(part, key, fn) for part in data.partitions],
        )
        # Contract: the reduce function preserves the key field, so the
        # output remains partitioned by the same key.
        return PartitionedDataset(partitions=parts, partitioned_by=op.key)

    def _run_group_reduce(
        self, op: GroupReduceOperator, data: PartitionedDataset
    ) -> PartitionedDataset:
        self._count_in(op, data.num_records())
        data = self._shuffle(data, op.key, op.name)
        key, fn = op.key.extractor, _udf(op.fn)
        parts = self._dispatch(
            kernels.group_reduce_kernel,
            [(part, key, fn) for part in data.partitions],
        )
        # Group reducers may emit arbitrary records; placement is unknown.
        return PartitionedDataset(partitions=parts, partitioned_by=None)

    def _join_partitioning(self, op: JoinOperator | CoGroupOperator) -> KeySpec | None:
        if op.preserves == "left":
            return op.left_key
        if op.preserves == "right":
            return op.right_key
        return None

    def _run_join(
        self, op: JoinOperator, left: PartitionedDataset, right: PartitionedDataset
    ) -> PartitionedDataset:
        self._count_in(op, left.num_records() + right.num_records())
        left = self._shuffle(left, op.left_key, op.name)
        right = self._shuffle(right, op.right_key, op.name)
        left_key, fn = op.left_key.extractor, _udf(op.fn)
        if isinstance(right, StaticDataset):
            # Static build side: probe its resident index.
            parts = self._dispatch(
                kernels.probe_join_kernel,
                [
                    (left_part, table, left_key, fn)
                    for left_part, table in zip(left.partitions, right.index(op.right_key))
                ],
            )
        else:
            # Dynamic build side: fuse build+probe in one kernel.
            right_key = op.right_key.extractor
            parts = self._dispatch(
                kernels.hash_join_kernel,
                [
                    (left_part, right_part, left_key, right_key, fn)
                    for left_part, right_part in zip(left.partitions, right.partitions)
                ],
            )
        return PartitionedDataset(partitions=parts, partitioned_by=self._join_partitioning(op))

    def _run_co_group(
        self, op: CoGroupOperator, left: PartitionedDataset, right: PartitionedDataset
    ) -> PartitionedDataset:
        self._count_in(op, left.num_records() + right.num_records())
        left = self._shuffle(left, op.left_key, op.name)
        right = self._shuffle(right, op.right_key, op.name)
        left_key, right_key, fn = op.left_key.extractor, op.right_key.extractor, _udf(op.fn)
        parts = self._dispatch(
            kernels.co_group_kernel,
            [
                (lhs, rhs, left_key, right_key, fn, False, False)
                for lhs, rhs in zip(left.partitions, right.partitions)
            ],
        )
        return PartitionedDataset(partitions=parts, partitioned_by=self._join_partitioning(op))

    def _broadcast_side(self, op: CrossOperator, right: PartitionedDataset) -> list[Any]:
        broadcast = right.all_records()
        self._charge_exchange(op.name, [len(broadcast)] * self.parallelism)
        return broadcast

    def _run_cross(
        self, op: CrossOperator, left: PartitionedDataset, right: PartitionedDataset
    ) -> PartitionedDataset:
        # The right side is broadcast: every partition receives a full copy.
        broadcast = self._broadcast_side(op, right)
        pairs = left.num_records() * len(broadcast)
        self._count_in(op, pairs)
        fn = _udf(op.fn)
        parts = self._dispatch(
            kernels.cross_kernel, [(part, broadcast, fn) for part in left.partitions]
        )
        return PartitionedDataset(partitions=parts, partitioned_by=None)

    def _run_union(self, op: UnionOperator, inputs: list[PartitionedDataset]) -> PartitionedDataset:
        for position, dataset in enumerate(inputs):
            dataset.require_complete(f"union {op.name!r} input {position}")
        self._count_in(op, sum(ds.num_records() for ds in inputs))
        parts: list[list[Any]] = []
        for pid in range(self.parallelism):
            merged: list[Any] = []
            for dataset in inputs:
                merged.extend(dataset.partitions[pid])  # type: ignore[arg-type]
            parts.append(merged)
        keys = {ds.partitioned_by for ds in inputs}
        partitioned_by = keys.pop() if len(keys) == 1 else None
        log = self.message_log
        if log is not None:
            # Union merges are partition-local (no network, no log I/O
            # charge) but the merged records still have to be regenerated
            # when a lost partition is replayed, so they count toward the
            # confined replay volume.
            sizes = [len(part) for part in parts]
            self.metrics.increment("message_log.logged_local", sum(sizes))
            log.deliver(sizes, local=True)
        return PartitionedDataset(partitions=parts, partitioned_by=partitioned_by)
