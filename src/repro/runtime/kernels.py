"""Pure partition kernels.

Each kernel processes one partition of one operator and returns the
output partition. Kernels are deliberately *pure*: they touch no clock,
no metrics registry, no tracer and no executor state. The executor calls
them in the driver thread and charges every simulated cost from record
counts it computes itself.

Every callable argument is called once per record, so the executor
hands kernels raw callables (a UDF's own function, a key spec's
extractor) rather than adapters around them; any callable works.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..dataflow.functions import emitted
from .partition import stable_hash


def map_kernel(part: list[Any], fn: Callable[[Any], Any]):
    """Apply ``fn`` to every record."""
    return [fn(record) for record in part]


def flat_map_kernel(part: list[Any], fn: Callable[[Any], Any]):
    """Apply ``fn`` to every record and flatten the emitted iterables."""
    out: list[Any] = []
    for record in part:
        out.extend(fn(record))
    return out


def filter_kernel(part: list[Any], fn: Callable[[Any], Any]):
    """Keep records for which ``fn`` is truthy."""
    return [record for record in part if fn(record)]


def fold_by_key_kernel(part: list[Any], key: Callable[[Any], Any], fn: Callable[[Any, Any], Any]):
    """Fold records sharing a key into one, preserving first-seen key order.

    This is both the post-shuffle reduce of ``reduce_by_key`` and the
    map-side combiner: the fold is associative by operator contract, and
    output follows first-seen key order.
    """
    folded: dict[Any, Any] = {}
    for record in part:
        k = key(record)
        folded[k] = record if k not in folded else fn(folded[k], record)
    return list(folded.values())


def group_reduce_kernel(part: list[Any], key: Callable[[Any], Any], fn: Callable[[Any, list[Any]], Any]):
    """Group records by key and reduce each group with ``fn(key, group)``."""
    groups: dict[Any, list[Any]] = {}
    for record in part:
        groups.setdefault(key(record), []).append(record)
    out: list[Any] = []
    for k, group in groups.items():
        out.extend(fn(k, group))
    return out


def route_kernel(part: Iterable[Any], key: Callable[[Any], Any], num_partitions: int):
    """Bucket records by hash of key: the map side of a shuffle.

    Returns one bucket per target partition, each holding its records
    in source order.
    """
    buckets: list[list[Any]] = [[] for _ in range(num_partitions)]
    appends = [bucket.append for bucket in buckets]
    for record in part:
        k = key(record)
        # an int is its own stable hash (bool is not: type(True) is bool)
        appends[(k if type(k) is int else stable_hash(k)) % num_partitions](record)
    return buckets


def build_index_kernel(part: list[Any], key: Callable[[Any], Any]):
    """Build a hash index ``{key: [records]}`` over one partition.

    Used for the build side of a join over a static input: built once
    per run, then probed every superstep.
    """
    table: dict[Any, list[Any]] = {}
    for record in part:
        table.setdefault(key(record), []).append(record)
    return table


def probe_join_kernel(
    part: list[Any],
    table: dict[Any, list[Any]],
    key: Callable[[Any], Any],
    fn: Callable[[Any, Any], Any],
):
    """Probe a pre-built hash table with every record of ``part``.

    A plain ``tuple`` result is one record and is appended as is; any
    other result is normalised by :func:`emitted`. The other join and the
    cross kernel emit the same way.
    """
    out: list[Any] = []
    append, get = out.append, table.get
    for record in part:
        for match in get(key(record), ()):
            value = fn(record, match)
            if type(value) is tuple:
                append(value)
            elif value is not None:
                out.extend(emitted(value))
    return out


def hash_join_kernel(
    left_part: list[Any],
    right_part: list[Any],
    left_key: Callable[[Any], Any],
    right_key: Callable[[Any], Any],
    fn: Callable[[Any, Any], Any],
):
    """Fused build+probe for dynamic build sides."""
    table: dict[Any, list[Any]] = {}
    for record in right_part:
        table.setdefault(right_key(record), []).append(record)
    out: list[Any] = []
    append, get = out.append, table.get
    for record in left_part:
        for match in get(left_key(record), ()):
            value = fn(record, match)
            if type(value) is tuple:
                append(value)
            elif value is not None:
                out.extend(emitted(value))
    return out


def co_group_kernel(
    left: "list[Any] | dict[Any, list[Any]]",
    right: "list[Any] | dict[Any, list[Any]]",
    left_key: Callable[[Any], Any],
    right_key: Callable[[Any], Any],
    fn: Callable[[Any, list[Any], list[Any]], Any],
    left_grouped: bool,
    right_grouped: bool,
):
    """Co-group one partition pair.

    Either side arrives raw (a record list, grouped here) or, when its
    ``*_grouped`` flag is set, as a ``{key: [records]}`` index. The
    executor passes both sides raw. The key-iteration order is the set
    union ``lk | rk``.
    """
    if left_grouped:
        left_groups = left
    else:
        left_groups = {}
        for record in left:
            left_groups.setdefault(left_key(record), []).append(record)
    if right_grouped:
        right_groups = right
    else:
        right_groups = {}
        for record in right:
            right_groups.setdefault(right_key(record), []).append(record)
    out: list[Any] = []
    for k in left_groups.keys() | right_groups.keys():
        out.extend(fn(k, left_groups.get(k, []), right_groups.get(k, [])))
    return out


def cross_kernel(part: list[Any], broadcast: list[Any], fn: Callable[[Any, Any], Any]):
    """Cross one partition with the broadcast side."""
    out: list[Any] = []
    append = out.append
    for record in part:
        for other in broadcast:
            value = fn(record, other)
            if type(value) is tuple:
                append(value)
            elif value is not None:
                out.extend(emitted(value))
    return out
