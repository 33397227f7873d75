"""Pure partition kernels.

Each kernel processes one partition of one operator and returns
``(out_partition, counters)``. Kernels are deliberately *pure*: they
touch no clock, no metrics registry, no tracer and no executor state, so
the exact same function can run inline in the driver thread, on a thread
pool, or inside a process worker — the parent charges all simulated
costs from record counts it computes itself, which is what keeps every
backend bit-identical (see :mod:`repro.runtime.parallel`).

They are also *picklable*: every kernel is a module-level function, so
the process backend ships it by reference (a few bytes of
``module.qualname``) instead of by value. The operator closures they
receive (``op.fn``, key extractors) must be picklable too for process
dispatch; unpicklable closures transparently fall back to inline
execution in the parent.

The ``counters`` dict is small bookkeeping about the partition's work
(records in/out); backends aggregate it into ``parallel.*`` metrics.
Job-level counters (``records_in.<op>`` etc.) are *not* derived from it
— the parent computes those before dispatch so they are identical across
backends by construction.
"""

from __future__ import annotations

from typing import Any, Callable

from ..dataflow.functions import emitted
from .partition import stable_hash

KernelResult = "tuple[list[Any], dict[str, int]]"


def map_kernel(part: list[Any], fn: Callable[[Any], Any]):
    """Apply ``fn`` to every record."""
    out = [fn(record) for record in part]
    return out, {"records_in": len(part), "records_out": len(out)}


def flat_map_kernel(part: list[Any], fn: Callable[[Any], Any]):
    """Apply ``fn`` to every record and flatten the emitted iterables."""
    out: list[Any] = []
    for record in part:
        out.extend(fn(record))
    return out, {"records_in": len(part), "records_out": len(out)}


def filter_kernel(part: list[Any], fn: Callable[[Any], Any]):
    """Keep records for which ``fn`` is truthy."""
    out = [record for record in part if fn(record)]
    return out, {"records_in": len(part), "records_out": len(out)}


def fold_by_key_kernel(part: list[Any], key: Callable[[Any], Any], fn: Callable[[Any, Any], Any]):
    """Fold records sharing a key into one, preserving first-seen key order.

    This is both the post-shuffle reduce of ``reduce_by_key`` and the
    map-side combiner: the fold is associative by operator contract, so
    output is insertion-ordered exactly like the serial dict-based loop.
    """
    folded: dict[Any, Any] = {}
    for record in part:
        k = key(record)
        folded[k] = record if k not in folded else fn(folded[k], record)
    out = list(folded.values())
    return out, {"records_in": len(part), "records_out": len(out)}


def group_reduce_kernel(part: list[Any], key: Callable[[Any], Any], fn: Callable[[Any, list[Any]], Any]):
    """Group records by key and reduce each group with ``fn(key, group)``."""
    groups: dict[Any, list[Any]] = {}
    for record in part:
        groups.setdefault(key(record), []).append(record)
    out: list[Any] = []
    for k, group in groups.items():
        out.extend(fn(k, group))
    return out, {"records_in": len(part), "records_out": len(out)}


def route_kernel(part: list[Any], key: Callable[[Any], Any], num_partitions: int):
    """Bucket records by hash of key: the map side of a shuffle.

    Returns one bucket per target partition; the parent concatenates
    bucket ``p`` of every source partition in source order, which is
    exactly the record order the serial single-loop shuffle produces.
    """
    buckets: list[list[Any]] = [[] for _ in range(num_partitions)]
    appends = [bucket.append for bucket in buckets]
    for record in part:
        appends[stable_hash(key(record)) % num_partitions](record)
    return buckets, {"records_in": len(part), "records_out": len(part)}


def build_index_kernel(part: list[Any], key: Callable[[Any], Any]):
    """Build a hash index ``{key: [records]}`` over one partition.

    Used for cache-reusable join/co-group build sides: built once, then
    kept resident in the workers across supersteps.
    """
    table: dict[Any, list[Any]] = {}
    for record in part:
        table.setdefault(key(record), []).append(record)
    return table, {"records_in": len(part), "records_out": len(part)}


def probe_join_kernel(
    part: list[Any],
    table: dict[Any, list[Any]],
    key: Callable[[Any], Any],
    fn: Callable[[Any, Any], Any],
):
    """Probe a pre-built hash table with every record of ``part``."""
    out: list[Any] = []
    get = table.get
    for record in part:
        for match in get(key(record), ()):
            out.extend(emitted(fn(record, match)))
    return out, {"records_in": len(part), "records_out": len(out)}


def hash_join_kernel(
    left_part: list[Any],
    right_part: list[Any],
    left_key: Callable[[Any], Any],
    right_key: Callable[[Any], Any],
    fn: Callable[[Any, Any], Any],
):
    """Fused build+probe for dynamic (non-reusable) build sides.

    Building in the worker avoids shipping the hash table over IPC when
    it would be thrown away after one probe anyway.
    """
    table: dict[Any, list[Any]] = {}
    for record in right_part:
        table.setdefault(right_key(record), []).append(record)
    out: list[Any] = []
    get = table.get
    for record in left_part:
        for match in get(left_key(record), ()):
            out.extend(emitted(fn(record, match)))
    return out, {"records_in": len(left_part) + len(right_part), "records_out": len(out)}


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

    Either side arrives raw (a record list, grouped here) or pre-grouped
    (a resident ``{key: [records]}`` index from the execution cache).
    The key-iteration order is the set union ``lk | rk`` — identical to
    the serial loop because the dicts are built from the same records in
    the same order and the process backend forks (inheriting the parent's
    hash seed), so set ordering matches across workers.
    """
    records_in = 0
    if left_grouped:
        left_groups = left
    else:
        records_in += len(left)
        left_groups = {}
        for record in left:
            left_groups.setdefault(left_key(record), []).append(record)
    if right_grouped:
        right_groups = right
    else:
        records_in += len(right)
        right_groups = {}
        for record in right:
            right_groups.setdefault(right_key(record), []).append(record)
    out: list[Any] = []
    for k in left_groups.keys() | right_groups.keys():
        out.extend(fn(k, left_groups.get(k, []), right_groups.get(k, [])))
    return out, {"records_in": records_in, "records_out": len(out)}


def cross_kernel(part: list[Any], broadcast: list[Any], fn: Callable[[Any, Any], Any]):
    """Cross one partition with the broadcast side."""
    out: list[Any] = []
    for record in part:
        for other in broadcast:
            out.extend(emitted(fn(record, other)))
    return out, {"records_in": len(part) * len(broadcast), "records_out": len(out)}
