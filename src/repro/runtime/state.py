"""The keyed solution-set state backend.

A delta iteration (paper §2.1) *selectively* updates its solution set:
each superstep touches only the records named by the delta, which shrinks
as the algorithm converges. The original driver nevertheless rebuilt a
``{key: record}`` dict over the **entire** solution set every superstep —
O(|state|) maintenance work per superstep where the paper's model is
O(|delta|). *Spinning Fast Iterative Data Flows* (Ewen et al.) describes
the fix Flink uses: the solution set lives in a partitioned hash index and
deltas are applied in place.

:class:`KeyedStateBackend` is that index. It owns the solution set as one
hash index per partition (key → slot in the partition's record list),
maintained across supersteps:

* :meth:`~StateBackend.apply_delta` merges a delta in O(|delta|),
* convergence counts against a ground truth and ``value_fn`` L1 deltas are
  maintained incrementally from the same per-record transitions,
* :meth:`~StateBackend.to_dataset` exposes a zero-copy
  :class:`~repro.runtime.executor.PartitionedDataset` view so the plan
  executor and the recovery strategies keep working on datasets,
* :meth:`~StateBackend.lose` / :meth:`~StateBackend.replace_partition` /
  :meth:`~StateBackend.restore_from` give the failure path the same
  partition-destruction and reinstall operations datasets have, and
* an opt-in change log (:meth:`~KeyedStateBackend.enable_change_tracking`)
  hands incremental checkpointing the records changed since the last
  commit without any full-state scan.

:class:`StateBackend` is the interface plus the plumbing that does not
depend on the index. The one other implementation — the original
driver's rebuild-the-dict-every-superstep semantics — lives in the test
tree (``tests/runtime/test_state_backend.py``) as the reference oracle
the keyed backend is compared against; ``docs/REPRODUCING.md`` ("Removed
modes") keeps its measured cost.

The backend reports its work through the run's
:class:`~repro.runtime.metrics.MetricsRegistry`:

* ``state.delta_applied`` — counter of delta records merged,
* ``state.index_rebuilds`` — counter of partition indexes rebuilt
  (restores and partition replacements; zero in a failure-free run),
* ``state.maintenance_ops`` — histogram of per-``apply_delta`` primitive
  operations, the series the state-backend benchmark plots: O(|delta|).

State keys must be unique per record; duplicate keys collapse (last one
wins), exactly as the original dict rebuild collapsed them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from ..dataflow.datatypes import KeySpec
from ..errors import ExecutionError, PartitionLostError
from .executor import PartitionedDataset
from .metrics import MetricsRegistry

#: sentinel distinguishing "key absent" from "key mapped to None".
_MISSING = object()


def record_matches(value: Any, expected: Any, tolerance: float) -> bool:
    """Whether a state value matches its ground-truth value.

    Float values (and all-float tuples) compare within ``tolerance`` when
    one is given; everything else compares exactly. This is the single
    truth-comparison used by both the iteration drivers' convergence
    plots and the backends' incremental converged counters.
    """
    if tolerance > 0 and isinstance(value, (int, float)) and isinstance(expected, (int, float)):
        return abs(value - expected) <= tolerance
    if (
        tolerance > 0
        and isinstance(value, tuple)
        and isinstance(expected, tuple)
        and len(value) == len(expected)
        and all(isinstance(x, (int, float)) for x in value)
        and all(isinstance(x, (int, float)) for x in expected)
    ):
        return all(abs(a - b) <= tolerance for a, b in zip(value, expected))
    return value == expected


class StateBackend(ABC):
    """Interface and index-independent plumbing of a solution-set backend.

    Args:
        dataset: the initial solution set; its partition lists are copied,
            so the caller's dataset stays untouched.
        key: the key spec the state is partitioned and indexed by.
        metrics: registry receiving the ``state.*`` counters/histograms.
        value_fn: optional float extraction enabling per-superstep L1
            tracking (:attr:`last_l1_delta`).
        truth: optional precomputed correct final state enabling
            :meth:`converged_count`.
        truth_tolerance: tolerance for float truth comparison.
    """

    def __init__(
        self,
        dataset: PartitionedDataset,
        key: KeySpec,
        *,
        metrics: MetricsRegistry | None = None,
        value_fn: Callable[[Any], float] | None = None,
        truth: dict[Any, Any] | None = None,
        truth_tolerance: float = 0.0,
    ):
        self._key = key
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._value_fn = value_fn
        self._truth = truth
        self._tolerance = truth_tolerance
        #: L1 norm of the most recent :meth:`apply_delta` (None without a
        #: ``value_fn``).
        self.last_l1_delta: float | None = None
        self._flat_cache: list[Any] | None = None

    # -- interface subclasses fill in ------------------------------------------

    @property
    @abstractmethod
    def partitions(self) -> list[list[Any] | None]:
        """The live partition record lists (``None`` for lost partitions).

        These are the backend's own lists — readers must not mutate them.
        """

    @abstractmethod
    def apply_delta(self, delta: PartitionedDataset) -> int:
        """Merge ``delta`` records into the solution set, partition-locally.

        Returns the number of entries that actually changed (inserts
        count as changes). Raises :class:`PartitionLostError` when a
        non-empty delta partition targets a lost state partition.
        """

    @abstractmethod
    def _install_partition(self, partition_id: int, records: list[Any]) -> None:
        """Install fresh contents (and rebuild any index) for one partition."""

    # -- shared inspection -------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def num_records(self) -> int:
        """Total record count over non-lost partitions."""
        return sum(len(part) for part in self.partitions if part is not None)

    def lost_partitions(self) -> list[int]:
        """Ids of partitions whose state is destroyed."""
        return [pid for pid, part in enumerate(self.partitions) if part is None]

    def to_dataset(self) -> PartitionedDataset:
        """A zero-copy :class:`PartitionedDataset` view of the live state.

        The view shares the backend's partition lists (so executing a
        step plan or writing a checkpoint over it copies nothing) but has
        its own outer list: replacing partitions on the view does not
        affect the backend. Lost partitions appear as ``None``.
        """
        return PartitionedDataset(
            partitions=list(self.partitions), partitioned_by=self._key
        )

    def records_view(self) -> list[Any]:
        """All records concatenated in partition order, cached.

        The concatenation is recomputed only after the state changed;
        repeated callers within one superstep (convergence counting,
        snapshotting, the final result) share one materialization.
        """
        if self._flat_cache is None:
            flat: list[Any] = []
            for part in self.partitions:
                if part is None:
                    raise PartitionLostError(
                        self.lost_partitions(),
                        f"state backend: state lost for partitions "
                        f"{self.lost_partitions()}",
                    )
                flat.extend(part)
            self._flat_cache = flat
        return self._flat_cache

    def converged_count(self) -> int:
        """How many records match the ground truth (0 without a truth)."""
        if self._truth is None:
            return 0
        return self._count_converged()

    def _count_converged(self) -> int:
        assert self._truth is not None
        converged = 0
        for record in self.records_view():
            expected = self._truth.get(record[0], _MISSING)
            if expected is _MISSING:
                continue
            if record_matches(record[1], expected, self._tolerance):
                converged += 1
        return converged

    # -- shared failure-path mutation --------------------------------------------

    def lose(self, partition_ids: list[int]) -> int:
        """Destroy the state of the given partitions; returns records lost."""
        lost_records = 0
        parts = self.partitions
        for pid in partition_ids:
            if pid < 0 or pid >= len(parts):
                raise ExecutionError(f"no partition {pid} in backend of {len(parts)}")
            if parts[pid] is not None:
                lost_records += len(parts[pid])  # type: ignore[arg-type]
                self._discard_partition(pid)
        if partition_ids:
            self._invalidate()
        return lost_records

    def replace_partition(self, partition_id: int, records: list[Any]) -> None:
        """Install new contents (a fresh copy) for one partition."""
        if partition_id < 0 or partition_id >= self.num_partitions:
            raise ExecutionError(
                f"no partition {partition_id} in backend of {self.num_partitions}"
            )
        self._install_partition(partition_id, list(records))
        self._metrics.increment("state.index_rebuilds")
        self._invalidate()

    def restore_from(self, dataset: PartitionedDataset) -> None:
        """Reinstall the full state from a recovered dataset.

        Used by the delta driver after a recovery strategy returned a
        complete post-recovery state; each rebuilt partition index is
        counted in ``state.index_rebuilds`` and any change log is
        cleared — for incremental checkpointing the restored state equals
        the last committed one, so "changed since last commit" restarts
        empty.

        Empty incoming partitions whose live counterpart is already
        present and empty are skipped outright: installing ``[]`` over
        ``[]`` is a no-op, and skipping it keeps a restore O(records
        actually restored) instead of O(num_partitions) index rebuilds —
        which matters for sparse states where most partitions hold
        nothing.
        """
        dataset.require_complete("state backend restore")
        if dataset.num_partitions != self.num_partitions:
            raise ExecutionError(
                f"cannot restore {dataset.num_partitions} partitions into "
                f"backend of {self.num_partitions}"
            )
        rebuilt = 0
        live = self.partitions
        for pid, records in enumerate(dataset.partitions):
            if not records and live[pid] is not None and not live[pid]:
                continue
            self._install_partition(pid, list(records or []))
            rebuilt += 1
        self._metrics.increment("state.index_rebuilds", rebuilt)
        self._invalidate()

    # -- internals ---------------------------------------------------------------

    def _discard_partition(self, partition_id: int) -> None:
        """Mark one partition's state destroyed."""
        self.partitions[partition_id] = None

    def _invalidate(self) -> None:
        self._flat_cache = None

    def _require_target(self, partition_id: int, part: list[Any] | None) -> list[Any]:
        if part is None:
            raise PartitionLostError(
                [partition_id],
                f"state backend: cannot apply delta to lost partition {partition_id}",
            )
        return part

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.num_partitions}, "
            f"records={self.num_records()}, key={self._key.name!r})"
        )


class KeyedStateBackend(StateBackend):
    """Per-partition hash indexes over the solution set — O(|delta|) merges.

    Each partition keeps its records in a list plus a ``key → slot``
    index. Applying a delta record replaces in place (the slot keeps its
    position, matching dict-insertion-order semantics) or appends — no
    partition is copied or re-hashed, so failure-free superstep
    maintenance costs O(|delta|) regardless of the solution-set size.
    Convergence counts and L1 deltas are adjusted from the same
    ``old → new`` transitions, so the driver's per-superstep statistics
    also stop scanning unchanged state.
    """

    def __init__(self, dataset, key, **kwargs):
        super().__init__(dataset, key, **kwargs)
        self._parts: list[list[Any] | None] = []
        self._index: list[dict[Any, int] | None] = []
        for pid, records in enumerate(dataset.partitions):
            if records is None:
                self._parts.append(None)
                self._index.append(None)
            else:
                self._parts.append([])
                self._index.append({})
                self._reindex(pid, records)
        self._tracking = False
        #: per partition: key → record value at the last commit (or the
        #: :data:`_MISSING` sentinel for keys inserted since).
        self._changed: list[dict[Any, Any]] = [{} for _ in self._parts]
        self._converged: int | None = None
        if self._truth is not None and not self.lost_partitions():
            self._converged = self._count_converged()

    @property
    def partitions(self) -> list[list[Any] | None]:
        return self._parts

    def apply_delta(self, delta: PartitionedDataset) -> int:
        changed = 0
        applied = 0
        touched_values: dict[Any, float] = {}
        for pid, delta_part in enumerate(delta.partitions):
            if not delta_part:
                continue
            records = self._require_target(pid, self._parts[pid])
            index = self._index[pid]
            assert index is not None
            pending = self._changed[pid] if self._tracking else None
            for record in delta_part:
                record_key = self._key(record)
                applied += 1
                slot = index.get(record_key, -1)
                old = records[slot] if slot >= 0 else _MISSING
                if old is not _MISSING and old == record:
                    continue
                changed += 1
                if pending is not None and record_key not in pending:
                    pending[record_key] = old
                if self._value_fn is not None and record_key not in touched_values:
                    touched_values[record_key] = (
                        0.0 if old is _MISSING else self._value_fn(old)
                    )
                if self._converged is not None:
                    self._adjust_converged(record_key, old, record)
                if slot >= 0:
                    records[slot] = record
                else:
                    index[record_key] = len(records)
                    records.append(record)
        if applied:
            self._invalidate()
        self._metrics.increment("state.delta_applied", applied)
        self._metrics.observe("state.maintenance_ops", applied)
        if self._value_fn is not None:
            self.last_l1_delta = sum(
                abs(self._value_fn(self._lookup(record_key)) - old_value)
                for record_key, old_value in touched_values.items()
            )
        return changed

    def converged_count(self) -> int:
        if self._truth is None:
            return 0
        if self._converged is None:
            self._converged = self._count_converged()
        return self._converged

    # -- change tracking (consumed by incremental checkpointing) -----------------

    def enable_change_tracking(self) -> None:
        """Start recording which records change between commits."""
        self._tracking = True

    @property
    def change_tracking_enabled(self) -> bool:
        return self._tracking

    def drain_changes(self) -> list[list[Any]]:
        """Records changed since the last commit, partition by partition.

        Per partition, the changed records come out in partition-list
        order — the same order a full scan of the partition would find
        them in — and entries whose value meanwhile returned to the
        committed one are dropped, so the drain is record-for-record what
        the scan-based diff produced.
        """
        drained: list[list[Any]] = []
        for pid, pending in enumerate(self._changed):
            records = self._parts[pid]
            index = self._index[pid]
            if records is None or index is None:
                drained.append([])
                pending.clear()
                continue
            slots = sorted(
                index[record_key] for record_key, old in pending.items()
                if records[index[record_key]] != old
            )
            drained.append([records[slot] for slot in slots])
            pending.clear()
        return drained

    def clear_changes(self) -> None:
        """Forget any recorded changes (e.g. after a full base write)."""
        for pending in self._changed:
            pending.clear()

    # -- internals ---------------------------------------------------------------

    def _lookup(self, record_key: Any) -> Any:
        for index, records in zip(self._index, self._parts):
            if index is not None and record_key in index:
                return records[index[record_key]]  # type: ignore[index]
        raise ExecutionError(f"state key {record_key!r} not present in any partition")

    def _adjust_converged(self, record_key: Any, old: Any, new: Any) -> None:
        assert self._truth is not None and self._converged is not None
        expected = self._truth.get(record_key, _MISSING)
        if expected is _MISSING:
            return
        if old is not _MISSING and record_matches(old[1], expected, self._tolerance):
            self._converged -= 1
        if record_matches(new[1], expected, self._tolerance):
            self._converged += 1

    def _reindex(self, partition_id: int, records: list[Any]) -> None:
        """(Re)build one partition's list + index, collapsing duplicate keys."""
        index: dict[Any, int] = {}
        deduped: list[Any] = []
        for record in records:
            record_key = self._key(record)
            slot = index.get(record_key, -1)
            if slot >= 0:
                deduped[slot] = record
            else:
                index[record_key] = len(deduped)
                deduped.append(record)
        self._parts[partition_id] = deduped
        self._index[partition_id] = index

    def _install_partition(self, partition_id: int, records: list[Any]) -> None:
        self._reindex(partition_id, records)
        self._changed[partition_id].clear()
        self._converged = None if self._truth is not None else self._converged

    def _discard_partition(self, partition_id: int) -> None:
        self._parts[partition_id] = None
        self._index[partition_id] = None
        self._changed[partition_id].clear()
        self._converged = None if self._truth is not None else self._converged
