"""Simulated distributed runtime.

This package stands in for the cluster substrate the paper runs on (Apache
Flink on commodity machines). It provides:

* :mod:`repro.runtime.clock` — a simulated cost clock so experiments report
  deterministic "simulated seconds" instead of noisy wall-clock time,
* :mod:`repro.runtime.events` — a structured event log (failures,
  compensations, checkpoints, rollbacks, ...),
* :mod:`repro.runtime.metrics` — counters and per-superstep statistics, the
  exact series the demo GUI plots,
* :mod:`repro.runtime.partition` — deterministic hash/range partitioning,
* :mod:`repro.runtime.storage` — simulated stable storage for checkpoints
  and loop-invariant inputs,
* :mod:`repro.runtime.cluster` — workers, spare pool, partition placement
  and failure mechanics,
* :mod:`repro.runtime.failures` — failure schedules and injection,
* :mod:`repro.runtime.executor` — execution of dataflow plans over
  partitioned datasets, with loop-invariant inputs placed and indexed
  once per run,
* :mod:`repro.runtime.state` — the keyed solution-set state backend of the
  delta-iteration driver (O(|delta|) superstep maintenance),
* :mod:`repro.runtime.kernels` — pure per-partition operator kernels.
"""

from .clock import CostCategory, SimulatedClock
from .cluster import SimulatedCluster, Worker, WorkerState
from .events import Event, EventKind, EventLog
from .executor import PartitionedDataset, PlanExecutor, StaticDataset
from .failures import FailureEvent, FailureInjector, FailureSchedule
from .metrics import IterationStats, MetricsRegistry, StatsSeries
from .partition import HashPartitioner, Partitioner, RangePartitioner, stable_hash
from .state import KeyedStateBackend, StateBackend, record_matches
from .storage import StableStorage

__all__ = [
    "CostCategory",
    "Event",
    "EventKind",
    "EventLog",
    "FailureEvent",
    "FailureInjector",
    "FailureSchedule",
    "HashPartitioner",
    "IterationStats",
    "KeyedStateBackend",
    "MetricsRegistry",
    "PartitionedDataset",
    "Partitioner",
    "PlanExecutor",
    "RangePartitioner",
    "SimulatedClock",
    "SimulatedCluster",
    "StableStorage",
    "StateBackend",
    "StaticDataset",
    "StatsSeries",
    "Worker",
    "WorkerState",
    "record_matches",
    "stable_hash",
]
