"""Iterative execution on top of the dataflow engine.

Flink offers two iteration modes (§2.1 of the paper), both reproduced
here:

* **bulk iterations** (:mod:`repro.iteration.bulk`) recompute the whole
  intermediate state every superstep — PageRank's mode;
* **delta iterations** (:mod:`repro.iteration.delta`) keep a *solution
  set* and a *workset* of pending updates, terminating when the workset
  runs empty — Connected Components' mode.

One driver, two step plug-ins: :mod:`repro.iteration.driver` runs the
superstep loop for both modes — execute the *step plan*, inject scheduled
failures at the end of the compute phase, delegate to a pluggable recovery
strategy (:mod:`repro.core`), collect the per-superstep statistics the
demo GUI plots, snapshot state for its backward/replay buttons. A mode
supplies only its initial datasets, its step, and how its partitions are
viewed, lost and reinstalled.
"""

from .bulk import BulkIterationSpec, run_bulk_iteration
from .delta import DeltaIterationSpec, run_delta_iteration
from .result import IterationResult
from .snapshots import SnapshotPhase, SnapshotStore, StateSnapshot
from .termination import (
    EmptyWorkset,
    EpsilonL1,
    FixedSupersteps,
    NoUpdates,
    TerminationCriterion,
)

__all__ = [
    "BulkIterationSpec",
    "DeltaIterationSpec",
    "EmptyWorkset",
    "EpsilonL1",
    "FixedSupersteps",
    "IterationResult",
    "NoUpdates",
    "SnapshotPhase",
    "SnapshotStore",
    "StateSnapshot",
    "TerminationCriterion",
    "run_bulk_iteration",
    "run_delta_iteration",
]
