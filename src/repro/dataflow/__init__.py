"""Flink-like dataflow API.

Programs are expressed as DAGs of named operators over datasets, exactly
as §2.1 of the paper describes: vertices are tasks running user-defined
functions, edges are data exchanges. The API surface mirrors the subset of
Flink's DataSet API the paper's dataflows (Figure 1) need — ``map``,
``flat_map``, ``filter``, ``reduce_by_key``, ``group_reduce``, ``join``,
``co_group``, ``cross``, ``union`` — plus plan rendering so the Figure 1
dataflows can be regenerated as text/DOT.

The logical plan is engine-agnostic; :mod:`repro.runtime.executor`
executes it over hash-partitioned data with simulated costs.
"""

from .datatypes import KeySpec, first_field, second_field
from .functions import (
    CoGroupFunction,
    CrossFunction,
    FilterFunction,
    FlatMapFunction,
    JoinFunction,
    MapFunction,
    ReduceFunction,
)
from .operators import (
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
from .optimizer import fuse_chains, optimize, push_filters_through_unions
from .plan import DataSet, Plan
from .rendering import plan_to_dot, plan_to_text

__all__ = [
    "CoGroupFunction",
    "CoGroupOperator",
    "CrossFunction",
    "CrossOperator",
    "DataSet",
    "FilterFunction",
    "FilterOperator",
    "FlatMapFunction",
    "FlatMapOperator",
    "GroupReduceOperator",
    "JoinFunction",
    "JoinOperator",
    "KeySpec",
    "MapFunction",
    "MapOperator",
    "Operator",
    "Plan",
    "ReduceByKeyOperator",
    "ReduceFunction",
    "SourceOperator",
    "UnionOperator",
    "first_field",
    "fuse_chains",
    "optimize",
    "plan_to_dot",
    "plan_to_text",
    "push_filters_through_unions",
    "second_field",
]
