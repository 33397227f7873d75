"""View adapters: how each algorithm refreshes as a materialized view.

A :class:`ViewAlgorithm` tells the refresh orchestrator three things
about one iterative algorithm:

* how to build a **cold** job — the ordinary from-scratch fixpoint over
  the current graph snapshot (exactly what the algorithm factories in
  :mod:`repro.algorithms` produce);
* how to build a **warm** job — the same dataflow seeded from the view's
  previous solution, the paper's optimistic-recovery move applied to
  *input change* instead of failure: the stale fixpoint is "consistent
  but not correct" state that re-convergence heals. Each adapter applies
  its algorithm's compensation idiom to make the seed consistent
  (PageRank re-normalizes rank mass, Connected Components re-initializes
  the components a removal touched);
* an **affected-keys analysis** bounding which vertices the epoch's
  mutations can (transitively, per-algorithm) influence, so the
  orchestrator can shrink the initial workset and decide warm vs. cold.

Bit-identical refreshes
-----------------------

The acceptance bar for a warm refresh is producing *bit-identical*
records to a cold recompute of the same epoch. For discrete fixpoints
(CC labels) the fixpoint is unique, so any consistent seed lands on it
exactly. For floating-point fixpoints (PageRank) the iterates from two
different seeds approach the fixpoint but never agree to the last ulp —
so views converge tightly (``epsilon=1e-12``) and then *canonicalize* on
materialization: records are sorted by key and values rounded to
``snap_digits`` (1e-9 grid). Because both runs stop within ~1e-12 of the
same fixpoint, far below the rounding grid, both land in the same cell
and the materialized records agree bit for bit.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..algorithms.base import BulkJob, DeltaJob
from ..algorithms.connected_components import connected_components
from ..algorithms.pagerank import VERTEX_KEY, pagerank
from ..core.compensation import CompensationContext, CompensationFunction
from ..core.guarantees import KeySetPreserved
from ..dataflow.datatypes import KeySpec, first_field
from ..dataflow.plan import Plan
from ..errors import GraphError
from ..graph.graph import Graph
from ..iteration.bulk import BulkIterationSpec
from ..iteration.termination import NoUpdates
from .mutations import Mutation, MutationEpoch, MutationKind

#: the component-id key of the derived component-mass view.
COMPONENT_KEY: KeySpec = first_field("component")


@dataclass(frozen=True)
class RefreshInputs:
    """Everything a refresh computes from, pinned to one source epoch.

    Attributes:
        epoch: the source epoch this refresh will materialize.
        graph: the graph snapshot at ``epoch`` (``None`` for derived
            views, which read only their parents).
        parents: ``{parent view name: canonical records}`` for derived
            views (empty for graph-rooted views).
    """

    epoch: int
    graph: Graph | None = None
    parents: Mapping[str, tuple[Any, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class PreviousState:
    """The view's last materialization, used to seed a warm refresh."""

    epoch: int
    records: tuple[Any, ...]


class ViewAlgorithm(ABC):
    """How one iterative algorithm runs as a materialized view."""

    #: adapter name, used in job names and reports.
    name: str = "view"
    #: True when the previous fixpoint is a consistent seed under pure
    #: additions with no compensation at all (CC's label lowering).
    monotone_safe: bool = False
    #: False when the adapter cannot warm-start (always cold recompute).
    warm_capable: bool = True
    #: decimal digits float values are rounded to on materialization
    #: (``None`` = exact values, for discrete-state algorithms).
    snap_digits: int | None = None

    @abstractmethod
    def cold_job(self, inputs: RefreshInputs) -> BulkJob | DeltaJob:
        """A from-scratch job for the snapshot ``inputs`` describes."""

    @abstractmethod
    def warm_job(
        self,
        inputs: RefreshInputs,
        previous: PreviousState,
        epochs: list[MutationEpoch],
    ) -> BulkJob | DeltaJob:
        """A job seeded from ``previous``, compensated to consistency.

        Only called when :attr:`warm_capable` is True and the view has a
        previous materialization; ``epochs`` are the sealed mutation
        epochs between ``previous.epoch`` and ``inputs.epoch``.
        """

    def affected_keys(
        self,
        inputs: RefreshInputs,
        previous: PreviousState,
        epochs: list[MutationEpoch],
    ) -> set[Any]:
        """Keys the mutations can influence (the warm workset bound).

        The default is maximally conservative — every key — which makes
        the orchestrator's affected-fraction threshold always choose a
        cold refresh.
        """
        return {record[0] for record in previous.records}

    def canonicalize(self, records: Iterable[Any]) -> tuple[Any, ...]:
        """Materialization form: sorted by key, float values snapped.

        This is what makes refresh results comparable bit for bit: record
        order is an artifact of partitioning, and trailing float ulps are
        an artifact of the seed (see module docstring).
        """
        snapped = []
        for record in records:
            key, value = record
            if self.snap_digits is not None and isinstance(value, float):
                value = round(value, self.snap_digits)
            snapped.append((key, value))
        snapped.sort(key=lambda record: record[0])
        return tuple(snapped)


def _flatten(epochs: list[MutationEpoch]) -> list[Mutation]:
    return [mutation for epoch in epochs for mutation in epoch.mutations]


class PageRankView(ViewAlgorithm):
    """PageRank ranks as a view.

    Not monotone-safe: dropping or adding vertices leaves the previous
    rank vector summing to less or more than one, violating the mass-
    conservation invariant the fixpoint needs. The warm seed therefore
    applies the ``fix-ranks`` idea at the *input* boundary: keep
    surviving ranks, give new vertices the uniform ``1/n`` share, drop
    removed vertices, then re-normalize the whole vector to total mass
    one. That seed is consistent (a probability distribution), so the
    power iteration re-converges to the unique fixpoint of the new
    graph — typically in far fewer supersteps than the uniform start.
    """

    monotone_safe = False
    snap_digits = 9

    def __init__(
        self,
        damping: float = 0.85,
        epsilon: float = 1e-12,
        max_supersteps: int = 2000,
    ):
        self.name = "pagerank-view"
        self.damping = damping
        self.epsilon = epsilon
        self.max_supersteps = max_supersteps

    def _make_job(self, graph: Graph) -> BulkJob:
        return pagerank(
            graph,
            damping=self.damping,
            epsilon=self.epsilon,
            max_supersteps=self.max_supersteps,
        )

    def cold_job(self, inputs: RefreshInputs) -> BulkJob:
        assert inputs.graph is not None
        return self._make_job(inputs.graph)

    def warm_job(
        self,
        inputs: RefreshInputs,
        previous: PreviousState,
        epochs: list[MutationEpoch],
    ) -> BulkJob:
        assert inputs.graph is not None
        graph = inputs.graph
        job = self._make_job(graph)
        previous_ranks = {record[0]: record[1] for record in previous.records}
        uniform = 1.0 / graph.num_vertices
        seeded = [(v, previous_ranks.get(v, uniform)) for v in graph.vertices]
        total = math.fsum(rank for _, rank in seeded)
        # fix-ranks at the input boundary: re-normalize to total mass 1
        # so the seed satisfies the MassConservation invariant.
        job.initial_records = [(v, rank / total) for v, rank in seeded]
        return job

    def affected_keys(
        self,
        inputs: RefreshInputs,
        previous: PreviousState,
        epochs: list[MutationEpoch],
    ) -> set[Any]:
        """Directly-touched vertices plus their out-neighbors.

        Rank influence is global in the limit, but the first-order
        perturbation is confined to the touched vertices and the targets
        of their out-links — a useful proxy for "how much of the rank
        vector moves", which is what the warm/cold threshold wants.
        """
        assert inputs.graph is not None
        graph = inputs.graph
        affected: set[Any] = set()
        for epoch in epochs:
            for vertex in epoch.touched_vertices():
                if vertex in graph:
                    affected.add(vertex)
                    affected.update(graph.neighbors(vertex))
        return affected


class ConnectedComponentsView(ViewAlgorithm):
    """Connected-component labels as a view.

    Monotone-safe for additions: labels only ever decrease, so the
    previous labels are valid upper bounds and the workset shrinks to
    the added edges' endpoints plus new vertices. Removals break the
    monotone argument (a split component may need labels to *rise*), so
    the warm seed re-applies the paper's ``fix-components`` reset at
    component granularity: every vertex whose previous label names a
    component touched by a removal is re-initialized to its own id, and
    the workset re-activates the reset vertices and their neighbors so
    the labels re-propagate (§3.2). Because the label fixpoint is unique
    and discrete, the warm result is exactly the cold result.
    """

    monotone_safe = True

    def __init__(self, max_supersteps: int = 500):
        self.name = "components-view"
        self.max_supersteps = max_supersteps

    def cold_job(self, inputs: RefreshInputs) -> DeltaJob:
        assert inputs.graph is not None
        return connected_components(inputs.graph, max_supersteps=self.max_supersteps)

    def _warm_seed(
        self,
        graph: Graph,
        previous: PreviousState,
        epochs: list[MutationEpoch],
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """``(solution, workset)`` seeding the delta iteration.

        The solution keeps every surviving label whose component no
        removal touched; reset and new vertices start at their own id.
        The workset wakes exactly the edges across which labels can
        disagree: reset vertices and their neighbors, added-edge
        endpoints, and new vertices.
        """
        previous_labels = {record[0]: record[1] for record in previous.records}
        removed_components: set[int] = set()
        added_endpoints: set[int] = set()
        for mutation in _flatten(epochs):
            if mutation.kind is MutationKind.REMOVE_EDGE:
                assert mutation.edge is not None
                for vertex in mutation.edge:
                    if vertex in previous_labels:
                        removed_components.add(previous_labels[vertex])
            elif mutation.kind is MutationKind.REMOVE_VERTEX:
                # The CDC record names only the vertex; its dropped edges
                # all lived inside its old component, so resetting that
                # component covers every implicitly removed edge.
                if mutation.vertex in previous_labels:
                    removed_components.add(previous_labels[mutation.vertex])
            elif mutation.kind is MutationKind.ADD_EDGE:
                assert mutation.edge is not None
                added_endpoints.update(mutation.edge)

        solution: list[tuple[int, int]] = []
        workset_keys: set[int] = set()
        reset: set[int] = set()
        for vertex in graph.vertices:
            label = previous_labels.get(vertex)
            if label is None or label in removed_components:
                if label is not None:
                    reset.add(vertex)
                solution.append((vertex, vertex))
                workset_keys.add(vertex)
            else:
                solution.append((vertex, label))
        for vertex in reset:
            workset_keys.update(graph.neighbors(vertex))
        workset_keys.update(v for v in added_endpoints if v in graph)

        label_of = dict(solution)
        workset = [(v, label_of[v]) for v in sorted(workset_keys)]
        return solution, workset

    def warm_job(
        self,
        inputs: RefreshInputs,
        previous: PreviousState,
        epochs: list[MutationEpoch],
    ) -> DeltaJob:
        assert inputs.graph is not None
        job = self.cold_job(inputs)
        solution, workset = self._warm_seed(inputs.graph, previous, epochs)
        job.initial_solution = solution
        job.initial_workset = workset
        return job

    def affected_keys(
        self,
        inputs: RefreshInputs,
        previous: PreviousState,
        epochs: list[MutationEpoch],
    ) -> set[Any]:
        """Exactly the keys the warm workset would re-activate."""
        assert inputs.graph is not None
        _, workset = self._warm_seed(inputs.graph, previous, epochs)
        return {record[0] for record in workset}


# -- derived view: per-component rank mass -------------------------------------


def _component_rank(label: Any, rank: Any) -> Any:
    return (label[1], rank[1])


def _sum_component_mass(left: Any, right: Any) -> Any:
    return (left[0], left[1] + right[1])


def _keep_new_mass(new: Any, old: Any) -> Any:
    return (new[0], new[1])


def component_mass_plan() -> Plan:
    """Per-component rank mass: join two parent views, reduce, compare.

    Sources: ``masses`` (state), ``labels`` and ``ranks`` (static — the
    parent views' canonical records). The computation is state-free, so
    the bulk iteration reaches its fixpoint on the second superstep (the
    first writes the masses, the second observes zero updates).
    """
    plan = Plan("component-mass-step")
    masses = plan.source("masses", partitioned_by=COMPONENT_KEY)
    labels = plan.source("labels", partitioned_by=VERTEX_KEY)
    ranks = plan.source("ranks", partitioned_by=VERTEX_KEY)

    contributions = labels.join(
        ranks,
        left_key=VERTEX_KEY,
        right_key=VERTEX_KEY,
        fn=_component_rank,
        name="label-mass",
    )
    summed = contributions.reduce_by_key(
        COMPONENT_KEY,
        fn=_sum_component_mass,
        name="sum-component-mass",
    )
    summed.join(
        masses,
        left_key=COMPONENT_KEY,
        right_key=COMPONENT_KEY,
        fn=_keep_new_mass,
        name="compare-to-old-mass",
        preserves="left",
    )
    return plan


class ComponentMassCompensation(CompensationFunction):
    """``fix-masses``: reset lost partitions to their initial records.

    Consistent for a state-free computation — any complete key set is
    healed by the next superstep, which recomputes every mass from the
    static parent records.
    """

    name = "fix-masses"

    def compensate_partition(
        self,
        partition_id: int,
        records: list[Any] | None,
        aggregate: Any,
        ctx: CompensationContext,
    ) -> list[Any]:
        if records is not None:
            return records
        return ctx.initial_partition(partition_id)


class ComponentMassView(ViewAlgorithm):
    """Derived view: total PageRank mass per connected component.

    Consumes two parent views (CC labels and PageRank ranks) instead of
    the graph — the DAG edge the catalog's topological refresh order
    exists for. Declares itself non-warm-capable: the computation is a
    two-superstep join-reduce, so a warm seed could save nothing, and
    the orchestrator always recomputes it cold from the parents'
    current materializations.
    """

    monotone_safe = False
    warm_capable = False
    snap_digits = 9

    def __init__(self, labels: str, ranks: str):
        self.name = "component-mass-view"
        self.labels = labels
        self.ranks = ranks

    def cold_job(self, inputs: RefreshInputs) -> BulkJob:
        label_records = list(inputs.parents[self.labels])
        rank_records = list(inputs.parents[self.ranks])
        components = sorted({label for _, label in label_records})
        if not components:
            raise GraphError(
                f"derived view {self.name!r} needs a non-empty {self.labels!r} parent"
            )
        spec = BulkIterationSpec(
            name="component-mass",
            step_plan=component_mass_plan(),
            state_source="masses",
            next_state_output="compare-to-old-mass",
            state_key=COMPONENT_KEY,
            termination=NoUpdates(),
            max_supersteps=8,
            message_counter="records_in.sum-component-mass",
        )
        return BulkJob(
            spec=spec,
            initial_records=[(component, 0.0) for component in components],
            statics={"labels": label_records, "ranks": rank_records},
            compensation=ComponentMassCompensation(),
            invariants=[KeySetPreserved()],
        )

    def warm_job(
        self,
        inputs: RefreshInputs,
        previous: PreviousState,
        epochs: list[MutationEpoch],
    ) -> BulkJob:
        raise GraphError(f"view algorithm {self.name!r} is not warm-capable")
