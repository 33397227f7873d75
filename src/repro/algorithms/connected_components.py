"""Connected Components as a delta iteration — Figure 1(a) of the paper.

The diffusion algorithm of Kang et al. [PEGASUS]: every vertex starts
labeled with its own id; each superstep, vertices that changed labels send
their label to their neighbors, every vertex adopts the minimum candidate
label it received if it improves on its current label, and the iteration
terminates when no label changes. At convergence each vertex carries the
minimum vertex id of its component.

Dataflow (operator names exactly as in the paper's figure):

* ``label-to-neighbors`` (join): the workset — vertices that updated last
  superstep — joined with the ``graph`` edge dataset, emitting one
  ``(neighbor, label)`` candidate message per neighbor;
* ``candidate-label`` (reduce): minimum candidate per vertex — its input
  cardinality is the demo's "messages per iteration" plot;
* ``label-update`` (join): candidates joined with the solution set,
  keeping only strict improvements. Its output is both the delta applied
  to the solution set and the next workset.

Compensation ``fix-components`` (invoked only after failures): reset lost
vertices to their initial labels — "simply re-initializing lost vertices
to their initial labels guarantees convergence to the correct solution"
(§2.2.1). The rebuilt workset contains the reset vertices *and their
neighbors*, because both "have to propagate their labels again" (§3.2) —
this is what produces the demo's post-failure message spike.
"""

from __future__ import annotations

from typing import Any

from ..core.compensation import CompensationContext, CompensationFunction
from ..core.guarantees import KeySetPreserved, ValuesFromInitial
from ..dataflow.datatypes import KeySpec, first_field
from ..dataflow.plan import Plan
from ..graph.graph import Graph
from ..iteration.delta import DeltaIterationSpec
from ..iteration.termination import EmptyWorkset
from ..runtime.executor import PartitionedDataset
from .base import DeltaJob
from .reference import exact_connected_components

#: the vertex-id key every CC dataset is partitioned by.
VERTEX_KEY: KeySpec = first_field("vertex")

#: counter whose per-superstep increase is the "messages" statistic.
MESSAGE_COUNTER = "records_in.candidate-label"


def _label_to_neighbor(labeled: Any, edge: Any) -> Any:
    return (edge[1], labeled[1])


def _min_label(left: Any, right: Any) -> Any:
    return left if left[1] <= right[1] else right


def _improved_label(candidate: Any, current: Any) -> Any:
    return candidate if candidate[1] < current[1] else None


def connected_components_plan() -> Plan:
    """Build the Figure 1(a) step dataflow.

    Sources: ``labels`` (solution set), ``workset``, ``graph`` (static,
    symmetric ``(vertex, neighbor)`` records). Sink: ``label-update``.
    """
    plan = Plan("connected-components-step")
    solution = plan.source("labels", partitioned_by=VERTEX_KEY)
    workset = plan.source("workset", partitioned_by=VERTEX_KEY)
    graph = plan.source("graph", partitioned_by=VERTEX_KEY)

    messages = workset.join(
        graph,
        left_key=VERTEX_KEY,
        right_key=VERTEX_KEY,
        fn=_label_to_neighbor,
        name="label-to-neighbors",
    )
    candidates = messages.reduce_by_key(
        VERTEX_KEY,
        fn=_min_label,
        name="candidate-label",
    )
    candidates.join(
        solution,
        left_key=VERTEX_KEY,
        right_key=VERTEX_KEY,
        fn=_improved_label,
        name="label-update",
        preserves="left",
    )
    return plan


class ComponentsCompensation(CompensationFunction):
    """``fix-components``: reset lost vertices to their initial labels."""

    name = "fix-components"

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

    def rebuild_workset(
        self,
        solution: PartitionedDataset,
        workset: PartitionedDataset,
        lost_partitions: list[int],
        ctx: CompensationContext,
    ) -> PartitionedDataset:
        """Re-activate the surviving pending updates, the reset vertices
        and the reset vertices' neighbors.

        Keeping the surviving workset entries is essential for
        correctness: an update computed on a surviving partition during
        the failed superstep has been applied to the solution set but not
        yet propagated — dropping it would freeze a stale label into the
        neighborhood. The reset vertices and their neighbors additionally
        re-propagate so the re-initialized labels get repaired (§3.2).
        """
        reset_vertices = {
            record[0]
            for pid in lost_partitions
            for record in ctx.initial_partition(pid)
        }
        neighbor_vertices = {
            edge[1]
            for edge in ctx.static_records("graph")
            if edge[0] in reset_vertices
        }
        active = reset_vertices | neighbor_vertices | self.surviving_workset_keys(workset)
        records = [
            record for record in solution.all_records() if record[0] in active
        ]
        return PartitionedDataset.from_records(
            records, ctx.parallelism, key=ctx.state_key
        )


class NeighborInformedCompensation(ComponentsCompensation):
    """``fix-components-informed``: rebuild lost labels from survivors.

    Instead of resetting a lost vertex all the way to its initial label,
    take the minimum over its own initial label and the current labels of
    its *surviving* neighbors. This is still consistent — every candidate
    is the minimum of some subset of the component's initial ids, so it
    can never undershoot the true component minimum — but it starts the
    repair much closer to the fixpoint, cutting recovery supersteps and
    messages. The idea mirrors confined-recovery designs (e.g. CoRAL)
    that exploit surviving replicas of neighboring state; the A5 ablation
    quantifies the gap against the paper's plain reset.
    """

    name = "fix-components-informed"

    def prepare(
        self,
        state: PartitionedDataset,
        lost_partitions: list[int],
        ctx: CompensationContext,
    ) -> dict[int, int]:
        """Compute, per lost vertex, the best label visible from the
        surviving solution-set partitions."""
        surviving_labels = {
            record[0]: record[1]
            for partition in state.partitions
            if partition is not None
            for record in partition
        }
        lost_vertices = {
            record[0]
            for pid in lost_partitions
            for record in ctx.initial_partition(pid)
        }
        best: dict[int, int] = {}
        for source, target in ctx.static_records("graph"):
            if target in lost_vertices and source in surviving_labels:
                label = surviving_labels[source]
                if target not in best or label < best[target]:
                    best[target] = label
        return best

    def compensate_partition(
        self,
        partition_id: int,
        records: list[Any] | None,
        aggregate: dict[int, int],
        ctx: CompensationContext,
    ) -> list[Any]:
        if records is not None:
            return records
        rebuilt = []
        for vertex, initial_label in ctx.initial_partition(partition_id):
            rebuilt.append((vertex, min(initial_label, aggregate.get(vertex, initial_label))))
        return rebuilt


def connected_components(
    graph: Graph,
    max_supersteps: int = 200,
) -> DeltaJob:
    """Build a runnable Connected Components job for ``graph``.

    The initial solution set labels every vertex with its own id, the
    initial workset equals the solution set, and the job's ground truth
    is computed by union-find so the demo can plot converged-vertex
    counts.
    """
    labels = [(v, v) for v in graph.vertices]
    spec = DeltaIterationSpec(
        name="connected-components",
        step_plan=connected_components_plan(),
        solution_source="labels",
        workset_source="workset",
        delta_output="label-update",
        workset_output="label-update",
        state_key=VERTEX_KEY,
        termination=EmptyWorkset(),
        max_supersteps=max_supersteps,
        message_counter=MESSAGE_COUNTER,
        truth=exact_connected_components(graph),
    )
    return DeltaJob(
        spec=spec,
        initial_solution=labels,
        initial_workset=list(labels),
        statics={"graph": graph.symmetric_edge_records()},
        compensation=ComponentsCompensation(),
        invariants=[KeySetPreserved(), ValuesFromInitial()],
    )
