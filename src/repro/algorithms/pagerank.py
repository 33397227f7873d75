"""PageRank as a bulk iteration — Figure 1(b) of the paper.

The algorithm computes the steady-state probabilities of a random walk
with uniform teleportation (damping factor ``d``), redistributing the
mass of dangling vertices uniformly::

    rank'(v) = (1 - d)/n + d * (sum of contributions to v + dangling/n)

Dataflow (operator names as in the paper's figure, plus the explicit
plumbing a real dataflow engine needs for the global dangling aggregate):

* ``find-neighbors`` (join): ranks joined with the ``links`` transition
  dataset, emitting one ``(target, rank * probability)`` contribution per
  out-link;
* ``init-contributions`` / ``collect-dangling`` / ``sum-dangling``:
  zero-contribution seeding (so rank-less vertices keep their key) and
  the dangling-mass aggregate, computed as a single-key reduce and
  broadcast via a cross — how aggregates-plus-broadcast work on a real
  dataflow engine;
* ``recompute-ranks`` (reduce): sums contributions per vertex — its input
  cardinality is the "messages" statistic for PageRank;
* ``apply-damping`` (cross): applies teleport, damping and dangling mass;
* ``compare-to-old-rank`` (join): pairs new with old ranks (the
  convergence check of the figure); its output is the next state, and the
  driver computes the L1 delta the demo plots.

Compensation ``fix-ranks`` (invoked only after failures): "uniformly
redistribute the lost probability mass to the vertices in the failed
partitions" (§2.2.2) — the surviving partitions keep their ranks, the
lost partitions' vertices share ``1 - surviving mass`` equally, so the
full vector sums to one again (the consistency condition for
convergence).
"""

from __future__ import annotations

from typing import Any

from ..core.compensation import CompensationContext, CompensationFunction
from ..core.guarantees import KeySetPreserved, MassConservation
from ..dataflow.datatypes import KeySpec, first_field
from ..dataflow.plan import Plan
from ..errors import GraphError
from ..graph.graph import Graph
from ..iteration.bulk import BulkIterationSpec
from ..iteration.termination import EpsilonL1
from ..runtime.executor import PartitionedDataset
from .base import BulkJob
from .reference import exact_pagerank

#: the vertex-id key every PageRank dataset is partitioned by.
VERTEX_KEY: KeySpec = first_field("vertex")

#: single-partition key used for the global dangling-mass aggregate.
_MASS_KEY: KeySpec = first_field("mass")

#: counter whose per-superstep increase is the "messages" statistic.
MESSAGE_COUNTER = "records_in.recompute-ranks"


def _contribution(rank: Any, link: Any) -> Any:
    return (link[1], rank[1] * link[2])


def _zero_contribution(rank: Any) -> Any:
    return (rank[0], 0.0)


def _sum_ranks(left: Any, right: Any) -> Any:
    return (left[0], left[1] + right[1])


def _dangling_mass(rank: Any, marker: Any) -> Any:
    return ("mass", rank[1])


def _sum_mass(left: Any, right: Any) -> Any:
    return ("mass", left[1] + right[1])


class _ApplyDamping:
    """``apply-damping`` closure over the damping factor and vertex count."""

    __slots__ = ("damping", "n")

    def __init__(self, damping: float, n: float):
        self.damping = damping
        self.n = n

    def __call__(self, contribution: Any, mass: Any) -> Any:
        return (
            contribution[0],
            (1.0 - self.damping) / self.n
            + self.damping * (contribution[1] + mass[1] / self.n),
        )


def _keep_new_rank(new: Any, old: Any) -> Any:
    return (new[0], new[1])


def _rank_value(record: Any) -> float:
    return record[1]


def pagerank_plan(damping: float, num_vertices: int) -> Plan:
    """Build the Figure 1(b) step dataflow.

    Sources: ``ranks`` (state), ``links`` (static transition records
    ``(source, target, probability)``), ``dangling`` (static ``(vertex,)``
    markers for out-degree-0 vertices) and ``mass-seed`` (a single zero
    record keeping the aggregate well-defined when nothing dangles).
    Sink: ``compare-to-old-rank``.
    """
    if num_vertices < 1:
        raise GraphError("PageRank needs at least one vertex")
    plan = Plan("pagerank-step")
    ranks = plan.source("ranks", partitioned_by=VERTEX_KEY)
    links = plan.source("links", partitioned_by=VERTEX_KEY)
    dangling = plan.source("dangling", partitioned_by=VERTEX_KEY)
    mass_seed = plan.source("mass-seed")

    contributions = ranks.join(
        links,
        left_key=VERTEX_KEY,
        right_key=VERTEX_KEY,
        fn=_contribution,
        name="find-neighbors",
    )
    zeros = ranks.map(_zero_contribution, name="init-contributions")
    summed = zeros.union(contributions, name="gather-contributions").reduce_by_key(
        VERTEX_KEY,
        fn=_sum_ranks,
        name="recompute-ranks",
    )

    dangling_mass = (
        ranks.join(
            dangling,
            left_key=VERTEX_KEY,
            right_key=VERTEX_KEY,
            fn=_dangling_mass,
            name="collect-dangling",
        )
        .union(mass_seed, name="seed-mass")
        .reduce_by_key(
            _MASS_KEY,
            fn=_sum_mass,
            name="sum-dangling",
        )
    )

    new_ranks = summed.cross(
        dangling_mass,
        fn=_ApplyDamping(damping, float(num_vertices)),
        name="apply-damping",
    )
    new_ranks.join(
        ranks,
        left_key=VERTEX_KEY,
        right_key=VERTEX_KEY,
        fn=_keep_new_rank,
        name="compare-to-old-rank",
        preserves="left",
    )
    return plan


class PageRankCompensation(CompensationFunction):
    """``fix-ranks``: uniform redistribution of the lost mass."""

    name = "fix-ranks"

    def prepare(
        self,
        state: PartitionedDataset,
        lost_partitions: list[int],
        ctx: CompensationContext,
    ) -> tuple[float, int]:
        """Return ``(surviving mass, number of lost vertices)``."""
        surviving_mass = sum(
            record[1]
            for partition in state.partitions
            if partition is not None
            for record in partition
        )
        lost_vertices = sum(
            len(ctx.initial_partition(pid)) for pid in lost_partitions
        )
        return surviving_mass, lost_vertices

    def compensate_partition(
        self,
        partition_id: int,
        records: list[Any] | None,
        aggregate: tuple[float, int],
        ctx: CompensationContext,
    ) -> list[Any]:
        if records is not None:
            return records
        surviving_mass, lost_vertices = aggregate
        if lost_vertices == 0:
            return []
        share = (1.0 - surviving_mass) / lost_vertices
        return [(record[0], share) for record in ctx.initial_partition(partition_id)]


class InformedPageRankCompensation(PageRankCompensation):
    """``fix-ranks-informed``: estimate lost ranks from in-neighbors.

    Instead of spreading the lost mass uniformly, estimate each lost
    vertex's rank by one local PageRank update over the *surviving*
    ranks — ``(1-d)/n + d * sum of surviving in-neighbor contributions``
    — and then rescale the estimates so they sum to exactly the lost
    mass. The result is still a probability vector (the consistency
    condition), but starts much closer to the fixpoint, shortening the
    wash-out the C2 benchmark measures for the uniform variant. The A6
    ablation quantifies the difference.

    Requires the job's ``links`` static input and the damping factor.
    """

    name = "fix-ranks-informed"

    def __init__(self, damping: float, num_vertices: int):
        self.damping = damping
        self.num_vertices = num_vertices

    def prepare(
        self,
        state: PartitionedDataset,
        lost_partitions: list[int],
        ctx: CompensationContext,
    ) -> dict[Any, float]:
        """Compute the rescaled per-vertex estimates for lost vertices."""
        surviving = {
            record[0]: record[1]
            for partition in state.partitions
            if partition is not None
            for record in partition
        }
        lost_vertices = [
            record[0]
            for pid in lost_partitions
            for record in ctx.initial_partition(pid)
        ]
        if not lost_vertices:
            return {}
        lost_set = set(lost_vertices)
        n = float(self.num_vertices)
        estimates = {v: (1.0 - self.damping) / n for v in lost_vertices}
        for source, target, probability in ctx.static_records("links"):
            if target in lost_set and source in surviving:
                estimates[target] += self.damping * surviving[source] * probability
        lost_mass = 1.0 - sum(surviving.values())
        estimate_total = sum(estimates.values())
        if estimate_total > 0 and lost_mass > 0:
            scale = lost_mass / estimate_total
            return {v: r * scale for v, r in estimates.items()}
        # degenerate fallback: uniform share (e.g. zero lost mass)
        share = lost_mass / len(lost_vertices)
        return {v: share for v in lost_vertices}

    def compensate_partition(
        self,
        partition_id: int,
        records: list[Any] | None,
        aggregate: dict[Any, float],
        ctx: CompensationContext,
    ) -> list[Any]:
        if records is not None:
            return records
        return [
            (record[0], aggregate[record[0]])
            for record in ctx.initial_partition(partition_id)
        ]


def pagerank(
    graph: Graph,
    damping: float = 0.85,
    epsilon: float = 1e-9,
    max_supersteps: int = 200,
    truth_tolerance: float = 1e-6,
) -> BulkJob:
    """Build a runnable PageRank job for ``graph``.

    The initial ranks are uniform (``1/n`` each — "PageRank starts from a
    uniform rank distribution", §3.3); the iteration stops when the L1
    distance between consecutive rank vectors drops below ``epsilon``.
    The job's ground truth is the numpy power-iteration fixpoint, used
    for the converged-vertex plot with ``truth_tolerance``.
    """
    if graph.num_vertices == 0:
        raise GraphError("PageRank needs a non-empty graph")
    n = graph.num_vertices
    initial_ranks = [(v, 1.0 / n) for v in graph.vertices]
    spec = BulkIterationSpec(
        name="pagerank",
        step_plan=pagerank_plan(damping, n),
        state_source="ranks",
        next_state_output="compare-to-old-rank",
        state_key=VERTEX_KEY,
        termination=EpsilonL1(epsilon),
        max_supersteps=max_supersteps,
        message_counter=MESSAGE_COUNTER,
        value_fn=_rank_value,
        truth=exact_pagerank(graph, damping=damping),
        truth_tolerance=truth_tolerance,
    )
    return BulkJob(
        spec=spec,
        initial_records=initial_ranks,
        statics={
            "links": graph.transition_records(),
            "dangling": [(v,) for v in graph.dangling_vertices()],
            "mass-seed": [("mass", 0.0)],
        },
        compensation=PageRankCompensation(),
        invariants=[KeySetPreserved(), MassConservation(total=1.0, tolerance=1e-6)],
    )
