"""HITS (hubs & authorities) as a bulk iteration (extension scope).

Kleinberg's HITS is another member of the robust fixpoint family: the
normalized power iteration

    auth'(v) = sum of hub(u) over in-neighbors u     (then L2-normalize)
    hub'(v)  = sum of auth'(w) over out-neighbors w  (then L2-normalize)

converges to the principal eigenvectors of ``A^T A`` / ``A A^T`` from any
non-degenerate starting vector. That makes it compensable with a
different consistency condition than PageRank: there is no probability
mass to conserve — the per-step normalization absorbs arbitrary scale —
so the compensation only has to keep the vector *non-negative and
non-zero*. ``fix-scores`` resets lost vertices to the uniform initial
score, and the next normalization re-mixes the vector onto the convergent
trajectory.

Dataflow (one superstep = one full auth+hub update):

* ``propagate-hubs`` (join): hub scores flow along edges to targets;
* ``sum-authorities`` (reduce) + ``seed-authorities``: new raw authority
  scores (zero-seeded so every vertex keeps its key);
* ``normalize-authorities`` (reduce + cross): global L2 norm, broadcast;
* symmetrically ``propagate-authorities`` / ``sum-hubs`` /
  ``normalize-hubs`` against reversed edges;
* ``combine-scores`` (join): zip the two vectors into the next state.

State records are ``(vertex, (hub, authority))``.
"""

from __future__ import annotations

import math
from typing import Any

from ..core.compensation import CompensationContext, CompensationFunction
from ..core.guarantees import KeySetPreserved
from ..dataflow.datatypes import KeySpec, first_field
from ..dataflow.plan import Plan
from ..errors import GraphError
from ..graph.graph import Graph
from ..iteration.bulk import BulkIterationSpec
from ..iteration.termination import EpsilonL1
from .base import BulkJob

#: the vertex-id key all HITS datasets are partitioned by.
VERTEX_KEY: KeySpec = first_field("vertex")

_NORM_KEY: KeySpec = first_field("norm")

#: counter whose per-superstep increase is the "messages" statistic.
MESSAGE_COUNTER = "records_in.sum-authorities"


def _normalized(scores_ds, norm_seed, plan_suffix: str):
    """Attach an L2-normalization subplan to ``(v, score)`` records."""
    squared = scores_ds.map(
        lambda record: ("norm", record[1] * record[1]),
        name=f"square-{plan_suffix}",
    )
    total = squared.union(norm_seed, name=f"seed-norm-{plan_suffix}").reduce_by_key(
        _NORM_KEY,
        fn=lambda left, right: ("norm", left[1] + right[1]),
        name=f"sum-norm-{plan_suffix}",
    )
    return scores_ds.cross(
        total,
        fn=lambda record, norm: (
            record[0],
            record[1] / math.sqrt(norm[1]) if norm[1] > 0 else 0.0,
        ),
        name=f"normalize-{plan_suffix}",
    )


def hits_plan() -> Plan:
    """Build the HITS step dataflow.

    Sources: ``scores`` (state, ``(v, (hub, auth))``), ``edges`` (static
    ``(source, target)`` records), ``norm-seed`` (a single zero record
    for the norm aggregates). Sink: ``combine-scores``.
    """
    plan = Plan("hits-step")
    scores = plan.source("scores", partitioned_by=VERTEX_KEY)
    edges = plan.source("edges", partitioned_by=VERTEX_KEY)
    norm_seed = plan.source("norm-seed")

    hubs = scores.map(lambda record: (record[0], record[1][0]), name="select-hubs")

    # authority update: hubs flow along edges
    auth_contribs = hubs.join(
        edges,
        left_key=VERTEX_KEY,
        right_key=VERTEX_KEY,
        fn=lambda hub, edge: (edge[1], hub[1]),
        name="propagate-hubs",
    )
    auth_zero = scores.map(lambda record: (record[0], 0.0), name="seed-authorities")
    raw_auth = auth_zero.union(auth_contribs, name="gather-authorities").reduce_by_key(
        VERTEX_KEY,
        fn=lambda left, right: (left[0], left[1] + right[1]),
        name="sum-authorities",
    )
    new_auth = _normalized(raw_auth, norm_seed, "authorities")

    # hub update: the *new* authorities flow backward along edges
    hub_contribs = new_auth.join(
        edges,
        left_key=KeySpec("edge-target", lambda record: record[0]),
        right_key=KeySpec("edge-target", lambda record: record[1]),
        fn=lambda auth, edge: (edge[0], auth[1]),
        name="propagate-authorities",
    )
    hub_zero = scores.map(lambda record: (record[0], 0.0), name="seed-hubs")
    raw_hubs = hub_zero.union(hub_contribs, name="gather-hubs").reduce_by_key(
        VERTEX_KEY,
        fn=lambda left, right: (left[0], left[1] + right[1]),
        name="sum-hubs",
    )
    new_hubs = _normalized(raw_hubs, norm_seed, "hubs")

    new_hubs.join(
        new_auth,
        left_key=VERTEX_KEY,
        right_key=VERTEX_KEY,
        fn=lambda hub, auth: (hub[0], (hub[1], auth[1])),
        name="combine-scores",
        preserves="left",
    )
    return plan


class HitsCompensation(CompensationFunction):
    """``fix-scores``: reset lost vertices to the uniform initial score.

    Consistency for HITS only requires a non-negative, non-zero vector —
    the next normalization absorbs the scale error, and the power
    iteration forgets the perturbation geometrically.
    """

    name = "fix-scores"

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


def exact_hits(
    graph: Graph, epsilon: float = 1e-12, max_iterations: int = 10_000
) -> dict[int, tuple[float, float]]:
    """Reference HITS by dense normalized power iteration (numpy)."""
    import numpy as np  # deferred: importing the package stays light

    vertices = graph.vertices
    n = len(vertices)
    if n == 0:
        return {}
    index = {v: i for i, v in enumerate(vertices)}
    adjacency = np.zeros((n, n))
    for source, target in graph.edges:
        adjacency[index[source], index[target]] = 1.0
        if not graph.directed:
            adjacency[index[target], index[source]] = 1.0
    hubs = np.full(n, 1.0 / math.sqrt(n))
    auth = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iterations):
        new_auth = adjacency.T @ hubs
        norm = np.linalg.norm(new_auth)
        if norm > 0:
            new_auth /= norm
        new_hubs = adjacency @ new_auth
        norm = np.linalg.norm(new_hubs)
        if norm > 0:
            new_hubs /= norm
        delta = float(np.abs(new_auth - auth).sum() + np.abs(new_hubs - hubs).sum())
        hubs, auth = new_hubs, new_auth
        if delta < epsilon:
            break
    return {v: (float(hubs[index[v]]), float(auth[index[v]])) for v in vertices}


def hits(
    graph: Graph,
    epsilon: float = 1e-9,
    max_supersteps: int = 300,
    truth_tolerance: float = 1e-6,
) -> BulkJob:
    """Build a runnable HITS job for ``graph``.

    Initial hub and authority scores are uniform with unit L2 norm. The
    iteration stops when the L1 movement of the combined score vector
    drops below ``epsilon``.
    """
    if graph.num_vertices == 0:
        raise GraphError("HITS needs a non-empty graph")
    if graph.num_edges == 0:
        raise GraphError("HITS needs at least one edge (all scores would be zero)")
    uniform = 1.0 / math.sqrt(graph.num_vertices)
    initial = [(v, (uniform, uniform)) for v in graph.vertices]
    edge_records = (
        graph.edges if graph.directed else graph.symmetric_edge_records()
    )
    spec = BulkIterationSpec(
        name="hits",
        step_plan=hits_plan(),
        state_source="scores",
        next_state_output="combine-scores",
        state_key=VERTEX_KEY,
        termination=EpsilonL1(epsilon),
        max_supersteps=max_supersteps,
        message_counter=MESSAGE_COUNTER,
        # the hub vector is a deterministic function of the authority
        # vector, so authority movement alone is a faithful convergence
        # signal (and, unlike a hub+auth sum, cannot cancel out)
        value_fn=lambda record: record[1][1],
        truth=exact_hits(graph),
        truth_tolerance=truth_tolerance,
    )
    return BulkJob(
        spec=spec,
        initial_records=initial,
        statics={
            "edges": edge_records,
            "norm-seed": [("norm", 0.0)],
        },
        compensation=HitsCompensation(),
        invariants=[KeySetPreserved()],
    )
