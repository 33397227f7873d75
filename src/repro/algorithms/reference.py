"""Exact reference implementations (ground truth).

The demo "precomputes the true values for presentation reasons" (§3.2) to
plot how many vertices have converged. These functions are that
precomputation — deliberately implemented *without* the dataflow engine
(union-find, numpy power iteration, BFS, plain Lloyd's algorithm) so that
agreement with the engine is a real correctness signal, not a tautology.
numpy is imported by the functions that use it, so importing the
algorithms does not load it.
"""

from __future__ import annotations

import collections
import math
from typing import Sequence

from ..errors import GraphError
from ..graph.graph import Graph
from ..graph.properties import connected_component_labels


def exact_connected_components(graph: Graph) -> dict[int, int]:
    """``{vertex: minimum vertex id in its component}`` via union-find."""
    return connected_component_labels(graph)


def exact_pagerank(
    graph: Graph,
    damping: float = 0.85,
    epsilon: float = 1e-12,
    max_iterations: int = 10_000,
) -> dict[int, float]:
    """PageRank by sparse power iteration (numpy) over the edge arrays.

    Uses the same update rule as the dataflow job: uniform teleport,
    dangling mass redistributed uniformly over all vertices::

        r' = (1 - d)/n + d * (P^T r + dangling_mass / n)

    so the two converge to the same vector up to ``epsilon``. ``P^T r``
    is one ``bincount`` over the edges, so time and memory are O(V + E).
    """
    import numpy as np  # deferred: importing the package stays light

    if not 0.0 < damping < 1.0:
        raise GraphError(f"damping must be in (0, 1), got {damping}")
    vertices = graph.vertices
    n = len(vertices)
    if n == 0:
        return {}
    index = {v: i for i, v in enumerate(vertices)}
    out_degree = graph.out_degrees()
    records = graph.transition_records()
    sources = np.array([index[source] for source, _, _ in records], dtype=np.intp)
    targets = np.array([index[target] for _, target, _ in records], dtype=np.intp)
    probabilities = np.array([probability for _, _, probability in records], dtype=float)
    dangling = np.array([1.0 if out_degree[v] == 0 else 0.0 for v in vertices])
    ranks = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        dangling_mass = float(dangling @ ranks)
        spread = np.bincount(targets, weights=probabilities * ranks[sources], minlength=n)
        new_ranks = (1.0 - damping) / n + damping * (spread + dangling_mass / n)
        if float(np.abs(new_ranks - ranks).sum()) < epsilon:
            ranks = new_ranks
            break
        ranks = new_ranks
    return {v: float(ranks[index[v]]) for v in vertices}


def exact_sssp(graph: Graph, source: int) -> dict[int, float]:
    """Unweighted shortest-path (hop) distances via BFS.

    Unreachable vertices map to ``math.inf``. Directed graphs follow edge
    direction.
    """
    if source not in graph:
        raise GraphError(f"source vertex {source} is not in the graph")
    distances = {v: math.inf for v in graph.vertices}
    distances[source] = 0.0
    queue = collections.deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in graph.neighbors(vertex):
            if distances[neighbor] == math.inf:
                distances[neighbor] = distances[vertex] + 1.0
                queue.append(neighbor)
    return distances


def exact_kmeans(
    points: Sequence[tuple[float, ...]],
    initial_centroids: Sequence[tuple[float, ...]],
    iterations: int,
) -> list[tuple[float, ...]]:
    """Plain Lloyd's algorithm for exactly ``iterations`` steps.

    Centroids with no assigned points keep their position (matching the
    dataflow job). Returns the final centroids in input order.
    """
    if iterations < 0:
        raise GraphError(f"iterations must be >= 0, got {iterations}")
    import numpy as np  # deferred: importing the package stays light

    data = np.asarray(points, dtype=float)
    centroids = np.asarray(initial_centroids, dtype=float)
    if data.ndim != 2 or centroids.ndim != 2 or data.shape[1] != centroids.shape[1]:
        raise GraphError("points and centroids must share a dimensionality")
    for _ in range(iterations):
        distances = np.linalg.norm(data[:, None, :] - centroids[None, :, :], axis=2)
        assignment = distances.argmin(axis=1)
        for cid in range(len(centroids)):
            members = data[assignment == cid]
            if len(members):
                centroids[cid] = members.mean(axis=0)
    return [tuple(float(x) for x in row) for row in centroids]


def kmeans_inertia(
    points: Sequence[tuple[float, ...]],
    centroids: Sequence[tuple[float, ...]],
) -> float:
    """Sum of squared distances of each point to its nearest centroid —
    the objective Lloyd's algorithm monotonically decreases, used by the
    tests as a convergence oracle."""
    import numpy as np  # deferred: importing the package stays light

    data = np.asarray(points, dtype=float)
    centers = np.asarray(centroids, dtype=float)
    distances = np.linalg.norm(data[:, None, :] - centers[None, :, :], axis=2)
    return float((distances.min(axis=1) ** 2).sum())
