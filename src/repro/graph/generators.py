"""Deterministic graph generators.

All randomized generators take an explicit seed, so every experiment is
exactly reproducible. :func:`erdos_renyi_graph` and
:func:`multi_component_graph` build the graph with :mod:`networkx`
(relabeled to contiguous integer ids), imported when called;
:func:`twitter_like_graph` reproduces networkx's Barabási–Albert
generator draw for draw, so it needs no networkx at all.

:func:`demo_graph` is the reproduction's "small hand-crafted graph"
(§3.1): three connected components of different shapes, small enough to
trace iteration by iteration. :func:`twitter_like_graph` stands in for the
paper's Twitter follower snapshot — a directed graph with a heavy-tailed
in-degree distribution (see the substitution notes in DESIGN.md).
"""

from __future__ import annotations

import random

from ..errors import GraphError
from .graph import Graph


def demo_graph() -> Graph:
    """The small hand-crafted demo graph for Connected Components.

    16 vertices in three components:

    * a 7-vertex blob (0–6) with a couple of internal cycles,
    * a 6-cycle (7–12),
    * a 3-path (13–15).

    Final component labels under min-label propagation: 0, 7 and 13.
    """
    edges = [
        # component A: blob around 0-6
        (0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6),
        # component B: 6-cycle 7-12
        (7, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 7),
        # component C: path 13-15
        (13, 14), (14, 15),
    ]
    return Graph(range(16), edges, directed=False)


def demo_pagerank_graph() -> Graph:
    """The small hand-crafted demo graph for PageRank.

    A 10-vertex directed graph with a clear "important" hub (vertex 0),
    a secondary hub (vertex 1), a few peripheral vertices and one
    dangling vertex (9) to exercise dangling-mass redistribution — so the
    demo's grow/shrink animation has visible structure.
    """
    edges = [
        (1, 0), (2, 0), (3, 0), (4, 0),
        (5, 1), (6, 1), (0, 1),
        (2, 3), (3, 2),
        (4, 5), (5, 4),
        (6, 7), (7, 8), (8, 6),
        (0, 9),
    ]
    return Graph(range(10), edges, directed=True)


def multi_component_graph(
    num_components: int, component_size: int, seed: int = 7
) -> Graph:
    """Several random connected components of equal size.

    Each component is a random spanning tree plus a few extra edges, so
    min-label propagation needs several supersteps per component.
    """
    if num_components < 1 or component_size < 1:
        raise GraphError("num_components and component_size must be >= 1")
    import networkx as nx  # deferred: importing the package stays light

    rng = nx.utils.create_random_state(seed)
    edges: list[tuple[int, int]] = []
    for component in range(num_components):
        offset = component * component_size
        tree = nx.random_labeled_tree(component_size, seed=rng)
        edges.extend((offset + u, offset + v) for u, v in tree.edges())
        extra = max(1, component_size // 4)
        candidates = nx.gnm_random_graph(component_size, extra, seed=rng)
        edges.extend((offset + u, offset + v) for u, v in candidates.edges() if u != v)
    return Graph(range(num_components * component_size), edges, directed=False)


def chain_graph(length: int) -> Graph:
    """A path of ``length`` vertices — worst case for label propagation
    (diameter = length - 1), useful for long-running delta iterations."""
    if length < 1:
        raise GraphError(f"chain length must be >= 1, got {length}")
    return Graph(range(length), [(i, i + 1) for i in range(length - 1)], directed=False)


def star_graph(spokes: int) -> Graph:
    """A hub (vertex 0) with ``spokes`` leaves — converges in two
    supersteps and concentrates PageRank mass on the hub."""
    if spokes < 1:
        raise GraphError(f"star needs >= 1 spokes, got {spokes}")
    return Graph(range(spokes + 1), [(0, i) for i in range(1, spokes + 1)], directed=False)


def grid_graph(rows: int, cols: int) -> Graph:
    """A rows x cols grid — a sparse connected graph with moderate
    diameter, handy as a mid-size workload."""
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be >= 1")
    def vid(r: int, c: int) -> int:
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(range(rows * cols), edges, directed=False)


def erdos_renyi_graph(num_vertices: int, probability: float, seed: int = 7) -> Graph:
    """A G(n, p) random graph (undirected)."""
    if not 0.0 <= probability <= 1.0:
        raise GraphError(f"probability must be in [0, 1], got {probability}")
    import networkx as nx  # deferred: importing the package stays light

    generated = nx.gnp_random_graph(num_vertices, probability, seed=seed)
    return Graph(range(num_vertices), generated.edges(), directed=False)


def twitter_like_graph(num_vertices: int, attachment: int = 3, seed: int = 7) -> Graph:
    """A directed heavy-tailed graph substituting the Twitter snapshot.

    Built from a Barabási–Albert preferential-attachment graph whose
    edges are directed from the newer vertex toward the earlier (more
    popular) one — yielding the skewed in-degree distribution that makes
    PageRank interesting — plus a reciprocal back-edge for 30% of links
    (deterministically chosen) so the graph is not a DAG and ranks
    circulate.
    """
    if num_vertices <= attachment:
        raise GraphError(
            f"num_vertices ({num_vertices}) must exceed attachment ({attachment})"
        )
    edges: list[tuple[int, int]] = []
    for u, v in _barabasi_albert_edges(num_vertices, attachment, seed):
        newer, older = max(u, v), min(u, v)
        edges.append((newer, older))
        if (newer + older) % 10 < 3:  # deterministic 30% reciprocity
            edges.append((older, newer))
    return Graph(range(num_vertices), edges, directed=True)


def _barabasi_albert_edges(num_vertices: int, attachment: int, seed: int) -> list[tuple[int, int]]:
    """The edges of ``networkx.barabasi_albert_graph(n, m, seed=seed)``,
    in the order its ``edges()`` lists them.

    The same algorithm with the same ``random.Random(seed)`` draws: a star
    on ``m + 1`` vertices, then each new vertex attaches to ``m`` distinct
    vertices drawn with probability proportional to degree. Adjacency
    dicts keep networkx's insertion order, so the edge list (and every
    graph built from it) is identical without importing networkx, the
    largest import of a process that only runs PageRank.
    """
    if attachment < 1:
        raise GraphError(f"attachment must be >= 1, got {attachment}")
    rng = random.Random(seed)
    adjacency: dict[int, dict[int, None]] = {0: dict.fromkeys(range(1, attachment + 1))}
    for spoke in range(1, attachment + 1):
        adjacency[spoke] = {0: None}
    # every vertex once per incident edge: a uniform draw is a degree-weighted one
    repeated = [v for v, neighbors in adjacency.items() for _ in neighbors]
    for source in range(attachment + 1, num_vertices):
        targets: set[int] = set()
        while len(targets) < attachment:
            targets.add(rng.choice(repeated))
        adjacency[source] = dict.fromkeys(targets)
        for target in targets:
            adjacency[target][source] = None
        repeated.extend(targets)
        repeated.extend([source] * attachment)
    edges: list[tuple[int, int]] = []
    done: set[int] = set()
    for vertex, neighbors in adjacency.items():
        edges.extend((vertex, neighbor) for neighbor in neighbors if neighbor not in done)
        done.add(vertex)
    return edges
