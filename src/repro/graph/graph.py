"""The graph type used by the algorithms and the demo."""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import GraphError


class Graph:
    """A simple graph over integer vertex ids.

    The graph is stored as a vertex set plus an edge list; adjacency is
    built lazily and cached. Undirected graphs (the Connected Components
    input) store each edge once but report symmetric adjacency; directed
    graphs (the PageRank input) keep edge direction.

    Vertices without edges are legal — they form singleton components and
    hold 1/n of the PageRank mass via teleportation.
    """

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]],
        directed: bool = False,
    ):
        vertex_set = set(vertices)
        self._vertices: list[int] = sorted(vertex_set)
        seen: set[tuple[int, int]] = set()
        self._edges: list[tuple[int, int]] = []
        for edge in edges:
            source, target = edge
            if source not in vertex_set or target not in vertex_set:
                raise GraphError(f"edge {edge!r} references an unknown vertex")
            if source == target:
                raise GraphError(f"self-loop {edge!r} is not supported")
            if directed or source < target:
                canonical = (source, target)
            else:
                canonical = (target, source)
            if canonical in seen:
                continue
            seen.add(canonical)
            self._edges.append(canonical)
        # sorted ascending, so the first vertex is the smallest
        if self._vertices and self._vertices[0] < 0:
            raise GraphError("vertex ids must be non-negative integers")
        self.directed = directed
        self._adjacency: dict[int, list[int]] | None = None

    # -- basic accessors -----------------------------------------------------

    @property
    def vertices(self) -> list[int]:
        """All vertex ids, sorted ascending."""
        return list(self._vertices)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """All edges (canonicalized; one entry per undirected edge)."""
        return list(self._edges)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._adjacency_map()

    def __iter__(self) -> Iterator[int]:
        return iter(self._vertices)

    # -- adjacency --------------------------------------------------------------

    def _adjacency_map(self) -> dict[int, list[int]]:
        if self._adjacency is None:
            adjacency: dict[int, list[int]] = {v: [] for v in self._vertices}
            for source, target in self._edges:
                adjacency[source].append(target)
                if not self.directed:
                    adjacency[target].append(source)
            for neighbor_list in adjacency.values():
                neighbor_list.sort()
            self._adjacency = adjacency
        return self._adjacency

    def neighbors(self, vertex: int) -> list[int]:
        """Adjacent vertices (out-neighbors for directed graphs)."""
        adjacency = self._adjacency_map()
        if vertex not in adjacency:
            raise GraphError(f"unknown vertex {vertex}")
        return list(adjacency[vertex])

    def degree(self, vertex: int) -> int:
        """Number of (out-)neighbors."""
        return len(self.neighbors(vertex))

    def out_degrees(self) -> dict[int, int]:
        """``{vertex: out-degree}`` for all vertices."""
        return {v: len(ns) for v, ns in self._adjacency_map().items()}

    # -- record views (what the dataflow plans consume) ---------------------------

    def symmetric_edge_records(self) -> list[tuple[int, int]]:
        """Edges as ``(vertex, neighbor)`` records, both directions.

        This is the ``graph`` dataset of the Connected Components
        dataflow: a message from a vertex must reach every neighbor, so
        each undirected edge appears twice.
        """
        records: list[tuple[int, int]] = []
        for source, target in self._edges:
            records.append((source, target))
            records.append((target, source))
        return records

    def transition_records(self) -> list[tuple[int, int, float]]:
        """Edges as ``(source, target, probability)`` records.

        This is the ``links`` dataset of the PageRank dataflow: each
        record carries the uniform transition probability
        ``1 / out-degree(source)``. Directed graphs use edge direction;
        undirected graphs treat every edge as bidirectional.
        """
        adjacency = self._adjacency_map()
        records: list[tuple[int, int, float]] = []
        for source, neighbor_list in adjacency.items():
            if not neighbor_list:
                continue
            probability = 1.0 / len(neighbor_list)
            for target in neighbor_list:
                records.append((source, target, probability))
        return records

    def dangling_vertices(self) -> list[int]:
        """Vertices with no out-edges (PageRank's dangling nodes)."""
        return [v for v, ns in self._adjacency_map().items() if not ns]

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """The induced subgraph on ``vertices``."""
        keep = set(vertices)
        unknown = keep - set(self._vertices)
        if unknown:
            raise GraphError(f"unknown vertices {sorted(unknown)[:5]}")
        edges = [(s, t) for s, t in self._edges if s in keep and t in keep]
        return Graph(keep, edges, directed=self.directed)

    def copy(self) -> "Graph":
        """An independent copy sharing no mutable containers.

        The copy gets fresh vertex/edge lists and its own (lazily built)
        adjacency cache, so nothing a holder of the copy does — including
        mutating the lists its accessors return — can alias back into
        this graph. :class:`repro.views.MutableGraph` relies on this to
        seed epoch snapshots from caller-owned graphs.
        """
        clone = Graph.__new__(Graph)
        clone._vertices = list(self._vertices)
        clone._edges = list(self._edges)
        clone.directed = self.directed
        clone._adjacency = None
        return clone

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: same directedness, vertices and edges.

        Vertices and edges are stored canonically (sorted vertex ids,
        canonicalized deduplicated edges), so list comparison is a true
        set comparison.
        """
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self._vertices == other._vertices
            and sorted(self._edges) == sorted(other._edges)
        )

    def __hash__(self) -> int:
        return hash(
            (self.directed, tuple(self._vertices), tuple(sorted(self._edges)))
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, |V|={self.num_vertices}, |E|={self.num_edges})"
