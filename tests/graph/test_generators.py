"""Tests for the graph generators."""

import pytest

from repro.errors import GraphError
from repro.graph.generators import (
    chain_graph,
    demo_graph,
    demo_pagerank_graph,
    erdos_renyi_graph,
    grid_graph,
    multi_component_graph,
    star_graph,
    twitter_like_graph,
)
from repro.graph.properties import (
    connected_component_labels,
    degree_statistics,
    is_connected,
    num_components,
)


class TestDemoGraphs:
    def test_demo_graph_shape(self):
        graph = demo_graph()
        assert graph.num_vertices == 16
        assert not graph.directed
        assert num_components(graph) == 3

    def test_demo_graph_component_labels(self):
        labels = connected_component_labels(demo_graph())
        assert set(labels.values()) == {0, 7, 13}

    def test_demo_pagerank_graph(self):
        graph = demo_pagerank_graph()
        assert graph.directed
        assert graph.num_vertices == 10
        assert graph.dangling_vertices() == [9]


class TestStructuredGenerators:
    def test_chain(self):
        graph = chain_graph(5)
        assert graph.num_edges == 4
        assert is_connected(graph)
        assert graph.degree(0) == 1
        assert graph.degree(2) == 2

    def test_chain_of_one(self):
        assert chain_graph(1).num_edges == 0

    def test_chain_rejects_zero(self):
        with pytest.raises(GraphError):
            chain_graph(0)

    def test_star(self):
        graph = star_graph(6)
        assert graph.num_vertices == 7
        assert graph.degree(0) == 6
        assert is_connected(graph)

    def test_star_rejects_zero_spokes(self):
        with pytest.raises(GraphError):
            star_graph(0)

    def test_grid(self):
        graph = grid_graph(3, 4)
        assert graph.num_vertices == 12
        assert graph.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert is_connected(graph)

    def test_grid_rejects_bad_dims(self):
        with pytest.raises(GraphError):
            grid_graph(0, 3)


class TestRandomGenerators:
    def test_multi_component_structure(self):
        graph = multi_component_graph(4, 10, seed=3)
        assert graph.num_vertices == 40
        assert num_components(graph) == 4

    def test_multi_component_deterministic(self):
        first = multi_component_graph(3, 8, seed=5)
        second = multi_component_graph(3, 8, seed=5)
        assert first.edges == second.edges

    def test_multi_component_rejects_bad_args(self):
        with pytest.raises(GraphError):
            multi_component_graph(0, 5)

    def test_erdos_renyi_deterministic(self):
        assert erdos_renyi_graph(30, 0.2, seed=9).edges == erdos_renyi_graph(30, 0.2, seed=9).edges

    def test_erdos_renyi_rejects_bad_probability(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(10, 1.5)

    def test_twitter_like_is_directed_and_deterministic(self):
        graph = twitter_like_graph(150, seed=2)
        assert graph.directed
        assert graph.edges == twitter_like_graph(150, seed=2).edges

    def test_twitter_like_heavy_tail(self):
        """In-degree skew: the most popular vertex collects far more
        links than the median — the property that substitutes for the
        real Twitter snapshot."""
        graph = twitter_like_graph(400, seed=4)
        in_degrees: dict[int, int] = {v: 0 for v in graph.vertices}
        for _source, target in graph.edges:
            in_degrees[target] += 1
        ranked = sorted(in_degrees.values(), reverse=True)
        median = ranked[len(ranked) // 2]
        assert ranked[0] >= 10 * max(median, 1)

    def test_twitter_like_rejects_tiny_graphs(self):
        with pytest.raises(GraphError):
            twitter_like_graph(3, attachment=3)

    def test_twitter_like_rejects_zero_attachment(self):
        with pytest.raises(GraphError):
            twitter_like_graph(10, attachment=0)

    @pytest.mark.parametrize("num_vertices, attachment", [(4, 3), (60, 1), (800, 3), (3000, 3), (200, 5)])
    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**32 - 1])
    def test_preferential_attachment_matches_networkx_edge_for_edge(
        self, num_vertices, attachment, seed
    ):
        """The in-house Barabási–Albert generator reproduces networkx's
        graph and its edge order, so every graph built on it is unchanged."""
        import networkx as nx

        from repro.graph.generators import _barabasi_albert_edges

        theirs = nx.barabasi_albert_graph(num_vertices, attachment, seed=seed)
        assert _barabasi_albert_edges(num_vertices, attachment, seed) == list(theirs.edges())

    def test_degree_statistics_shape(self):
        stats = degree_statistics(twitter_like_graph(150, seed=2))
        assert stats["max"] > stats["mean"] > 0
        assert set(stats) == {"min", "max", "mean", "median"}
