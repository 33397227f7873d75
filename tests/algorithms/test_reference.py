"""Tests for the exact reference implementations (ground truth),
cross-checked against networkx where possible."""

import math

import networkx as nx
import pytest

from repro.algorithms.reference import (
    exact_connected_components,
    exact_kmeans,
    exact_pagerank,
    exact_sssp,
    kmeans_inertia,
)
from repro.errors import GraphError
from repro.graph.generators import (
    chain_graph,
    demo_graph,
    demo_pagerank_graph,
    star_graph,
    twitter_like_graph,
)
from repro.graph.graph import Graph


class TestExactPageRank:
    def test_ranks_sum_to_one(self):
        ranks = exact_pagerank(demo_pagerank_graph())
        assert sum(ranks.values()) == pytest.approx(1.0)

    def test_matches_networkx(self):
        graph = twitter_like_graph(120, seed=3)
        ours = exact_pagerank(graph, damping=0.85)
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(graph.vertices)
        nx_graph.add_edges_from(graph.edges)
        theirs = nx.pagerank(nx_graph, alpha=0.85, tol=1e-12, max_iter=500)
        for vertex in graph.vertices:
            assert ours[vertex] == pytest.approx(theirs[vertex], abs=1e-8)

    @pytest.mark.parametrize(
        "graph",
        [twitter_like_graph(300, seed=5), demo_pagerank_graph(), demo_graph(), star_graph(6)],
        ids=["twitter-300", "demo-pagerank", "demo-undirected", "star"],
    )
    def test_matches_the_dense_power_iteration(self, graph):
        """The sparse iteration sums each column in another order than a
        dense matrix product, so the two agree to rounding, not bit for bit."""
        import numpy as np

        n, index = graph.num_vertices, {v: i for i, v in enumerate(graph.vertices)}
        transition = np.zeros((n, n))
        for source, target, probability in graph.transition_records():
            transition[index[target], index[source]] = probability
        out_degree = graph.out_degrees()
        dangling = np.array([1.0 if out_degree[v] == 0 else 0.0 for v in graph.vertices])
        ranks = np.full(n, 1.0 / n)
        for _ in range(10_000):
            new_ranks = 0.15 / n + 0.85 * (transition @ ranks + float(dangling @ ranks) / n)
            done = float(np.abs(new_ranks - ranks).sum()) < 1e-12
            ranks = new_ranks
            if done:
                break
        ours = exact_pagerank(graph)
        for vertex in graph.vertices:
            assert ours[vertex] == pytest.approx(ranks[index[vertex]], rel=0, abs=1e-14)

    def test_star_hub_dominates(self):
        ranks = exact_pagerank(star_graph(10))
        hub = ranks[0]
        assert all(hub > rank for vertex, rank in ranks.items() if vertex != 0)

    def test_symmetric_graph_uniform_ranks(self):
        # a cycle is vertex-transitive: all ranks equal
        cycle = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)], directed=True)
        ranks = exact_pagerank(cycle)
        values = list(ranks.values())
        assert all(v == pytest.approx(values[0]) for v in values)

    def test_damping_validation(self):
        with pytest.raises(GraphError):
            exact_pagerank(demo_pagerank_graph(), damping=1.0)

    def test_empty_graph(self):
        assert exact_pagerank(Graph([], [])) == {}

    def test_all_dangling_graph_is_uniform(self):
        graph = Graph([0, 1, 2], [], directed=True)
        ranks = exact_pagerank(graph)
        for rank in ranks.values():
            assert rank == pytest.approx(1.0 / 3.0)


class TestExactSssp:
    def test_chain_distances(self):
        distances = exact_sssp(chain_graph(5), 0)
        assert distances == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}

    def test_unreachable_is_inf(self):
        distances = exact_sssp(demo_graph(), 0)
        assert math.isinf(distances[7])
        assert distances[6] == 2.0

    def test_directed_respects_direction(self):
        graph = Graph([0, 1, 2], [(0, 1), (1, 2)], directed=True)
        assert exact_sssp(graph, 0)[2] == 2.0
        assert math.isinf(exact_sssp(graph, 2)[0])

    def test_unknown_source(self):
        with pytest.raises(GraphError):
            exact_sssp(chain_graph(3), 99)

    def test_matches_networkx(self):
        graph = twitter_like_graph(100, seed=6)
        ours = exact_sssp(graph, 0)
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(graph.vertices)
        nx_graph.add_edges_from(graph.edges)
        theirs = nx.single_source_shortest_path_length(nx_graph, 0)
        for vertex in graph.vertices:
            if vertex in theirs:
                assert ours[vertex] == float(theirs[vertex])
            else:
                assert math.isinf(ours[vertex])


class TestExactConnectedComponents:
    def test_demo(self):
        labels = exact_connected_components(demo_graph())
        assert set(labels.values()) == {0, 7, 13}


class TestExactKMeans:
    POINTS = [(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (5.1, 5.0)]

    def test_two_obvious_clusters(self):
        centroids = exact_kmeans(self.POINTS, [(0.0, 0.0), (5.0, 5.0)], iterations=5)
        assert centroids[0] == pytest.approx((0.05, 0.0))
        assert centroids[1] == pytest.approx((5.05, 5.0))

    def test_zero_iterations_returns_initials(self):
        centroids = exact_kmeans(self.POINTS, [(1.0, 1.0)], iterations=0)
        assert centroids == [(1.0, 1.0)]

    def test_empty_cluster_keeps_position(self):
        # second centroid is far away from everything: never assigned
        centroids = exact_kmeans(self.POINTS, [(2.5, 2.5), (100.0, 100.0)], iterations=3)
        assert centroids[1] == pytest.approx((100.0, 100.0))

    def test_dimension_mismatch(self):
        with pytest.raises(GraphError):
            exact_kmeans(self.POINTS, [(0.0,)], iterations=1)

    def test_negative_iterations(self):
        with pytest.raises(GraphError):
            exact_kmeans(self.POINTS, [(0.0, 0.0)], iterations=-1)

    def test_inertia_decreases_with_iterations(self):
        initial = [(1.0, 4.0), (4.0, 1.0)]
        before = kmeans_inertia(self.POINTS, initial)
        after = kmeans_inertia(self.POINTS, exact_kmeans(self.POINTS, initial, 5))
        assert after <= before
