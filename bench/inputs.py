"""Seed-derived inputs. The same ``--seed`` gives the same inputs.

The seed changes *which* graph a workload runs, not how much work it is:
the generators are sized by constants, and where an algorithm's running
time depends on where the seed happens to put things (the smallest
label in Connected Components) that one degree of freedom is pinned, so
runs on different seeds are comparable.
"""

from __future__ import annotations

import random

from repro.graph import Graph, grid_graph, twitter_like_graph
from repro.runtime import FailureSchedule
from repro.service import JobDescriptor, generate_descriptor_workload

#: tenants of the service workload; the hash ring spreads them over the shards.
TENANTS = tuple(f"tenant-{index}" for index in range(8))


def pagerank_graph(num_vertices: int, seed: int) -> Graph:
    """The heavy-tailed directed graph PageRank runs on."""
    return twitter_like_graph(num_vertices, seed=seed)


def relabelled_grid(side: int, seed: int) -> Graph:
    """A ``side x side`` grid whose vertex ids are permuted by the seed.

    The permutation scatters labels (so hash partitions and label
    propagation order differ per seed) but keeps the smallest id on the
    corner it started on: the minimum label then always needs the full
    grid diameter to arrive, and every seed runs ``2*side - 1`` supersteps.
    """
    grid = grid_graph(side, side)
    vertices = sorted(grid.vertices)
    shuffled = vertices[1:]
    random.Random(seed).shuffle(shuffled)
    rename = dict(zip(vertices, [vertices[0]] + shuffled))
    return Graph(
        [rename[v] for v in vertices],
        [(rename[a], rename[b]) for a, b in grid.edges],
        directed=grid.directed,
    )


def two_failures(supersteps: int, parallelism: int, seed: int) -> FailureSchedule:
    """Two worker failures, a third and two thirds of the way through a
    run of ``supersteps``; the seed picks which two workers die."""
    first_worker, second_worker = random.Random(seed).sample(range(parallelism), 2)
    first = max(1, supersteps // 3)
    second = max(first + 1, 2 * supersteps // 3)
    return FailureSchedule.at((first, [first_worker]), (second, [second_worker]))


def descriptors(count: int, seed: int) -> list[JobDescriptor]:
    """The service's job mix: small CC and PageRank jobs over 8 tenants,
    a fifth of them with an injected worker failure."""
    return generate_descriptor_workload(
        count, seed=seed, tenants=TENANTS, graph_scale=1.0, failure_density=0.2
    )
