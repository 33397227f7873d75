"""``pr-bulk`` and ``cc-delta``: one failure-free job, run to convergence
over and over on the default engine configuration."""

from __future__ import annotations

from typing import Any, Callable

from repro import EngineConfig
from repro.algorithms import (
    connected_components,
    exact_connected_components,
    exact_pagerank,
    pagerank,
)

from ..harness import measure, now, repeat_for
from ..inputs import pagerank_graph, relabelled_grid
from ..spans import RunUnit
from . import Outcome, Unit, end_to_end

#: serial backend, record partitions, transparent cache, keyed state:
#: the defaults, which is what every job of the service runs.
CONFIG = EngineConfig(parallelism=4)

#: set-ups per run; ``setup_s`` is their median.
SETUPS = 7


def pagerank_mismatches(result: Any, graph: Any) -> list[str]:
    """Why ``result`` is not the PageRank fixpoint of ``graph`` (empty = it is)."""
    truth = exact_pagerank(graph)
    ranks = result.final_dict
    if not result.converged:
        return ["pagerank did not converge"]
    if set(ranks) != set(truth):
        return ["pagerank vertex set differs from the reference"]
    worst = max(abs(ranks[v] - truth[v]) for v in truth)
    return [f"pagerank off the reference by {worst:.3g}"] if worst > 1e-6 else []


def components_mismatches(result: Any, graph: Any) -> list[str]:
    """Why ``result`` is not the component labelling of ``graph``."""
    if not result.converged:
        return ["connected components did not converge"]
    if result.final_dict != exact_connected_components(graph):
        return ["component labels differ from the reference"]
    return []


class JobWorkload:
    """Repeat one failure-free iterative job; a unit is one run."""

    def __init__(
        self,
        name: str,
        why: str,
        size: int,
        smoke_size: int,
        make_graph: Callable[[int, int], Any],
        make_job: Callable[[Any], Any],
        mismatches: Callable[[Any, Any], list[str]],
    ):
        self.name = name
        self.why = why
        self._sizes = {False: size, True: smoke_size}
        self._make_graph = make_graph
        self._make_job = make_job
        self._mismatches = mismatches

    def _build(self, seed: int, smoke: bool) -> tuple[Any, Any]:
        graph = self._make_graph(self._sizes[smoke], seed)
        return graph, self._make_job(graph)

    def run(self, seed: int, seconds: float, smoke: bool) -> Outcome:
        graph, job = self._build(seed, smoke)
        # The warm-up run is also the one checked against the reference;
        # every timed run must then repeat it exactly.
        first = job.run(config=CONFIG)
        failures = self._mismatches(first, graph)
        runs = repeat_for(lambda: job.run(config=CONFIG), seconds, min_units=5)
        # Set-ups are timed last, once the process has long been busy: a
        # fresh process often spends its first second in the host's slow
        # just-woke-up state, which would be all these short samples saw.
        setups = [measure(lambda: self._build(seed, smoke))[1] for _ in range(SETUPS)]
        units = []
        for index, (result, wall, cpu) in enumerate(runs):
            if (result.supersteps, result.sim_time) != (first.supersteps, first.sim_time):
                failures.append(f"run {index}: supersteps or simulated time changed")
            elif result.final_records != first.final_records:
                failures.append(f"run {index}: records differ from the first run")
            units.append(Unit(wall, cpu, result.stats.total_messages(), 1))
        return Outcome(
            metrics=end_to_end(setups, units, [unit.wall * 1e3 for unit in units]),
            attempted=1 + len(runs),
            failures=failures,
            detail={"supersteps": first.supersteps, "sim_time_s": first.sim_time},
        )

    def engine_unit(self, seed: int, smoke: bool) -> RunUnit:
        _, job = self._build(seed, smoke)

        def run_unit(make_tracer: Callable[[], Any] | None) -> tuple[list[Any], float]:
            tracer = make_tracer() if make_tracer else None
            started = now()
            result = job.run(config=CONFIG, tracer=tracer)
            return [result], now() - started

        return run_unit


PR_BULK = JobWorkload(
    name="pr-bulk",
    why=(
        "few fat supersteps: PageRank to convergence on a 3000-vertex heavy-tailed "
        "graph, so per-record kernel and shuffle cost dominates and state/recovery idle"
    ),
    size=3000,
    smoke_size=120,
    make_graph=pagerank_graph,
    make_job=pagerank,
    mismatches=pagerank_mismatches,
)

CC_DELTA = JobWorkload(
    name="cc-delta",
    why=(
        "many thin supersteps: Connected Components delta iteration on a relabelled "
        "50x50 grid (99 supersteps), so per-superstep fixed cost is multiplied"
    ),
    size=50,
    smoke_size=8,
    make_graph=relabelled_grid,
    make_job=connected_components,
    mismatches=components_mismatches,
)
