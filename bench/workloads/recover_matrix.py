"""``recover-matrix``: the paper's experiment. PageRank and Connected
Components, each struck by two seeded worker failures, under every
recovery strategy, next to their failure-free baselines."""

from __future__ import annotations

import statistics
from typing import Any, Callable

from repro.algorithms import connected_components, pagerank
from repro.core import build_strategy

from ..harness import measure, now, repeat_for
from ..inputs import pagerank_graph, relabelled_grid, two_failures
from ..spans import RunUnit
from . import Outcome, Unit, end_to_end
from .jobs import CONFIG, SETUPS, components_mismatches, pagerank_mismatches

STRATEGIES = ("optimistic", "checkpoint", "confined", "adaptive", "restart")
#: incremental checkpoints exist for delta iterations only.
CC_STRATEGIES = STRATEGIES + ("incremental",)
#: strategies that compensate instead of rolling back: they reach the same
#: fixpoint within epsilon, not bit for bit.
COMPENSATING = ("optimistic", "adaptive")

#: (PageRank vertices, grid side) per scale.
SIZES = {False: (800, 30), True: (60, 6)}


class Matrix:
    """The built jobs, their failure schedules and the failure-free results."""

    def __init__(self, seed: int, vertices: int, side: int):
        self.graphs = {
            "pagerank": pagerank_graph(vertices, seed),
            "cc": relabelled_grid(side, seed),
        }
        self.jobs = {
            "pagerank": pagerank(self.graphs["pagerank"]),
            "cc": connected_components(self.graphs["cc"]),
        }
        self.seed = seed
        self.baselines: dict[str, Any] = {}
        self.schedules: dict[str, Any] = {}

    def cells(self) -> list[tuple[str, str | None]]:
        """``(algorithm, strategy)`` pairs; strategy ``None`` is failure-free."""
        cells: list[tuple[str, str | None]] = []
        for algorithm, names in (("pagerank", STRATEGIES), ("cc", CC_STRATEGIES)):
            cells.append((algorithm, None))
            cells.extend((algorithm, name) for name in names)
        return cells

    def run_baselines(self) -> None:
        """Failure-free runs: the reference fixpoints, and where in the run
        the two failures of every other cell strike."""
        for algorithm, job in self.jobs.items():
            base = job.run(config=CONFIG)
            self.baselines[algorithm] = base
            self.schedules[algorithm] = two_failures(
                base.supersteps, CONFIG.parallelism, self.seed
            )

    def run_cell(self, algorithm: str, strategy: str | None, tracer: Any = None) -> Any:
        job = self.jobs[algorithm]
        if strategy is None:
            return job.run(config=CONFIG, tracer=tracer)
        recovery = build_strategy(
            strategy,
            compensation=job.compensation,
            invariants=job.invariants,
            checkpoint_interval=2,
        )
        return job.run(
            config=CONFIG,
            recovery=recovery,
            failures=self.schedules[algorithm],
            tracer=tracer,
        )

    def mismatches(self, algorithm: str, strategy: str | None, result: Any) -> list[str]:
        """Why a cell missed the failure-free fixpoint (empty = it hit it)."""
        cell = f"{algorithm}/{strategy or 'failure-free'}"
        base = self.baselines[algorithm]
        if not result.converged:
            return [f"{cell}: did not converge"]
        if strategy is not None and result.num_failures != 2:
            return [f"{cell}: {result.num_failures} failures struck, expected 2"]
        if algorithm == "pagerank" and strategy in COMPENSATING:
            ranks, truth = result.final_dict, base.final_dict
            if set(ranks) != set(truth):
                return [f"{cell}: vertex set differs from the failure-free run"]
            worst = max(abs(ranks[v] - truth[v]) for v in truth)
            if worst > 1e-6 or abs(sum(ranks.values()) - 1.0) > 1e-9:
                return [f"{cell}: off the failure-free fixpoint by {worst:.3g}"]
            return []
        if result.final_dict != base.final_dict:
            return [f"{cell}: records differ from the failure-free run"]
        return []


def run_cells(matrix: Matrix, make_tracer: Callable[[], Any] | None = None) -> list[tuple[Any, float]]:
    """Every cell once: ``[(result, wall seconds)]`` in cell order."""
    timed = []
    for algorithm, strategy in matrix.cells():
        tracer = make_tracer() if make_tracer else None
        started = now()
        result = matrix.run_cell(algorithm, strategy, tracer)
        timed.append((result, now() - started))
    return timed


class RecoverMatrix:
    name = "recover-matrix"
    why = (
        "the only workload where repro.core does real work: PageRank and CC with two "
        "seeded worker failures under every recovery strategy, plus failure-free baselines"
    )

    def run(self, seed: int, seconds: float, smoke: bool) -> Outcome:
        matrix = Matrix(seed, *SIZES[smoke])
        matrix.run_baselines()
        failures = pagerank_mismatches(
            matrix.baselines["pagerank"], matrix.graphs["pagerank"]
        ) + components_mismatches(matrix.baselines["cc"], matrix.graphs["cc"])
        passes = repeat_for(lambda: run_cells(matrix), seconds, min_units=3)
        # timed last, in the same host state as the passes (see JobWorkload.run)
        setups = [measure(lambda: Matrix(seed, *SIZES[smoke]))[1] for _ in range(SETUPS)]

        cells = matrix.cells()
        units, latencies = [], []
        cell_walls: list[list[float]] = [[] for _ in cells]
        first = passes[0][0]
        for timed, wall, cpu in passes:
            records = 0
            for index, ((algorithm, strategy), (result, cell_wall)) in enumerate(zip(cells, timed)):
                failures.extend(matrix.mismatches(algorithm, strategy, result))
                reference = first[index][0]
                if (result.supersteps, result.sim_time) != (reference.supersteps, reference.sim_time):
                    failures.append(
                        f"{algorithm}/{strategy}: supersteps or simulated time changed between passes"
                    )
                records += result.stats.total_messages()
                cell_walls[index].append(cell_wall)
                latencies.append(cell_wall * 1e3)
            units.append(Unit(wall, cpu, records, len(cells)))
        return Outcome(
            metrics=end_to_end(setups, units, latencies),
            attempted=2 + len(passes) * len(cells),
            failures=failures,
            detail={
                "cells": {
                    f"{algorithm}/{strategy or 'failure-free'}": {
                        "wall_s": statistics.median(walls),
                        "supersteps": first[index][0].supersteps,
                    }
                    for index, ((algorithm, strategy), walls) in enumerate(zip(cells, cell_walls))
                }
            },
        )

    def engine_unit(self, seed: int, smoke: bool) -> RunUnit:
        matrix = Matrix(seed, *SIZES[smoke])
        matrix.run_baselines()

        def run_unit(make_tracer: Callable[[], Any] | None) -> tuple[list[Any], float]:
            timed = run_cells(matrix, make_tracer)
            return [result for result, _ in timed], sum(wall for _, wall in timed)

        return run_unit


RECOVER_MATRIX = RecoverMatrix()
