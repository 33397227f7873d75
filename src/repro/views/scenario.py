"""The mutating-graph demo scenario: a small view DAG under churn.

One seeded, fully deterministic scenario shared by the ``repro views``
CLI subcommand, the S10 benchmark and the loadgen's ``view_refresh`` job
kind: a multi-component graph evolves through seeded mutation epochs
while three views stay fresh —

* ``cc-labels``: connected-component labels (delta iteration, warm-safe
  for additions, component-granular reset on removals);
* ``ranks``: PageRank ranks (bulk iteration, warm via re-normalized
  previous ranks);
* ``component-mass``: rank mass per component — a *derived* view joining
  the two above, exercising the catalog's topological refresh order.

Every epoch applies a seeded batch of mutations (edge adds, and — with
``removal_fraction`` probability each — edge/vertex removals), commits,
and polls the orchestrator; the per-epoch :class:`EpochOutcome` records
what changed and how each view refreshed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from ..config import EngineConfig, ViewsConfig
from ..errors import ConfigError
from ..graph.generators import multi_component_graph
from ..runtime.failures import FailureSchedule
from .algorithms import ComponentMassView, ConnectedComponentsView, PageRankView
from .catalog import ViewCatalog, ViewDefinition
from .mutable_graph import MutableGraph
from .mutations import MutationEpoch
from .orchestrator import RefreshOrchestrator, RefreshReport


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the mutating-graph scenario.

    Attributes:
        num_components: components of the starting graph.
        component_size: vertices per starting component.
        seed: seed of the mutation stream (and the graph generator).
        mutations_per_epoch: batch size each epoch commits.
        removal_fraction: probability that one mutation of the batch is a
            removal instead of an addition (0 = adds only, the
            monotone-safe regime).
        parallelism: partitions of every refresh job.
        recovery: recovery strategy of the iterative views' refresh jobs.
        views: the orchestrator's :class:`repro.config.ViewsConfig`.
        engine_config: full engine configuration of the refresh jobs;
            ``None`` (default) derives one from ``parallelism``.
    """

    num_components: int = 4
    component_size: int = 15
    seed: int = 7
    mutations_per_epoch: int = 4
    removal_fraction: float = 0.25
    parallelism: int = 4
    recovery: str = "optimistic"
    views: ViewsConfig = field(default_factory=ViewsConfig)
    engine_config: EngineConfig | None = None

    def __post_init__(self) -> None:
        if self.num_components < 1:
            raise ConfigError(
                f"num_components must be >= 1, got {self.num_components}"
            )
        if self.component_size < 2:
            raise ConfigError(
                f"component_size must be >= 2, got {self.component_size}"
            )
        if self.mutations_per_epoch < 1:
            raise ConfigError(
                f"mutations_per_epoch must be >= 1, got {self.mutations_per_epoch}"
            )
        if not 0.0 <= self.removal_fraction <= 1.0:
            raise ConfigError(
                f"removal_fraction must be in [0, 1], got {self.removal_fraction}"
            )
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")

    @property
    def engine(self) -> EngineConfig:
        if self.engine_config is not None:
            return self.engine_config
        return EngineConfig(parallelism=self.parallelism)


@dataclass(frozen=True)
class EpochOutcome:
    """One scenario epoch: the mutation batch and its refreshes."""

    epoch: int
    mutation_counts: dict[str, int]
    reports: tuple[RefreshReport, ...]

    def report_for(self, view: str) -> RefreshReport | None:
        for report in self.reports:
            if report.view == view:
                return report
        return None


def build_scenario(
    config: ScenarioConfig = ScenarioConfig(),
    service: Any | None = None,
) -> tuple[ViewCatalog, RefreshOrchestrator, MutableGraph]:
    """The scenario's catalog: one graph, two rooted views, one derived."""
    base = multi_component_graph(
        num_components=config.num_components,
        component_size=config.component_size,
        seed=config.seed,
    )
    mutable = MutableGraph(base)
    catalog = ViewCatalog()
    catalog.add_graph("graph", mutable)
    catalog.register(
        ViewDefinition(
            name="cc-labels",
            algorithm=ConnectedComponentsView(),
            source="graph",
            config=config.engine,
            recovery=config.recovery,
        )
    )
    catalog.register(
        ViewDefinition(
            name="ranks",
            algorithm=PageRankView(),
            source="graph",
            config=config.engine,
            recovery=config.recovery,
        )
    )
    catalog.register(
        ViewDefinition(
            name="component-mass",
            algorithm=ComponentMassView(labels="cc-labels", ranks="ranks"),
            depends_on=("cc-labels", "ranks"),
            config=config.engine,
            recovery=config.recovery,
        )
    )
    orchestrator = RefreshOrchestrator(
        catalog, config=config.views, service=service
    )
    return catalog, orchestrator, mutable


def mutate_epoch(
    mutable: MutableGraph, rng: random.Random, config: ScenarioConfig
) -> MutationEpoch:
    """Apply one seeded mutation batch and commit it as an epoch.

    The batch always keeps the graph non-empty and never strands the
    scenario: removals are skipped when the structure they need is gone.
    """
    for _ in range(config.mutations_per_epoch):
        roll = rng.random()
        vertices = mutable.vertices
        edges = mutable.edges
        if roll < config.removal_fraction and edges:
            if rng.random() < 0.25 and len(vertices) > 2:
                mutable.remove_vertex(rng.choice(vertices))
            else:
                mutable.remove_edge(*rng.choice(edges))
        elif roll < config.removal_fraction + 0.15 or len(vertices) < 2:
            vertex = max(vertices) + 1
            mutable.add_vertex(vertex)
            mutable.add_edge(vertex, rng.choice(vertices))
        else:
            for _ in range(32):
                source, target = rng.sample(vertices, 2)
                if not mutable.has_edge(source, target):
                    mutable.add_edge(source, target)
                    break
    return mutable.commit()


def run_scenario(
    config: ScenarioConfig = ScenarioConfig(),
    epochs: int = 3,
    service: Any | None = None,
    failures: FailureSchedule | None = None,
    fail_epoch: int | None = None,
) -> list[EpochOutcome]:
    """Run the scenario end to end: mutate, commit, refresh, repeat.

    ``failures`` (when given) is injected into the refreshes of epoch
    ``fail_epoch`` (default: the first), demonstrating a failure *during*
    a refresh healed in-run by the views' recovery strategy.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    catalog, orchestrator, mutable = build_scenario(config, service=service)
    rng = random.Random(config.seed)
    outcomes = []
    # epoch 0: first materialization of the unmutated base graph
    initial = orchestrator.poll_once()
    outcomes.append(EpochOutcome(0, {}, tuple(initial)))
    for index in range(1, epochs + 1):
        sealed = mutate_epoch(mutable, rng, config)
        inject = failures if fail_epoch in (None, index) and failures else None
        reports = orchestrator.poll_once(failures=inject)
        outcomes.append(EpochOutcome(sealed.epoch, sealed.counts(), tuple(reports)))
    return outcomes
