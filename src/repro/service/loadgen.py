"""Seeded load generation: mixed CC / PageRank workloads.

The generator turns one seed into a reproducible list of
:class:`repro.service.job.JobSpec`: algorithm mix, graph sizes, priority
mix, injected-failure density and the two forced scenarios the
acceptance experiment needs — a spare-pool exhaustion that the
supervisor retries on a boosted pool, and a zero-deadline job that times
out. Same seed, same workload; the service's per-job results are then
bit-identical run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..algorithms.connected_components import connected_components
from ..algorithms.pagerank import pagerank
from ..config import RECOVERY_STRATEGIES, EngineConfig
from ..errors import ConfigError
from ..graph.generators import multi_component_graph, twitter_like_graph
from ..runtime.failures import FailureSchedule
from .job import JobSpec, RetryPolicy


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a generated workload.

    Attributes:
        num_jobs: total jobs generated.
        seed: master seed; every per-job choice derives from it.
        cc_fraction: fraction of Connected Components jobs (the rest is
            PageRank).
        failure_density: probability that a job gets an injected
            partition-failure schedule (handled in-run by the workload's
            recovery strategy).
        view_refresh_fraction: fraction of jobs that are **view
            refreshes** (:mod:`repro.views`): each one warm-refreshes a
            Connected Components view over a seeded mutated graph,
            seeded from the view's previous fixpoint — so sustained
            traffic exercises the refresh path (warm seeding, affected
            keys, compensation under injected failures) through the
            service. Carved out of the job mix before the CC/PageRank
            split; 0 (the default) generates none.
        recovery: recovery strategy name stamped onto every generated
            spec (one of :data:`repro.config.RECOVERY_STRATEGIES`); the
            ``serve`` CLI's ``--strategy`` flag lands here.
        parallelism: per-job worker / partition count.
        priorities: the priority levels jobs are drawn from (uniformly).
        graph_vertices: vertex-count range ``(lo, hi)`` of the per-job
            random graphs.
        epsilon: PageRank convergence threshold (loose by default so a
            load of jobs stays fast).
        infra_failures: how many jobs are engineered to exhaust the spare
            pool on their first attempt (``spare_workers=0`` plus an
            injected failure); their retry runs on a boosted pool and
            succeeds — the forced infrastructure-retry scenario.
        deadline_timeouts: how many jobs get a zero deadline and
            deterministically time out.
        backoff_base: retry backoff base of the generated specs (small,
            so workloads drain quickly in tests).
        tenants: tenant names jobs are assigned to round-robin (for the
            multi-tenant fairness experiments); empty (the default)
            leaves every spec on the ``"default"`` tenant.
    """

    num_jobs: int = 50
    seed: int = 7
    cc_fraction: float = 0.5
    failure_density: float = 0.4
    view_refresh_fraction: float = 0.0
    parallelism: int = 4
    recovery: str = "optimistic"
    priorities: tuple[int, ...] = (0, 1, 2)
    graph_vertices: tuple[int, int] = (24, 60)
    epsilon: float = 1e-3
    infra_failures: int = 1
    deadline_timeouts: int = 1
    backoff_base: float = 0.01
    tenants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ConfigError(f"num_jobs must be >= 1, got {self.num_jobs}")
        if not 0.0 <= self.cc_fraction <= 1.0:
            raise ConfigError(
                f"cc_fraction must be in [0, 1], got {self.cc_fraction}"
            )
        if not 0.0 <= self.failure_density <= 1.0:
            raise ConfigError(
                f"failure_density must be in [0, 1], got {self.failure_density}"
            )
        if not 0.0 <= self.view_refresh_fraction <= 1.0:
            raise ConfigError(
                f"view_refresh_fraction must be in [0, 1], "
                f"got {self.view_refresh_fraction}"
            )
        if self.recovery not in RECOVERY_STRATEGIES:
            raise ConfigError(
                f"recovery must be one of {RECOVERY_STRATEGIES}, "
                f"got {self.recovery!r}"
            )
        if self.infra_failures + self.deadline_timeouts > self.num_jobs:
            raise ConfigError(
                "infra_failures + deadline_timeouts cannot exceed num_jobs"
            )
        if not self.priorities:
            raise ConfigError("priorities must name at least one level")
        if self.graph_vertices[0] < 2 or self.graph_vertices[1] < self.graph_vertices[0]:
            raise ConfigError(
                f"graph_vertices must be a (lo, hi) range with 2 <= lo <= hi, "
                f"got {self.graph_vertices}"
            )
        if any(not tenant for tenant in self.tenants):
            raise ConfigError("tenants must be non-empty names")


def _make_cc(graph):
    return lambda: connected_components(graph)


def _make_view_refresh(base_graph, mutation_seed: int):
    """A job factory producing one warm view refresh, reproducible per seed.

    Builds the whole refresh input deterministically: the view's previous
    fixpoint (a cold CC run over ``base_graph``), a seeded mutation epoch,
    and the warm job seeded from the previous labels with the workset
    shrunk to the affected keys. The import is deferred because
    :mod:`repro.views` itself builds on :mod:`repro.service`.
    """

    def make():
        from ..views import ConnectedComponentsView, MutableGraph, ScenarioConfig
        from ..views.algorithms import PreviousState, RefreshInputs
        from ..views.scenario import mutate_epoch

        algorithm = ConnectedComponentsView()
        mutable = MutableGraph(base_graph)
        previous = PreviousState(
            0,
            algorithm.canonicalize(
                algorithm.cold_job(RefreshInputs(0, base_graph)).run().final_records
            ),
        )
        scenario = ScenarioConfig(seed=mutation_seed, mutations_per_epoch=3)
        epoch = mutate_epoch(mutable, random.Random(mutation_seed), scenario)
        snap = mutable.snapshot()
        return algorithm.warm_job(RefreshInputs(snap.epoch, snap.graph), previous, [epoch])

    return make


def _make_pagerank(graph, epsilon):
    return lambda: pagerank(graph, epsilon=epsilon)


def generate_workload(config: WorkloadConfig = WorkloadConfig()) -> list[JobSpec]:
    """Generate the workload: a list of job specs, reproducible per seed."""
    rng = random.Random(config.seed)
    specs: list[JobSpec] = []
    retry = RetryPolicy(max_retries=2, backoff_base=config.backoff_base, jitter=0.5)
    for index in range(config.num_jobs):
        is_view = rng.random() < config.view_refresh_fraction
        is_cc = rng.random() < config.cc_fraction
        num_vertices = rng.randint(*config.graph_vertices)
        graph_seed = rng.randint(0, 2**31)
        if is_view:
            graph = multi_component_graph(
                rng.randint(2, 4), max(2, num_vertices // 3), seed=graph_seed
            )
            make_job = _make_view_refresh(graph, graph_seed)
            kind = "view-refresh"
        elif is_cc:
            graph = multi_component_graph(
                rng.randint(2, 4), max(2, num_vertices // 3), seed=graph_seed
            )
            make_job = _make_cc(graph)
            kind = "cc"
        else:
            graph = twitter_like_graph(num_vertices, seed=graph_seed)
            make_job = _make_pagerank(graph, config.epsilon)
            kind = "pagerank"
        failures = None
        if rng.random() < config.failure_density:
            # One single-worker failure in the early supersteps — always
            # before CC's fastest convergence, so the event actually fires.
            failures = FailureSchedule.single(
                rng.randint(1, 2), [rng.randrange(config.parallelism)]
            )
        specs.append(
            JobSpec(
                name=f"{kind}-{index}",
                make_job=make_job,
                config=EngineConfig(
                    parallelism=config.parallelism,
                    spare_workers=config.parallelism,
                ),
                recovery=config.recovery,
                failures=failures,
                priority=rng.choice(config.priorities),
                tenant=config.tenants[index % len(config.tenants)]
                if config.tenants
                else "default",
                retry=retry,
                seed=config.seed,
            )
        )

    # Forced infrastructure failures: no spares on the first attempt, so
    # the injected failure exhausts the pool and raises RecoveryError;
    # the retry runs with a boosted spare pool and succeeds.
    rng_forced = random.Random(config.seed + 1)
    for index in range(config.infra_failures):
        target = rng_forced.randrange(len(specs))
        spec = specs[target]
        specs[target] = JobSpec(
            name=f"{spec.name}-infra",
            make_job=spec.make_job,
            config=EngineConfig(parallelism=config.parallelism, spare_workers=0),
            recovery=spec.recovery,
            failures=spec.failures
            or FailureSchedule.single(1, [rng_forced.randrange(config.parallelism)]),
            priority=spec.priority,
            tenant=spec.tenant,
            retry=retry,
            retry_spare_boost=config.parallelism,
            seed=config.seed,
        )

    # Forced deadline timeouts: a zero deadline expires while queued.
    taken = set()
    for index in range(config.deadline_timeouts):
        target = rng_forced.randrange(len(specs))
        while specs[target].name.endswith("-infra") or target in taken:
            target = rng_forced.randrange(len(specs))
        taken.add(target)
        spec = specs[target]
        specs[target] = JobSpec(
            name=f"{spec.name}-deadline",
            make_job=spec.make_job,
            config=spec.config,
            recovery=spec.recovery,
            failures=spec.failures,
            priority=spec.priority,
            tenant=spec.tenant,
            deadline=0.0,
            retry=retry,
            seed=config.seed,
        )
    return specs
