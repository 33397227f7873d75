"""``views-refresh``: three materialized views kept fresh over a graph that
mutates a little every epoch, in the default ``auto`` refresh mode."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config import ViewsConfig
from repro.views import ScenarioConfig, build_scenario, mutate_epoch

from ..harness import cpu_seconds, now, repeat_for
from ..spans import RunUnit
from . import Outcome, Unit, end_to_end

#: (components, vertices per component, epochs per pass) per scale.
SIZES = {False: (8, 60, 6), True: (3, 8, 2)}


def scenario(seed: int, components: int, size: int, mode: str = "auto") -> ScenarioConfig:
    return ScenarioConfig(
        num_components=components,
        component_size=size,
        mutations_per_epoch=2,
        removal_fraction=0.25,
        seed=seed,
        views=ViewsConfig(refresh_mode=mode),
    )


@dataclass
class Pass:
    """One pass: initial materialization (set-up), then the timed epochs."""

    setup_s: float = 0.0
    #: per epoch: raw wall and CPU seconds of ``poll_once``, view records
    #: materialized, refresh jobs run.
    epochs: list[tuple[float, float, int, int]] = field(default_factory=list)
    #: per epoch, every view's materialized records.
    records: list[dict[str, Any]] = field(default_factory=list)
    #: per epoch, every refresh's ``(view, mode, supersteps, sim_time, converged)``.
    refreshes: list[list[tuple[str, str, int, float, bool]]] = field(default_factory=list)

    def unit(self) -> Unit:
        return Unit(*(sum(column) for column in zip(*self.epochs)))

    def epoch_ms(self) -> list[float]:
        """Per-epoch ``poll_once`` latency."""
        return [wall * 1e3 for wall, *_ in self.epochs]


def run_pass(config: ScenarioConfig, epochs: int, service_after_setup: Any = None) -> Pass:
    """Build the scenario, materialize it, then mutate and poll ``epochs`` times.

    ``service_after_setup`` is installed as the orchestrator's job service
    once the initial materialization is done (the traced pass uses it to
    hand each refresh a tracer).
    """
    done = Pass()
    started = now()
    catalog, orchestrator, mutable = build_scenario(config)
    orchestrator.poll_once()
    done.setup_s = now() - started
    orchestrator.service = service_after_setup
    rng = random.Random(config.seed)
    views = catalog.topological_order()
    for _ in range(epochs):
        mutate_epoch(mutable, rng, config)
        cpu0, wall0 = cpu_seconds(), now()
        reports = orchestrator.poll_once()
        wall, cpu = now() - wall0, cpu_seconds() - cpu0
        records = {name: catalog.read(name).records for name in views}
        done.epochs.append((wall, cpu, sum(len(r) for r in records.values()), len(reports)))
        done.records.append(records)
        done.refreshes.append(
            [(r.view, r.mode, r.supersteps, r.sim_time, r.converged) for r in reports]
        )
    return done


class _Done:
    def __init__(self, result: Any):
        self._result = result

    def result(self) -> Any:
        return self._result


class _TracingService:
    """Stands in for the orchestrator's optional job service during the
    traced pass: runs each refresh exactly as the default path does
    (``spec.run_standalone``), but with a tracer, and keeps the results."""

    def __init__(self, make_tracer: Callable[[], Any]):
        self._make_tracer = make_tracer
        self.results: list[Any] = []

    def submit(self, spec: Any) -> _Done:
        result = spec.run_standalone(0, tracer=self._make_tracer())
        self.results.append(result)
        return _Done(result)


class ViewsRefresh:
    name = "views-refresh"
    why = (
        "warm-seeded refreshes where the change is far smaller than the state: work "
        "should follow the mutation, through views orchestration and the warm-start path"
    )

    def run(self, seed: int, seconds: float, smoke: bool) -> Outcome:
        components, size, epochs = SIZES[smoke]
        config = scenario(seed, components, size)
        timed = repeat_for(lambda: run_pass(config, epochs), seconds, min_units=3)
        passes = [done for done, _, _ in timed]
        cold = run_pass(scenario(seed, components, size, mode="cold"), epochs)

        failures = []
        first = passes[0]
        for index, done in enumerate(passes):
            for epoch in range(epochs):
                if done.records[epoch] != cold.records[epoch]:
                    failures.append(f"pass {index} epoch {epoch}: auto refresh differs from forced cold")
                if done.refreshes[epoch] != first.refreshes[epoch]:
                    failures.append(f"pass {index} epoch {epoch}: refresh modes, supersteps or simulated time changed")
                if not all(converged for *_, converged in done.refreshes[epoch]):
                    failures.append(f"pass {index} epoch {epoch}: a refresh did not converge")
        return Outcome(
            metrics=end_to_end(
                [done.setup_s for done in passes + [cold]],
                [done.unit() for done in passes],
                [ms for done in passes for ms in done.epoch_ms()],
            ),
            attempted=(len(passes) + 1) * epochs,
            failures=failures,
            detail={
                "warm_refreshes": sum(
                    1 for epoch in first.refreshes for entry in epoch if entry[1] == "warm"
                ),
                "cold_refreshes": sum(
                    1 for epoch in first.refreshes for entry in epoch if entry[1] == "cold"
                ),
            },
        )

    def engine_unit(self, seed: int, smoke: bool) -> RunUnit:
        components, size, epochs = SIZES[smoke]
        config = scenario(seed, components, size)

        def run_unit(make_tracer: Callable[[], Any] | None) -> tuple[list[Any], float]:
            service = _TracingService(make_tracer) if make_tracer else None
            done = run_pass(config, epochs, service_after_setup=service)
            return (service.results if service else []), done.unit().wall

        return run_unit


VIEWS_REFRESH = ViewsRefresh()
