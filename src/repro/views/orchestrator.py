"""The refresh orchestrator: keeps materialized views within target lag.

:meth:`RefreshOrchestrator.poll_once` walks the catalog in topological
order and refreshes every view whose staleness exceeds its ``target_lag``
(parents first, so a derived view always reads inputs from the same
source epoch). Each refresh:

1. pins its inputs to one source epoch (the graph snapshot for rooted
   views, the parents' current readings for derived ones) — snapshot
   isolation end to end;
2. decides **warm vs. cold**: warm when the view is already
   materialized, the algorithm is warm-capable, the mode allows it, and
   the affected-key fraction stays within the view's ``warm_threshold``;
3. builds the job through the view's
   :class:`~repro.views.algorithms.ViewAlgorithm` and runs it as a
   :class:`repro.service.job.JobSpec` — standalone, or submitted through
   a :class:`repro.service.api.JobService` so admission, retries,
   deadlines and telemetry apply. Failures injected into a refresh are
   healed in-run by the view's recovery strategy, exactly like any other
   job;
4. canonicalizes the result records and installs them atomically,
   emitting ``views.*`` metrics (refresh counters, supersteps and
   wall-clock histograms, per-view staleness/lag/epoch gauges).

Determinism carries over from the engine: the same catalog, mutations
and refresh decisions produce bit-identical materializations whether
refreshes run standalone or through a service.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from ..config import DEFAULT_VIEWS_CONFIG, ViewsConfig
from ..errors import ViewError
from ..runtime.failures import FailureSchedule
from ..runtime.metrics import MetricsRegistry
from ..service.job import JobSpec
from .algorithms import PreviousState, RefreshInputs
from .catalog import MaterializedView, ViewCatalog
from .mutations import MutationEpoch


@dataclass(frozen=True)
class RefreshReport:
    """What one refresh did.

    Attributes:
        view: the refreshed view's name.
        from_epoch: the view's epoch before the refresh (-1 = first
            materialization).
        to_epoch: the source epoch the refresh materialized.
        mode: ``"warm"`` or ``"cold"``.
        supersteps: supersteps the refresh job ran.
        converged: whether the job met its termination criterion.
        affected: size of the affected-key set the warm/cold decision
            used (0 for a cold-forced refresh with no analysis).
        total_keys: key count the affected fraction was measured against.
        changed: records that differ from the previous materialization.
        failures: failures injected (and healed in-run) during the
            refresh.
        sim_time: simulated seconds of the refresh job.
        wall_seconds: wall-clock seconds of the refresh end to end.
    """

    view: str
    from_epoch: int
    to_epoch: int
    mode: str
    supersteps: int
    converged: bool
    affected: int
    total_keys: int
    changed: int
    failures: int
    sim_time: float
    wall_seconds: float

    @property
    def affected_fraction(self) -> float:
        if self.total_keys == 0:
            return 1.0
        return self.affected / self.total_keys

    def summary(self) -> str:
        """One-line human-readable refresh summary."""
        return (
            f"{self.view}@{self.to_epoch}: {self.mode} refresh, "
            f"{self.supersteps} supersteps, {self.changed} records changed, "
            f"affected {self.affected}/{self.total_keys}"
        )


class RefreshOrchestrator:
    """Polls a :class:`ViewCatalog` and refreshes stale views in order."""

    def __init__(
        self,
        catalog: ViewCatalog,
        config: ViewsConfig = DEFAULT_VIEWS_CONFIG,
        service: Any | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.catalog = catalog
        self.config = config
        #: optional :class:`repro.service.api.JobService`; refreshes are
        #: submitted to it when set, run standalone otherwise.
        self.service = service
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._poller: threading.Thread | None = None
        self._stop = threading.Event()

    # -- staleness -------------------------------------------------------------

    def target_lag(self, view: MaterializedView) -> int:
        lag = view.definition.target_lag
        return self.config.target_lag if lag is None else lag

    def warm_threshold(self, view: MaterializedView) -> float:
        threshold = view.definition.warm_threshold
        return self.config.warm_threshold if threshold is None else threshold

    def is_stale(self, name: str) -> bool:
        """Whether a poll would refresh the view right now."""
        view = self.catalog.view(name)
        if not view.is_materialized:
            return self.catalog.source_epoch(name) >= 0
        return self.catalog.staleness(name) > self.target_lag(view)

    def stale_views(self) -> list[str]:
        """Stale view names, parents before children."""
        return [name for name in self.catalog.topological_order() if self.is_stale(name)]

    # -- refreshing ------------------------------------------------------------

    def poll_once(self, failures: FailureSchedule | None = None) -> list[RefreshReport]:
        """Refresh every stale view once, in topological order.

        ``failures`` (if given) is injected into each refresh job — the
        fault-injection hook the identity tests and the demo use.
        """
        reports = []
        for name in self.catalog.topological_order():
            if self.is_stale(name):
                reports.append(self.refresh(name, failures=failures))
        self._publish_gauges()
        return reports

    def refresh(
        self, name: str, failures: FailureSchedule | None = None
    ) -> RefreshReport:
        """Refresh one view to its current source epoch now."""
        started = time.perf_counter()
        view = self.catalog.view(name)
        definition = view.definition

        inputs, epochs = self._pin_inputs(view)
        previous = (
            PreviousState(view.epoch, view.read().records)
            if view.is_materialized
            else None
        )
        mode, affected, total_keys = self._decide(view, inputs, previous, epochs)

        algorithm = definition.algorithm
        if mode == "warm":
            assert previous is not None

            def make_job() -> Any:
                return algorithm.warm_job(inputs, previous, epochs)

        else:

            def make_job() -> Any:
                return algorithm.cold_job(inputs)

        spec = JobSpec(
            name=f"view:{name}@{inputs.epoch}:{mode}",
            make_job=make_job,
            config=definition.config,
            recovery=definition.recovery,
            failures=failures,
        )
        if self.service is not None:
            result = self.service.submit(spec).result()
        else:
            result = spec.run_standalone(0)

        records = algorithm.canonicalize(result.final_records)
        changed = self._count_changed(previous, records)
        report = RefreshReport(
            view=name,
            from_epoch=view.epoch,
            to_epoch=inputs.epoch,
            mode=mode,
            supersteps=result.supersteps,
            converged=result.converged,
            affected=affected,
            total_keys=total_keys,
            changed=changed,
            failures=result.num_failures,
            sim_time=result.sim_time,
            wall_seconds=time.perf_counter() - started,
        )
        view.install(inputs.epoch, records, report)
        self._record(report)
        return report

    # -- internals -------------------------------------------------------------

    def _pin_inputs(
        self, view: MaterializedView
    ) -> tuple[RefreshInputs, list[MutationEpoch]]:
        """Pin the refresh to one source epoch (snapshot isolation)."""
        definition = view.definition
        if definition.source is not None:
            graph = self.catalog.graph(definition.source)
            snap = graph.snapshot()
            epochs = (
                graph.epochs_since(view.epoch) if view.is_materialized else []
            )
            # Only the epochs up to the pinned snapshot: a commit racing
            # with this refresh must not leak newer mutations in.
            epochs = [epoch for epoch in epochs if epoch.epoch <= snap.epoch]
            return RefreshInputs(snap.epoch, snap.graph), epochs
        readings = {}
        for parent in definition.depends_on:
            parent_view = self.catalog.view(parent)
            if not parent_view.is_materialized:
                raise ViewError(
                    f"cannot refresh derived view {definition.name!r}: parent "
                    f"{parent!r} has never been materialized (refresh parents "
                    f"first, e.g. via poll_once())"
                )
            readings[parent] = parent_view.read()
        epoch = min(reading.epoch for reading in readings.values())
        parents = {parent: reading.records for parent, reading in readings.items()}
        return RefreshInputs(epoch, None, parents), []

    def _decide(
        self,
        view: MaterializedView,
        inputs: RefreshInputs,
        previous: PreviousState | None,
        epochs: list[MutationEpoch],
    ) -> tuple[str, int, int]:
        """``(mode, affected, total_keys)`` for one refresh."""
        algorithm = view.definition.algorithm
        total_keys = len(previous.records) if previous is not None else 0
        if (
            previous is None
            or not algorithm.warm_capable
            or self.config.refresh_mode == "cold"
        ):
            return "cold", 0, total_keys
        affected = len(algorithm.affected_keys(inputs, previous, epochs))
        if self.config.refresh_mode == "warm":
            return "warm", affected, total_keys
        fraction = affected / total_keys if total_keys else 1.0
        if fraction > self.warm_threshold(view):
            return "cold", affected, total_keys
        return "warm", affected, total_keys

    @staticmethod
    def _count_changed(
        previous: PreviousState | None, records: tuple[Any, ...]
    ) -> int:
        if previous is None:
            return len(records)
        before = {record[0]: record[1] for record in previous.records}
        after_keys = {record[0] for record in records}
        changed = sum(
            1 for key, value in records if before.get(key, _MISSING) != value
        )
        return changed + sum(1 for key in before if key not in after_keys)

    def _record(self, report: RefreshReport) -> None:
        metrics = self.metrics
        metrics.increment("views.refreshes")
        metrics.increment(f"views.refreshes.{report.mode}")
        metrics.increment("views.refresh_failures", report.failures)
        metrics.increment("views.records_changed", report.changed)
        metrics.observe("views.refresh_supersteps", float(report.supersteps))
        metrics.observe("views.refresh_wall_seconds", report.wall_seconds)
        metrics.observe("views.affected_fraction", report.affected_fraction)
        metrics.set_gauge(f"views.epoch.{report.view}", float(report.to_epoch))

    def _publish_gauges(self) -> None:
        """Refresh the per-view staleness/lag gauges after a poll."""
        for name in self.catalog.topological_order():
            view = self.catalog.view(name)
            staleness = self.catalog.staleness(name)
            self.metrics.set_gauge(f"views.staleness.{name}", float(staleness))
            self.metrics.set_gauge(
                f"views.lag_violation.{name}",
                float(max(0, staleness - self.target_lag(view))),
            )

    # -- background polling ----------------------------------------------------

    def start(self, interval: float | None = None) -> None:
        """Start the background poller thread (idempotent)."""
        if self._poller is not None and self._poller.is_alive():
            return
        delay = self.config.poll_interval if interval is None else interval
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(delay):
                self.poll_once()

        self._poller = threading.Thread(
            target=loop, name="view-refresh-poller", daemon=True
        )
        self._poller.start()

    def stop(self) -> None:
        """Stop the background poller (no-op when not running)."""
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=5.0)
            self._poller = None


class _Missing:
    def __eq__(self, other: object) -> bool:
        return False

    def __repr__(self) -> str:
        return "<missing>"


_MISSING = _Missing()
