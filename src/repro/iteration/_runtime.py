"""Internal: per-run runtime assembly for the superstep driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..config import EngineConfig
from ..dataflow.operators import SourceOperator
from ..dataflow.plan import Plan
from ..errors import IterationError
from ..observability.tracer import NOOP_TRACER, Tracer
from ..runtime.cluster import SimulatedCluster
from ..runtime.executor import PlanExecutor, StaticDataset
from ..runtime.failures import FailureInjector, FailureSchedule
from ..runtime.state import record_matches
from ..runtime.storage import StableStorage


@dataclass
class JobRuntime:
    """The runtime objects one iteration run owns."""

    config: EngineConfig
    cluster: SimulatedCluster
    executor: PlanExecutor
    storage: StableStorage
    injector: FailureInjector

    @property
    def clock(self):
        return self.cluster.clock

    @property
    def metrics(self):
        return self.executor.metrics


def build_runtime(
    config: EngineConfig,
    failures: FailureSchedule | None,
    tracer: Tracer | None = None,
) -> JobRuntime:
    """Assemble a fresh cluster/executor/storage/injector for one run.

    When a ``tracer`` is given it is bound to the run's simulated clock
    and handed to the executor, so operator spans nest under whatever
    spans the driver opens.
    """
    cluster = SimulatedCluster(config)
    tracer = tracer if tracer is not None else NOOP_TRACER
    tracer.bind(cluster.clock)
    executor = PlanExecutor(
        config.parallelism,
        clock=cluster.clock,
        combiners=config.combiners,
        tracer=tracer,
    )
    storage = StableStorage(cluster.clock)
    injector = FailureInjector(failures if failures is not None else FailureSchedule.none())
    return JobRuntime(
        config=config,
        cluster=cluster,
        executor=executor,
        storage=storage,
        injector=injector,
    )


def bind_statics(
    plan: Plan,
    statics: dict[str, Iterable[Any]],
    dynamic_sources: set[str],
    parallelism: int,
) -> dict[str, StaticDataset]:
    """Partition loop-invariant inputs once, per their source key specs.

    Flink caches loop-invariant data partitioned (and sorted) across
    iterations; partitioning statics once here models that — every
    superstep's execution then finds them already placed and skips the
    shuffle. Each static also keeps, for the run, any re-placement by
    another key and the build indexes the step plan's joins probe (see
    :class:`repro.runtime.executor.StaticDataset`).
    """
    bound: dict[str, StaticDataset] = {}
    declared = {op.name: op for op in plan.sources()}
    for name in declared:
        if name in dynamic_sources:
            continue
        if name not in statics:
            raise IterationError(
                f"step plan source {name!r} is neither iterative state nor "
                f"a provided static input"
            )
    for name, records in statics.items():
        if name not in declared:
            raise IterationError(f"static input {name!r} matches no plan source")
        source: SourceOperator = declared[name]
        bound[name] = StaticDataset.from_records(
            records, parallelism, key=source.partitioned_by
        )
    return bound


def count_converged(
    records: Iterable[Any],
    truth: dict[Any, Any] | None,
    tolerance: float,
    job: str | None = None,
) -> int:
    """How many ``(key, value)`` records match the precomputed truth.

    The demo "precomputes the true values for presentation reasons"
    (§3.2); this is the comparison behind its convergence plots. The
    comparison itself is :func:`repro.runtime.state.record_matches` —
    shared with the keyed state backend's incremental converged counter
    so bulk and delta iterations count identically.

    Raises:
        IterationError: when a state record is not ``(key, value)``-shaped
            (e.g. not subscriptable), naming ``job`` and the record.
    """
    if truth is None:
        return 0
    converged = 0
    for record in records:
        try:
            key, value = record[0], record[1]
        except (TypeError, IndexError) as exc:
            where = f" of job {job!r}" if job is not None else ""
            raise IterationError(
                f"state record {record!r}{where} is not (key, value)-shaped: "
                f"truth comparison needs subscriptable records with at least "
                f"two fields"
            ) from exc
        if key not in truth:
            continue
        if record_matches(value, truth[key], tolerance):
            converged += 1
    return converged
