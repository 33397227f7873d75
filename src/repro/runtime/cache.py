"""Superstep execution cache: loop-invariant results reused across supersteps.

Every superstep re-executes the full step plan, yet much of that plan is
*loop-invariant* (see :mod:`repro.dataflow.invariants`): operators whose
upstream closure touches only static sources produce bit-identical output
every round, joins rebuild the same hash table over the static edge set
every round, and misplaced static inputs are re-shuffled with the same
placement every round. :class:`SuperstepExecutionCache` materializes each
of those results once and serves it on every later ``execute()`` call:

* **operator outputs** — the full :class:`~repro.runtime.executor.\
  PartitionedDataset` of an invariant non-source operator;
* **shuffle placements** — the hash-repartitioned form of an invariant
  operator's output, keyed by target key spec (the static build side of
  a dynamic join keeps its placement across supersteps);
* **join/co-group build indexes** — the per-partition hash tables built
  over an invariant input of a *dynamic* join or co-group (Flink keeps
  the static build side of such joins resident across iterations).

The cache is *transparent*: it skips the redundant wall-clock work but
**replays the recorded simulated charges bit-identically** on every hit
— the simulated clock, the cost breakdown, and every metrics counter
advance exactly as they would with ``EngineConfig.execution_cache`` set
to ``"off"`` (no cache is built), so all archived figures and benchmark
baselines reproduce exactly either way.

How transparency is achieved: simulated time is a count ledger (see
:mod:`repro.runtime.clock`), so the first (miss) execution of a cacheable
operator snapshots the clock's counts before and after and keeps the
difference; a hit adds that count vector back in one call. Integer counts
commute, so the replayed clock equals re-execution exactly. Metric
writes and message-log deliveries still go through recording proxies
that forward each call and log it, and a hit replays them in order.

Failure handling: cached results model data resident on workers. When
workers fail and partitions are re-assigned, the driver calls
:meth:`SuperstepExecutionCache.invalidate` and every entry is dropped —
the next superstep re-materializes whatever the plan still needs. This
is cost-invisible by construction: a miss charges exactly what a hit
would have replayed.

The cache reports ``cache.hits`` / ``cache.misses`` /
``cache.invalidations`` counters (plus per-kind ``cache.hits.<kind>``
breakdowns for ``output`` / ``shuffle`` / ``build``) through the run's
:class:`~repro.runtime.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..dataflow.datatypes import KeySpec
from ..dataflow.invariants import InvariantAnalysis
from ..dataflow.operators import Operator, SourceOperator
from ..errors import ExecutionError
from .clock import LEDGER, SimulatedClock
from .metrics import MetricsRegistry

if TYPE_CHECKING:
    from ..dataflow.plan import Plan
    from .executor import PartitionedDataset, PlanExecutor

#: the valid ``EngineConfig.execution_cache`` settings.
EXECUTION_CACHE_MODES = ("off", "transparent")


class ChargeLog:
    """The simulated charges one cached execution made on its miss.

    Replaying the log adds the recorded clock counts back in one call and
    re-applies the metric operations in their original order.
    """

    __slots__ = ("counts", "increments", "observations", "deliveries")

    def __init__(self) -> None:
        #: the clock counts the miss added, one per ledger slot.
        self.counts: tuple[int, ...] = (0,) * len(LEDGER)
        #: ``(counter name, amount)`` increments, in order.
        self.increments: list[tuple[str, int]] = []
        #: ``(histogram name, value)`` observations, in order.
        self.observations: list[tuple[str, float]] = []
        #: ``(per-partition sizes, local)`` message-log deliveries made
        #: while confined recovery's log was attached, in order.
        self.deliveries: list[tuple[tuple[int, ...], bool]] = []

    def replay(
        self,
        clock: SimulatedClock,
        metrics: MetricsRegistry,
        *,
        message_log: Any | None = None,
    ) -> None:
        """Re-apply the log. When a ``message_log`` is passed (confined
        recovery active), recorded deliveries are re-delivered so the
        log's contents stay bit-identical to a cache-off run."""
        clock.add(self.counts)
        for name, amount in self.increments:
            metrics.increment(name, amount)
        for name, value in self.observations:
            metrics.observe(name, value)
        if message_log is not None:
            for sizes, local in self.deliveries:
                message_log.deliver(sizes, local=local)


class _RecordingMetrics:
    """Forwards counter/histogram writes to the real registry, logging them."""

    def __init__(self, metrics: MetricsRegistry, log: ChargeLog):
        self._metrics = metrics
        self._log = log

    def increment(self, name: str, amount: int = 1) -> int:
        self._log.increments.append((name, amount))
        return self._metrics.increment(name, amount)

    def observe(self, name: str, value: float) -> None:
        self._log.observations.append((name, value))
        self._metrics.observe(name, value)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._metrics, name)


class _RecordingMessageLog:
    """Forwards deliveries to the real message log, logging them."""

    def __init__(self, message_log: Any, log: ChargeLog):
        self._message_log = message_log
        self._log = log

    def deliver(self, sizes: Sequence[int], *, local: bool = False) -> None:
        self._log.deliveries.append((tuple(sizes), local))
        self._message_log.deliver(sizes, local=local)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._message_log, name)


class SuperstepExecutionCache:
    """Per-run cache of loop-invariant execution results.

    One instance belongs to one iteration run and one step plan; the
    drivers build it from the plan's :class:`InvariantAnalysis` and pass
    it to every :meth:`~repro.runtime.executor.PlanExecutor.execute`
    call.

    Args:
        analysis: which operators of the step plan are loop-invariant.
        metrics: registry receiving the ``cache.*`` counters.
    """

    def __init__(
        self,
        analysis: InvariantAnalysis,
        *,
        metrics: MetricsRegistry | None = None,
    ):
        self.analysis = analysis
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._plan_id: int | None = None
        self._outputs: dict[int, tuple["PartitionedDataset", ChargeLog]] = {}
        self._shuffles: dict[tuple[int, KeySpec], tuple["PartitionedDataset", ChargeLog]] = {}
        self._builds: dict[tuple[int, str], list[dict[Any, list[Any]]]] = {}
        self._broadcasts: dict[int, tuple[list[Any], ChargeLog]] = {}
        #: running totals, mirrored into the metrics registry.
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- bookkeeping -------------------------------------------------------------

    def bind_plan(self, plan: "Plan") -> None:
        """Pin the cache to the one plan it was analyzed for.

        The analysis is positional (op_ids), so serving a different plan
        — even a semantically equal optimized clone — would corrupt
        results; the executor calls this on every ``execute()``.
        """
        if self._plan_id is None:
            if plan.name != self.analysis.plan_name:
                raise ExecutionError(
                    f"execution cache was analyzed for plan "
                    f"{self.analysis.plan_name!r}, not {plan.name!r}"
                )
            self._plan_id = id(plan)
        elif self._plan_id != id(plan):
            raise ExecutionError(
                f"execution cache for plan {self.analysis.plan_name!r} was handed "
                f"a different plan instance; build one cache per plan object"
            )

    def _record_hit(self, kind: str) -> None:
        self.hits += 1
        self.metrics.increment("cache.hits")
        self.metrics.increment(f"cache.hits.{kind}")

    def _record_miss(self, kind: str) -> None:
        self.misses += 1
        self.metrics.increment("cache.misses")
        self.metrics.increment(f"cache.misses.{kind}")

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- recording ---------------------------------------------------------------

    @contextmanager
    def recording(self, executor: "PlanExecutor") -> Iterator[ChargeLog]:
        """Record the clock counts the body adds, and swap the executor's
        metrics and message log for recording proxies.

        Nesting is safe: an inner recording wraps the outer proxy, so the
        outer log still sees every metric write, and the outer count
        difference includes whatever an inner miss charged or an inner hit
        added (an invariant operator whose execution consults the shuffle
        memo records the shuffle charges in both logs, and each log
        replays correctly on its own path).
        """
        log = ChargeLog()
        clock = executor.clock
        before = clock.counts()
        saved_metrics, saved_message_log = executor.metrics, executor.message_log
        executor.metrics = _RecordingMetrics(saved_metrics, log)  # type: ignore[assignment]
        if saved_message_log is not None:
            executor.message_log = _RecordingMessageLog(saved_message_log, log)
        try:
            yield log
        finally:
            executor.metrics, executor.message_log = saved_metrics, saved_message_log
            log.counts = tuple(map(operator.sub, clock.counts(), before))

    # -- operator outputs --------------------------------------------------------

    def serves_output(self, op: Operator) -> bool:
        """Whether ``op``'s full output is cacheable (invariant, non-source)."""
        return not isinstance(op, SourceOperator) and self.analysis.is_cacheable(op)

    def lookup_output(
        self, op: Operator
    ) -> "tuple[PartitionedDataset, ChargeLog] | None":
        """Fetch ``op``'s materialized output and its recorded charges.

        The executor replays the log itself (against whatever clock and
        metrics it currently exposes) so nested recordings re-log
        correctly.
        """
        entry = self._outputs.get(op.op_id)
        if entry is not None:
            self._record_hit("output")
        return entry

    def store_output(self, op: Operator, dataset: "PartitionedDataset", log: ChargeLog) -> None:
        self._record_miss("output")
        self._outputs[op.op_id] = (dataset, log)

    # -- shuffle placements ------------------------------------------------------

    def serves_shuffle(self, producer: Operator) -> bool:
        """Whether repartitions of ``producer``'s output are memoizable."""
        return self.analysis.is_invariant(producer)

    def lookup_shuffle(
        self, producer: Operator, key: KeySpec
    ) -> "tuple[PartitionedDataset, ChargeLog] | None":
        entry = self._shuffles.get((producer.op_id, key))
        if entry is not None:
            self._record_hit("shuffle")
        return entry

    def store_shuffle(
        self,
        producer: Operator,
        key: KeySpec,
        dataset: "PartitionedDataset",
        log: ChargeLog,
    ) -> None:
        self._record_miss("shuffle")
        self._shuffles[(producer.op_id, key)] = (dataset, log)

    # -- join / co-group build indexes -------------------------------------------

    def serves_build(self, op: Operator, side: str) -> bool:
        """Whether the ``side`` build index of join/co-group ``op`` is
        loop-invariant and therefore reusable across supersteps."""
        return side in self.analysis.reusable_build_sides(op)

    def lookup_build(self, op: Operator, side: str) -> "list[dict[Any, list[Any]]] | None":
        tables = self._builds.get((op.op_id, side))
        if tables is not None:
            self._record_hit("build")
        return tables

    def store_build(
        self, op: Operator, side: str, tables: "list[dict[Any, list[Any]]]"
    ) -> None:
        self._record_miss("build")
        self._builds[(op.op_id, side)] = tables

    # -- cross broadcast copies --------------------------------------------------

    def lookup_broadcast(self, op: Operator) -> "tuple[list[Any], ChargeLog] | None":
        """The memoized broadcast copy of a cross's invariant right side,
        with the network charges its placement cost."""
        entry = self._broadcasts.get(op.op_id)
        if entry is not None:
            self._record_hit("build")
        return entry

    def store_broadcast(self, op: Operator, records: list[Any], log: ChargeLog) -> None:
        self._record_miss("build")
        self._broadcasts[op.op_id] = (records, log)

    # -- invalidation ------------------------------------------------------------

    def invalidate(
        self, lost_partitions: Sequence[int] | None = None, reason: str = "failure"
    ) -> int:
        """Drop every cache entry touched by a failure.

        Cached datasets and build indexes are partitioned exactly like
        the iterative state — partition ``p`` of every entry lived on the
        worker hosting state partition ``p`` — so losing any partition
        invalidates every entry (each entry spans all partitions). The
        next ``execute()`` re-materializes on the replacement workers.

        Returns the number of entries dropped (also added to the
        ``cache.invalidations`` counter).
        """
        dropped = (
            len(self._outputs)
            + len(self._shuffles)
            + len(self._builds)
            + len(self._broadcasts)
        )
        self._outputs.clear()
        self._shuffles.clear()
        self._builds.clear()
        self._broadcasts.clear()
        if dropped:
            self.invalidations += dropped
            self.metrics.increment("cache.invalidations", dropped)
            self.metrics.increment(f"cache.invalidations.{reason}", dropped)
        return dropped
