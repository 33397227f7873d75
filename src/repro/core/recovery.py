"""Recovery strategy interface and the rollback core.

The superstep driver treats fault tolerance as a plugin. During a run a
strategy receives two kinds of calls:

* :meth:`RecoveryStrategy.on_superstep_committed` after every successful
  superstep — where pessimistic strategies pay their failure-free price
  (writing checkpoints); optimistic recovery does nothing here, which *is*
  the paper's headline property ("failure-free execution proceeds as if no
  fault tolerance is needed");
* :meth:`RecoveryStrategy.recover` when a failure destroyed partitions —
  the driver has already killed the workers, marked the partitions lost
  and acquired replacement workers; the strategy must return a complete,
  consistent state (and workset, for delta iterations) to resume from.

Every rollback scheme is one mechanism — a persisted frontier plus a
rollback of what depends on the loss (Falkirk Wheel) — so it lives here
once, on :class:`RecoveryContext` (``persist`` / ``checkpoint`` /
``restore`` / ``rollback`` / ``restart_from_inputs``); the strategies are
policies over it that state only *what* to persist, *when*, and *how far*
to roll back.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..dataflow.datatypes import KeySpec
from ..observability.span import SpanKind
from ..observability.tracer import NOOP_TRACER, Tracer
from ..runtime.cluster import SimulatedCluster
from ..runtime.events import EventKind
from ..runtime.executor import PartitionedDataset, PlanExecutor
from ..runtime.storage import StableStorage

if TYPE_CHECKING:
    from ..runtime.state import KeyedStateBackend


@dataclass
class RecoveryContext:
    """Everything a strategy may need, assembled by the iteration driver.

    Attributes:
        job_name: name of the running iteration (keys checkpoint storage).
        cluster: the simulated cluster (already repaired when
            :meth:`RecoveryStrategy.recover` is called).
        executor: the plan executor — exposes the clock and metrics that
            recovery work must be charged to.
        storage: simulated stable storage, reached through
            :meth:`persist` / :meth:`restore`. The driver pins the initial
            state and workset under :attr:`input_prefix` so strategies can
            re-read inputs after a failure at the modeled I/O cost.
        state_key: the key spec the iterative state is partitioned by.
        statics: loop-invariant inputs, bound and partitioned (e.g. the
            graph's edges) — compensation functions may consult them.
        initial_state: the state the iteration started from.
        initial_workset: the initial workset (delta iterations only).
        state_backend: the delta iteration's solution-set backend
            (``None`` for bulk iterations) — incremental checkpointing
            drains its per-commit change log.
        destroyed_state: ``{partition id: records}`` of exactly the
            partitions a failure destroyed, set by the driver for the
            duration of one :meth:`RecoveryStrategy.recover` call — the
            simulator's stand-in for what a deterministic replay would
            recompute (confined recovery's replay oracle).
        destroyed_workset: the same for the workset (delta iterations).
    """

    job_name: str
    cluster: SimulatedCluster
    executor: PlanExecutor
    storage: StableStorage
    state_key: KeySpec
    statics: dict[str, PartitionedDataset] = field(default_factory=dict)
    initial_state: PartitionedDataset | None = None
    initial_workset: PartitionedDataset | None = None
    state_backend: "KeyedStateBackend | None" = None
    destroyed_state: dict[int, list[Any]] | None = None
    destroyed_workset: dict[int, list[Any]] | None = None

    @property
    def parallelism(self) -> int:
        return self.cluster.parallelism

    @property
    def tracer(self) -> Tracer:
        """The run's span tracer (the no-op tracer unless tracing is on).

        Strategies open recovery-phase spans (checkpoint writes, rollback
        restores, compensation, restarts) through this so the profiler can
        attribute their costs.
        """
        return getattr(self.executor, "tracer", NOOP_TRACER)

    # -- the rollback core -------------------------------------------------------

    @property
    def input_prefix(self) -> str:
        """Storage prefix the initial state and workset are pinned under."""
        return f"input/{self.job_name}/"

    def persist(
        self, prefix: str, state: PartitionedDataset,
        workset: PartitionedDataset | None = None, *, charge: bool = True,
    ) -> int:
        """Write every partition of a ``(state, workset)`` pair under
        ``<prefix>state/<pid>`` / ``<prefix>workset/<pid>`` (state first);
        returns the records written, billed as checkpoint I/O.

        Pinning the inputs at job start passes ``charge=False``: every
        real deployment starts with its inputs on a distributed
        filesystem — *reading them back* after a failure is what costs.
        """
        records = 0
        for role, dataset in (("state", state), ("workset", workset)):
            if dataset is not None:
                for pid, partition in enumerate(dataset.partitions):
                    records += self.storage.write(
                        f"{prefix}{role}/{pid}", partition or [], charge=charge
                    )
        return records

    def checkpoint(
        self, span_name: str, superstep: int, prefix: str,
        state: PartitionedDataset, workset: PartitionedDataset | None = None,
        **payload: Any,
    ) -> int:
        """A charged :meth:`persist` as a strategy's failure-free price:
        one ``CHECKPOINT`` span and one ``CHECKPOINT_WRITTEN`` event, both
        carrying the records written and the caller's ``payload``."""
        with self.tracer.span(
            span_name, kind=SpanKind.CHECKPOINT, superstep=superstep, **payload
        ) as span:
            records = self.persist(prefix, state, workset)
            span.set_attribute("records", records)
        self.cluster.events.record(
            EventKind.CHECKPOINT_WRITTEN, time=self.executor.clock.now,
            superstep=superstep, records=records, **payload,
        )
        return records

    def restore(
        self, *prefixes: str, workset: bool = True, partitions: Sequence[int] | None = None
    ) -> tuple[PartitionedDataset, PartitionedDataset | None]:
        """Read back the pair persisted under a prefix (state first; the
        workset only on request), billed as restore I/O — all partitions,
        or only the named ones (the rest come back ``None``, exactly like
        lost ones). Given a chain of prefixes (a base, then deltas), each
        state partition is the concatenation of what they hold for it, in
        chain order; the workset is the last prefix's."""
        pids = range(self.parallelism) if partitions is None else partitions

        def read(role: str, chain: Sequence[str]) -> PartitionedDataset:
            parts: list[list[Any] | None] = [None] * self.parallelism
            base, *deltas = chain
            for pid in pids:
                parts[pid] = self.storage.read(f"{base}{role}/{pid}")
                for prefix in deltas:
                    parts[pid] += self.storage.read(f"{prefix}{role}/{pid}")
            return PartitionedDataset(partitions=parts, partitioned_by=self.state_key)

        state = read("state", prefixes)
        return state, read("workset", prefixes[-1:]) if workset else None

    def rollback(
        self, span_name: str, superstep: int, *prefixes: str,
        restored_from: int, workset: bool, **payload: Any,
    ) -> "RecoveryOutcome":
        """Roll every partition back to the frontier persisted under a
        prefix — or a chain of them (a base, then deltas): the state is
        the chain's :meth:`restore`, the workset the last prefix's. One
        ``ROLLBACK`` span and event, carrying ``restored_from`` (the
        superstep of that frontier) and the caller's ``payload``."""
        state, restored_workset = self._rolled_back(
            span_name, SpanKind.ROLLBACK, EventKind.ROLLBACK, superstep,
            prefixes, workset, {"restored_from": restored_from, **payload},
        )
        return RecoveryOutcome(
            state=state, workset=restored_workset, rolled_back_to=restored_from
        )

    def restart_from_inputs(
        self, superstep: int, *, workset: bool, **payload: Any
    ) -> "RecoveryOutcome":
        """Roll back as far as it goes — to the pinned inputs: the one
        ``restart`` span and ``RESTART`` event (carrying the caller's
        ``payload``), whether restarting is the policy or the fallback of
        a rollback strategy that has persisted nothing yet."""
        state, initial_workset = self._rolled_back(
            "restart", SpanKind.RESTART, EventKind.RESTART, superstep,
            [self.input_prefix], workset, payload,
        )
        return RecoveryOutcome(state=state, workset=initial_workset, restarted=True)

    def _rolled_back(
        self, span_name, span_kind, event_kind, superstep, prefixes, workset, payload
    ) -> tuple[PartitionedDataset, PartitionedDataset | None]:
        with self.tracer.span(span_name, kind=span_kind, superstep=superstep, **payload):
            restored = self.restore(*prefixes, workset=workset)
        self.cluster.events.record(
            event_kind, time=self.executor.clock.now, superstep=superstep, **payload
        )
        return restored


@dataclass
class RecoveryOutcome:
    """What a strategy hands back to the driver.

    Attributes:
        state: the complete post-recovery state (no lost partitions).
        workset: the post-recovery workset (``None`` for bulk iterations).
        restarted: the strategy threw everything away and restarted from
            the initial inputs (the driver resets its termination
            criterion in response).
        rolled_back_to: superstep of the checkpoint that was restored, or
            ``None``.
        compensated: a compensation function re-initialized the state.
        healed_partitions: when recovery was *confined*, the ids of the
            partitions that were rebuilt — survivors kept their state
            untouched, so the delta driver reinstalls only these
            partitions into its state backend instead of rebuilding every
            index. ``None`` for global strategies.
    """

    state: PartitionedDataset
    workset: PartitionedDataset | None = None
    restarted: bool = False
    rolled_back_to: int | None = None
    compensated: bool = False
    healed_partitions: list[int] | None = None


class RecoveryStrategy(ABC):
    """Base class of all recovery strategies."""

    #: short identifier used in reports and event payloads.
    name: str = "abstract"

    def on_start(self, ctx: RecoveryContext) -> None:
        """Called once before superstep 0."""

    def on_superstep_committed(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None = None,
    ) -> None:
        """Called after every failure-free superstep; the hook where
        pessimistic strategies pay their failure-free overhead."""

    @abstractmethod
    def recover(
        self,
        ctx: RecoveryContext,
        superstep: int,
        state: PartitionedDataset,
        workset: PartitionedDataset | None,
        lost_partitions: list[int],
    ) -> RecoveryOutcome:
        """Repair ``state`` (whose ``lost_partitions`` are ``None``) into
        a complete consistent state to resume from. What those partitions
        held is on ``ctx.destroyed_state`` / ``ctx.destroyed_workset``."""

    def reset(self) -> None:
        """Drop per-run internal state (e.g. remembered checkpoints)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
