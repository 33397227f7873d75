"""The demo controller — the GUI, headless.

:class:`DemoSession` mirrors the interface of §3.1: choose the algorithm
tab, choose the input graph, schedule which partitions to fail in which
iterations, press play. Execution is batch (the engine is deterministic,
so "slowing down the demo" is unnecessary); the play button returns a
:class:`DemoRun`, which supports the GUI's navigation — stepping forward
and backward over per-iteration snapshots — plus the renderings and the
statistics plots.
"""

from __future__ import annotations

from typing import Any

from ..algorithms.connected_components import connected_components
from ..algorithms.pagerank import pagerank
from ..config import RECOVERY_STRATEGIES, EngineConfig
from ..core.recovery import RecoveryStrategy
from ..core.strategies import build_strategy
from ..errors import ConfigError
from ..graph.generators import demo_graph, demo_pagerank_graph, twitter_like_graph
from ..graph.graph import Graph
from ..graph.partitioning import partition_vertices
from ..iteration.result import IterationResult
from ..iteration.snapshots import SnapshotPhase, SnapshotStore, StateSnapshot
from ..observability.tracer import Tracer
from ..runtime.failures import FailureSchedule
from .render import render_components, render_ranks
from .statistics import DemoStatistics

#: the two algorithm tabs of the GUI.
ALGORITHMS = ("connected-components", "pagerank")

#: the two input choices of the GUI (§3.1).
GRAPHS = ("small", "twitter")

#: recovery modes selectable in this reproduction (the paper's demo only
#: ships optimistic recovery; the baselines exist for comparison runs).
#: "incremental" is valid for the delta-iterative tab only. Tracks the
#: engine-wide registry, so "confined" and "adaptive" are selectable too.
RECOVERIES = RECOVERY_STRATEGIES


class DemoRun:
    """A finished demo execution with GUI-style navigation.

    The GUI's "backward" button "jumps to the previous iteration" and
    "pause" stops at the end of the current one (§3.1); with batch
    execution both reduce to moving a cursor over the recorded
    per-iteration snapshots.
    """

    def __init__(
        self,
        algorithm: str,
        graph: Graph,
        result: IterationResult,
        parallelism: int,
    ):
        self.algorithm = algorithm
        self.graph = graph
        self.result = result
        self.parallelism = parallelism
        if result.snapshots is None:
            raise ConfigError("DemoRun requires a run recorded with snapshots")
        self._snapshots: SnapshotStore = result.snapshots
        self._position = -1  # initial state

    # -- navigation ------------------------------------------------------------

    @property
    def position(self) -> int:
        """Current iteration cursor (``-1`` = initial state)."""
        return self._position

    @property
    def last_superstep(self) -> int:
        return self.result.supersteps - 1

    def step_forward(self) -> int:
        """Advance one iteration (clamped at the last)."""
        self._position = min(self._position + 1, self.last_superstep)
        return self._position

    def step_backward(self) -> int:
        """The GUI's backward button (clamped at the initial state)."""
        self._position = max(self._position - 1, -1)
        return self._position

    def jump(self, superstep: int) -> int:
        """Move the cursor to a specific iteration."""
        if not -1 <= superstep <= self.last_superstep:
            raise ConfigError(
                f"superstep must be in [-1, {self.last_superstep}], got {superstep}"
            )
        self._position = superstep
        return self._position

    # -- state access ------------------------------------------------------------

    def snapshot_at(self, superstep: int) -> StateSnapshot:
        """The committed state at the end of ``superstep`` (``-1`` for
        the initial state)."""
        if superstep == -1:
            initial = self._snapshots.of_phase(SnapshotPhase.INITIAL)
            if not initial:
                raise ConfigError("run has no initial snapshot")
            return initial[0]
        committed = [
            snap
            for snap in self._snapshots.at_superstep(superstep)
            if snap.phase is SnapshotPhase.AFTER_SUPERSTEP
        ]
        if not committed:
            raise ConfigError(f"no snapshot recorded for superstep {superstep}")
        return committed[-1]

    def state_at(self, superstep: int) -> dict[Any, Any]:
        """``{key: value}`` state at the end of ``superstep``."""
        return self.snapshot_at(superstep).as_dict()

    def lost_vertices(self, superstep: int) -> list[int]:
        """Vertices destroyed by the failure at ``superstep`` (empty when
        no failure struck there) — the GUI's red highlighting."""
        failures = [
            event
            for event in self.result.events.failures()
            if event.superstep == superstep
        ]
        lost_partitions = {
            pid for event in failures for pid in event.details.get("lost_partitions", [])
        }
        if not lost_partitions:
            return []
        placement = partition_vertices(self.graph, self.parallelism)
        return sorted(v for v, pid in placement.items() if pid in lost_partitions)

    # -- rendering ------------------------------------------------------------

    def render_current(self) -> str:
        """Render the state at the cursor, highlighting lost vertices."""
        snapshot = self.snapshot_at(self._position)
        highlight = self.lost_vertices(self._position)
        header = f"[{self.algorithm} @ iteration {self._position}]"
        if self.algorithm == "pagerank":
            return f"{header}\n{render_ranks(snapshot.as_dict(), highlight)}"
        return f"{header}\n{render_components(snapshot.as_dict(), highlight)}"

    def statistics(self) -> DemoStatistics:
        """The GUI's statistics plots."""
        return DemoStatistics.from_result(self.result)

    def __repr__(self) -> str:
        return (
            f"DemoRun({self.algorithm!r}, supersteps={self.result.supersteps}, "
            f"position={self._position})"
        )


class DemoSession:
    """The demo GUI's controls.

    Args:
        algorithm: ``"connected-components"`` (delta-iteration tab) or
            ``"pagerank"`` (bulk-iteration tab).
        graph: ``"small"`` for the hand-crafted graph, ``"twitter"`` for
            the synthetic Twitter-like snapshot, or a :class:`Graph` for
            a custom input.
        parallelism: worker / partition count.
        spare_workers: spares available for recovery; must cover the
            scheduled failures.
        twitter_size: vertex count of the synthetic Twitter graph.
        seed: generator seed.
    """

    def __init__(
        self,
        algorithm: str = "connected-components",
        graph: str | Graph = "small",
        parallelism: int = 4,
        spare_workers: int = 4,
        twitter_size: int = 500,
        seed: int = 7,
    ):
        if algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
        self.algorithm = algorithm
        self.parallelism = parallelism
        self.spare_workers = spare_workers
        if isinstance(graph, Graph):
            self.graph = graph
        elif graph == "small":
            self.graph = (
                demo_graph() if algorithm == "connected-components" else demo_pagerank_graph()
            )
        elif graph == "twitter":
            self.graph = twitter_like_graph(twitter_size, seed=seed)
        else:
            raise ConfigError(f"graph must be one of {GRAPHS} or a Graph, got {graph!r}")
        self._failures: list[tuple[int, tuple[int, ...]]] = []

    def schedule_failure(self, iteration: int, partitions: list[int]) -> None:
        """Fail the workers hosting ``partitions`` during ``iteration``.

        Partition ``i`` initially lives on worker ``i``, so failing
        "partition p" kills worker ``p`` — attendees think in partitions,
        the cluster in workers, and before any recovery the two coincide.
        """
        if iteration < 0:
            raise ConfigError(f"iteration must be >= 0, got {iteration}")
        bad = [p for p in partitions if not 0 <= p < self.parallelism]
        if bad:
            raise ConfigError(
                f"partitions {bad} out of range [0, {self.parallelism})"
            )
        self._failures.append((iteration, tuple(partitions)))

    def clear_failures(self) -> None:
        """Forget all scheduled failures."""
        self._failures.clear()

    @property
    def scheduled_failures(self) -> list[tuple[int, tuple[int, ...]]]:
        return list(self._failures)

    def _build_recovery(self, name: str, job, checkpoint_interval: int) -> RecoveryStrategy:
        if name not in RECOVERIES:
            raise ConfigError(
                f"recovery must be one of {', '.join(RECOVERIES)}, got {name!r}; "
                f"hint: pick a strategy name, e.g. --strategy confined"
            )
        if name == "incremental" and self.algorithm != "connected-components":
            raise ConfigError(
                "incremental checkpointing requires a delta iteration "
                "(the connected-components tab)"
            )
        return build_strategy(
            name,
            compensation=job.compensation,
            invariants=job.invariants,
            checkpoint_interval=checkpoint_interval,
        )

    def press_play(
        self,
        recovery: str = "optimistic",
        checkpoint_interval: int = 2,
        epsilon: float = 1e-9,
        tracer: Tracer | None = None,
    ) -> DemoRun:
        """Run the demo to completion and return the navigable run.

        Pass a :class:`repro.observability.tracer.RecordingTracer` as
        ``tracer`` to capture the run's span tree for export or
        profiling; by default no tracing happens.
        """
        config = EngineConfig(
            parallelism=self.parallelism, spare_workers=self.spare_workers
        )
        if self.algorithm == "connected-components":
            job = connected_components(self.graph)
        else:
            job = pagerank(self.graph, epsilon=epsilon)
        strategy = self._build_recovery(recovery, job, checkpoint_interval)
        schedule = FailureSchedule.at(*self._failures) if self._failures else None
        result = job.run(
            config=config,
            recovery=strategy,
            failures=schedule,
            snapshots=SnapshotStore(),
            tracer=tracer,
        )
        return DemoRun(self.algorithm, self.graph, result, self.parallelism)
