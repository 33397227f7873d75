"""Counters and per-superstep statistics.

The demo GUI plots four statistic series (§3.2–3.3 of the paper):

* Connected Components: (i) vertices converged to their final component
  per iteration, (ii) messages (candidate labels sent to neighbors) per
  iteration;
* PageRank: (i) vertices converged to their true rank per iteration,
  (ii) the L1 norm of the difference between consecutive rank estimates.

:class:`IterationStats` captures one superstep's worth of those numbers,
:class:`StatsSeries` collects the run-long series, and
:class:`MetricsRegistry` provides the low-level named counters the executor
increments (e.g. records entering each named operator, which is how we
count "messages").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterator

from ..observability.metrics import HistogramStats, Timer


class MetricsRegistry:
    """A registry of named counters, gauges, histograms and timers.

    Counter names are free-form strings. The executor uses the convention
    ``records_in.<operator name>`` for per-operator input cardinalities and
    ``shuffled.<operator name>`` for exchange volumes, which lets the demo
    read off "messages per iteration" as the input count of the paper's
    ``candidate-label`` reduce.

    Counters are the original (and still primary) surface —
    :meth:`increment` / :meth:`get` / :meth:`snapshot` / :meth:`diff`
    behave exactly as they always did and see only counters. On top of
    them the registry now keeps:

    * **gauges** (:meth:`set_gauge`) — last-write-wins instantaneous
      values, e.g. the delta iteration's current workset size;
    * **histograms** (:meth:`observe`) — value distributions summarized
      as count/min/max/mean/p50/p95 (:meth:`histogram`), e.g. per-shuffle
      exchange volumes;
    * **timers** (:meth:`timer`) — wall-clock context managers whose
      durations land in the histogram of the same name.

    The registry is thread-safe: the job service shares one registry
    across its worker pool, so every read-modify-write goes through an
    internal lock (uncontended in the single-threaded engine paths).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}

    def increment(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            value = self._counters.get(name, 0) + amount
            self._counters[name] = value
        return value

    def get(self, name: str) -> int:
        """Current value of ``name`` (zero if never incremented)."""
        return self._counters.get(name, 0)

    def names(self) -> list[str]:
        """All counter names, sorted."""
        with self._lock:
            return sorted(self._counters)

    def snapshot(self) -> dict[str, int]:
        """A copy of all counters, taken atomically."""
        with self._lock:
            return dict(self._counters)

    def diff(self, earlier: dict[str, int]) -> dict[str, int]:
        """Per-counter increase since an ``earlier`` :meth:`snapshot`."""
        with self._lock:
            return {
                name: value - earlier.get(name, 0)
                for name, value in self._counters.items()
                if value != earlier.get(name, 0)
            }

    def snapshot_all(
        self, include_histograms: bool = True
    ) -> dict[str, dict[str, Any]]:
        """One atomic copy of every counter, gauge and histogram.

        All three families are copied under a single lock acquisition, so
        a concurrent sampler (the telemetry collector) never sees a torn
        view — e.g. a counter from before an increment paired with a
        gauge from after it. With ``include_histograms=False`` the raw
        observation lists are skipped (they can be large; the sampler
        only needs counters and gauges every tick).
        """
        with self._lock:
            snapshot: dict[str, dict[str, Any]] = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
            }
            if include_histograms:
                snapshot["histograms"] = {
                    name: list(values) for name, values in self._histograms.items()
                }
            return snapshot

    def histogram_summaries(self) -> dict[str, HistogramStats]:
        """Atomic :class:`HistogramStats` of every non-empty histogram.

        Unlike :meth:`histograms` the raw values are copied under the
        lock first, so a summary never reads a list mid-append.
        """
        with self._lock:
            copies = {
                name: list(values)
                for name, values in self._histograms.items()
                if values
            }
        return {name: HistogramStats.of(values) for name, values in sorted(copies.items())}

    # -- gauges ----------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str, default: float | None = None) -> float | None:
        """Current value of gauge ``name`` (``default`` if never set)."""
        return self._gauges.get(name, default)

    def gauges(self) -> dict[str, float]:
        """A copy of all gauges, taken atomically."""
        with self._lock:
            return dict(self._gauges)

    # -- histograms and timers -------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            self._histograms.setdefault(name, []).append(value)

    def histogram(self, name: str) -> HistogramStats | None:
        """Summary stats of histogram ``name`` (``None`` if unobserved)."""
        with self._lock:
            values = list(self._histograms.get(name, ()))
        return HistogramStats.of(values) if values else None

    def histogram_values(self, name: str) -> list[float]:
        """The raw observations of histogram ``name``, in order."""
        with self._lock:
            return list(self._histograms.get(name, ()))

    def histograms(self) -> dict[str, HistogramStats]:
        """Summary stats of every non-empty histogram."""
        return self.histogram_summaries()

    def timer(self, name: str) -> Timer:
        """A context manager observing its wall-clock duration into the
        histogram ``name``::

            with metrics.timer("superstep_wall_seconds"):
                ...
        """
        return Timer(self, name)

    # -- lifecycle ---------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter, gauge and histogram."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


@dataclass
class IterationStats:
    """Statistics of one superstep.

    Attributes:
        superstep: 0-based superstep index.
        messages: records exchanged between vertices this superstep (the
            GUI's "messages" plot for Connected Components; for PageRank it
            counts rank contributions).
        updates: solution-set updates (delta iterations) or state records
            recomputed (bulk iterations).
        converged: number of state entries already equal to the precomputed
            ground truth at the *end* of this superstep.
        l1_delta: L1 norm between this superstep's state and the previous
            one (the GUI's PageRank convergence plot); ``None`` when the
            observer does not compute it.
        workset_size: size of the *next* workset — the one this superstep
            produced, which ``EmptyWorkset`` tests (the span's
            ``next_workset_size``; ``None`` for bulk iterations). The size
            entering the superstep is the ``workset_size`` gauge.
        sim_time_start: simulated clock at superstep start.
        sim_time_end: simulated clock at superstep end.
        failed: True when a failure struck during this superstep.
        compensated: True when a compensation function ran this superstep.
        rolled_back: True when rollback recovery restored a checkpoint.
        restarted: True when the iteration was restarted from scratch.
        confined: True when confined recovery replayed only the lost
            partitions (survivors kept their state).
    """

    superstep: int
    messages: int = 0
    updates: int = 0
    converged: int = 0
    l1_delta: float | None = None
    workset_size: int | None = None
    sim_time_start: float = 0.0
    sim_time_end: float = 0.0
    failed: bool = False
    compensated: bool = False
    rolled_back: bool = False
    restarted: bool = False
    confined: bool = False

    @property
    def sim_duration(self) -> float:
        """Simulated seconds spent in this superstep."""
        return self.sim_time_end - self.sim_time_start

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form for the structured trace exporter."""
        return {
            "superstep": self.superstep,
            "messages": self.messages,
            "updates": self.updates,
            "converged": self.converged,
            "l1_delta": self.l1_delta,
            "workset_size": self.workset_size,
            "sim_time_start": self.sim_time_start,
            "sim_time_end": self.sim_time_end,
            "sim_duration": self.sim_duration,
            "failed": self.failed,
            "compensated": self.compensated,
            "rolled_back": self.rolled_back,
            "restarted": self.restarted,
            "confined": self.confined,
        }


class StatsSeries:
    """The run-long sequence of :class:`IterationStats`.

    Provides the column accessors the demo plots and the benchmark reports
    need (``converged_series()``, ``messages_series()``, ...).
    """

    def __init__(self) -> None:
        self._stats: list[IterationStats] = []

    def append(self, stats: IterationStats) -> None:
        self._stats.append(stats)

    def __len__(self) -> int:
        return len(self._stats)

    def __iter__(self) -> Iterator[IterationStats]:
        return iter(self._stats)

    def __getitem__(self, index: int) -> IterationStats:
        return self._stats[index]

    @property
    def last(self) -> IterationStats | None:
        """The most recent superstep's stats, or ``None`` if empty."""
        return self._stats[-1] if self._stats else None

    def converged_series(self) -> list[int]:
        """Converged-entity count per superstep (GUI plot (i))."""
        return [s.converged for s in self._stats]

    def messages_series(self) -> list[int]:
        """Messages per superstep (GUI plot (ii) for CC)."""
        return [s.messages for s in self._stats]

    def l1_series(self) -> list[float | None]:
        """L1 deltas per superstep (GUI plot (ii) for PageRank)."""
        return [s.l1_delta for s in self._stats]

    def updates_series(self) -> list[int]:
        """Solution-set updates per superstep."""
        return [s.updates for s in self._stats]

    def duration_series(self) -> list[float]:
        """Simulated duration per superstep."""
        return [s.sim_duration for s in self._stats]

    def failure_supersteps(self) -> list[int]:
        """Supersteps during which a failure struck."""
        return [s.superstep for s in self._stats if s.failed]

    def total_messages(self) -> int:
        """Sum of the message series."""
        return sum(s.messages for s in self._stats)

    def total_sim_time(self) -> float:
        """Simulated seconds from first superstep start to last end."""
        if not self._stats:
            return 0.0
        return self._stats[-1].sim_time_end - self._stats[0].sim_time_start
