"""Simulated cost clock.

Real wall-clock measurements of a single-process simulator would say
nothing about the paper's cluster-level trade-offs (checkpoint I/O vs.
recomputation vs. compensation). Instead, every runtime component charges
its work to a :class:`SimulatedClock` using the cost constants from
:class:`repro.config.CostModel`. Experiments then compare deterministic
simulated times whose *ratios* reflect the modeled cluster.

The clock is a count ledger: it holds one integer per cost constant
(records checkpointed, workers acquired, ...) and computes simulated time
on read, as a fixed-order dot product of those counts with the cost
model. Integer additions commute, so the order in which components charge
never changes the simulated time.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Sequence

from ..config import CostModel
from ..errors import ConfigError


class CostCategory(enum.Enum):
    """Buckets that simulated time is charged to.

    Keeping per-category accounts lets benchmarks decompose total runtime
    into compute / network / checkpoint-I/O / recovery components, which is
    how the paper argues about failure-free overhead.
    """

    COMPUTE = "compute"
    NETWORK = "network"
    CHECKPOINT_IO = "checkpoint_io"
    RESTORE_IO = "restore_io"
    RECOVERY = "recovery"
    COMPENSATION = "compensation"
    LOG_IO = "log_io"
    REPLAY = "replay"


#: The ledger's slots, in dot-product order: one per :class:`CostModel`
#: constant, with the category its charges are accounted to.
LEDGER: tuple[tuple[str, CostCategory], ...] = (
    ("cpu_per_record", CostCategory.COMPUTE),
    ("network_per_record", CostCategory.NETWORK),
    ("checkpoint_per_record", CostCategory.CHECKPOINT_IO),
    ("restore_per_record", CostCategory.RESTORE_IO),
    ("failure_detection", CostCategory.RECOVERY),
    ("worker_acquisition", CostCategory.RECOVERY),
    ("compensation_per_record", CostCategory.COMPENSATION),
    ("log_per_record", CostCategory.LOG_IO),
    ("replay_per_record", CostCategory.REPLAY),
)
(_CPU, _NETWORK, _CHECKPOINT, _RESTORE, _DETECTION, _ACQUISITION,
 _COMPENSATION, _LOG, _REPLAY) = range(len(LEDGER))


@dataclass
class SimulatedClock:
    """Counts charged work per cost constant; reports it as simulated time.

    Attributes:
        cost_model: the constants the counts are priced with.
    """

    cost_model: CostModel = field(default_factory=CostModel)
    _counts: list[int] = field(init=False)
    _rates: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._counts = [0] * len(LEDGER)
        self._rates = tuple(float(getattr(self.cost_model, name)) for name, _ in LEDGER)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return sum(map(operator.mul, self._counts, self._rates))

    def spent(self, category: CostCategory) -> float:
        """Simulated seconds charged to ``category`` so far."""
        return self.accounts().get(category, 0.0)

    def breakdown(self) -> dict[str, float]:
        """Return ``{category value: seconds}`` for every charged category."""
        return {cat.value: secs for cat, secs in sorted(self.accounts().items(), key=lambda kv: kv[0].value)}

    def accounts(self) -> dict[CostCategory, float]:
        """Simulated seconds per category that has been charged.

        Tracers snapshot this at span boundaries to attribute cost deltas
        to spans; reading it never advances the clock.
        """
        accounts: dict[CostCategory, float] = {}
        for count, rate, (_, category) in zip(self._counts, self._rates, LEDGER):
            if count:
                accounts[category] = accounts.get(category, 0.0) + count * rate
        return accounts

    def counts(self) -> tuple[int, ...]:
        """A snapshot of the ledger: one count per :data:`LEDGER` slot."""
        return tuple(self._counts)

    def add(self, counts: Sequence[int]) -> None:
        """Apply a count vector (e.g. a difference of two :meth:`counts`)."""
        if len(counts) != len(LEDGER) or min(counts) < 0:
            raise ConfigError(f"not a count vector over the {len(LEDGER)} ledger slots: {counts!r}")
        self._counts = list(map(operator.add, self._counts, counts))

    def _charge(self, slot: int, count: int) -> None:
        if count < 0:
            raise ConfigError(f"cannot charge a negative count {count} to {LEDGER[slot][0]}")
        self._counts[slot] += count

    # -- record-count helpers -------------------------------------------------

    def charge_compute(self, records: int) -> None:
        """Charge CPU time for pushing ``records`` through one operator."""
        self._charge(_CPU, records)

    def charge_network(self, records: int) -> None:
        """Charge network time for shuffling ``records``."""
        self._charge(_NETWORK, records)

    def charge_checkpoint(self, records: int) -> None:
        """Charge stable-storage write time for checkpointing ``records``."""
        self._charge(_CHECKPOINT, records)

    def charge_restore(self, records: int) -> None:
        """Charge stable-storage read time for restoring ``records``."""
        self._charge(_RESTORE, records)

    def charge_failure_detection(self) -> None:
        """Charge the flat cost of detecting a failure and pausing."""
        self._charge(_DETECTION, 1)

    def charge_worker_acquisition(self, workers: int = 1) -> None:
        """Charge the flat cost of acquiring ``workers`` replacements."""
        self._charge(_ACQUISITION, workers)

    def charge_compensation(self, records: int) -> None:
        """Charge the cost of running a compensation function over state."""
        self._charge(_COMPENSATION, records)

    def charge_log(self, records: int) -> None:
        """Charge the cost of appending ``records`` to the message log."""
        self._charge(_LOG, records)

    def charge_replay(self, records: int) -> None:
        """Charge the cost of replaying ``records`` of logged messages."""
        self._charge(_REPLAY, records)
