"""Matrix factorization with ALS as a bulk iteration (extension scope).

The CIKM-13 paper behind this demo evaluates optimistic recovery on three
algorithm families: link analysis (PageRank), path problems (Connected
Components) and **low-rank matrix factorization for recommender
systems** — Alternating Least Squares. This module reproduces the third
family.

Model: given sparse ratings ``r_ui``, find rank-``k`` factors ``u_u`` and
``v_i`` minimizing::

    sum (r_ui - u_u . v_i)^2  +  lam * (sum ||u_u||^2 + sum ||v_i||^2)

ALS alternates: fix the item factors and solve a small regularized k x k
least-squares system per user, then fix the users and solve per item. One
superstep of the bulk iteration performs a full alternation (users, then
items, using the freshly updated users — exactly classic ALS).

State records are ``((kind, id), vector)`` with ``kind`` in
``{"u", "i"}``; the ratings are a loop-invariant input.

Compensation ``fix-factors``: re-initialize lost factor vectors to their
(seeded, per-entity deterministic) random initial values. This is
consistent for ALS: *any* factor assignment is a legal model state, and
each subsequent half-step exactly minimizes the objective over its block,
so the loss is non-increasing from the compensated state onward — the
same argument Schelter et al. make for the factorization family.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..core.compensation import CompensationContext, CompensationFunction
from ..core.guarantees import KeySetPreserved
from ..dataflow.datatypes import KeySpec
from ..dataflow.plan import Plan
from ..errors import GraphError
from ..iteration.bulk import BulkIterationSpec
from ..iteration.termination import FixedSupersteps
from .base import BulkJob

#: the (kind, id) key the factor state is partitioned by.
FACTOR_KEY: KeySpec = KeySpec("factor", lambda record: record[0])

#: key specs used by the rating joins (names differ on purpose: ratings
#: are re-partitioned between the user and item half-steps).
_RATING_BY_ITEM = KeySpec("rating-item", lambda record: record[1])
_RATING_BY_USER = KeySpec("rating-user", lambda record: record[0])
_FACTOR_ID = KeySpec("factor-id", lambda record: record[0][1])

#: counter whose per-superstep increase is the "messages" statistic.
MESSAGE_COUNTER = "records_in.update-user-factors"


def initial_factor(kind: str, entity_id: int, rank: int, seed: int) -> tuple[float, ...]:
    """The deterministic random initial factor of one entity.

    Seeded per ``(kind, id)`` so the dataflow job, the reference
    implementation and the compensation function all regenerate the exact
    same vector independently.
    """
    # string seeds go through SHA-512 in CPython, which is stable across
    # processes (unlike hash() of tuples under PYTHONHASHSEED)
    rng = random.Random(f"{seed}/{kind}/{entity_id}")
    return tuple(rng.uniform(0.0, 1.0) for _ in range(rank))


def _solve_block(
    pairs: Sequence[tuple[float, Sequence[float]]], rank: int, lam: float
) -> tuple[float, ...]:
    """Solve one regularized least-squares block: given ``(rating,
    other-side vector)`` pairs, return the minimizing factor."""
    import numpy as np  # deferred: importing the package stays light

    gram = np.zeros((rank, rank))
    rhs = np.zeros(rank)
    for rating, vector in pairs:
        v = np.asarray(vector)
        gram += np.outer(v, v)
        rhs += rating * v
    gram += lam * len(pairs) * np.eye(rank)
    solution = np.linalg.solve(gram, rhs)
    return tuple(float(x) for x in solution)


def als_plan(rank: int, lam: float) -> Plan:
    """Build the ALS step dataflow.

    Sources: ``factors`` (state) and ``ratings`` (static
    ``(user, item, rating)`` records). Sink: ``next-factors``. One
    superstep recomputes all user factors against the current item
    factors, then all item factors against the *new* user factors.
    """
    plan = Plan("als-step")
    factors = plan.source("factors", partitioned_by=FACTOR_KEY)
    ratings = plan.source("ratings")

    item_factors = factors.filter(lambda r: r[0][0] == "i", name="select-item-factors")
    user_factors = factors.filter(lambda r: r[0][0] == "u", name="select-user-factors")

    # -- user half-step: gather item vectors per rating, solve per user
    rated_items = ratings.join(
        item_factors,
        left_key=_RATING_BY_ITEM,
        right_key=_FACTOR_ID,
        fn=lambda rating, factor: (rating[0], rating[2], factor[1]),
        name="gather-item-vectors",
    )
    new_users = rated_items.group_reduce(
        KeySpec("user", lambda record: record[0]),
        fn=lambda user, group: [
            (("u", user), _solve_block([(g[1], g[2]) for g in group], rank, lam))
        ],
        name="update-user-factors",
    )

    # -- item half-step against the fresh user factors
    rated_users = ratings.join(
        new_users,
        left_key=_RATING_BY_USER,
        right_key=_FACTOR_ID,
        fn=lambda rating, factor: (rating[1], rating[2], factor[1]),
        name="gather-user-vectors",
    )
    new_items = rated_users.group_reduce(
        KeySpec("item", lambda record: record[0]),
        fn=lambda item, group: [
            (("i", item), _solve_block([(g[1], g[2]) for g in group], rank, lam))
        ],
        name="update-item-factors",
    )

    new_users.union(new_items, name="next-factors")
    return plan


class AlsCompensation(CompensationFunction):
    """``fix-factors``: re-initialize lost factors to their seeded
    random initial vectors."""

    name = "fix-factors"

    def __init__(self, rank: int, seed: int):
        self.rank = rank
        self.seed = seed

    def compensate_partition(
        self,
        partition_id: int,
        records: list[Any] | None,
        aggregate: Any,
        ctx: CompensationContext,
    ) -> list[Any]:
        if records is not None:
            return records
        rebuilt = []
        for record in ctx.initial_partition(partition_id):
            kind, entity_id = record[0]
            rebuilt.append(
                (record[0], initial_factor(kind, entity_id, self.rank, self.seed))
            )
        return rebuilt


@dataclass(frozen=True)
class RatingsDataset:
    """A sparse rating matrix as ``(user, item, rating)`` triples."""

    ratings: tuple[tuple[int, int, float], ...]

    @property
    def users(self) -> list[int]:
        return sorted({r[0] for r in self.ratings})

    @property
    def items(self) -> list[int]:
        return sorted({r[1] for r in self.ratings})

    def __len__(self) -> int:
        return len(self.ratings)


def synthetic_ratings(
    num_users: int,
    num_items: int,
    rank: int = 3,
    density: float = 0.3,
    noise: float = 0.05,
    seed: int = 42,
) -> RatingsDataset:
    """Generate ratings from planted latent factors plus Gaussian noise.

    Every user and item is guaranteed at least one rating (ALS cannot
    update an entity with no observations).
    """
    if not 0.0 < density <= 1.0:
        raise GraphError(f"density must be in (0, 1], got {density}")
    rng = random.Random(seed)
    user_latent = [[rng.uniform(0, 1) for _ in range(rank)] for _ in range(num_users)]
    item_latent = [[rng.uniform(0, 1) for _ in range(rank)] for _ in range(num_items)]

    def rating_of(user: int, item: int) -> float:
        clean = sum(a * b for a, b in zip(user_latent[user], item_latent[item]))
        return clean + rng.gauss(0.0, noise)

    triples: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for user in range(num_users):
        item = rng.randrange(num_items)
        triples.append((user, item, rating_of(user, item)))
        seen.add((user, item))
    for item in range(num_items):
        user = rng.randrange(num_users)
        if (user, item) not in seen:
            triples.append((user, item, rating_of(user, item)))
            seen.add((user, item))
    for user in range(num_users):
        for item in range(num_items):
            if (user, item) not in seen and rng.random() < density:
                triples.append((user, item, rating_of(user, item)))
                seen.add((user, item))
    return RatingsDataset(tuple(triples))


def als_rmse(
    factors: dict[tuple[str, int], Sequence[float]],
    ratings: Iterable[tuple[int, int, float]],
) -> float:
    """Root-mean-square reconstruction error of a factor state."""
    squared = 0.0
    count = 0
    for user, item, rating in ratings:
        prediction = sum(
            a * b for a, b in zip(factors[("u", user)], factors[("i", item)])
        )
        squared += (rating - prediction) ** 2
        count += 1
    return (squared / count) ** 0.5 if count else 0.0


def exact_als(
    dataset: RatingsDataset,
    rank: int,
    iterations: int,
    lam: float = 0.05,
    seed: int = 42,
) -> dict[tuple[str, int], tuple[float, ...]]:
    """Reference ALS: same initialization, same alternation order,
    implemented directly (no dataflow engine)."""
    factors: dict[tuple[str, int], tuple[float, ...]] = {}
    for user in dataset.users:
        factors[("u", user)] = initial_factor("u", user, rank, seed)
    for item in dataset.items:
        factors[("i", item)] = initial_factor("i", item, rank, seed)
    by_user: dict[int, list[tuple[float, int]]] = {}
    by_item: dict[int, list[tuple[float, int]]] = {}
    for user, item, rating in dataset.ratings:
        by_user.setdefault(user, []).append((rating, item))
        by_item.setdefault(item, []).append((rating, user))
    for _ in range(iterations):
        for user, observations in by_user.items():
            pairs = [(rating, factors[("i", item)]) for rating, item in observations]
            factors[("u", user)] = _solve_block(pairs, rank, lam)
        for item, observations in by_item.items():
            pairs = [(rating, factors[("u", user)]) for rating, user in observations]
            factors[("i", item)] = _solve_block(pairs, rank, lam)
    return factors


def als(
    dataset: RatingsDataset,
    rank: int = 3,
    iterations: int = 10,
    lam: float = 0.05,
    seed: int = 42,
) -> BulkJob:
    """Build a runnable ALS job over ``dataset``.

    The state holds one factor vector per user and item; the job runs
    exactly ``iterations`` full alternations.
    """
    if rank < 1:
        raise GraphError(f"rank must be >= 1, got {rank}")
    if not dataset.ratings:
        raise GraphError("cannot factorize an empty rating matrix")
    initial = [
        (("u", user), initial_factor("u", user, rank, seed)) for user in dataset.users
    ] + [
        (("i", item), initial_factor("i", item, rank, seed)) for item in dataset.items
    ]
    spec = BulkIterationSpec(
        name="als",
        step_plan=als_plan(rank, lam),
        state_source="factors",
        next_state_output="next-factors",
        state_key=FACTOR_KEY,
        termination=FixedSupersteps(iterations),
        # failure-hit supersteps do not count toward FixedSupersteps
        max_supersteps=iterations * 2 + 10,
        message_counter=MESSAGE_COUNTER,
    )
    return BulkJob(
        spec=spec,
        initial_records=initial,
        statics={"ratings": list(dataset.ratings)},
        compensation=AlsCompensation(rank, seed),
        invariants=[KeySetPreserved()],
    )
