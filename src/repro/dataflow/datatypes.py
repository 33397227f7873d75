"""Record and key conventions.

Records are plain Python tuples (or any immutable values); the engine does
not impose a schema. Keyed operations take a :class:`KeySpec`, which pairs
an extractor function with a stable *name*. Two datasets partitioned by
key specs with the same name are considered co-partitioned, which lets the
executor skip redundant shuffles — the same reasoning Flink's optimizer
applies to its co-located solution sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Hashable


@dataclass(frozen=True)
class KeySpec:
    """A named key extractor.

    Attributes:
        name: stable identifier used for co-partitioning decisions; two
            specs with equal names must extract equal keys from the
            records they are applied to.
        extractor: function mapping a record to a hashable key.
    """

    name: str
    extractor: Callable[[Any], Hashable]

    def __call__(self, record: Any) -> Hashable:
        return self.extractor(record)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KeySpec) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"KeySpec({self.name!r})"


def first_field(name: str = "field0") -> KeySpec:
    """Key on ``record[0]`` — the library-wide convention for vertex ids."""
    return KeySpec(name, itemgetter(0))


def second_field(name: str = "field1") -> KeySpec:
    """Key on ``record[1]`` (e.g. the target vertex of an edge tuple)."""
    return KeySpec(name, itemgetter(1))
