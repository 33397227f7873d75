"""User-defined function (UDF) wrappers.

Flink programs plug UDFs into higher-order operators (§2.1). The engine
accepts either plain callables or subclasses of the classes below; the
class form exists so stateless UDFs can carry a name and be unit-tested in
isolation, matching how the paper's dataflows name their functions
(``candidate-label``, ``fix-ranks``, ...).

Each wrapper is a thin callable adapter. Subclasses override
:meth:`apply` and the executor calls the instance. For a wrapper of
exactly one of these classes built with ``fn=``, the executor calls
``fn`` directly and skips the adapter frames
(:mod:`repro.runtime.executor`).
"""

from __future__ import annotations

from abc import ABC
from collections.abc import Iterator
from typing import Any, Callable, Iterable


class _NamedFunction(ABC):
    """Shared plumbing: every UDF has a human-readable name."""

    def __init__(self, name: str | None = None):
        self.name = name or type(self).__name__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class MapFunction(_NamedFunction):
    """One record in, one record out."""

    def __init__(self, fn: Callable[[Any], Any] | None = None, name: str | None = None):
        super().__init__(name)
        self._fn = fn

    def apply(self, record: Any) -> Any:
        if self._fn is None:
            raise NotImplementedError("override apply() or pass fn=")
        return self._fn(record)

    def __call__(self, record: Any) -> Any:
        return self.apply(record)


class FlatMapFunction(_NamedFunction):
    """One record in, zero or more records out."""

    def __init__(
        self,
        fn: Callable[[Any], Iterable[Any]] | None = None,
        name: str | None = None,
    ):
        super().__init__(name)
        self._fn = fn

    def apply(self, record: Any) -> Iterable[Any]:
        if self._fn is None:
            raise NotImplementedError("override apply() or pass fn=")
        return self._fn(record)

    def __call__(self, record: Any) -> Iterable[Any]:
        return self.apply(record)


class FilterFunction(_NamedFunction):
    """Keep a record iff the predicate returns True."""

    def __init__(self, fn: Callable[[Any], bool] | None = None, name: str | None = None):
        super().__init__(name)
        self._fn = fn

    def apply(self, record: Any) -> bool:
        if self._fn is None:
            raise NotImplementedError("override apply() or pass fn=")
        return bool(self._fn(record))

    def __call__(self, record: Any) -> bool:
        return self.apply(record)


class ReduceFunction(_NamedFunction):
    """Pairwise-associative combiner: ``(acc, value) -> acc``.

    Used by ``reduce_by_key``; the executor folds each key group left to
    right, so the function must be associative for the result to be
    partitioning-independent (the engine's tests verify this property for
    the library's built-in reducers).
    """

    def __init__(self, fn: Callable[[Any, Any], Any] | None = None, name: str | None = None):
        super().__init__(name)
        self._fn = fn

    def apply(self, left: Any, right: Any) -> Any:
        if self._fn is None:
            raise NotImplementedError("override apply() or pass fn=")
        return self._fn(left, right)

    def __call__(self, left: Any, right: Any) -> Any:
        return self.apply(left, right)


class GroupReduceFunction(_NamedFunction):
    """Whole-group reducer: ``(key, [records]) -> iterable of records``."""

    def __init__(
        self,
        fn: Callable[[Any, list[Any]], Iterable[Any]] | None = None,
        name: str | None = None,
    ):
        super().__init__(name)
        self._fn = fn

    def apply(self, key: Any, group: list[Any]) -> Iterable[Any]:
        if self._fn is None:
            raise NotImplementedError("override apply() or pass fn=")
        return self._fn(key, group)

    def __call__(self, key: Any, group: list[Any]) -> Iterable[Any]:
        return self.apply(key, group)


class JoinFunction(_NamedFunction):
    """Equi-join UDF: called once per matching ``(left, right)`` pair and
    may emit zero or more records (returning ``None`` emits nothing,
    returning an iterator via ``yield`` emits many, any other value emits
    exactly that value)."""

    def __init__(
        self,
        fn: Callable[[Any, Any], Any] | None = None,
        name: str | None = None,
    ):
        super().__init__(name)
        self._fn = fn

    def apply(self, left: Any, right: Any) -> Any:
        if self._fn is None:
            raise NotImplementedError("override apply() or pass fn=")
        return self._fn(left, right)

    def __call__(self, left: Any, right: Any) -> Any:
        return self.apply(left, right)


class CoGroupFunction(_NamedFunction):
    """Co-group UDF: ``(key, [left records], [right records]) -> iterable``.

    Unlike a join, the UDF also sees keys present on only one side, which
    the delta-iteration solution-set update needs (a candidate label with
    no current label must still be handled)."""

    def __init__(
        self,
        fn: Callable[[Any, list[Any], list[Any]], Iterable[Any]] | None = None,
        name: str | None = None,
    ):
        super().__init__(name)
        self._fn = fn

    def apply(self, key: Any, left: list[Any], right: list[Any]) -> Iterable[Any]:
        if self._fn is None:
            raise NotImplementedError("override apply() or pass fn=")
        return self._fn(key, left, right)

    def __call__(self, key: Any, left: list[Any], right: list[Any]) -> Iterable[Any]:
        return self.apply(key, left, right)


class CrossFunction(_NamedFunction):
    """Cartesian-product UDF: called for every ``(left, right)`` pair."""

    def __init__(
        self,
        fn: Callable[[Any, Any], Any] | None = None,
        name: str | None = None,
    ):
        super().__init__(name)
        self._fn = fn

    def apply(self, left: Any, right: Any) -> Any:
        if self._fn is None:
            raise NotImplementedError("override apply() or pass fn=")
        return self._fn(left, right)

    def __call__(self, left: Any, right: Any) -> Any:
        return self.apply(left, right)


def emitted(value: Any) -> Iterator[Any]:
    """Normalize a join/cross UDF return value into an emission stream.

    ``None`` emits nothing; a generator/iterator is drained; anything else
    is emitted as a single record. Tuples and lists count as single
    records because records themselves are tuples.
    """
    if value is None:
        return iter(())
    if isinstance(value, Iterator):
        return value
    return iter((value,))
