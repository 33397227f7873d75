"""Catalog persistence: definitions + materializations survive a restart.

:func:`save_catalog` writes a :class:`~repro.views.catalog.ViewCatalog`
to one JSON spool file — every view's definition (algorithm kind +
constructor kwargs, source/parents, lag/threshold/engine/recovery knobs)
plus its current materialization (last installed epoch and records).
:func:`load_catalog` rebuilds the catalog from that file: definitions
re-register in the stored (topological) order, materializations
re-install, and a restarted service resumes refreshing from the
persisted epoch instead of recomputing every view cold.

Mutable graphs are *not* persisted — they are live data owned by the
application — so ``load_catalog`` takes the re-registered graphs as an
argument and validates that every graph-rooted view finds its source.
Algorithms are rebuilt through a registry keyed by the adapter's
``name`` (``pagerank-view``, ``components-view``, ``component-mass-view``);
custom adapters register with :func:`register_algorithm`.

Writes are atomic (temp file + ``os.replace``), the same discipline as
the service spool: a reader never observes a torn catalog.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable

from ..config import CostModel, EngineConfig
from ..errors import ViewError
from .algorithms import (
    ComponentMassView,
    ConnectedComponentsView,
    PageRankView,
    ViewAlgorithm,
)
from .catalog import NEVER_MATERIALIZED, ViewCatalog, ViewDefinition
from .mutable_graph import MutableGraph

#: catalog file format version (bump on incompatible layout changes).
FORMAT_VERSION = 1

_ALGORITHM_BUILDERS: dict[str, Callable[..., ViewAlgorithm]] = {}
_ALGORITHM_KWARGS: dict[str, Callable[[ViewAlgorithm], dict[str, Any]]] = {}


def register_algorithm(
    kind: str,
    builder: Callable[..., ViewAlgorithm],
    kwargs_of: Callable[[ViewAlgorithm], dict[str, Any]],
) -> None:
    """Register a view-algorithm kind for persistence.

    ``builder(**kwargs)`` must reconstruct an equivalent adapter from
    what ``kwargs_of(adapter)`` returned when the catalog was saved.
    """
    _ALGORITHM_BUILDERS[kind] = builder
    _ALGORITHM_KWARGS[kind] = kwargs_of


register_algorithm(
    "pagerank-view",
    PageRankView,
    lambda a: {
        "damping": a.damping,
        "epsilon": a.epsilon,
        "max_supersteps": a.max_supersteps,
    },
)
register_algorithm(
    "components-view",
    ConnectedComponentsView,
    lambda a: {"max_supersteps": a.max_supersteps},
)
register_algorithm(
    "component-mass-view",
    ComponentMassView,
    lambda a: {"labels": a.labels, "ranks": a.ranks},
)


def _algorithm_to_dict(algorithm: ViewAlgorithm) -> dict[str, Any]:
    kind = algorithm.name
    if kind not in _ALGORITHM_KWARGS:
        raise ViewError(
            f"algorithm {kind!r} has no registered persistence adapter; "
            f"call repro.views.persistence.register_algorithm first"
        )
    return {"kind": kind, "kwargs": _ALGORITHM_KWARGS[kind](algorithm)}


def _algorithm_from_dict(data: dict[str, Any]) -> ViewAlgorithm:
    kind = data.get("kind")
    if kind not in _ALGORITHM_BUILDERS:
        raise ViewError(f"unknown persisted algorithm kind {kind!r}")
    return _ALGORITHM_BUILDERS[kind](**data.get("kwargs", {}))


def save_catalog(catalog: ViewCatalog, path: str | os.PathLike[str]) -> None:
    """Persist ``catalog`` (definitions + materializations) atomically."""
    views: list[dict[str, Any]] = []
    for name in catalog.topological_order():
        view = catalog.view(name)
        definition = view.definition
        entry: dict[str, Any] = {
            "name": definition.name,
            "algorithm": _algorithm_to_dict(definition.algorithm),
            "source": definition.source,
            "depends_on": list(definition.depends_on),
            "target_lag": definition.target_lag,
            "warm_threshold": definition.warm_threshold,
            "config": asdict(definition.config),
            "recovery": definition.recovery,
            "epoch": view.epoch,
            "records": None,
        }
        if view.is_materialized:
            entry["records"] = [[key, value] for key, value in view.read().records]
        views.append(entry)
    payload = {
        "format": FORMAT_VERSION,
        "graphs": catalog.graph_names(),
        "views": views,
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    os.replace(tmp, target)


#: ``EngineConfig`` fields that older catalogs carry and this version
#: ignores on load: the superstep execution cache never changed results.
_RETIRED_CONFIG_KEYS = ("execution_cache",)


def _definition_from_entry(entry: dict[str, Any]) -> ViewDefinition:
    config_data = dict(entry["config"])
    for key in _RETIRED_CONFIG_KEYS:
        config_data.pop(key, None)
    config_data["cost_model"] = CostModel(**config_data["cost_model"])
    return ViewDefinition(
        name=entry["name"],
        algorithm=_algorithm_from_dict(entry["algorithm"]),
        source=entry["source"],
        depends_on=tuple(entry["depends_on"]),
        target_lag=entry["target_lag"],
        warm_threshold=entry["warm_threshold"],
        config=EngineConfig(**config_data),
        recovery=entry["recovery"],
    )


def load_catalog(
    path: str | os.PathLike[str],
    graphs: dict[str, MutableGraph] | None = None,
) -> ViewCatalog:
    """Rebuild a catalog from a file :func:`save_catalog` wrote.

    ``graphs`` supplies the live mutable graphs graph-rooted views need,
    keyed by their registered names; a missing graph is a
    :class:`repro.errors.ViewError` (the persisted definition would
    dangle). Materialized views come back at their persisted epoch with
    their persisted records installed. A file that is not a catalog —
    wrong shape, missing or unknown fields — is a ``ViewError`` too.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ViewError(f"no persisted catalog at {path}") from None
    except json.JSONDecodeError as exc:
        raise ViewError(f"persisted catalog at {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ViewError(
            f"persisted catalog at {path} is a JSON {type(payload).__name__}, not an object"
        )
    if payload.get("format") != FORMAT_VERSION:
        raise ViewError(
            f"persisted catalog format {payload.get('format')!r} is not "
            f"the supported version {FORMAT_VERSION}"
        )
    for section in ("graphs", "views"):
        if not isinstance(payload.get(section, []), list):
            raise ViewError(f"persisted catalog at {path}: {section!r} is not a list")
    graphs = graphs or {}
    catalog = ViewCatalog()
    for name in payload.get("graphs", []):
        if name not in graphs:
            raise ViewError(
                f"persisted catalog needs graph {name!r}; pass it via graphs="
            )
        catalog.add_graph(name, graphs[name])
    for index, entry in enumerate(payload.get("views", [])):
        try:
            definition = _definition_from_entry(entry)
            epoch = entry.get("epoch", NEVER_MATERIALIZED)
            records = entry.get("records")
            if records is not None:
                records = tuple(tuple(record) for record in records)
        except (KeyError, TypeError, AttributeError) as exc:
            # Name the entry, never echo it: a materialized entry holds
            # every persisted record.
            label = f"{index}"
            if isinstance(entry, dict) and "name" in entry:
                label += f" ({entry['name']!r})"
            raise ViewError(
                f"persisted catalog at {path} has a malformed view entry "
                f"{label}: {type(exc).__name__}: {exc}"
            ) from None
        view = catalog.register(definition)
        if epoch != NEVER_MATERIALIZED and records is not None:
            view.install(epoch, records)
    return catalog
