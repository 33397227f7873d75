"""Tests for catalog persistence: save/load round-trip and error cases."""

import json

import pytest

from repro.errors import ViewError
from repro.graph.graph import Graph
from repro.views import (
    ComponentMassView,
    ConnectedComponentsView,
    MutableGraph,
    PageRankView,
    ViewCatalog,
    ViewDefinition,
    load_catalog,
    save_catalog,
)
from repro.views.persistence import FORMAT_VERSION


def sample_catalog():
    catalog = ViewCatalog()
    mutable = MutableGraph(Graph([0, 1, 2, 3], [(0, 1), (2, 3)]))
    catalog.add_graph("graph", mutable)
    catalog.register(
        ViewDefinition(
            name="cc", algorithm=ConnectedComponentsView(), source="graph"
        )
    )
    catalog.register(
        ViewDefinition(
            name="pr",
            algorithm=PageRankView(damping=0.9, epsilon=1e-4),
            source="graph",
            target_lag=3,
        )
    )
    catalog.register(
        ViewDefinition(
            name="mass",
            algorithm=ComponentMassView(labels="cc", ranks="pr"),
            depends_on=("cc", "pr"),
            recovery="restart",
        )
    )
    return catalog, mutable


class TestRoundTrip:
    def test_definitions_survive_reload(self, tmp_path):
        catalog, mutable = sample_catalog()
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        loaded = load_catalog(path, graphs={"graph": mutable})

        assert loaded.topological_order() == catalog.topological_order()
        pr = loaded.view("pr").definition
        assert pr.algorithm.damping == 0.9
        assert pr.algorithm.epsilon == 1e-4
        assert pr.target_lag == 3
        mass = loaded.view("mass").definition
        assert mass.depends_on == ("cc", "pr")
        assert mass.recovery == "restart"
        assert mass.algorithm.labels == "cc"

    def test_materializations_survive_reload(self, tmp_path):
        catalog, mutable = sample_catalog()
        catalog.view("cc").install(4, ((0, 0), (1, 0), (2, 2), (3, 2)))
        catalog.view("pr").install(4, ((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)))
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        loaded = load_catalog(path, graphs={"graph": mutable})

        cc = loaded.view("cc")
        assert cc.is_materialized and cc.epoch == 4
        assert cc.read().records == ((0, 0), (1, 0), (2, 2), (3, 2))
        pr = loaded.view("pr")
        assert pr.read().records == ((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25))
        assert not loaded.view("mass").is_materialized

    def test_unmaterialized_views_stay_cold(self, tmp_path):
        catalog, mutable = sample_catalog()
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        loaded = load_catalog(path, graphs={"graph": mutable})
        for name in ("cc", "pr", "mass"):
            assert not loaded.view(name).is_materialized

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        catalog, _ = sample_catalog()
        save_catalog(catalog, tmp_path / "catalog.json")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "catalog.json"]
        assert leftovers == []


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ViewError, match="no persisted catalog"):
            load_catalog(tmp_path / "nope.json")

    def test_missing_graph(self, tmp_path):
        catalog, _ = sample_catalog()
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        with pytest.raises(ViewError, match="graph 'graph'"):
            load_catalog(path)  # graphs= not supplied

    def test_bad_format_version(self, tmp_path):
        catalog, mutable = sample_catalog()
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        payload = json.loads(path.read_text())
        payload["format"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ViewError, match="format"):
            load_catalog(path, graphs={"graph": mutable})

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("{torn")
        with pytest.raises(ViewError, match="not valid JSON"):
            load_catalog(path)

    def test_unknown_algorithm_kind(self, tmp_path):
        catalog, mutable = sample_catalog()
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        payload = json.loads(path.read_text())
        payload["views"][0]["algorithm"]["kind"] = "mystery-view"
        path.write_text(json.dumps(payload))
        with pytest.raises(ViewError, match="unknown persisted algorithm"):
            load_catalog(path, graphs={"graph": mutable})



def _saved(tmp_path):
    """Save the sample catalog; return its path, its parsed JSON payload
    and the graphs :func:`load_catalog` needs."""
    catalog, mutable = sample_catalog()
    path = tmp_path / "catalog.json"
    save_catalog(catalog, path)
    return path, json.loads(path.read_text()), {"graph": mutable}


class TestMalformedCatalogs:
    def test_retired_execution_cache_key_is_dropped(self, tmp_path):
        """Catalogs saved while ``EngineConfig`` had an ``execution_cache``
        field still load: the cache never changed a result."""
        path, payload, graphs = _saved(tmp_path)
        payload["views"][0]["config"]["execution_cache"] = "off"
        path.write_text(json.dumps(payload))
        loaded = load_catalog(path, graphs=graphs)
        assert loaded.topological_order() == ["cc", "pr", "mass"]

    def test_unknown_config_key(self, tmp_path):
        path, payload, graphs = _saved(tmp_path)
        payload["views"][0]["config"]["bogus"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ViewError, match="malformed view entry.*bogus"):
            load_catalog(path, graphs=graphs)

    def test_missing_config(self, tmp_path):
        path, payload, graphs = _saved(tmp_path)
        del payload["views"][0]["config"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ViewError, match="malformed view entry.*KeyError"):
            load_catalog(path, graphs=graphs)

    def test_view_entry_not_an_object(self, tmp_path):
        path, payload, graphs = _saved(tmp_path)
        payload["views"] = [1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ViewError, match="malformed view entry 0: "):
            load_catalog(path, graphs=graphs)

    def test_records_not_rows(self, tmp_path):
        path, payload, graphs = _saved(tmp_path)
        payload["views"][0]["epoch"] = 4
        payload["views"][0]["records"] = [[i, i] for i in range(10_000)] + [1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ViewError, match="malformed view entry 0 \\('cc'\\)") as info:
            load_catalog(path, graphs=graphs)
        # The entry is named, not echoed: its records stay out of the message.
        assert len(str(info.value)) < 300

    @pytest.mark.parametrize("section", ["graphs", "views"])
    def test_section_not_a_list(self, tmp_path, section):
        path, payload, graphs = _saved(tmp_path)
        payload[section] = 5
        path.write_text(json.dumps(payload))
        with pytest.raises(ViewError, match=f"'{section}' is not a list"):
            load_catalog(path, graphs=graphs)

    def test_top_level_list(self, tmp_path):
        path, payload, graphs = _saved(tmp_path)
        path.write_text(json.dumps([payload]))
        with pytest.raises(ViewError, match="is a JSON list, not an object"):
            load_catalog(path, graphs=graphs)
