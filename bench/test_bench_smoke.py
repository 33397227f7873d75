"""Self-test of the benchmark: ``python -m pytest bench/``.

Runs the whole suite once on tiny inputs (``--smoke``, under 30 s) and
checks the contract between ``BENCHMARK.json``, the runner's output and
``compare.py``. Not part of the repo's tier-1 tests (``testpaths`` is
``tests``); the performance numbers of a smoke run mean nothing.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = subprocess.run(RUN + ["--smoke", "--seed", "3", "--out", str(out)], cwd=ROOT, timeout=300)
    assert done.returncode == 0
    return json.loads(out.read_text(encoding="utf-8"))


def _reported(entry: dict) -> bool:
    """A finite number, or an explicit skip with its reason."""
    if entry["value"] is None:
        return bool(entry.get("skipped"))
    return isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


def test_spec_is_within_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_names_what_the_code_measures():
    import bench.run  # noqa: F401  (puts src/ on the path)
    from bench import probes, spans
    from bench.workloads import all_workloads

    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: workload.why for name, workload in all_workloads().items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {**spans.METRICS, **probes.all_metrics()}


def test_suite_reports_every_workload_and_metric(suite):
    assert list(suite["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, workload in suite["workloads"].items():
        assert workload["correct"] and workload["failed"] == 0, workload["failures"]
        for metric in SPEC["end_to_end"]:
            entry = workload["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] is not None and math.isfinite(entry["value"]) and entry["value"] > 0, (name, metric)
        for metric in SPEC["per_layer"]:
            entry = workload["per_layer"].get(metric["name"]) or suite["probes"][metric["name"]]
            assert entry["unit"] == metric["unit"] and _reported(entry), (name, metric)
        assert len(workload["calib_ms"]) >= 2
    assert {"nproc", "python", "numpy", "git_commit", "loadavg", "calib_ms"} <= set(suite["fingerprint"])
    assert Path(suite["probes_trace_file"]).stat().st_size > 0


def test_driver_line_has_exactly_the_contract_keys():
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = subprocess.run(
            RUN + ["--workload", "cc-delta", "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
        assert all(set(m) == {"value", "unit"} and math.isfinite(m["value"]) for m in line["metrics"].values())


def test_any_integer_is_a_seed():
    # numpy's RandomState (under the views scenario's generator) takes 0..2**32-1.
    for seed in (2**32 + 5, 2**63 - 1, -3):
        done = subprocess.run(
            RUN + ["--workload", "views-refresh", "--seed", str(seed), "--seconds", "0.5", "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True


def test_a_probe_whose_target_is_gone_is_skipped_not_failed(monkeypatch):
    import bench.run  # noqa: F401
    from bench import probes
    from bench.harness import BenchTracer

    def gone(ctx):
        from repro.runtime import no_such_backend  # noqa: F401

    def removed_field(ctx):
        from repro import EngineConfig

        EngineConfig(no_such_mode=True)

    monkeypatch.setattr(probes, "PROBES", [(gone, {"x.gone_s": "s"}), (removed_field, {"x.field_s": "s"})])
    report = probes.run_probes(seed=1, smoke=True, bench=BenchTracer("test"))
    assert report["x.gone_s"]["value"] is None and "ImportError" in report["x.gone_s"]["skipped"]
    assert report["x.field_s"]["value"] is None and "TypeError" in report["x.field_s"]["skipped"]


def _record(value: float, rounds: list[float], calib: float = 100.0, supersteps: int = 33) -> dict:
    entry = {"value": value, "unit": "s", "rounds": rounds}
    layers = {"iteration.supersteps": {"value": supersteps, "unit": "count"}}
    return {
        "seed": 7,
        "end_to_end_spec": {"wall_s": {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10}},
        "workloads": {
            "w": {"end_to_end": {"wall_s": entry}, "per_layer": layers, "calib_ms": [calib, calib], "failed": 0}
        },
    }


def test_compare_classifies_better_worse_and_unresolved(tmp_path):
    from bench import compare

    base = _record(1.00, [0.99, 1.01])
    verdicts = {
        "better": compare.compare(base, _record(0.80, [0.79, 0.81]))[0]["verdict"],
        "worse": compare.compare(base, _record(1.30, [1.29, 1.31]))[0]["verdict"],
        "noisy": compare.compare(base, _record(1.30, [1.05, 1.55]))[0]["verdict"],
        "host drifted": compare.compare(base, _record(1.30, [1.29, 1.31], calib=130.0))[0]["verdict"],
        "noisy but every round better": compare.compare(base, _record(0.60, [0.50, 0.70]))[0]["verdict"],
    }
    assert verdicts == {
        "better": "ok",
        "worse": "worse",
        "noisy": "unresolved",
        "host drifted": "unresolved",
        "noisy but every round better": "ok",
    }
    changed_count = compare.compare(base, _record(1.00, [0.99, 1.01], supersteps=34))
    assert [(row["metric"], row["verdict"]) for row in changed_count] == [
        ("wall_s", "ok"),
        ("iteration.supersteps", "worse"),
    ]
    paths = []
    for name, record in (("a", base), ("b", _record(1.30, [1.29, 1.31]))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record), encoding="utf-8")
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert compare.main([str(paths[0]), str(paths[1])]) == 1
