"""Compare two suite records: ``python3 bench/compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians, how much worse B
is than A as a share of A, the metric's bound, and a verdict —

* ``ok``: B is not worse than A by more than the bound;
* ``worse``: it is, and the measurement was steady enough to say so;
* ``unresolved``: the spread of either side (how far its two rounds
  disagree), or the drift of the host calibration loop between the two
  records, is wider than the bound, so the row cannot tell a change from
  noise — unless every round of B reads better than every round of A,
  which is ``ok``.

Counts and simulated time (per-layer metrics in ``count`` or ``sim_s``)
must repeat exactly when both records used the same seed; one that does
not is a ``worse`` row of its own.

Exits non-zero on any ``worse``. A and B are ``--out`` files of
``bench/run.py`` (the same commit twice for the A/A check, or a parent
and a change).
"""

from __future__ import annotations

import json
import sys
from typing import Any


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def spread(entry: dict[str, Any]) -> float:
    """Range of the per-round values over the pooled value: how far two
    complete fresh-interpreter runs of one commit disagreed. A record of
    a single round (``--smoke``) cannot know, which reads as infinite."""
    rounds = entry.get("rounds", [])
    if len(rounds) < 2:
        return float("inf")
    if not entry["value"]:
        return 0.0
    return (max(rounds) - min(rounds)) / abs(entry["value"])


def all_better(a: dict[str, Any], b: dict[str, Any], better: str) -> bool:
    """Every round of B reads better than every round of A."""
    rounds_a, rounds_b = a.get("rounds", [a["value"]]), b.get("rounds", [b["value"]])
    if better == "lower":
        return max(rounds_b) < min(rounds_a)
    return min(rounds_b) > max(rounds_a)


def calibration_drift(a: list[float], b: list[float]) -> float:
    """Relative gap between the two records' median calibration readings."""
    mid_a, mid_b = sorted(a)[len(a) // 2], sorted(b)[len(b) // 2]
    return abs(mid_b - mid_a) / mid_a


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float, drift: float) -> str:
    delta = worsening(a["value"], b["value"], better)
    noisy = max(spread(a), spread(b), drift) > bound
    if noisy and not all_better(a, b, better):
        return "unresolved"
    return "worse" if delta > bound else "ok"


def compare(record_a: dict[str, Any], record_b: dict[str, Any]) -> list[dict[str, Any]]:
    """The comparison rows, in workload then metric order."""
    spec = record_a["end_to_end_spec"]
    rows = []
    for workload, side_a in record_a["workloads"].items():
        side_b = record_b["workloads"].get(workload)
        if side_b is None:
            continue
        drift = calibration_drift(side_a["calib_ms"], side_b["calib_ms"])
        for name, entry_a in side_a["end_to_end"].items():
            entry_b = side_b["end_to_end"].get(name)
            if entry_b is None or name not in spec:
                continue
            better, bound = spec[name]["better"], spec[name]["bound"]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": entry_a["unit"],
                    "a": entry_a["value"],
                    "b": entry_b["value"],
                    "worse_by": worsening(entry_a["value"], entry_b["value"], better),
                    "spread": max(spread(entry_a), spread(entry_b)),
                    "calib_drift": drift,
                    "bound": bound,
                    "verdict": verdict(entry_a, entry_b, better, bound, drift),
                }
            )
        if side_a["failed"] != side_b["failed"]:
            rows.append(
                {
                    "workload": workload, "metric": "failed", "unit": "count",
                    "a": side_a["failed"], "b": side_b["failed"],
                    "worse_by": float(side_b["failed"] - side_a["failed"]), "spread": 0.0,
                    "calib_drift": drift, "bound": 0.0,
                    "verdict": "worse" if side_b["failed"] > side_a["failed"] else "ok",
                }
            )
    if record_a.get("seed") == record_b.get("seed"):
        rows.extend(exact_rows(record_a, record_b))
    return rows


def exact_rows(record_a: dict[str, Any], record_b: dict[str, Any]) -> list[dict[str, Any]]:
    """Rows for the exact per-layer metrics that differ between the records."""
    layers = [("probes", record_a.get("probes", {}), record_b.get("probes", {}))] + [
        (name, side["per_layer"], record_b["workloads"][name]["per_layer"])
        for name, side in record_a["workloads"].items()
        if name in record_b["workloads"]
    ]
    rows = []
    for scope, side_a, side_b in layers:
        for name, entry_a in side_a.items():
            entry_b = side_b.get(name)
            if entry_a["unit"] not in ("count", "sim_s") or entry_b is None:
                continue
            if entry_a["value"] != entry_b["value"] and None not in (entry_a["value"], entry_b["value"]):
                rows.append(
                    {
                        "workload": scope, "metric": name, "unit": entry_a["unit"],
                        "a": entry_a["value"], "b": entry_b["value"],
                        "worse_by": float("nan"), "spread": 0.0, "calib_drift": 0.0,
                        "bound": 0.0, "verdict": "worse",
                    }
                )
    return rows


def format_rows(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<34} {'A':>12} {'B':>12} {'unit':<5} "
        f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<15} {row['metric']:<34} {row['a']:>12.5g} {row['b']:>12.5g} "
            f"{row['unit']:<5} {row['worse_by']:>+9.1%} {row['spread']:>7.1%} {row['bound']:>6.0%}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    rows = compare(*records)
    print(format_rows(rows))
    counts = {v: sum(1 for row in rows if row["verdict"] == v) for v in ("ok", "worse", "unresolved")}
    print(f"{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
