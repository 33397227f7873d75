"""The benchmark's one command.

Two ways in:

* ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
  runs one workload in this (fresh) interpreter and prints, as the last
  line of stdout, one JSON object ``{correct, attempted, failed,
  metrics}`` — every end-to-end metric with ``--trace 0``, every
  per-layer metric with ``--trace 1``. This is what ``BENCHMARK.json``
  names as the command.
* ``python3 bench/run.py --seed N --out FILE`` (no ``--workload``) runs
  the whole suite: each workload in its own interpreter, in two rounds
  separated by the other workloads, then a traced pass per workload and
  the layer probes once; ``FILE`` gets everything, ``bench/compare.py``
  reads two such files. ``--smoke`` is the same on tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench.harness import (  # noqa: E402
    OUT_DIR,
    BenchTracer,
    calibrate_ms,
    fingerprint,
    metric,
    scratch_dir,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- one workload, in this interpreter --------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, smoke: bool, trace: bool, part: str
) -> dict[str, Any]:
    """Run one workload end to end (or its traced pass) and return its record."""
    from bench.probes import run_probes
    from bench.spans import traced_pass
    from bench.workloads import all_workloads

    workload = all_workloads()[name]
    record: dict[str, Any] = {"workload": name, "why": workload.why, "seed": seed}
    with scratch_dir():
        calib = [calibrate_ms()]
        if trace:
            bench = BenchTracer(name)
            layers: dict[str, Any] = {}
            if part in ("all", "spans"):
                with bench.span("engine-spans"):
                    unit = workload.engine_unit(seed, smoke)
                    layers.update(traced_pass(unit, seconds / 3, bench))
            if part in ("all", "probes"):
                with bench.span("layer-probes"):
                    layers.update(run_probes(seed, smoke, bench))
            trace_path = OUT_DIR / f"bench_trace-{name}.jsonl"
            bench.write(trace_path)
            record.update(
                per_layer=layers,
                attempted=len(layers),
                failures=[],
                spans=len(bench.rows),
                trace_file=str(trace_path),
            )
        else:
            outcome = workload.run(seed, seconds, smoke)
            record.update(
                end_to_end=outcome.metrics,
                attempted=outcome.attempted,
                failures=outcome.failures,
                detail=outcome.detail,
            )
        calib.append(calibrate_ms())
    record["calib_ms"] = calib
    return record


def print_metrics(title: str, metrics: dict[str, dict[str, Any]]) -> None:
    print(f"== {title}")
    for name, entry in metrics.items():
        if entry["value"] is None:
            print(f"{name:<40} skipped: {entry['skipped']}")
            continue
        line = f"{name:<40} {entry['value']:>14.6g} {entry['unit']}"
        if "n" in entry:
            line += f"  (n={entry['n']} min={entry['min']:.6g}"
            if "q1" in entry:
                line += f" q1={entry['q1']:.6g} q3={entry['q3']:.6g}"
            line += ")"
        print(line)


def driver_line(record: dict[str, Any], trace: bool) -> str:
    """The contract's last line: value and unit of every metric of the pass."""
    metrics = record["per_layer"] if trace else record["end_to_end"]
    return json.dumps(
        {
            "correct": not record["failures"],
            "attempted": record["attempted"],
            "failed": len(record["failures"]),
            # A probe skipped because its target is gone reads 0 here; the
            # ``--out`` record keeps the null and the reason.
            "metrics": {
                name: {"value": entry["value"] if entry["value"] is not None else 0, "unit": entry["unit"]}
                for name, entry in metrics.items()
            },
        }
    )


def main_workload(args: argparse.Namespace) -> int:
    record = run_workload(
        args.workload, args.seed, args.seconds, args.smoke, bool(args.trace), args.part
    )
    print_metrics(
        f"{args.workload} seed={args.seed} "
        f"calib_ms={min(record['calib_ms']):.1f}..{max(record['calib_ms']):.1f}",
        record["per_layer"] if args.trace else record["end_to_end"],
    )
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    if args.out:
        Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    print(driver_line(record, bool(args.trace)))
    return 1 if record["failures"] else 0


# -- the suite: every workload, each in a fresh interpreter --------------------------


def child(args: argparse.Namespace, name: str, trace: int, part: str, seconds: float) -> dict[str, Any]:
    out = OUT_DIR / f"child-{name}-{trace}-{part}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(trace), "--part", part, "--out", str(out),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, cwd=ROOT, timeout=900)
    if not out.exists():
        raise SystemExit(f"bench: {name} (trace={trace}) exited {done.returncode} without a record")
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return record


def pool(rounds: list[dict[str, Any]]) -> dict[str, Any]:
    """One metric over the rounds: the median of the pooled samples where
    the rounds kept samples, else the mean (the max for a high-water mark)."""
    first = rounds[0]
    values = [entry["value"] for entry in rounds]
    if all("samples" in entry for entry in rounds):
        samples = [s for entry in rounds for s in entry["samples"]]
        merged = metric(None, first["unit"], samples)
    else:
        pooled = max(values) if first.get("pool") == "max" else sum(values) / len(values)
        merged = dict(first, value=pooled)
    merged["rounds"] = values
    return merged


def main_suite(args: argparse.Namespace) -> int:
    from bench.workloads import all_workloads

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = list(all_workloads())
    seconds = args.seconds
    # The host has slow and fast phases lasting tens of seconds, so each
    # workload's repeats are split over two rounds with the other four
    # workloads in between.
    rounds = [
        {name: child(args, name, 0, "all", seconds) for name in names}
        for _ in range(1 if args.smoke else 2)
    ]
    traced = {name: child(args, name, 1, "spans", seconds) for name in names}
    probes = child(args, names[0], 1, "probes", seconds)

    workloads: dict[str, Any] = {}
    calib: list[float] = list(probes["calib_ms"])
    for name in names:
        runs = [entry[name] for entry in rounds]
        failures = [f for run in runs for f in run["failures"]] + traced[name]["failures"]
        readings = [c for run in runs + [traced[name]] for c in run["calib_ms"]]
        calib.extend(readings)
        workloads[name] = {
            "why": runs[0]["why"],
            "correct": not failures,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": len(failures),
            "failures": failures,
            "calib_ms": readings,
            "end_to_end": {
                metric: pool([run["end_to_end"][metric] for run in runs])
                for metric in runs[0]["end_to_end"]
            },
            "per_layer": traced[name]["per_layer"],
            "detail": runs[0]["detail"],
            "trace_file": traced[name]["trace_file"],
        }
        print_metrics(f"{name} (pooled over {len(runs)} rounds)", workloads[name]["end_to_end"])
        print_metrics(f"{name} engine spans", workloads[name]["per_layer"])
    print_metrics("layer probes", probes["per_layer"])

    host = fingerprint()
    host["calib_ms"] = {"min": min(calib), "max": max(calib)}
    report = {
        "schema": 1,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "fingerprint": host,
        "end_to_end_spec": {entry["name"]: entry for entry in SPEC["end_to_end"]},
        "workloads": workloads,
        "probes": probes["per_layer"],
        "probes_trace_file": probes["trace_file"],
    }
    print(f"== host {json.dumps(host)}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
        print(f"== wrote {args.out}")
    failed = {name: w["failures"] for name, w in workloads.items() if w["failures"]}
    for name, failures in failed.items():
        for failure in failures:
            print(f"FAILED {name}: {failure}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds, 0.5 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", choices=("all", "spans", "probes"), default="all",
                        help="which per-layer sources a traced pass runs (the suite splits them)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, whole suite under 30 s")
    parser.add_argument("--out", help="write the full record (samples, quartiles, fingerprint) here")
    args = parser.parse_args(argv)
    # Any integer is a seed, but the views scenario's graph generator seeds a
    # numpy RandomState, which takes only 0..2**32-1: fold once, here, so
    # every workload and probe sees the same in-range seed.
    args.seed %= 2**32
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(SPEC["run_seconds"])
    return main_workload(args) if args.workload else main_suite(args)


if __name__ == "__main__":
    sys.exit(main())
