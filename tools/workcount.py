"""Exact work counters: Python calls per message for the engine workloads.

Wall clock on a shared host cannot resolve a 10-30% step; the number of
Python calls a run makes can, because it repeats exactly. This script
builds ``pr-bulk`` and ``cc-delta`` at benchmark size from
``bench/inputs.py``, runs each job once to warm up and once under
``cProfile``, and prints calls per message (``stats.total_messages()``)
in total and per layer.  Usage: ``python3 tools/workcount.py [--seed 7]``
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.inputs import pagerank_graph, relabelled_grid  # noqa: E402
from repro import EngineConfig  # noqa: E402
from repro.algorithms import connected_components, pagerank  # noqa: E402

#: (workload, graph builder, job builder, size), as ``bench/workloads/jobs.py`` has them.
WORKLOADS = [
    ("pr-bulk", pagerank_graph, pagerank, 3000),
    ("cc-delta", relabelled_grid, connected_components, 50),
]

#: path fragment -> layer; the first match wins, anything else is "stdlib".
LAYERS = [
    ("repro/runtime/kernels", "kernels"),
    ("repro/runtime/state", "state"),
    ("repro/runtime/", "executor"),
    ("repro/iteration/", "iteration"),
    ("repro/dataflow/", "dataflow"),
    ("repro/algorithms/", "algorithms"),
    ("repro/", "engine-other"),
]


def layer_of(code) -> str:
    """The layer of a profiled function (a builtin has no code object)."""
    if isinstance(code, str):
        return "builtins"
    path = code.co_filename.replace("\\", "/")
    return next((layer for fragment, layer in LAYERS if fragment in path), "stdlib")


def count(make_graph, make_job, size: int, seed: int) -> tuple[int, Counter]:
    """Messages of one run and its calls per layer, after a warm-up run."""
    job, config = make_job(make_graph(size, seed)), EngineConfig(parallelism=4)
    job.run(config=config)
    profiler = cProfile.Profile()
    result = profiler.runcall(job.run, config=config)
    calls: Counter = Counter()
    # per code object: pstats would merge functions that share a
    # (file, line, name) key, such as every dataclass's generated __init__
    for entry in profiler.getstats():
        calls[layer_of(entry.code)] += entry.callcount
    return result.stats.total_messages(), calls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for name, make_graph, make_job, size in WORKLOADS:
        messages, calls = count(make_graph, make_job, size, args.seed)
        total = sum(calls.values())
        print(f"{name}: {total:,} calls / {messages:,} messages = {total / messages:.1f} per message")
        for layer, n in calls.most_common():
            print(f"  {layer:<13}{n / messages:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
