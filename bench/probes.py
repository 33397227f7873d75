"""Layer probes: time calls into each layer's public functions.

Every probe runs inside a bench-owned span, on inputs made from the seed,
and reports the metrics named in its ``@probe`` line. Probes import what
they measure *inside* the probe: when a later change deletes a module,
a function or a config field (a mode ROADMAP marks for removal), the
probe reports ``null`` with the reason instead of failing, so removal
changes need not edit the benchmark. Mode ratios are recorded on any
core count, never gated.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError

from .harness import BenchError, BenchTracer, best_of, calibrate_ms, metric, now, percentile, skipped
from .inputs import descriptors, pagerank_graph
from .spans import self_seconds
from .workloads.recover_matrix import CC_STRATEGIES, STRATEGIES, Matrix

#: what "the thing this probe measures no longer exists" looks like.
GONE = (ImportError, AttributeError, TypeError, ConfigError)

#: input sizes per scale.
SIZES = {
    False: dict(graph=3000, modes=500, matrix=(300, 16), jobs=80, paced=40,
                views=(6, 30, 3), state=100_000, spool=200, repeats=5),
    True: dict(graph=150, modes=80, matrix=(60, 6), jobs=10, paced=8,
               views=(3, 8, 2), state=5_000, spool=20, repeats=2),
}


@dataclass
class Context:
    seed: int
    size: dict[str, Any]
    bench: BenchTracer


PROBES: list[tuple[Callable[[Context], dict[str, Any]], dict[str, str]]] = []


def probe(units: dict[str, str]) -> Callable:
    """Register a probe and the ``metric name -> unit`` pairs it reports."""

    def register(fn: Callable[[Context], dict[str, Any]]) -> Callable:
        PROBES.append((fn, units))
        return fn

    return register


def all_metrics() -> dict[str, str]:
    """``metric name -> unit`` over every registered probe."""
    return {name: unit for _, units in PROBES for name, unit in units.items()}


def run_probes(seed: int, smoke: bool, bench: BenchTracer) -> dict[str, dict[str, Any]]:
    context = Context(seed, SIZES[smoke], bench)
    report: dict[str, dict[str, Any]] = {}
    for fn, units in PROBES:
        with bench.span(f"probe:{fn.__name__}"):
            try:
                values = fn(context)
            except GONE as exc:
                values = {name: skipped(unit, f"{type(exc).__name__}: {exc}") for name, unit in units.items()}
        for name, unit in units.items():
            value = values[name]
            report[name] = value if isinstance(value, dict) else metric(value, unit)
    return report


# -- UDFs of the kernel probes (module level, like the algorithms' own) --------------


def _scale(record: Any) -> Any:
    return (record[1], record[2] * 0.85)


def _fan_out(record: Any) -> Any:
    return ((record[0], record[2]), (record[1], record[2]))


def _is_light(record: Any) -> bool:
    return record[2] < 0.5


def _sum(left: Any, right: Any) -> Any:
    return (left[0], left[1] + right[1])


def _contribution(rank: Any, link: Any) -> Any:
    return (link[1], rank[1] * link[2])


def _gather(key: Any, ranks: list[Any], contributions: list[Any]) -> Any:
    return [(key, sum(c[1] for c in contributions) + sum(r[1] for r in ranks))]


def _per_record(fn: Callable[[], Any], records: int, repeats: int) -> float:
    """Median microseconds per record of ``fn`` over ``records`` records."""
    return best_of(fn, repeats) / records * 1e6


# -- graph, algorithms ---------------------------------------------------------------


@probe({"graph.generate_s": "s", "algorithms.build_job_s": "s"})
def graph_and_job(ctx: Context) -> dict[str, Any]:
    from repro.algorithms import pagerank

    n = ctx.size["graph"]
    graph = pagerank_graph(n, ctx.seed)
    return {
        "graph.generate_s": best_of(lambda: pagerank_graph(n, ctx.seed), 3),
        "algorithms.build_job_s": best_of(lambda: pagerank(graph), 3),
    }


# -- runtime.kernels, runtime.executor, runtime.state ----------------------------------


@probe({
    "kernels.map_us_per_rec": "us/rec",
    "kernels.flat_map_us_per_rec": "us/rec",
    "kernels.filter_us_per_rec": "us/rec",
    "kernels.fold_by_key_us_per_rec": "us/rec",
    "kernels.route_us_per_rec": "us/rec",
    "kernels.hash_join_us_per_rec": "us/rec",
    "kernels.co_group_us_per_rec": "us/rec",
})
def kernels(ctx: Context) -> dict[str, Any]:
    """One superstep's worth of PageRank-shaped records through each kernel."""
    from repro.dataflow import first_field
    from repro.runtime import kernels as k

    graph = pagerank_graph(ctx.size["graph"], ctx.seed)
    links = graph.transition_records()
    ranks = [(v, 1.0 / len(graph.vertices)) for v in graph.vertices]
    contributions = [_scale(link) for link in links]
    key = first_field("vertex")
    repeats = ctx.size["repeats"]
    return {
        "kernels.map_us_per_rec": _per_record(lambda: k.map_kernel(links, _scale), len(links), repeats),
        "kernels.flat_map_us_per_rec": _per_record(lambda: k.flat_map_kernel(links, _fan_out), len(links), repeats),
        "kernels.filter_us_per_rec": _per_record(lambda: k.filter_kernel(links, _is_light), len(links), repeats),
        "kernels.fold_by_key_us_per_rec": _per_record(
            lambda: k.fold_by_key_kernel(contributions, key, _sum), len(contributions), repeats
        ),
        "kernels.route_us_per_rec": _per_record(lambda: k.route_kernel(links, key, 4), len(links), repeats),
        "kernels.hash_join_us_per_rec": _per_record(
            lambda: k.hash_join_kernel(ranks, links, key, key, _contribution),
            len(ranks) + len(links), repeats,
        ),
        "kernels.co_group_us_per_rec": _per_record(
            lambda: k.co_group_kernel(ranks, contributions, key, key, _gather, False, False),
            len(ranks) + len(contributions), repeats,
        ),
    }


@probe({"executor.repartition_us_per_rec": "us/rec"})
def repartition(ctx: Context) -> dict[str, Any]:
    """``PlanExecutor.repartition`` of a dataset that sits on the wrong partitions."""
    from repro.dataflow import first_field
    from repro.runtime import PartitionedDataset, PlanExecutor

    links = pagerank_graph(ctx.size["graph"], ctx.seed).transition_records()
    key = first_field("vertex")
    executor = PlanExecutor(parallelism=4)
    misplaced = PartitionedDataset.from_records(links, 4)
    return {
        "executor.repartition_us_per_rec": _per_record(
            lambda: executor.repartition(misplaced, key), len(links), ctx.size["repeats"]
        )
    }


@probe({
    "state.index_build_us_per_rec": "us/rec",
    "state.apply_delta_us_per_rec": "us/rec",
    "state.to_dataset_us_per_rec": "us/rec",
})
def state_backend(ctx: Context) -> dict[str, Any]:
    """A 1% delta applied to a keyed solution set; cost should follow the delta."""
    from repro.dataflow import first_field
    from repro.runtime import KeyedStateBackend, PartitionedDataset

    n, repeats = ctx.size["state"], ctx.size["repeats"]
    key = first_field("vertex")
    solution = PartitionedDataset.from_records([(v, v) for v in range(n)], 4, key)
    backend = KeyedStateBackend(solution, key)
    touched = range(0, n, 100)
    applied = []
    for bump in range(1, repeats + 1):
        delta = PartitionedDataset.from_records([(v, v - bump) for v in touched], 4, key)
        started = now()
        changed = backend.apply_delta(delta)
        applied.append(now() - started)
        if changed != len(touched):
            raise BenchError(f"apply_delta changed {changed} records, expected {len(touched)}")
    return {
        "state.index_build_us_per_rec": _per_record(lambda: KeyedStateBackend(solution, key), n, repeats),
        "state.apply_delta_us_per_rec": statistics.median(applied) / len(touched) * 1e6,
        "state.to_dataset_us_per_rec": _per_record(backend.to_dataset, n, repeats),
    }


# -- non-default engine modes: each mode's wall over the default's --------------------


def _mode_ratio(ctx: Context, derive: Callable[[Any], Any], **run_kwargs: Callable[[], Any]) -> float:
    """Wall of PageRank under ``derive(default config)`` over the default's,
    runs interleaved so both sides see the same host phase; the mode must
    reproduce the default's records and simulated time exactly."""
    from repro import EngineConfig
    from repro.algorithms import pagerank

    job = pagerank(pagerank_graph(ctx.size["modes"], ctx.seed))
    default = EngineConfig(parallelism=4)
    mode = derive(default)
    walls: dict[str, list[float]] = {"default": [], "mode": []}
    reference = None
    for _ in range(3):
        for side, config in (("default", default), ("mode", mode)):
            kwargs = {name: make() for name, make in run_kwargs.items()} if side == "mode" else {}
            started = now()
            result = job.run(config=config, **kwargs)
            walls[side].append(now() - started)
            signature = (result.final_records, result.sim_time, result.supersteps)
            if reference is None:
                reference = signature
            elif signature != reference:
                raise BenchError(f"{side} run changed records, simulated time or supersteps")
    return statistics.median(walls["mode"]) / statistics.median(walls["default"])


@probe({"cache.off_wall_ratio": "ratio"})
def cache_off(ctx: Context) -> dict[str, Any]:
    return {"cache.off_wall_ratio": _mode_ratio(ctx, lambda c: c.with_execution_cache("off"))}


@probe({"blocks.columnar_wall_ratio": "ratio", "blocks.pack_us_per_rec": "us/rec"})
def columnar(ctx: Context) -> dict[str, Any]:
    from repro.runtime.blocks import ColumnarBlock

    links = pagerank_graph(ctx.size["graph"], ctx.seed).transition_records()
    return {
        "blocks.columnar_wall_ratio": _mode_ratio(ctx, lambda c: c.with_columnar(True)),
        "blocks.pack_us_per_rec": _per_record(
            lambda: ColumnarBlock.from_records(links), len(links), ctx.size["repeats"]
        ),
    }


@probe({"parallel.threads_wall_ratio": "ratio"})
def threads(ctx: Context) -> dict[str, Any]:
    from repro.runtime import close_shared_backends

    try:
        return {"parallel.threads_wall_ratio": _mode_ratio(ctx, lambda c: c.with_parallel("threads", 2))}
    finally:
        close_shared_backends()


@probe({"parallel.processes_wall_ratio": "ratio"})
def processes(ctx: Context) -> dict[str, Any]:
    from repro.runtime import close_shared_backends

    try:
        return {"parallel.processes_wall_ratio": _mode_ratio(ctx, lambda c: c.with_parallel("processes", 2))}
    finally:
        close_shared_backends()


@probe({"observability.telemetry_wall_ratio": "ratio"})
def telemetry(ctx: Context) -> dict[str, Any]:
    from repro.observability import ConvergenceMonitor, RunTelemetry, TelemetryCollector, TelemetryLog

    def bundle() -> Any:
        log = TelemetryLog()
        return RunTelemetry(
            collector=TelemetryCollector(interval=0.25, log=log),
            monitor=ConvergenceMonitor("probe", job_id=1, attempt=0, log=log),
            log=log, job_id=1, attempt=0,
        )

    return {"observability.telemetry_wall_ratio": _mode_ratio(ctx, lambda c: c, telemetry=bundle)}


# -- core: every recovery strategy on a small failure matrix ----------------------------


_CORE_KINDS = ("compensation", "checkpoint", "rollback", "replay")


@probe({
    "core.failure_free.wall_s": "s",
    "core.optimistic.overhead_ratio": "ratio",
    **{f"core.{s}.wall_s": "s" for s in CC_STRATEGIES},
    **{f"core.{s}.extra_supersteps": "count" for s in CC_STRATEGIES},
    **{f"core.{kind}_self_s": "s" for kind in _CORE_KINDS},
})
def recovery_strategies(ctx: Context) -> dict[str, Any]:
    """Per strategy: wall of its PageRank+CC cells (two failures each) and the
    supersteps it ran beyond failure-free; span self time per recovery phase."""
    from repro.observability import RecordingTracer

    matrix = Matrix(ctx.seed, *ctx.size["matrix"])
    matrix.run_baselines()

    def cells_of(strategy: str | None) -> list[str]:
        return [a for a, names in (("pagerank", STRATEGIES), ("cc", CC_STRATEGIES))
                if strategy is None or strategy in names]

    def timed(strategy: str | None, tracers: list[Any] | None = None) -> tuple[float, int]:
        wall, supersteps = 0.0, 0
        for algorithm in cells_of(strategy):
            tracer = None
            if tracers is not None:
                tracer = RecordingTracer()
                tracers.append(tracer)
            started = now()
            result = matrix.run_cell(algorithm, strategy, tracer)
            wall += now() - started
            supersteps += result.supersteps
            problems = matrix.mismatches(algorithm, strategy, result)
            if problems:
                raise BenchError("; ".join(problems))
        return wall, supersteps

    values: dict[str, Any] = {}
    free_wall = statistics.median(timed(None)[0] for _ in range(2))
    values["core.failure_free.wall_s"] = free_wall
    tracers: list[Any] = []
    for strategy in CC_STRATEGIES:
        names = (f"core.{strategy}.wall_s", f"core.{strategy}.extra_supersteps")
        try:
            wall = statistics.median(timed(strategy)[0] for _ in range(2))
            supersteps = timed(strategy, tracers)[1]
        except GONE as exc:
            values[names[0]] = skipped("s", f"{type(exc).__name__}: {exc}")
            values[names[1]] = skipped("count", f"{type(exc).__name__}: {exc}")
            continue
        baseline = sum(matrix.baselines[a].supersteps for a in cells_of(strategy))
        values[names[0]], values[names[1]] = wall, supersteps - baseline
        if strategy == "optimistic":
            values["core.optimistic.overhead_ratio"] = wall / free_wall
    values.setdefault("core.optimistic.overhead_ratio", skipped("ratio", "optimistic strategy gone"))
    self_time = dict.fromkeys(_CORE_KINDS, 0.0)
    for tracer in tracers:
        for root in tracer.roots:
            ctx.bench.adopt(root)
            for span in root.walk():
                if span.kind.value in self_time:
                    self_time[span.kind.value] += self_seconds(span)
    values.update({f"core.{kind}_self_s": seconds for kind, seconds in self_time.items()})
    return values


# -- service: descriptor -> queue -> JobService -> spool -> shards -> HTTP --------------


@probe({"descriptor.roundtrip_us": "us", "fair.put_get_us": "us"})
def descriptor_and_queue(ctx: Context) -> dict[str, Any]:
    from repro.config import FairnessConfig
    from repro.service import FairAdmissionQueue, JobDescriptor, JobHandle

    batch = descriptors(ctx.size["jobs"], ctx.seed)
    roundtrip = best_of(
        lambda: [JobDescriptor.from_json(d.to_json()).to_spec() for d in batch], ctx.size["repeats"]
    )
    specs = [d.to_spec() for d in batch]

    def through_queue() -> None:
        fair = FairAdmissionQueue(fairness=FairnessConfig(enabled=True))
        for index, spec in enumerate(specs):
            fair.put(JobHandle(index, spec))
        for _ in specs:
            if fair.get(timeout=1.0) is None:
                raise BenchError("fair queue lost a job")

    return {
        "descriptor.roundtrip_us": roundtrip / len(batch) * 1e6,
        "fair.put_get_us": best_of(through_queue, ctx.size["repeats"]) / len(specs) * 1e6,
    }


@probe({"engine.standalone_jobs_per_s": "1/s", "api.local_jobs_per_s": "1/s"})
def job_service(ctx: Context) -> dict[str, Any]:
    """The same jobs as a bare loop and through ``JobService`` (pool 1):
    the gap is scheduler and queue cost."""
    from repro.config import ServiceConfig
    from repro.service import JobService

    batch = descriptors(ctx.size["jobs"], ctx.seed)
    started = now()
    for descriptor in batch:
        descriptor.to_spec().run_standalone()
    standalone = now() - started
    with JobService(ServiceConfig(pool_size=1, queue_capacity=None)) as service:
        started = now()
        handles = service.run_all([d.to_spec() for d in batch], timeout=120.0)
        local = now() - started
    bad = [h.spec.name for h in handles if h.state.value != "succeeded"]
    if bad:
        raise BenchError(f"JobService did not finish {bad}")
    return {
        "engine.standalone_jobs_per_s": len(batch) / standalone,
        "api.local_jobs_per_s": len(batch) / local,
    }


@probe({"spool.roundtrip_ms": "ms"})
def spool(ctx: Context) -> dict[str, Any]:
    import tempfile

    from repro.service import SpoolDir

    payload = descriptors(1, ctx.seed)[0].to_dict()
    with tempfile.TemporaryDirectory() as root:
        directory = SpoolDir(root, 1)
        directory.prepare()

        def roundtrip(index: int) -> None:
            job_id = f"job-{index:08d}"
            directory.submit(0, job_id, 0, payload)
            claimed = directory.claim_next(0)
            directory.publish_result(job_id, {"job_id": job_id, "state": "succeeded"})
            if claimed is None or directory.read_result(job_id) is None:
                raise BenchError("spool lost a job")
            directory.release(claimed)

        started = now()
        for index in range(ctx.size["spool"]):
            roundtrip(index)
        return {"spool.roundtrip_ms": (now() - started) / ctx.size["spool"] * 1e3}


@probe({"shard.fleet_jobs_per_s": "1/s"})
def shard_fleet(ctx: Context) -> dict[str, Any]:
    """Two shard processes over the spool, no HTTP: the gap to
    ``api.local_jobs_per_s`` is spool and process cost."""
    from repro.config import ServiceConfig, ShardConfig
    from repro.service import ShardedJobService

    batch = descriptors(ctx.size["jobs"], ctx.seed)
    with ShardedJobService(ServiceConfig(pool_size=1), ShardConfig(num_shards=2)) as fleet:
        started = now()
        fleet.submit_all(batch)
        records = fleet.wait_all(timeout=120.0)
        wall = now() - started
    bad = [r["name"] for r in records.values() if r["state"] != "succeeded"]
    if len(records) != len(batch) or bad:
        raise BenchError(f"fleet finished {len(records)}/{len(batch)} jobs, failed: {bad}")
    return {"shard.fleet_jobs_per_s": len(batch) / wall}


@probe({
    "http.health_rtt_ms": "ms",
    "http.keepalive_rtt_ms": "ms",
    "http.submit_rtt_ms": "ms",
    "http.polls_per_job": "ratio",
    "http.latency_p95_ms": "ms",
    "http.latency_p99_ms": "ms",
    "http.backlog_end": "count",
    "loadgen.send_late_p95_ms": "ms",
})
def http_front_door(ctx: Context) -> dict[str, Any]:
    """Round trips on a fresh connection each (as the load generator makes
    them) and on one kept-alive connection, then a short drain and a short
    paced phase: polls spent per result, the tail, and how late the
    generator itself ran."""
    import http.client

    from .workloads.serve_http import PACED_RATE, Server, check_results, drain, paced

    batch = descriptors(ctx.size["jobs"] + ctx.size["paced"], ctx.seed)
    server = Server()
    try:
        fresh = best_of(lambda: server.request("GET", "/api/v1/health"), 30)
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)

        def kept_alive() -> None:
            connection.request("GET", "/api/v1/health")
            connection.getresponse().read()

        try:
            kept = best_of(kept_alive, 5)
        finally:
            connection.close()
        drained = drain(server, batch[: ctx.size["jobs"]])
        sustained = paced(server, batch[ctx.size["jobs"]:], PACED_RATE)
    except BaseException:
        server.kill()
        raise
    server.stop()
    problems = check_results([drained, sustained], ctx.seed)
    if problems:
        raise BenchError("; ".join(problems))
    return {
        "http.health_rtt_ms": fresh * 1e3,
        "http.keepalive_rtt_ms": kept * 1e3,
        "http.submit_rtt_ms": statistics.median(drained.submit_ms + sustained.submit_ms),
        "http.polls_per_job": (drained.polls + sustained.polls) / len(batch),
        "http.latency_p95_ms": percentile(sustained.latencies_ms, 0.95),
        "http.latency_p99_ms": percentile(sustained.latencies_ms, 0.99),
        "http.backlog_end": sustained.backlog_end,
        "loadgen.send_late_p95_ms": percentile(sustained.send_late_ms, 0.95),
    }


# -- views ---------------------------------------------------------------------------


@probe({
    "views.warm_epoch_ms": "ms",
    "views.cold_epoch_ms": "ms",
    "views.warm_supersteps": "count",
    "views.cold_supersteps": "count",
})
def view_refresh_modes(ctx: Context) -> dict[str, Any]:
    """The same mutation epochs refreshed with warm and with cold forced."""
    from .workloads.views_refresh import run_pass, scenario

    components, size, epochs = ctx.size["views"]
    values: dict[str, Any] = {}
    records = {}
    for mode in ("warm", "cold"):
        done = run_pass(scenario(ctx.seed, components, size, mode=mode), epochs)
        records[mode] = done.records
        values[f"views.{mode}_epoch_ms"] = statistics.median(done.epoch_ms())
        values[f"views.{mode}_supersteps"] = sum(
            supersteps for epoch in done.refreshes for _, _, supersteps, _, _ in epoch
        )
    if records["warm"] != records["cold"]:
        raise BenchError("warm refresh materialized different records than cold")
    return values


@probe({"views.commit_ms": "ms", "views.catalog_save_load_ms": "ms"})
def view_catalog(ctx: Context) -> dict[str, Any]:
    import random
    import tempfile
    from pathlib import Path

    from repro.views import build_scenario, load_catalog, mutate_epoch, save_catalog

    from .workloads.views_refresh import scenario

    components, size, _ = ctx.size["views"]
    config = scenario(ctx.seed, components, size)
    catalog, orchestrator, mutable = build_scenario(config)
    orchestrator.poll_once()
    rng = random.Random(ctx.seed)
    commits = [best_of(lambda: mutate_epoch(mutable, rng, config), 1) for _ in range(10)]
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "catalog.json"

        def save_load() -> None:
            save_catalog(catalog, path)
            restored = load_catalog(path, graphs={"graph": mutable})
            if restored.read("ranks").records != catalog.read("ranks").records:
                raise BenchError("catalog round trip changed the materialized records")

        persisted = best_of(save_load, ctx.size["repeats"])
    return {
        "views.commit_ms": statistics.median(commits) * 1e3,
        "views.catalog_save_load_ms": persisted * 1e3,
    }


@probe({"host.calib_ms": "ms"})
def host(ctx: Context) -> dict[str, Any]:
    """The canary, so a reader can tell a slow host from a slow layer."""
    return {"host.calib_ms": statistics.median(calibrate_ms() for _ in range(3))}
