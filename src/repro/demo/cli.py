"""Command-line interface to the demo.

``python -m repro.demo`` is the headless equivalent of the SIGMOD demo
booth: pick the algorithm tab, pick the graph, schedule failures, press
play, and look at the state renderings and statistics plots::

    python -m repro.demo --algorithm connected-components --graph small \
        --fail 2:0 --strategy optimistic --states --plots

    python -m repro.demo --algorithm pagerank --fail 3:1 --strategy confined

    python -m repro.demo --algorithm pagerank --graph twitter --size 500 \
        --fail 4:1 --fail 9:0,2 --plots

Passing ``--trace-out trace.jsonl`` records the run's span tree (run →
superstep → operator → partition) and writes it as JSONL; the companion
``profile`` subcommand reads such a trace back and prints where the
simulated time went::

    python -m repro.demo --algorithm pagerank --fail 3:0 \
        --recovery optimistic --trace-out trace.jsonl
    python -m repro.demo profile trace.jsonl

The ``serve`` subcommand runs a seeded multi-job workload through the
:mod:`repro.service` job service — many concurrent runs, injected
failures, retries, backpressure — and prints the service report::

    python -m repro.demo serve --jobs 50 --pool 4 --per-job

With telemetry, ``serve`` doubles as a live dashboard: it prints
``repro status`` frames while the workload runs and can export the final
metrics as a Prometheus scrape plus a telemetry JSONL event stream::

    python -m repro.demo serve --jobs 50 --status-interval 1 \
        --prom-out scrape.prom --telemetry-out telemetry.jsonl

The ``views`` subcommand maintains materialized views over a mutating
graph (:mod:`repro.views`): seeded mutation epochs are committed and the
refresh orchestrator keeps a small view DAG fresh, warm-starting each
refresh from the previous solution when the mutation batch allows it::

    python -m repro.demo views --epochs 3 --mutations 4
    python -m repro.demo views --epochs 5 --removal-fraction 0 --service
    python -m repro.demo views --epochs 3 --fail 2:0 --strategy optimistic
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ..analysis import Series, format_figure
from ..errors import ConfigError, ReproError
from ..iteration.snapshots import SnapshotPhase
from ..observability.export import trace_to_jsonl
from ..observability.profile import format_profile, profile_trace
from ..observability.tracer import RecordingTracer
from .controller import ALGORITHMS, GRAPHS, RECOVERIES, DemoRun, DemoSession
from .render import render_components, render_ranks

#: the usage hint shown for malformed --fail specs.
FAILURE_USAGE = (
    "failure specs are SUPERSTEP:P1[,P2,...] with numeric superstep and "
    "partition ids, e.g. --fail 2:0 or --fail 4:1,3"
)

#: the usage hint shown for unknown --strategy names.
STRATEGY_USAGE = (
    "valid strategies are " + ", ".join(RECOVERIES) + "; "
    "e.g. --strategy confined or --strategy adaptive"
)


def _check_strategy(name: str) -> None:
    """Reject unknown recovery strategy names with a usage error.

    Mirrors the ``--fail`` convention: a :class:`repro.errors.ConfigError`
    carrying a usage hint, which the CLI turns into exit code 2.
    """
    if name not in RECOVERIES:
        raise ConfigError(
            f"unknown recovery strategy {name!r}\nhint: {STRATEGY_USAGE}"
        )


def _parse_failure(text: str) -> tuple[int, list[int]]:
    """Parse ``SUPERSTEP:P1,P2,...`` into ``(superstep, partitions)``.

    Malformed specs — a missing worker list (``--fail 3``), non-numeric
    ids (``--fail 3:a``), an empty list (``--fail 3:``) — raise
    :class:`repro.errors.ConfigError` carrying a usage hint; the CLI
    turns that into exit code 2.
    """
    try:
        superstep_text, partitions_text = text.split(":", 1)
        superstep = int(superstep_text)
        partitions = [int(p) for p in partitions_text.split(",") if p]
    except ValueError as exc:
        raise ConfigError(
            f"malformed failure spec {text!r}: {exc}\nhint: {FAILURE_USAGE}"
        ) from exc
    if not partitions:
        raise ConfigError(
            f"failure spec {text!r} names no partitions\nhint: {FAILURE_USAGE}"
        )
    return superstep, partitions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-demo",
        description="Headless demo of optimistic recovery for iterative dataflows",
    )
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="connected-components",
        help="which algorithm tab to open (default: connected-components)",
    )
    parser.add_argument(
        "--graph",
        choices=GRAPHS,
        default="small",
        help="small hand-crafted graph or the synthetic Twitter-like one",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=500,
        help="vertex count of the Twitter-like graph (default: 500)",
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        default=4,
        help="number of workers / state partitions (default: 4)",
    )
    parser.add_argument(
        "--fail",
        dest="failures",
        action="append",
        default=[],
        metavar="SUPERSTEP:PARTITIONS",
        help="fail partitions at a superstep, e.g. --fail 2:0 --fail 5:1,3",
    )
    parser.add_argument(
        "--strategy",
        "--recovery",
        dest="strategy",
        default="optimistic",
        metavar="NAME",
        help="recovery strategy: " + ", ".join(RECOVERIES) + " "
        "(default: optimistic; confined replays only the lost partitions, "
        "adaptive picks a strategy from the job's failure profile)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=2,
        help="interval for --recovery checkpoint (default: 2)",
    )
    parser.add_argument(
        "--states",
        action="store_true",
        help="render the initial / before-failure / after-compensation / converged states",
    )
    parser.add_argument(
        "--plots",
        action="store_true",
        help="print the demo's statistics plots",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print the full run report (costs, statistics, event timeline)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="generator seed (default: 7)"
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="record the run's span tree and write it as JSONL to PATH",
    )
    return parser


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-demo profile",
        description="Attribute a recorded trace's simulated time to "
        "recovery-cost categories (compute, shuffle, checkpoint, rollback, "
        "compensation, restart, plus confined recovery's log and replay)",
    )
    parser.add_argument("trace", help="JSONL trace written with --trace-out")
    return parser


def profile_main(argv: Sequence[str]) -> int:
    """``profile`` subcommand: read a trace, print the cost breakdown."""
    args = build_profile_parser().parse_args(argv)
    try:
        report = format_profile(profile_trace(args.trace), title=args.trace)
    except (OSError, ValueError) as error:
        print(f"error: {error}")
        return 1
    print(report)
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-demo serve",
        description="Run a seeded multi-job workload through the job "
        "service and print the service report",
    )
    parser.add_argument(
        "--jobs", type=int, default=50, help="workload size (default: 50)"
    )
    parser.add_argument(
        "--pool", type=int, default=4, help="concurrent jobs (default: 4)"
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: 7)"
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        help="admission queue bound (default: unbounded)",
    )
    parser.add_argument(
        "--backpressure",
        choices=("reject", "block"),
        default="block",
        help="policy when the queue is full (default: block)",
    )
    parser.add_argument(
        "--cc-fraction",
        type=float,
        default=0.5,
        help="fraction of Connected Components jobs (default: 0.5)",
    )
    parser.add_argument(
        "--failure-density",
        type=float,
        default=0.4,
        help="probability a job gets injected partition failures (default: 0.4)",
    )
    parser.add_argument(
        "--view-fraction",
        type=float,
        default=0.0,
        help="fraction of jobs that are warm view refreshes over seeded "
        "mutated graphs (default: 0)",
    )
    parser.add_argument(
        "--strategy",
        default="optimistic",
        metavar="NAME",
        help="recovery strategy stamped onto every generated job: "
        + ", ".join(RECOVERIES)
        + " (default: optimistic)",
    )
    parser.add_argument(
        "--per-job",
        action="store_true",
        help="also print one line per terminal job",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="enable the live telemetry layer (collector, convergence "
        "monitors, event log); also on when REPRO_TELEMETRY=on",
    )
    parser.add_argument(
        "--status-interval",
        type=float,
        default=None,
        metavar="SECS",
        help="print a live `repro status` frame every SECS seconds while "
        "the workload runs (implies --telemetry)",
    )
    parser.add_argument(
        "--prom-out",
        metavar="PATH",
        default=None,
        help="write a Prometheus text-format scrape of the final metrics "
        "to PATH",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=None,
        help="stream telemetry events to PATH as JSONL while the service "
        "runs (implies --telemetry)",
    )
    parser.add_argument(
        "--tenants",
        metavar="SPEC",
        default=None,
        help="tenant weights as 'a=4,b=2,c=1': enables tenant-fair "
        "scheduling (deficit round-robin, load shedding) and assigns "
        "generated jobs to the named tenants round-robin",
    )
    parser.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant cap on live queued jobs (default: none)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run the workload through N scheduler shard processes "
        "coordinated over a spool directory (default: 0 = in-process)",
    )
    parser.add_argument(
        "--http",
        action="store_true",
        help="serve the HTTP front door instead of running a generated "
        "workload; submit jobs via POST /api/v1/jobs, stop via "
        "POST /api/v1/shutdown",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="front-door bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="front-door port, 0 picks a free one (default: 8080)",
    )
    return parser


def _parse_tenants(text: str) -> tuple[tuple[str, int], ...]:
    """Parse ``a=4,b=2,c=1`` into ``((tenant, weight), ...)`` pairs."""
    weights = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, weight_text = item.partition("=")
        if not name:
            raise ConfigError(f"tenant spec {item!r} needs a name")
        if not weight_text:
            weight = 1
        else:
            try:
                weight = int(weight_text)
            except ValueError:
                raise ConfigError(
                    f"tenant weight in {item!r} must be an integer"
                ) from None
        weights.append((name, weight))
    if not weights:
        raise ConfigError("--tenants must name at least one tenant")
    return tuple(weights)


def _watch_service(service, handles, interval: float) -> None:
    """Print live ``repro status`` frames until every handle is terminal."""
    from ..observability.health import render_status

    while True:
        done = all(h.is_terminal for h in handles)
        print(render_status(service.health()))
        print()
        if done:
            return
        remaining = [h for h in handles if not h.is_terminal]
        remaining[0].wait(interval)


def _serve_http(args, service_config) -> int:
    """``serve --http``: block serving the front door until shut down."""
    from ..config import ShardConfig
    from ..service import (
        JobService,
        LocalBackend,
        ShardBackend,
        ShardedJobService,
        make_http_server,
    )

    try:
        if args.shards > 0:
            backend = ShardBackend(
                ShardedJobService(service_config, ShardConfig(num_shards=args.shards))
            )
        else:
            backend = LocalBackend(JobService(service_config))
        server = make_http_server(backend, args.host, args.port)
    except (ReproError, OSError) as error:
        print(f"error: {error}")
        return 1
    host, port = server.server_address[:2]
    mode = f"{args.shards} shards" if args.shards > 0 else "in-process"
    print(
        f"front door listening on http://{host}:{port} ({mode}); "
        f"POST /api/v1/shutdown to stop",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        backend.shutdown()
    print("front door stopped")
    return 0


def _serve_sharded(args, service_config, tenant_names: tuple[str, ...]) -> int:
    """``serve --shards N``: descriptor workload through shard processes."""
    import time as _time

    from ..config import ShardConfig
    from ..service import ShardedJobService, generate_descriptor_workload

    descriptors = generate_descriptor_workload(
        num_jobs=args.jobs,
        seed=args.seed,
        tenants=tenant_names,
        cc_fraction=args.cc_fraction,
        failure_density=args.failure_density,
        recovery=args.strategy,
    )
    try:
        with ShardedJobService(
            service_config, ShardConfig(num_shards=args.shards)
        ) as service:
            started = _time.monotonic()
            job_ids = service.submit_all(descriptors)
            records = service.wait_all()
            wall = _time.monotonic() - started
    except ReproError as error:
        print(f"error: {error}")
        return 1
    states: dict[str, int] = {}
    for record in records.values():
        states[record["state"]] = states.get(record["state"], 0) + 1
    if args.per_job:
        for job_id in job_ids:
            record = records[job_id]
            print(
                f"job {job_id} {record['name']:<24} {record['state']:<10} "
                f"attempts={record['attempts']}"
            )
        print()
    print(f"=== serve: {args.jobs} jobs, {args.shards} shards ===")
    print("terminal: " + " ".join(f"{s}={c}" for s, c in sorted(states.items())))
    print(
        f"throughput: {len(records)} jobs in {wall:.3f}s "
        f"({len(records) / wall:.1f} jobs/s)" if wall > 0 else "throughput: -"
    )
    return 0


def serve_main(argv: Sequence[str]) -> int:
    """``serve`` subcommand: load-gen workload through the job service."""
    from ..config import FairnessConfig, ServiceConfig, TelemetryConfig
    from ..service import JobService, WorkloadConfig, generate_workload

    args = build_serve_parser().parse_args(argv)
    try:
        _check_strategy(args.strategy)
        if args.status_interval is not None and args.status_interval <= 0:
            raise ConfigError(
                f"status-interval must be > 0, got {args.status_interval}"
            )
        if args.shards < 0:
            raise ConfigError(f"--shards must be >= 0, got {args.shards}")
        tenant_weights: tuple[tuple[str, int], ...] = ()
        tenant_names: tuple[str, ...] = ()
        if args.tenants is not None:
            tenant_weights = _parse_tenants(args.tenants)
            tenant_names = tuple(name for name, _ in tenant_weights)
        fairness = FairnessConfig(
            enabled=bool(tenant_weights) or args.tenant_quota is not None,
            weights=tenant_weights,
            tenant_quota=args.tenant_quota,
        )
        workload = generate_workload(
            WorkloadConfig(
                num_jobs=args.jobs,
                seed=args.seed,
                cc_fraction=args.cc_fraction,
                failure_density=args.failure_density,
                view_refresh_fraction=args.view_fraction,
                recovery=args.strategy,
                tenants=tenant_names,
            )
        )
        telemetry_config = TelemetryConfig(jsonl_path=args.telemetry_out)
        if (
            args.telemetry
            or args.status_interval is not None
            or args.telemetry_out is not None
        ):
            telemetry_config = TelemetryConfig(
                enabled=True, jsonl_path=args.telemetry_out
            )
        service_config = ServiceConfig(
            pool_size=args.pool,
            queue_capacity=args.queue_capacity,
            backpressure=args.backpressure,
            default_recovery=args.strategy,
            telemetry=telemetry_config,
            fairness=fairness,
        )
    except ConfigError as error:
        print(f"error: {error}")
        return 2
    if args.http:
        return _serve_http(args, service_config)
    if args.shards > 0:
        return _serve_sharded(args, service_config, tenant_names)
    try:
        with JobService(service_config) as service:
            if args.status_interval is not None:
                handles = [service.submit(spec) for spec in workload]
                _watch_service(service, handles, args.status_interval)
            else:
                handles = service.run_all(workload)
            report = service.report()
            prom_text = None
            if args.prom_out is not None:
                from ..observability.prometheus import (
                    render_collector,
                    render_snapshots,
                )

                if service.collector is not None:
                    prom_text = render_collector(service.collector)
                else:
                    prom_text = render_snapshots(
                        [({"scope": "service"}, service.metrics.snapshot_all())]
                    )
    except ReproError as error:
        print(f"error: {error}")
        return 1
    if prom_text is not None:
        try:
            with open(args.prom_out, "w") as handle:
                handle.write(prom_text)
        except OSError as error:
            print(f"error: cannot write scrape: {error}")
            return 1
        print(f"prometheus scrape written to {args.prom_out}")
    if args.telemetry_out is not None:
        print(f"telemetry events written to {args.telemetry_out}")
    if args.per_job:
        for handle in handles:
            line = (
                f"job {handle.job_id:>3} {handle.spec.name:<24} "
                f"{handle.state.value:<10} attempts={handle.attempts}"
            )
            if handle.retries:
                line += f" retries={handle.retries}"
            print(line)
        print()
    print(report.format(title=f"serve: {args.jobs} jobs, pool={args.pool}"))
    return 0


def build_views_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-demo views",
        description="Maintain materialized views (CC labels, PageRank "
        "ranks, per-component rank mass) over a mutating graph: seeded "
        "mutation epochs are committed and the refresh orchestrator keeps "
        "the view DAG fresh, warm-starting from the previous solution "
        "when the mutation batch is small enough",
    )
    parser.add_argument(
        "--epochs",
        type=int,
        default=3,
        help="mutation epochs to commit and refresh (default: 3)",
    )
    parser.add_argument(
        "--components",
        type=int,
        default=4,
        help="components of the starting graph (default: 4)",
    )
    parser.add_argument(
        "--component-size",
        type=int,
        default=15,
        help="vertices per starting component (default: 15)",
    )
    parser.add_argument(
        "--mutations",
        type=int,
        default=4,
        help="mutations per epoch batch (default: 4)",
    )
    parser.add_argument(
        "--removal-fraction",
        type=float,
        default=0.25,
        help="probability a mutation is a removal (default: 0.25; 0 keeps "
        "the batch adds-only, the monotone-safe regime)",
    )
    parser.add_argument(
        "--refresh-mode",
        choices=("auto", "warm", "cold"),
        default="auto",
        help="warm/cold policy (default: auto — warm while the affected-key "
        "fraction stays within the threshold)",
    )
    parser.add_argument(
        "--warm-threshold",
        type=float,
        default=0.5,
        help="affected-key fraction above which auto refreshes go cold "
        "(default: 0.5)",
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        default=4,
        help="partitions of every refresh job (default: 4)",
    )
    parser.add_argument(
        "--strategy",
        "--recovery",
        dest="strategy",
        default="optimistic",
        metavar="NAME",
        help="recovery strategy of refresh jobs: " + ", ".join(RECOVERIES) + " "
        "(default: optimistic)",
    )
    parser.add_argument(
        "--fail",
        dest="failures",
        action="append",
        default=[],
        metavar="SUPERSTEP:PARTITIONS",
        help="inject partition failures into the refreshes of one epoch "
        "(see --fail-epoch), healed in-run by the recovery strategy",
    )
    parser.add_argument(
        "--fail-epoch",
        type=int,
        default=None,
        metavar="N",
        help="epoch whose refreshes receive the --fail injections "
        "(default: every epoch)",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="submit refreshes through a JobService (admission, retries, "
        "telemetry) instead of running them standalone",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="scenario seed (default: 7)"
    )
    return parser


def views_main(argv: Sequence[str]) -> int:
    """``views`` subcommand: the mutating-graph view-maintenance demo."""
    from ..config import ServiceConfig, ViewsConfig
    from ..runtime.failures import FailureSchedule
    from ..views import ScenarioConfig, run_scenario

    args = build_views_parser().parse_args(argv)
    try:
        _check_strategy(args.strategy)
        if args.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {args.epochs}")
        if args.fail_epoch is not None and args.fail_epoch < 1:
            raise ConfigError(f"fail-epoch must be >= 1, got {args.fail_epoch}")
        failure_specs = [_parse_failure(text) for text in args.failures]
        config = ScenarioConfig(
            num_components=args.components,
            component_size=args.component_size,
            seed=args.seed,
            mutations_per_epoch=args.mutations,
            removal_fraction=args.removal_fraction,
            parallelism=args.parallelism,
            recovery=args.strategy,
            views=ViewsConfig(
                refresh_mode=args.refresh_mode,
                warm_threshold=args.warm_threshold,
            ),
        )
    except ConfigError as error:
        print(f"error: {error}")
        return 2
    failures = (
        FailureSchedule.at(*[(s, ps) for s, ps in failure_specs])
        if failure_specs
        else None
    )
    scenario_kwargs = dict(
        epochs=args.epochs, failures=failures, fail_epoch=args.fail_epoch
    )
    try:
        if args.service:
            from ..service import JobService

            with JobService(ServiceConfig(views=config.views)) as service:
                outcomes = run_scenario(config, service=service, **scenario_kwargs)
        else:
            outcomes = run_scenario(config, **scenario_kwargs)
    except ReproError as error:
        print(f"error: {error}")
        return 1
    _print_view_outcomes(outcomes)
    return 0


def _print_view_outcomes(outcomes) -> None:
    header = (
        f"{'epoch':>5}  {'view':<16} {'mode':<5} {'supersteps':>10} "
        f"{'changed':>8} {'affected':>9} {'failures':>8}"
    )
    print(header)
    print("-" * len(header))
    for outcome in outcomes:
        mutations = ", ".join(
            f"{kind}={count}" for kind, count in sorted(outcome.mutation_counts.items())
        )
        print(f"epoch {outcome.epoch}" + (f": {mutations}" if mutations else ": base graph"))
        for report in outcome.reports:
            affected = (
                f"{report.affected}/{report.total_keys}" if report.total_keys else "-"
            )
            print(
                f"{'':>5}  {report.view:<16} {report.mode:<5} "
                f"{report.supersteps:>10} {report.changed:>8} {affected:>9} "
                f"{report.failures:>8}"
            )
    warm = sum(1 for o in outcomes for r in o.reports if r.mode == "warm")
    cold = sum(1 for o in outcomes for r in o.reports if r.mode == "cold")
    print(f"\n{warm} warm refreshes, {cold} cold refreshes; all views fresh")


def _render_state(run: DemoRun, state: dict, highlight: list[int]) -> str:
    if run.algorithm == "pagerank":
        return render_ranks(state, highlight=highlight, width=30)
    return render_components(state, highlight=highlight)


def _print_states(run: DemoRun) -> None:
    snapshots = run.result.snapshots
    failure_supersteps = run.result.stats.failure_supersteps()
    phases = [
        (SnapshotPhase.INITIAL, "initial state"),
        (SnapshotPhase.BEFORE_FAILURE, "before failure"),
        (SnapshotPhase.AFTER_COMPENSATION, "after compensation"),
        (SnapshotPhase.AFTER_ROLLBACK, "after rollback"),
        (SnapshotPhase.AFTER_RESTART, "after restart"),
        (SnapshotPhase.CONVERGED, "converged state"),
    ]
    for phase, title in phases:
        for snapshot in snapshots.of_phase(phase):
            highlight = (
                run.lost_vertices(snapshot.superstep)
                if snapshot.superstep in failure_supersteps
                else []
            )
            print(f"\n--- {title} [superstep {snapshot.superstep}] ---")
            print(_render_state(run, snapshot.as_dict(), highlight))


def _print_plots(run: DemoRun) -> None:
    stats = run.statistics()
    series = [Series.of("converged", stats.converged.values)]
    if run.algorithm == "pagerank":
        series.append(Series.of("l1_delta", stats.l1.values))
    else:
        series.append(Series.of("messages", stats.messages.values))
    print()
    print(format_figure(f"{run.algorithm} statistics", series))
    if stats.failures:
        print(f"failures struck at iteration(s): {stats.failures}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes follow argparse conventions: 2 for bad command-line input
    (malformed ``--fail`` specs, out-of-range partitions), 1 for runtime
    errors, 0 on success.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "views":
        return views_main(argv[1:])
    args = build_parser().parse_args(argv)
    tracer = RecordingTracer() if args.trace_out else None
    try:
        _check_strategy(args.strategy)
        failures = [_parse_failure(text) for text in args.failures]
        session = DemoSession(
            algorithm=args.algorithm,
            graph=args.graph,
            parallelism=args.parallelism,
            spare_workers=max(4, args.parallelism),
            twitter_size=args.size,
            seed=args.seed,
        )
        for superstep, partitions in failures:
            session.schedule_failure(superstep, partitions)
    except ConfigError as error:
        print(f"error: {error}")
        return 2
    try:
        run = session.press_play(
            recovery=args.strategy,
            checkpoint_interval=args.checkpoint_interval,
            tracer=tracer,
        )
    except ConfigError as error:
        # Invalid option combination (e.g. incremental recovery on the
        # bulk-iteration tab) — a usage error, same exit code as argparse.
        print(f"error: {error}")
        return 2
    except ReproError as error:
        print(f"error: {error}")
        return 1
    print(run.result.summary())
    print(f"cost breakdown: {run.result.cost_breakdown()}")
    if tracer is not None:
        try:
            trace_to_jsonl(
                tracer.roots,
                args.trace_out,
                events=run.result.events,
                stats=run.result.stats,
                meta={
                    "algorithm": args.algorithm,
                    "graph": args.graph,
                    "recovery": args.strategy,
                    "parallelism": args.parallelism,
                    "supersteps": run.result.supersteps,
                    "converged": run.result.converged,
                    "sim_time": run.result.clock.now,
                },
            )
        except OSError as error:
            print(f"error: cannot write trace: {error}")
            return 1
        print(f"trace written to {args.trace_out}")
    if args.states:
        _print_states(run)
    if args.plots:
        _print_plots(run)
    if args.report:
        from ..analysis.run_report import render_run_report

        print()
        print(render_run_report(run.result))
    return 0
