"""S11 — sharded service scale-out at 10x the S5 workload.

Not a paper figure: the scale-out experiment from the multi-job service
extension. A seeded 500-descriptor workload (10x the S5 job count, on
micro graphs so the coordination layer dominates) is pushed through
:class:`repro.service.ShardedJobService` at several shard counts, then
through the tenant-fair single-process service under weighted load and
under 2x-saturation overload. The claims:

* throughput scales with the shard count (asserted >= 1.5x from 1 to 4
  shards on hosts with >= 4 cores; reported otherwise);
* every job that succeeded through the fleet is bit-identical to running
  its descriptor standalone in this process;
* deficit round-robin converges to the configured 4:2:1 tenant shares
  within 15%;
* under overload the shedder rejects excess work explicitly — completed
  + shed + rejected add up to submitted, nothing is silently dropped —
  and the high-weight tenant is never the victim.
"""

import os
import time

import pytest

from repro.analysis import Table
from repro.config import FairnessConfig, ServiceConfig, ShardConfig
from repro.errors import AdmissionError
from repro.observability.metrics import percentile
from repro.service import (
    JobDescriptor,
    JobService,
    JobState,
    ShardedJobService,
    generate_descriptor_workload,
    records_equal,
    serialize_result,
)

from .conftest import run_once

#: 10x the S5 job count, micro graphs: coordination cost dominates.
SCALEOUT_JOBS = 500
TENANTS = tuple(f"tenant-{i}" for i in range(8))
WEIGHTS = (("gold", 4), ("silver", 2), ("bronze", 1))


def scaleout_workload(num_jobs: int = SCALEOUT_JOBS, seed: int = 11):
    return generate_descriptor_workload(
        num_jobs=num_jobs,
        seed=seed,
        tenants=TENANTS,
        graph_scale=0.25,
        failure_density=0.1,
        parallelism=2,
    )


def service_config(**overrides) -> ServiceConfig:
    defaults = dict(
        pool_size=1,
        poll_interval=0.005,
        trace_jobs=False,
        queue_capacity=None,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _drive_shards(workload, num_shards: int):
    shard_config = ShardConfig(num_shards=num_shards, claim_interval=0.005)
    started = time.monotonic()
    with ShardedJobService(service_config(), shard_config) as service:
        service.submit_all(workload)
        records = service.wait_all(timeout=540.0)
    wall = time.monotonic() - started
    return records, wall


def test_s11_throughput_vs_shard_count(benchmark, report):
    cores = os.cpu_count() or 1
    shard_counts = (1, 4) if cores >= 4 else (1, 2)
    workload = scaleout_workload()

    def run_sweep():
        return [(n, *_drive_shards(workload, n)) for n in shard_counts]

    rows = run_once(benchmark, run_sweep)

    table = Table(
        ["shards", "jobs", "succeeded", "failed", "jobs/s", "wall (s)"],
        title=f"S11 — {SCALEOUT_JOBS}-job (10x S5) workload vs shard count "
        f"(host cores: {cores})",
    )
    for n, records, wall in rows:
        states = [r["state"] for r in records.values()]
        table.add_row(
            n,
            len(records),
            states.count("succeeded"),
            states.count("failed"),
            round(len(records) / wall, 1),
            round(wall, 1),
        )
    report(str(table))

    for n, records, wall in rows:
        # Nothing dropped: every submitted job reached a terminal record.
        assert len(records) == SCALEOUT_JOBS
        states = [r["state"] for r in records.values()]
        assert states.count("succeeded") == SCALEOUT_JOBS

    if cores >= 4:
        serial = next(r for r in rows if r[0] == 1)
        wide = next(r for r in rows if r[0] == max(shard_counts))
        speedup = serial[2] / wide[2]
        assert speedup >= 1.5, (
            f"expected >= 1.5x speedup from 1 to {max(shard_counts)} shards, "
            f"got {speedup:.2f}x"
        )
    else:
        report(
            f"speedup assertion needs >= 4 cores (host has {cores}); "
            "ran the sweep for the coordination-overhead numbers only"
        )


def test_s11_sharded_results_match_standalone(benchmark, report):
    workload = scaleout_workload(num_jobs=60, seed=13)

    def run_fleet():
        shard_config = ShardConfig(num_shards=2, claim_interval=0.005)
        with ShardedJobService(service_config(), shard_config) as service:
            job_ids = service.submit_all(workload)
            records = service.wait_all(timeout=300.0)
        return job_ids, records

    job_ids, records = run_once(benchmark, run_fleet)
    compared = mismatches = 0
    for descriptor, job_id in zip(workload, job_ids):
        record = records[job_id]
        if record["state"] != "succeeded":
            continue
        compared += 1
        attempt = max(0, record["attempts"] - 1)
        alone = serialize_result(descriptor.to_spec().run_standalone(attempt=attempt))
        if not records_equal(alone, record["result"]):
            mismatches += 1

    table = Table(
        ["jobs", "succeeded", "compared", "mismatches"],
        title="S11 — fleet vs standalone bit-identity (2 shards)",
    )
    table.add_row(len(workload), compared, compared, mismatches)
    report(str(table))

    assert compared >= 55
    assert mismatches == 0


def test_s11_weighted_fairness_shares(benchmark, report):
    # 70 jobs per tenant on micro graphs through a 1-worker fair service;
    # the warmup job keeps the worker busy until the whole backlog is
    # queued, so the first 105 completions are pure DRR order.
    fairness = FairnessConfig(enabled=True, weights=WEIGHTS)
    workload = [
        JobDescriptor(
            name=f"fair-{i}",
            kind="cc",
            tenant=("gold", "silver", "bronze")[i % 3],
            graph_seed=i,
            num_components=2,
            component_size=3,
            parallelism=1,
        )
        for i in range(210)
    ]

    # Specs are prebuilt so submission is pure queue work: the whole
    # backlog must be enqueued while the warmup job still occupies the
    # single worker, else early dequeues see a partial backlog.
    specs = [d.to_spec() for d in workload]
    warmup_spec = JobDescriptor(
        name="warmup",
        kind="pagerank",
        tenant="warmup",
        num_vertices=400,
        epsilon=1e-12,
        parallelism=1,
    ).to_spec()

    def run_fair():
        service = JobService(service_config(fairness=fairness))
        try:
            warmup = service.submit(warmup_spec)
            handles = [service.submit(spec) for spec in specs]
            for handle in handles:
                handle.wait(timeout=300.0)
            warmup.wait(timeout=300.0)
        finally:
            service.shutdown()
        return handles

    handles = run_once(benchmark, run_fair)
    assert all(h.state is JobState.SUCCEEDED for h in handles)
    first = sorted(handles, key=lambda h: h.finished_at)[:105]
    counts = {tenant: 0 for tenant, _ in WEIGHTS}
    for handle in first:
        counts[handle.spec.tenant] += 1

    total_weight = sum(weight for _, weight in WEIGHTS)
    table = Table(
        ["tenant", "weight", "target share", "measured share", "error"],
        title="S11 — DRR tenant shares over the first 105 completions",
    )
    for tenant, weight in WEIGHTS:
        target = weight / total_weight
        measured = counts[tenant] / len(first)
        table.add_row(
            tenant,
            weight,
            f"{target:.3f}",
            f"{measured:.3f}",
            f"{abs(measured - target) / target * 100:.1f}%",
        )
    report(str(table))

    for tenant, weight in WEIGHTS:
        target = weight / total_weight
        measured = counts[tenant] / len(first)
        assert abs(measured - target) / target <= 0.15, (
            f"{tenant} share {measured:.3f} deviates more than 15% "
            f"from target {target:.3f}"
        )


def test_s11_overload_shedding(benchmark, report):
    # 2x+ saturation of a capacity-16 queue behind a busy 1-job worker:
    # gold submissions evict bronze (shed, explicit failure), excess
    # bronze is rejected at the door, and the books balance exactly.
    fairness = FairnessConfig(enabled=True, weights=WEIGHTS)
    config = service_config(
        queue_capacity=16, backpressure="reject", fairness=fairness
    )

    def tiny(name, tenant, index):
        return JobDescriptor(
            name=name,
            kind="cc",
            tenant=tenant,
            graph_seed=index,
            num_components=2,
            component_size=3,
            parallelism=1,
        ).to_spec()

    submissions = (
        [("bronze", i) for i in range(16)]
        + [("gold", i) for i in range(8)]
        + [("silver", i) for i in range(8)]
        + [("bronze", 100 + i) for i in range(8)]
    )
    # Prebuilt, so every submission lands while the warmup job still
    # occupies the worker and the queue genuinely saturates.
    specs = [
        (tenant, tiny(f"{tenant}-{index}", tenant, index))
        for tenant, index in submissions
    ]
    # The warmup rides in the gold lane so it can never be a shed victim
    # (victims must have strictly lower weight than the incoming job).
    warmup_spec = JobDescriptor(
        name="warmup",
        kind="pagerank",
        tenant="gold",
        num_vertices=400,
        epsilon=1e-12,
        parallelism=1,
    ).to_spec()

    def run_overload():
        service = JobService(config)
        admitted, rejected = [], 0
        try:
            warmup = service.submit(warmup_spec)
            for tenant, spec in specs:
                try:
                    admitted.append(service.submit(spec))
                except AdmissionError:
                    rejected += 1
            for handle in admitted:
                if not handle.shed:
                    handle.wait(timeout=300.0)
            warmup.wait(timeout=300.0)
            shed_counter = service._queue.shed_jobs
        finally:
            service.shutdown()
        return admitted, rejected, shed_counter, len(submissions)

    admitted, rejected, shed_counter, submitted = run_once(benchmark, run_overload)
    shed = [h for h in admitted if h.shed]
    completed = [h for h in admitted if h.state is JobState.SUCCEEDED]

    # Exact accounting: nothing silently dropped.
    assert len(completed) + len(shed) + rejected == submitted
    assert len(shed) > 0 and rejected > 0
    assert shed_counter >= len(shed) + rejected
    # Every shed job fails loudly, never hangs.
    for handle in shed:
        assert handle.state is JobState.FAILED
        with pytest.raises(AdmissionError):
            handle.result(timeout=0)
    # The high-weight tenant is never the victim and its waits stay
    # bounded by the drain of one capacity-16 queue.
    gold = [h for h in admitted if h.spec.tenant == "gold"]
    assert all(h.state is JobState.SUCCEEDED for h in gold)
    gold_waits = [h.time_in_queue for h in gold]
    drain_wall = max(h.finished_at for h in completed) - min(
        h.submitted_at for h in completed
    )
    gold_p99 = percentile(gold_waits, 0.99)
    assert gold_p99 <= drain_wall

    by_tenant = {}
    for handle in admitted:
        by_tenant.setdefault(handle.spec.tenant, []).append(handle)
    table = Table(
        ["tenant", "submitted", "completed", "shed", "wait p99 (ms)"],
        title=f"S11 — overload at 2x+ saturation of a 16-slot queue "
        f"(rejected at door: {rejected})",
    )
    for tenant in ("gold", "silver", "bronze"):
        group = by_tenant.get(tenant, [])
        waits = [h.time_in_queue for h in group if h.time_in_queue is not None]
        table.add_row(
            tenant,
            len(group) + (rejected if tenant == "bronze" else 0),
            sum(1 for h in group if h.state is JobState.SUCCEEDED),
            sum(1 for h in group if h.shed),
            round(percentile(waits, 0.99) * 1000, 1) if waits else "-",
        )
    report(str(table))
