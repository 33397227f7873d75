"""``serve-http``: the whole service stack behind its HTTP front door.

The server is the program's own ``serve --http --shards 2 --pool 1``
subprocess; the load generator lives here, in one process with two
threads (``nproc`` on the reference box). Every request opens its own
connection, as ``curl`` and ``urllib`` do. Two phases:

* **drain** (closed, saturated): bursts of jobs, each POSTed back to back
  and then polled until all are terminal. Measures capacity.
* **paced** (open loop): send at a fixed rate well below capacity, one
  sender thread and one poller; latency runs from each job's *due* time
  to the moment the poller sees it terminal, so a stall is charged to
  every job it delays. Measures latency below saturation.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.service import JobDescriptor, records_equal, serialize_result

from ..harness import ROOT, BenchError, cpu_seconds, now, percentile
from ..inputs import descriptors
from ..spans import RunUnit
from . import Outcome, Unit, end_to_end

#: the drain phase is this many bursts of ``BURST_JOBS_PER_SECOND x
#: --seconds`` jobs each; the fleet drains about 100 jobs/s, so the phase
#: takes about a third of the run. A burst is the unit ``wall_s`` times.
BURSTS = 5
BURST_JOBS_PER_SECOND = 6
#: jobs drained untimed first (about 2 s of saturated load): freshly
#: forked shard processes start in the host's slow just-woke-up state,
#: and the timed bursts should meet a fleet that has left it.
WARMUP_JOBS = 200
#: open-loop rate and its share of ``--seconds``. About 15% of capacity:
#: the host's slow phases cut capacity up to 4x for seconds at a time, and
#: at 30 jobs/s (tried) those turned into backlog and a median latency
#: that swung 4x between runs; at 15 the queue stays short through them.
PACED_RATE = 15.0
PACED_SHARE = 0.6
#: seconds between the poller's sweeps over outstanding jobs.
POLL_INTERVAL = 0.005
#: how long after the last due time the backlog is read.
BACKLOG_GRACE = 1.0
#: server starts per run; ``setup_s`` is their median.
SETUPS = 3


class Server:
    """The front door and its shard fleet, as a subprocess."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.demo", "serve", "--http",
             "--shards", "2", "--pool", "1", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = self.proc.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", banner)
            if match is None:
                raise BenchError(f"server did not announce a port: {banner!r}")
            self.port = int(match.group(1))
            while self.request("GET", "/api/v1/health")[0] != 200:
                time.sleep(0.01)
        except BaseException:
            self.kill()
            raise

    def request(self, method: str, path: str, body: str | None = None) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(method, path, body=body, headers={"Connection": "close"})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def submit(self, descriptor: JobDescriptor) -> str:
        status, body = self.request("POST", "/api/v1/jobs", descriptor.to_json())
        if status != 202:
            raise BenchError(f"submit of {descriptor.name} refused with {status}: {body!r}")
        return json.loads(body)["job_id"]

    def result(self, job_id: str) -> dict[str, Any] | None:
        """The job's terminal record, or ``None`` while it is not ready (409)."""
        status, body = self.request("GET", f"/api/v1/jobs/{job_id}/result")
        if status == 200:
            return json.loads(body)
        if status == 409:
            return None
        raise BenchError(f"result of {job_id} answered {status}: {body!r}")

    def stop(self) -> None:
        """Graceful shutdown; the process and its shards are waited for."""
        try:
            self.request("POST", "/api/v1/shutdown")
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


@dataclass
class Phase:
    """What one load phase saw."""

    jobs: int = 0
    wall: float = 0.0
    polls: int = 0
    backlog_end: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    submit_ms: list[float] = field(default_factory=list)
    send_late_ms: list[float] = field(default_factory=list)
    #: job id -> (descriptor, terminal record)
    finished: dict[str, tuple[JobDescriptor, dict[str, Any]]] = field(default_factory=dict)


def _timed_submit(server: Server, descriptor: JobDescriptor, phase: Phase) -> str:
    started = now()
    job_id = server.submit(descriptor)
    phase.submit_ms.append((now() - started) * 1e3)
    return job_id


def _sweep(
    server: Server,
    phase: Phase,
    outstanding: dict[str, tuple[JobDescriptor, float]],
) -> None:
    """Ask for every outstanding job's result once; retire the terminal ones."""
    for job_id in list(outstanding):
        record = server.result(job_id)
        phase.polls += 1
        if record is not None:
            descriptor, due = outstanding.pop(job_id)
            phase.latencies_ms.append((now() - due) * 1e3)
            phase.finished[job_id] = (descriptor, record)


def drain(server: Server, batch: list[JobDescriptor], timeout: float = 120.0) -> Phase:
    """POST the whole batch, then poll until every job is terminal."""
    phase = Phase(jobs=len(batch))
    started = now()
    outstanding = {
        _timed_submit(server, descriptor, phase): (descriptor, started) for descriptor in batch
    }
    while outstanding and now() - started < timeout:
        _sweep(server, phase, outstanding)
        if outstanding:
            time.sleep(POLL_INTERVAL)
    phase.wall = now() - started
    phase.backlog_end = len(outstanding)
    return phase


def paced(
    server: Server, batch: list[JobDescriptor], rate: float, timeout: float = 60.0
) -> Phase:
    """Send ``batch`` at a fixed ``rate`` whatever the server does."""
    phase = Phase(jobs=len(batch))
    submitted: queue.SimpleQueue[tuple[str, JobDescriptor, float]] = queue.SimpleQueue()
    started = now() + 0.05
    last_due = started + (len(batch) - 1) / rate

    def send() -> None:
        for index, descriptor in enumerate(batch):
            due = started + index / rate
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            phase.send_late_ms.append((now() - due) * 1e3)
            submitted.put((_timed_submit(server, descriptor, phase), descriptor, due))

    outstanding: dict[str, tuple[JobDescriptor, float]] = {}
    backlog_read = False
    with ThreadPoolExecutor(max_workers=1) as pool:
        sender = pool.submit(send)
        while now() < last_due + timeout:
            while not submitted.empty():
                job_id, descriptor, due = submitted.get()
                outstanding[job_id] = (descriptor, due)
            _sweep(server, phase, outstanding)
            if not backlog_read and now() >= last_due + BACKLOG_GRACE:
                # jobs sent but not terminal, plus jobs the sender has not got to
                phase.backlog_end = phase.jobs - len(phase.finished)
                backlog_read = True
            if backlog_read and not outstanding and sender.done() and submitted.empty():
                break
            time.sleep(POLL_INTERVAL)
        sender.result()
    phase.wall = now() - started
    return phase


def check_results(phases: list[Phase], seed: int) -> list[str]:
    """Every job succeeded, and a seeded tenth of them returned exactly
    what the same descriptor computes standalone. A backlog at the end of
    the paced phase is reported, not failed: it says the rate was not
    sustained (on this host, usually that a slow phase struck), while
    every job in it still has to succeed."""
    failures = []
    finished = {}
    for phase in phases:
        if len(phase.finished) != phase.jobs:
            failures.append(f"{phase.jobs - len(phase.finished)} jobs never became terminal")
        finished.update(phase.finished)
    for job_id, (descriptor, record) in finished.items():
        if record["state"] != "succeeded":
            failures.append(f"{job_id} ({descriptor.name}) ended {record['state']}: {record['error']}")
    succeeded = sorted(j for j, (_, r) in finished.items() if r["state"] == "succeeded")
    sample = random.Random(seed).sample(succeeded, max(1, len(succeeded) // 10)) if succeeded else []
    for job_id in sample:
        descriptor, record = finished[job_id]
        expected = serialize_result(descriptor.to_spec().run_standalone())
        if not records_equal(record["result"], expected):
            failures.append(f"{job_id} ({descriptor.name}): result differs from the standalone run")
    return failures


class ServeHttp:
    name = "serve-http"
    why = (
        "tiny jobs through HTTP, spool, shards and queues, so coordination dominates: "
        "a saturated drain phase for capacity, a paced open loop at 15 jobs/s for latency"
    )

    def run(self, seed: int, seconds: float, smoke: bool) -> Outcome:
        burst_jobs = max(3, int(BURST_JOBS_PER_SECOND * seconds))
        drain_jobs = BURSTS * burst_jobs
        paced_jobs = max(10, int(PACED_RATE * PACED_SHARE * seconds))
        warmup_jobs = min(WARMUP_JOBS, drain_jobs)
        total = warmup_jobs + drain_jobs + paced_jobs

        def start() -> tuple[Server, list[JobDescriptor], float]:
            started = now()
            batch = descriptors(total, seed)
            server = Server()
            return server, batch, now() - started

        cpu0 = cpu_seconds()
        server, batch, first_setup = start()
        try:
            warmup = drain(server, batch[:warmup_jobs])
            bursts = [
                drain(server, batch[start:start + burst_jobs])
                for start in range(warmup_jobs, warmup_jobs + drain_jobs, burst_jobs)
            ]
            sustained = paced(server, batch[warmup_jobs + drain_jobs:], PACED_RATE)
        except BaseException:
            server.kill()
            raise
        server.stop()
        cpu = cpu_seconds() - cpu0
        setups = [first_setup]
        for _ in range(0 if smoke else SETUPS - 1):
            again, _, wall = start()
            again.stop()
            setups.append(wall)

        failures = check_results([warmup, *bursts, sustained], seed)
        units = [
            Unit(
                burst.wall,
                0.0,
                sum(len(r["result"]["final_records"]) for _, r in burst.finished.values() if r["result"]),
                burst.jobs,
            )
            for burst in bursts
        ]
        return Outcome(
            metrics=end_to_end(setups, units, sustained.latencies_ms, cpu_s=[cpu / total]),
            attempted=total,
            failures=failures,
            detail={
                "drain_jobs": drain_jobs,
                "paced_jobs": paced_jobs,
                "paced_rate_per_s": PACED_RATE,
                "backlog_end": sustained.backlog_end,
                "latency_p95_ms": percentile(sustained.latencies_ms, 0.95),
                "latency_p99_ms": percentile(sustained.latencies_ms, 0.99),
                "polls_per_job": (sum(b.polls for b in bursts) + sustained.polls) / (drain_jobs + paced_jobs),
            },
        )

    def engine_unit(self, seed: int, smoke: bool) -> RunUnit:
        """The engine work behind the service: the same descriptors, run
        standalone in this process (the server's spans stay in the server)."""
        sample = descriptors(10 if smoke else 60, seed)

        def run_unit(make_tracer: Callable[[], Any] | None) -> tuple[list[Any], float]:
            started = now()
            results = [
                descriptor.to_spec().run_standalone(
                    tracer=make_tracer() if make_tracer else None
                )
                for descriptor in sample
            ]
            return results, now() - started

        return run_unit


SERVE_HTTP = ServeHttp()
