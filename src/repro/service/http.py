"""The HTTP front door: a thin stdlib JSON/REST layer over the service.

Endpoints (all JSON unless noted)::

    POST /api/v1/jobs              submit a JobDescriptor     -> 202 {job_id}
    GET  /api/v1/jobs/<id>         lifecycle state            -> 200 {state}
    GET  /api/v1/jobs/<id>/result  terminal record            -> 200 / 409
    POST /api/v1/jobs/<id>/cancel  request cancellation       -> 200 {cancelled}
    GET  /api/v1/health            service health dict        -> 200
    GET  /metrics                  Prometheus text exposition -> 200 (text)
    POST /api/v1/shutdown          graceful stop              -> 202

Status codes carry the admission semantics: a descriptor the validator
refuses is ``400``, a body over :data:`MAX_BODY_BYTES` is ``413``, a job
the admission controller sheds or rejects is ``429`` (back off and
retry), a draining/closed service is ``503``, an unknown job id is
``404``, and asking for the result of a still-running job is ``409``
(poll again). The server is the stdlib
:class:`http.server.ThreadingHTTPServer` — no framework, no
dependencies — and the handler speaks to either backend through the same
five-method surface: :class:`LocalBackend` wraps a single-process
:class:`~repro.service.api.JobService`; :class:`ShardBackend` wraps a
:class:`~repro.service.shard.ShardedJobService`, making the front door
the submission path of the whole multi-process fleet.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..errors import AdmissionError, ConfigError, ServiceError
from ..observability.prometheus import render_snapshots
from .api import JobService
from .descriptor import JobDescriptor, result_record
from .shard import ShardedJobService

#: largest request body the front door reads; a descriptor is a few
#: hundred bytes, and an unbounded ``Content-Length`` would make a handler
#: buffer whatever the client claims.
MAX_BODY_BYTES = 1 << 20


class ResultNotReady(ServiceError):
    """The job exists but has not reached a terminal state yet (HTTP 409)."""


class UnknownJob(ServiceError):
    """No job with that id was ever submitted here (HTTP 404)."""


class BodyTooLarge(ConfigError):
    """The request's ``Content-Length`` exceeds :data:`MAX_BODY_BYTES` (HTTP 413)."""


class LocalBackend:
    """Front-door backend over one in-process :class:`JobService`."""

    def __init__(self, service: JobService):
        self.service = service
        self._lock = threading.Lock()
        self._descriptors: dict[str, tuple[JobDescriptor, Any]] = {}

    def submit_descriptor(self, descriptor: JobDescriptor) -> str:
        handle = self.service.submit(descriptor.to_spec())
        job_id = f"job-{handle.job_id:08d}"
        with self._lock:
            self._descriptors[job_id] = (descriptor, handle)
        return job_id

    def _entry(self, job_id: str) -> tuple[JobDescriptor, Any]:
        with self._lock:
            entry = self._descriptors.get(job_id)
        if entry is None:
            raise UnknownJob(f"unknown job id {job_id}")
        return entry

    def job_status(self, job_id: str) -> str:
        _, handle = self._entry(job_id)
        return handle.state.value

    def job_result(self, job_id: str) -> dict[str, Any]:
        descriptor, handle = self._entry(job_id)
        if not handle.is_terminal:
            raise ResultNotReady(f"job {job_id} is still {handle.state.value}")
        return result_record(job_id, descriptor, handle)

    def cancel_job(self, job_id: str) -> bool:
        _, handle = self._entry(job_id)
        return handle.request_cancel()

    def health(self) -> dict[str, Any]:
        return self.service.health()

    def metrics_text(self) -> str:
        return render_snapshots([({}, self.service.metrics.snapshot_all())])

    def shutdown(self) -> None:
        self.service.shutdown()


class ShardBackend:
    """Front-door backend over a multi-process :class:`ShardedJobService`."""

    def __init__(self, service: ShardedJobService):
        self.service = service

    def submit_descriptor(self, descriptor: JobDescriptor) -> str:
        return self.service.submit(descriptor)

    def _check_known(self, job_id: str) -> None:
        try:
            self.service.status(job_id)
        except ServiceError:
            raise UnknownJob(f"unknown job id {job_id}") from None

    def job_status(self, job_id: str) -> str:
        self._check_known(job_id)
        return self.service.status(job_id)

    def job_result(self, job_id: str) -> dict[str, Any]:
        self._check_known(job_id)
        record = self.service.spool.read_result(job_id)
        if record is None:
            raise ResultNotReady(f"job {job_id} has no terminal record yet")
        return record

    def cancel_job(self, job_id: str) -> bool:
        self._check_known(job_id)
        return self.service.cancel(job_id)

    def health(self) -> dict[str, Any]:
        return self.service.health()

    def metrics_text(self) -> str:
        # The coordinator holds no MetricsRegistry; expose its health
        # counters as gauges so a scraper still sees the fleet.
        health = self.service.health()
        snapshot = {
            "gauges": {
                "service.shards": health["num_shards"],
                "service.submitted": health["submitted"],
                "service.done": health["done"],
                "service.pending": health["pending"],
            }
        }
        return render_snapshots([({}, snapshot)])

    def shutdown(self) -> None:
        self.service.shutdown()


class FrontDoorHandler(BaseHTTPRequestHandler):
    """Routes the REST surface onto the server's backend."""

    server_version = "repro-frontdoor/1.0"
    protocol_version = "HTTP/1.1"

    # The test servers run quiet; set server.verbose_log = True to debug.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose_log", False):
            super().log_message(format, *args)

    @property
    def backend(self):
        return self.server.backend  # type: ignore[attr-defined]

    # -- plumbing --------------------------------------------------------------

    def _send_json(self, code: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # Where the body ends is unknown, so the connection cannot
            # carry another request.
            self.close_connection = True
            raise ConfigError(
                f"Content-Length must be a non-negative integer, got {header!r}"
            )
        if length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request either.
            self.close_connection = True
            raise BodyTooLarge(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("request body must be a JSON object")
        return data

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    # -- routes ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        try:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["api", "v1", "health"]:
                self._send_json(200, self.backend.health())
            elif parts == ["metrics"]:
                self._send_text(200, self.backend.metrics_text())
            elif len(parts) == 4 and parts[:3] == ["api", "v1", "jobs"]:
                job_id = parts[3]
                self._send_json(
                    200, {"job_id": job_id, "state": self.backend.job_status(job_id)}
                )
            elif len(parts) == 5 and parts[:3] == ["api", "v1", "jobs"] and parts[4] == "result":
                self._send_json(200, self.backend.job_result(parts[3]))
            else:
                self._error(404, f"no such route: GET {self.path}")
        except UnknownJob as exc:
            self._error(404, str(exc))
        except ResultNotReady as exc:
            self._error(409, str(exc))
        except ServiceError as exc:
            self._error(404, str(exc))

    def do_POST(self) -> None:  # noqa: N802
        try:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["api", "v1", "jobs"]:
                descriptor = JobDescriptor.from_dict(self._read_body())
                job_id = self.backend.submit_descriptor(descriptor)
                self._send_json(202, {"job_id": job_id, "state": "queued"})
            elif (
                len(parts) == 5
                and parts[:3] == ["api", "v1", "jobs"]
                and parts[4] == "cancel"
            ):
                cancelled = self.backend.cancel_job(parts[3])
                self._send_json(200, {"job_id": parts[3], "cancelled": cancelled})
            elif parts == ["api", "v1", "shutdown"]:
                self._send_json(202, {"stopping": True})
                # Stop the listener from another thread; shutdown() blocks
                # until serve_forever returns, which cannot happen on the
                # handler thread itself.
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
            else:
                self._error(404, f"no such route: POST {self.path}")
        except BodyTooLarge as exc:
            self._error(413, str(exc))
        except ConfigError as exc:
            self._error(400, str(exc))
        except AdmissionError as exc:
            self._error(429, str(exc))
        except UnknownJob as exc:
            self._error(404, str(exc))
        except ServiceError as exc:
            self._error(503, str(exc))


def make_http_server(
    backend: LocalBackend | ShardBackend,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """A ready-to-serve front door; ``port=0`` picks a free port.

    The caller owns the lifecycle: ``serve_forever()`` (usually on a
    thread), then ``shutdown()``+``server_close()``. The bound port is
    ``server.server_address[1]``.
    """
    server = ThreadingHTTPServer((host, port), FrontDoorHandler)
    server.backend = backend  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server
