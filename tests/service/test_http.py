"""Tests for the HTTP front door: routes, status codes, both backends."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.config import ServiceConfig, ShardConfig
from repro.service import (
    JobDescriptor,
    JobService,
    LocalBackend,
    ShardBackend,
    ShardedJobService,
    make_http_server,
)


def request(base: str, method: str, path: str, body: dict | None = None):
    """Returns (status_code, parsed_json_or_text)."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read().decode()
            code = resp.status
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode()
        code = exc.code
    try:
        return code, json.loads(raw)
    except json.JSONDecodeError:
        return code, raw


@pytest.fixture()
def front_door():
    """A served LocalBackend over a 1-worker JobService; yields the base URL."""
    service = JobService(ServiceConfig(pool_size=1, poll_interval=0.005))
    backend = LocalBackend(service)
    server = make_http_server(backend)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10.0)
        service.shutdown()


def submit_and_wait(base: str, descriptor: JobDescriptor) -> dict:
    code, body = request(base, "POST", "/api/v1/jobs", descriptor.to_dict())
    assert code == 202
    job_id = body["job_id"]
    for _ in range(2000):
        code, record = request(base, "GET", f"/api/v1/jobs/{job_id}/result")
        if code == 200:
            return record
        assert code == 409  # not terminal yet: poll again
    raise AssertionError("job never terminated")


class TestLocalBackendRoutes:
    def test_submit_status_result_round_trip(self, front_door):
        descriptor = JobDescriptor(name="cc-http", kind="cc", component_size=4)
        code, body = request(
            front_door, "POST", "/api/v1/jobs", descriptor.to_dict()
        )
        assert code == 202
        assert body["state"] == "queued"
        job_id = body["job_id"]

        code, status = request(front_door, "GET", f"/api/v1/jobs/{job_id}")
        assert code == 200
        assert status["job_id"] == job_id

        record = submit_and_wait(
            front_door, JobDescriptor(name="cc-http2", kind="cc", component_size=4)
        )
        assert record["state"] == "succeeded"
        assert record["result"]["converged"] is True

    def test_unknown_job_is_404(self, front_door):
        code, body = request(front_door, "GET", "/api/v1/jobs/job-99999999")
        assert code == 404
        assert "unknown" in body["error"]

    def test_invalid_descriptor_is_400(self, front_door):
        code, body = request(
            front_door, "POST", "/api/v1/jobs", {"name": "x", "kind": "mystery"}
        )
        assert code == 400

    def test_malformed_body_is_400(self, front_door):
        req = urllib.request.Request(
            front_door + "/api/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, front_door, length):
        host, port = front_door.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.putrequest("POST", "/api/v1/jobs")
            conn.putheader("Content-Length", length)
            conn.endheaders(b"{}")
            response = conn.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            conn.close()
        code, _ = request(front_door, "GET", "/api/v1/health")
        assert code == 200

    def test_oversized_body_is_413_without_reading_it(self, front_door):
        host, port = front_door.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=2.0) as sock:
            # Headers only: a server that tries to read the claimed body
            # blocks until the timeout instead of answering.
            sock.sendall(
                b"POST /api/v1/jobs HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 10000000000\r\n\r\n"
            )
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"413"
        code, _ = request(front_door, "GET", "/api/v1/health")
        assert code == 200

    def test_result_before_terminal_is_409(self, front_door):
        # A job with enough supersteps to still be running at first poll.
        descriptor = JobDescriptor(
            name="pr-slow", kind="pagerank", num_vertices=60, epsilon=1e-9
        )
        code, body = request(
            front_door, "POST", "/api/v1/jobs", descriptor.to_dict()
        )
        job_id = body["job_id"]
        code, _ = request(front_door, "GET", f"/api/v1/jobs/{job_id}/result")
        assert code in (200, 409)  # 409 unless it finished implausibly fast
        # Drain so the fixture can shut down promptly.
        for _ in range(2000):
            code, _ = request(front_door, "GET", f"/api/v1/jobs/{job_id}/result")
            if code == 200:
                break

    def test_cancel_round_trip(self, front_door):
        descriptor = JobDescriptor(
            name="pr-cancel", kind="pagerank", num_vertices=60, epsilon=1e-12
        )
        _, body = request(front_door, "POST", "/api/v1/jobs", descriptor.to_dict())
        job_id = body["job_id"]
        code, body = request(front_door, "POST", f"/api/v1/jobs/{job_id}/cancel")
        assert code == 200
        assert body["job_id"] == job_id

    def test_health_and_metrics(self, front_door):
        code, health = request(front_door, "GET", "/api/v1/health")
        assert code == 200
        assert "queue" in health and "pool" in health
        code, text = request(front_door, "GET", "/metrics")
        assert code == 200
        assert isinstance(text, str)
        assert "repro_service_queue_depth" in text

    def test_unknown_route_is_404(self, front_door):
        code, _ = request(front_door, "GET", "/api/v2/everything")
        assert code == 404
        code, _ = request(front_door, "POST", "/api/v1/nope")
        assert code == 404

    def test_shutdown_endpoint_stops_listener(self):
        service = JobService(ServiceConfig(pool_size=1))
        server = make_http_server(LocalBackend(service))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            code, body = request(
                f"http://{host}:{port}", "POST", "/api/v1/shutdown"
            )
            assert code == 202 and body["stopping"] is True
            thread.join(15.0)
            assert not thread.is_alive()
        finally:
            server.server_close()
            service.shutdown()


class TestShardBackendRoutes:
    def test_sharded_round_trip(self, tmp_path):
        sharded = ShardedJobService(
            ServiceConfig(pool_size=1, poll_interval=0.005),
            ShardConfig(
                num_shards=2,
                spool_dir=str(tmp_path / "spool"),
                claim_interval=0.005,
            ),
        )
        server = make_http_server(ShardBackend(sharded))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            record = submit_and_wait(
                base, JobDescriptor(name="cc-shard", kind="cc", component_size=4)
            )
            assert record["state"] == "succeeded"

            code, health = request(base, "GET", "/api/v1/health")
            assert code == 200 and health["num_shards"] == 2

            code, text = request(base, "GET", "/metrics")
            assert code == 200 and "repro_service_shards 2" in text

            code, body = request(base, "GET", "/api/v1/jobs/job-00000000")
            assert code == 200 and body["state"] == "succeeded"

            code, _ = request(base, "GET", "/api/v1/jobs/job-12345678")
            assert code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(10.0)
            sharded.shutdown()
