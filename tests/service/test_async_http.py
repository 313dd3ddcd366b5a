"""Asyncio front door: byte parity with the threaded server, fan-in.

The decisive test runs BOTH front doors over the *same* service
instance and compares raw response bytes route by route — same job
ids, same payloads, so any divergence is the transport's fault.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro import obs
from repro.service import (
    AsyncFrontDoor,
    JobRequest,
    ServiceClient,
    SynthesisService,
    make_async_server,
    make_server,
)

from tests.service.conftest import echo_pipeline

WAIT_S = 60.0


@pytest.fixture
def async_served():
    """A live asyncio server+client on an OS port; always torn down."""
    resources = []

    def build(**service_kw):
        service_kw.setdefault("workers", 2)
        service = SynthesisService(**service_kw)
        door = make_async_server(service, port=0)
        host, port = door.server_address
        client = ServiceClient(f"http://{host}:{port}")
        resources.append((door, service))
        return service, client

    yield build
    for door, service in resources:
        door.shutdown()
        service.shutdown(drain=False, timeout=10.0)


def _raw(address, method, path, body=None, headers=None):
    """One raw request; returns (status, headers, body bytes)."""
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        reply = conn.getresponse()
        return reply.status, dict(reply.getheaders()), reply.read()
    finally:
        conn.close()


class TestByteParityWithThreadedServer:
    def test_every_route_byte_identical(self):
        # One service, both front doors: identical state behind each.
        service = SynthesisService(workers=2, pipeline=echo_pipeline)
        threaded = make_server(service, port=0)
        threading.Thread(
            target=threaded.serve_forever, daemon=True
        ).start()
        door = make_async_server(service, port=0)
        try:
            job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
            service.wait(job.id, timeout=WAIT_S)
            submit_body = json.dumps(
                {"benchmark": "jacobi-1d"}
            ).encode()
            probes = [
                ("GET", f"/jobs/{job.id}", None),
                ("GET", f"/jobs/{job.id}/result", None),
                ("GET", "/jobs/nope", None),
                ("GET", "/not-a-route", None),
                ("POST", "/jobs", b"{not json"),
            ]
            for method, path, body in probes:
                t_status, t_headers, t_body = _raw(
                    threaded.server_address[:2], method, path, body
                )
                a_status, a_headers, a_body = _raw(
                    door.server_address, method, path, body
                )
                assert (t_status, t_body) == (a_status, a_body), path
                assert (
                    t_headers["Content-Type"]
                    == a_headers["Content-Type"]
                )
            # Submission is answered identically up to the job id
            # (each submit mints a new one); check the shape fields.
            t_status, _, t_body = _raw(
                threaded.server_address[:2], "POST", "/jobs", submit_body
            )
            a_status, _, a_body = _raw(
                door.server_address, "POST", "/jobs", submit_body
            )
            assert t_status == a_status == 202
            t_payload, a_payload = (
                json.loads(t_body), json.loads(a_body)
            )
            assert (
                t_payload["job"].keys() == a_payload["job"].keys()
            )
            # /healthz carries live clocks (uptime, avg_job_s) so the
            # bytes move between two reads; the *shape* cannot.
            t_status, _, t_body = _raw(
                threaded.server_address[:2], "GET", "/healthz", None
            )
            a_status, _, a_body = _raw(
                door.server_address, "GET", "/healthz", None
            )
            assert t_status == a_status == 200
            assert (
                json.loads(t_body).keys() == json.loads(a_body).keys()
            )
        finally:
            threaded.shutdown()
            threaded.server_close()
            door.shutdown()
            service.shutdown(drain=False, timeout=10.0)


class TestAsyncTransport:
    def test_client_round_trip(self, async_served):
        _, client = async_served(pipeline=echo_pipeline)
        result = client.synthesize(benchmark="jacobi-2d")
        assert result["echo"]["benchmark"] == "jacobi-2d"

    def test_keep_alive_serves_many_requests_per_connection(
        self, async_served
    ):
        service, client = async_served(pipeline=echo_pipeline)
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.wait(job.id, timeout=WAIT_S)
        host, port = (
            client.base_url.replace("http://", "").split(":")
        )
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            for _ in range(10):
                conn.request("GET", f"/jobs/{job.id}")
                reply = conn.getresponse()
                payload = json.loads(reply.read())
                assert reply.status == 200
                assert payload["state"] == "done"
        finally:
            conn.close()

    def test_trace_headers_propagate_any_casing(self, async_served):
        service, client = async_served(pipeline=echo_pipeline)
        host, port = (
            client.base_url.replace("http://", "").split(":")
        )
        body = json.dumps({"benchmark": "jacobi-2d"}).encode()
        trace_id = "ab" * 16  # 32 hex chars, as mint() produces
        status, _, reply = _raw(
            (host, int(port)),
            "POST",
            "/jobs",
            body,
            headers={"x-repro-TRACE-id": trace_id},
        )
        assert status == 202
        job_id = json.loads(reply)["job"]["id"]
        job = service.job(job_id)
        assert job.trace is not None
        assert job.trace.trace_id == trace_id

    def test_oversized_body_413(self, async_served):
        _, client = async_served(pipeline=echo_pipeline)
        host, port = (
            client.base_url.replace("http://", "").split(":")
        )
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request(
                "POST",
                "/jobs",
                body=b"x",
                headers={"Content-Length": str(64 * 1024 * 1024)},
            )
            assert conn.getresponse().status == 413
        finally:
            conn.close()

    def test_malformed_request_line_400(self, async_served):
        _, client = async_served(pipeline=echo_pipeline)
        host, port = (
            client.base_url.replace("http://", "").split(":")
        )
        with socket.create_connection(
            (host, int(port)), timeout=10
        ) as raw:
            raw.sendall(b"NOT A REQUEST\r\n\r\n")
            reply = raw.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_bad_request_body_is_json_even_with_quotes(self, async_served):
        _, client = async_served(pipeline=echo_pipeline)
        host, port = (
            client.base_url.replace("http://", "").split(":")
        )
        with socket.create_connection(
            (host, int(port)), timeout=10
        ) as raw:
            raw.sendall(b"GET /healthz HTTP/1.1\r\nit's-bad\r\n\r\n")
            reply = b""
            while chunk := raw.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        error = json.loads(reply.partition(b"\r\n\r\n")[2])["error"]
        assert "malformed header line" in error

    def test_client_disconnect_counted_not_crashed(self, async_served):
        obs.enable(capture_events=False)
        service, client = async_served(pipeline=echo_pipeline)
        host, port = (
            client.base_url.replace("http://", "").split(":")
        )
        # Open a request then slam the connection before the reply.
        for _ in range(3):
            with socket.create_connection(
                (host, int(port)), timeout=10
            ) as raw:
                raw.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 5\r\n\r\n"
                )
                # RST on close: pending body never arrives.
                raw.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )
        # The server is still perfectly healthy afterwards.
        assert client.health()["status"] == "ok"

    def test_concurrent_pollers_share_the_loop(self, async_served):
        service, client = async_served(pipeline=echo_pipeline)
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.wait(job.id, timeout=WAIT_S)
        host, port = (
            client.base_url.replace("http://", "").split(":")
        )
        errors = []

        def poll():
            try:
                conn = http.client.HTTPConnection(
                    host, int(port), timeout=30
                )
                for _ in range(5):
                    conn.request("GET", f"/jobs/{job.id}")
                    reply = conn.getresponse()
                    assert reply.status == 200
                    json.loads(reply.read())
                conn.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=poll, daemon=True)
            for _ in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT_S)
        assert not errors


class TestLifecycle:
    def test_start_is_idempotent_and_shutdown_joins(self):
        service = SynthesisService(
            workers=1, pipeline=echo_pipeline
        )
        door = AsyncFrontDoor(service, port=0)
        try:
            first = door.start()
            assert door.start() == first
        finally:
            door.shutdown()
            door.shutdown()  # idempotent
            service.shutdown(drain=False, timeout=10.0)

    def test_bind_failure_surfaces_as_service_error(self):
        service = SynthesisService(
            workers=1, pipeline=echo_pipeline
        )
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        door = AsyncFrontDoor(service, port=port)
        try:
            with pytest.raises(Exception):
                door.start()
        finally:
            blocker.close()
            door.shutdown()
            service.shutdown(drain=False, timeout=10.0)


class TestContentLength:
    """Both front doors answer a bad ``Content-Length`` with a JSON 400."""

    @pytest.fixture(params=["threaded", "async"])
    def door_address(self, request):
        service = SynthesisService(workers=1, pipeline=echo_pipeline)
        if request.param == "async":
            door = make_async_server(service, port=0)
            stop = door.shutdown
        else:
            door = make_server(service, port=0)
            thread = threading.Thread(target=door.serve_forever, daemon=True)
            thread.start()

            def stop():
                door.shutdown()
                door.server_close()

        try:
            yield door.server_address[:2]
        finally:
            stop()
            service.shutdown(drain=False, timeout=10.0)

    @pytest.mark.parametrize("value", ["abc", "-5", "1e3", "+7"])
    def test_invalid_content_length_is_400_json(self, door_address, value):
        head = (
            f"POST /jobs HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {value}\r\n\r\n"
        )
        with socket.create_connection(door_address, timeout=10) as raw:
            raw.sendall(head.encode("latin-1") + b"{}")
            reply = b""
            while True:
                chunk = raw.recv(4096)
                if not chunk:
                    break  # the door hangs up: the body extent is unknown
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 400 ")
        body = rest.partition(b"\r\n\r\n")[2]
        assert json.loads(body) == {"error": "invalid Content-Length"}
