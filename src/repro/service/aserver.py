"""Asyncio HTTP front door over the synthesis service.

The threaded front door (:mod:`repro.service.http`) spends one OS
thread per open connection — fine for a handful of clients, fatal for
thousands of pollers.  :class:`AsyncFrontDoor` serves the same JSON
API from a single event loop: connections are coroutines, so 256+
clients polling ``GET /jobs/<id>/result`` cost file descriptors, not
threads, and never starve the synthesis workers of CPU.

Design constraints, in order:

- **Stdlib only** — ``asyncio.start_server`` plus a minimal HTTP/1.1
  parser (request line, headers, ``Content-Length`` body, keep-alive).
  No h11, no aiohttp.
- **Byte-identical responses** — every request is answered by the
  shared router (:func:`repro.service.routes.handle_request`), the
  same one the threaded server uses, so the two front doors are
  interchangeable for clients and for the dedup/coalescing test suite.
- **Never block the loop** — the router does touch service locks and
  (first health check only) a compiler probe, so it runs on a small
  executor; the event loop itself only parses and ships bytes.

The loop runs on a dedicated daemon thread, which keeps the public
surface identical to ``ServiceHTTPServer``: ``server_address``,
blocking ``serve_forever()``, thread-safe ``shutdown()`` — the
``serve`` CLI wires SIGTERM-drain the same way for both frontends.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS
from typing import Dict, Optional, Tuple

from repro import obs
from repro.errors import ServiceError
from repro.service.core import SynthesisService
from repro.service.routes import (
    Response,
    content_length,
    handle_request,
    to_json_bytes,
)

_log = obs.get_logger("service.http")

#: Hard cap on one request head (request line + headers), bytes.
MAX_HEAD_BYTES = 32 * 1024
#: Hard cap on one request body, bytes (kernels sources are small).
MAX_BODY_BYTES = 8 * 1024 * 1024


def _render(response: Response, keep_alive: bool) -> bytes:
    """Serialize a router response as an HTTP/1.1 message."""
    reason = _REASONS.get(response.status, "Unknown")
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        "Server: repro-synthd/1.0",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if response.retry_after_s is not None:
        head.append(
            f"Retry-After: {max(1, int(round(response.retry_after_s)))}"
        )
    return (
        "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + response.body
    )


class _BadRequest(Exception):
    """Unparseable request; the connection is answered 400 and closed."""


async def _read_head(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, str, Dict[str, str]]]:
    """Parse one request head; ``None`` on clean EOF between requests."""
    request_line = await reader.readline()
    if not request_line:
        return None
    if len(request_line) > MAX_HEAD_BYTES:
        raise _BadRequest("request line too long")
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest("malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/"):
        raise _BadRequest(f"unsupported protocol {version!r}")
    headers: Dict[str, str] = {}
    total = len(request_line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEAD_BYTES:
            raise _BadRequest("request head too large")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise _BadRequest("connection closed inside headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"malformed header line {line!r}")
        # Original casing is preserved (trace-context propagation
        # looks headers up case-insensitively but encodes canonical
        # casing); duplicate names keep the last value.
        headers[name.strip()] = value.strip()
    return method.upper(), target, version, headers


def _header(headers: Dict[str, str], name: str) -> Optional[str]:
    value = headers.get(name)
    if value is not None:
        return value
    lowered = name.lower()
    for key, val in headers.items():
        if key.lower() == lowered:
            return val
    return None


class AsyncFrontDoor:
    """Single-event-loop HTTP server for the synthesis service.

    The loop lives on an internal daemon thread so the constructor's
    caller keeps a plain blocking interface:

    >>> door = AsyncFrontDoor(service, port=0)
    >>> host, port = door.start()      # binds; returns the address
    >>> ...                            # clients connect
    >>> door.shutdown()                # stop accepting, close, join

    ``serve_forever()`` blocks the calling thread until ``shutdown()``
    — drop-in for the threaded server in the ``serve`` CLI.
    """

    def __init__(
        self,
        service: SynthesisService,
        host: str = "127.0.0.1",
        port: int = 8349,
        router_threads: int = 8,
    ):
        self.service = service
        self.server_address: Tuple[str, int] = (host, port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._done = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._executor = ThreadPoolExecutor(
            max_workers=router_threads,
            thread_name_prefix="async-router",
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._thread is not None:
            return self.server_address
        self._thread = threading.Thread(
            target=self._run_loop, name="async-front-door", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("async front door failed to start in 30s")
        if self._boot_error is not None:
            raise ServiceError(
                f"async front door failed to bind "
                f"{self.server_address}: {self._boot_error}"
            )
        return self.server_address

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`shutdown`."""
        self.start()
        self._done.wait()

    def shutdown(self) -> None:
        """Stop accepting, close connections, join the loop thread."""
        if self._thread is None:
            return
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=30)
        self._executor.shutdown(wait=False)

    def server_close(self) -> None:
        """Alias for :meth:`shutdown` (ThreadingHTTPServer parity)."""
        self.shutdown()

    def __enter__(self) -> "AsyncFrontDoor":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # -- the loop thread ------------------------------------------------------

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        finally:
            self._ready.set()  # unblock start() on any boot failure
            self._done.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        host, port = self.server_address
        try:
            server = await asyncio.start_server(
                self._handle_connection, host, port
            )
        except OSError as exc:
            self._boot_error = exc
            return
        self.server_address = server.sockets[0].getsockname()[:2]
        _log.info(
            "synthesis service listening on http://%s:%d (async)",
            *self.server_address,
        )
        self._ready.set()
        async with server:
            await self._stop.wait()
        # asyncio.run cancels the outstanding connection coroutines on
        # the way out; their finally blocks close the writers.

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        obs.inc("service.http.connections")
        try:
            while True:
                head = await _read_head(reader)
                if head is None:
                    return  # client closed between requests
                method, target, version, headers = head
                length = content_length(_header(headers, "Content-Length"))
                if length is None:
                    raise _BadRequest("invalid Content-Length")
                if length > MAX_BODY_BYTES:
                    writer.write(
                        _render(
                            Response(413, b'{"error": "body too large"}\n'),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                body = await reader.readexactly(length) if length else b""
                connection = (_header(headers, "Connection") or "").lower()
                keep_alive = (
                    connection != "close"
                    if version == "HTTP/1.1"
                    else connection == "keep-alive"
                )
                # The router touches service locks (and, once, a
                # compiler probe under /healthz): keep it off the
                # event loop so parsing/shipping for the other
                # thousands of connections never stalls behind it.
                response = await asyncio.get_running_loop().run_in_executor(
                    self._executor,
                    handle_request,
                    self.service,
                    method,
                    target,
                    headers,
                    body,
                )
                writer.write(_render(response, keep_alive=keep_alive))
                await writer.drain()
                obs.inc(f"service.http.{response.status}")
                if not keep_alive:
                    return
        except _BadRequest as exc:
            try:
                writer.write(
                    _render(
                        Response(400, to_json_bytes({"error": str(exc)})),
                        keep_alive=False,
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            TimeoutError,
            OSError,
        ):
            # Client hung up mid-request or mid-reply — routine for
            # poll loops; count it, never traceback.
            obs.inc("service.http.client_disconnects")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def make_async_server(
    service: SynthesisService,
    host: str = "127.0.0.1",
    port: int = 8349,
) -> AsyncFrontDoor:
    """Bind the asyncio JSON API; ``port=0`` picks a free port.

    Mirrors :func:`repro.service.http.make_server`: the returned
    front door is already bound (``server_address`` is real) and the
    caller drives ``serve_forever()`` / ``shutdown()``.
    """
    door = AsyncFrontDoor(service, host=host, port=port)
    door.start()
    return door
