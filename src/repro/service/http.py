"""HTTP/1.1 JSON transport of the routing daemon (stdlib asyncio only).

:class:`HttpRoutingServer` is the one wire protocol of ``repro serve``.
It listens either on a TCP port (``repro serve --http HOST:PORT``) so
any host or load balancer can reach a warm routing pool, or on a UNIX
socket (``repro serve --socket PATH``) for same-host clients. Both
listen modes run the same connection handler and endpoint table.

This module is *pure framing*: it parses HTTP/1.1 messages and writes
responses. The endpoint table, op dispatch, tenancy, admission control
and error mapping all live in the shared
:class:`~repro.service.pipeline.RequestPipeline`
(:meth:`~repro.service.pipeline.RequestPipeline.process_http`).

Endpoints
---------
``POST /v1/route``
    One request document (same shape as a ``repro batch`` line, see
    :func:`~repro.service.handler.request_from_doc`) -> one result
    document. ``"include_schedule": true`` adds the schedule's layers.
``POST /v1/route_batch``
    ``{"requests": [...], "include_schedule": false, "timeout": null}``
    -> ``{"ok": true, "count": N, "results": [...]}``; per-entry errors
    are isolated into their slots.
``POST /v1/transpile_batch``
    ``{"requests": [...], "include_qasm": false}`` over transpile
    documents (``qasm`` + ``rows``/``cols`` + options).
``POST /v1/cache_get`` / ``POST /v1/cache_put`` / ``POST /v1/cache_stats``
    The remote-shard cache protocol of :mod:`repro.service.cluster`
    (``/v1/cache_stats`` also answers ``GET``). Served from the local
    cache tier only, so a shard answering a peer never re-enters the
    ring. Schedules cross as base64 binary :mod:`repro.routing.codec`
    frames under ``schedule_b64`` (see
    :class:`~repro.service.handler.RequestHandler`).
``GET /v1/topology`` / ``POST /v1/topology``
    Read / change the daemon's epoch-versioned ring membership
    (``POST`` takes the ``topology_update`` document: ``action`` =
    ``join``/``leave``/``replace``, ``node`` or ``members``, optional
    ``epoch`` / ``expected_epoch``). A lost epoch compare-and-set
    answers 409 with code ``stale_epoch``. ``POST
    /v1/topology_get`` / ``/v1/topology_update`` are op-style aliases
    (what :class:`~repro.service.cluster.RemoteShardClient` speaks).
``POST /v1/gossip``
    One SWIM gossip message (see :mod:`repro.service.gossip`).
``POST /v1/shutdown``
    Ask the server to drain and exit (SIGTERM does the same).
``GET /v1/traces``
    Finished request traces from the daemon's in-memory ring
    (``?id=<trace-id>&limit=N&min_seconds=S``, all optional — see
    :mod:`repro.service.tracing`).
``GET /healthz``
    Liveness plus identity: ``{"ok": true, "status":
    "serving"|"draining", "version": ..., "node_id": ..., "epoch":
    ...}`` (the cluster fields only in cluster mode).
``GET /stats``
    ``{"ok": true, "stats": {...}}`` — the service stats document.
``GET /metrics``
    Prometheus text exposition format (version 0.0.4).

Requests may carry a W3C ``traceparent`` header; work endpoints join
the caller's distributed trace and answer with the ``trace_id``. An
``Authorization: Bearer <key>`` or ``X-API-Key`` header identifies the
calling tenant when tenancy is enforced (401 without one, 429 with a
``Retry-After`` header when admission control refuses).

Protocol behaviour: requests need ``Content-Length`` (chunked bodies
are refused with 411), bodies above ``max_body_bytes`` are refused with
413 and ``Connection: close`` (the body was never read, so the
connection cannot be reused), connections are keep-alive by default
(``Connection: close`` and HTTP/1.0 semantics honoured), and
SIGTERM/SIGINT trigger a graceful drain — stop accepting, answer
everything in flight (bounded by :data:`DRAIN_GRACE_SECONDS`), then
close the service. Protocol-level failures use the stable error codes
of :mod:`repro.service.handler` plus ``bad_http``, ``length_required``,
``payload_too_large``, ``not_found`` and ``method_not_allowed``.

A UNIX socket is claimed under a ``<path>.lock`` file: a stale socket
file (nothing listening) is replaced, a live one is refused rather than
hijacked, and the socket file is removed on exit.

The client side is :func:`http_request` (one request) and
:func:`open_connection` (a keep-alive :class:`http.client.HTTPConnection`),
both taking a daemon address: ``http://HOST:PORT`` or a socket path.
Neither reads proxy settings from the environment.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import signal
import socket
import time
from typing import Any, Callable, Mapping, Sequence

from ..errors import ReproError
from .aio import AsyncRoutingService
from .pipeline import RequestPipeline, framing_error

__all__ = [
    "HttpRoutingServer",
    "MAX_BODY_BYTES",
    "http_request",
    "open_connection",
    "wait_for_http",
]

#: Default per-request body-size limit (bytes). Generous enough for a
#: batch of explicit perms on large grids, small enough that one client
#: cannot balloon the server's memory.
MAX_BODY_BYTES = 8 * 2**20

#: Maximum accepted size of a request line + headers (bytes).
MAX_HEADER_BYTES = 32 * 1024

#: Seconds the server waits for in-flight connections after a shutdown
#: request before force-closing them.
DRAIN_GRACE_SECONDS = 10.0

#: Seconds a starting server waits for the socket bind lock before
#: giving up (another daemon is mid-start on the same path, or a stale
#: lock file with an unreadable pid is in the way).
SOCKET_LOCK_TIMEOUT = 5.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_JSON = "application/json"


def install_signal_handlers(
    loop: "asyncio.AbstractEventLoop",
    stop: Callable[[], None],
    on_reload: Callable[[], None] | None = None,
) -> list[signal.Signals]:
    """Install the serve-loop signal handlers; returns what was installed.

    SIGTERM and SIGINT trigger ``stop`` (graceful drain); SIGHUP — when
    the platform has it and ``on_reload`` is given — triggers the
    reload hook (topology-file re-read). Signals that cannot be
    installed (non-main thread, unsupported platform) are skipped
    silently; pass the returned list to :func:`remove_signal_handlers`
    on the way out.
    """
    handlers: list[tuple[signal.Signals, Callable[[], None]]] = [
        (signal.SIGTERM, stop),
        (signal.SIGINT, stop),
    ]
    if on_reload is not None and hasattr(signal, "SIGHUP"):
        handlers.append((signal.SIGHUP, on_reload))
    installed: list[signal.Signals] = []
    for sig, handler in handlers:
        try:
            loop.add_signal_handler(sig, handler)
            installed.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or unsupported platform
    return installed


def remove_signal_handlers(
    loop: "asyncio.AbstractEventLoop", installed: Sequence[signal.Signals]
) -> None:
    """Remove handlers previously added by :func:`install_signal_handlers`."""
    for sig in installed:
        with contextlib.suppress(Exception):
            loop.remove_signal_handler(sig)


def _lock_is_stale(lock_path: str) -> bool:
    """Whether a bind-lock file was left behind by a dead daemon.

    The lock records its creator's pid; a pid that no longer exists
    means the holder crashed between locking and unlocking. Unreadable
    or mid-write (empty) files are treated as live — the waiter keeps
    polling until its timeout rather than breaking a lock it cannot
    attribute.
    """
    try:
        with open(lock_path, "r", encoding="ascii") as fh:
            pid = int(fh.read().strip())
    except (OSError, ValueError):
        return False
    if pid <= 0:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False  # e.g. PermissionError: alive, owned by someone else
    return False


@contextlib.contextmanager
def _socket_bind_lock(path: str):
    """Serialize the probe → unlink → bind sequence across daemons.

    Two daemons starting concurrently on the same path can both probe a
    stale socket file, both ``os.unlink`` it, and the later unlink
    silently removes the earlier daemon's *freshly bound* socket
    (TOCTOU). An ``O_CREAT|O_EXCL`` lock file next to the socket makes
    the whole sequence mutually exclusive; a lock abandoned by a
    crashed daemon is broken once its recorded pid is dead.

    Raises
    ------
    ReproError
        If the lock cannot be acquired before :data:`SOCKET_LOCK_TIMEOUT`
        elapses.
    """
    lock_path = path + ".lock"
    deadline = time.monotonic() + SOCKET_LOCK_TIMEOUT
    delay = 0.002
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            break
        except FileExistsError:
            if _lock_is_stale(lock_path):
                try:
                    os.unlink(lock_path)
                    continue  # broke the stale lock; retry immediately
                except OSError:
                    pass  # cannot remove it: fall through to the timed wait
            if time.monotonic() >= deadline:
                raise ReproError(
                    f"timed out waiting for socket lock {lock_path}; another "
                    "daemon is starting on this path (delete the lock file "
                    "if its owner is gone)"
                ) from None
            time.sleep(delay)
            delay = min(delay * 2, 0.1)
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            os.unlink(lock_path)


def _claim_socket_path(path: str) -> None:
    """Remove a stale socket file at ``path``; refuse a live one.

    Raises
    ------
    ReproError
        If a server answers on ``path``.
    """
    if not os.path.exists(path):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(1.0)
        probe.connect(path)
    except OSError:
        # Nothing answering: a stale file from a dead daemon.
        with contextlib.suppress(OSError):
            os.unlink(path)
    else:
        raise ReproError(f"a daemon is already listening on {path}")
    finally:
        probe.close()


class _HttpError(Exception):
    """A protocol-level failure mapped straight to a status + error doc."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class HttpRoutingServer:
    """Serve the request pipeline over HTTP/1.1 on a TCP port or UNIX socket.

    Parameters
    ----------
    service:
        The :class:`AsyncRoutingService` to expose. Closed on exit via
        :meth:`AsyncRoutingService.aclose` (which leaves borrowed
        services open).
    host, port:
        TCP listen address. ``port=0`` picks a free port; the bound
        port is published on :attr:`bound_port` once listening.
    socket_path:
        Listen on this UNIX socket instead of ``host:port``. A stale
        socket file is replaced, a live one raises
        :class:`~repro.errors.ReproError` from :meth:`serve`, and the
        file is removed on exit.
    max_body_bytes:
        Per-request body-size limit (413 above it).
    on_reload:
        Optional zero-argument callback installed as the SIGHUP
        handler while serving (the CLI wires it to the topology-file
        watcher's ``reload_now``).
    """

    def __init__(
        self,
        service: AsyncRoutingService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        socket_path: str | os.PathLike | None = None,
        max_body_bytes: int = MAX_BODY_BYTES,
        on_reload: Callable[[], None] | None = None,
    ) -> None:
        if max_body_bytes <= 0:
            raise ValueError(f"max_body_bytes must be positive, got {max_body_bytes}")
        self.service = service
        self.pipeline = RequestPipeline(service)
        self.host = host
        self.port = port
        self.socket_path = os.fspath(socket_path) if socket_path is not None else None
        self.max_body_bytes = max_body_bytes
        self.on_reload = on_reload
        #: The actually bound TCP port, set once the server is listening
        #: (useful with ``port=0``); ``None`` before start, after stop
        #: and in socket mode.
        self.bound_port: int | None = None
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._active_connections = 0
        self._writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def request_shutdown(self) -> None:
        """Ask the serve loop to drain and exit (thread-safe)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop.set)

    async def serve(self) -> None:
        """Listen until a shutdown request or signal, then drain and exit.

        Installs SIGTERM/SIGINT handlers when running on the main thread
        (a supervised deployment stops the server with SIGTERM); on
        shutdown the listener closes first, in-flight requests get up to
        :data:`DRAIN_GRACE_SECONDS` to finish, stragglers are
        force-closed, the socket file (in socket mode) is removed, and
        the service is closed last.

        Raises
        ------
        ReproError
            In socket mode, if another daemon is already listening on
            the path or the bind lock cannot be acquired.
        """
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        if self.socket_path is None:
            server = await asyncio.start_server(
                self._handle_conn,
                host=self.host,
                port=self.port,
                limit=MAX_HEADER_BYTES,
            )
            self.bound_port = server.sockets[0].getsockname()[1]
        else:
            with _socket_bind_lock(self.socket_path):
                _claim_socket_path(self.socket_path)
                server = await asyncio.start_unix_server(
                    self._handle_conn, path=self.socket_path, limit=MAX_HEADER_BYTES
                )
        installed = install_signal_handlers(self._loop, self._stop.set, self.on_reload)
        try:
            await self._stop.wait()
        finally:
            remove_signal_handlers(self._loop, installed)
            server.close()
            await server.wait_closed()
            await self._drain()
            self.bound_port = None
            if self.socket_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(self.socket_path)
            await self.service.aclose()

    async def _drain(self) -> None:
        """Wait for in-flight connections, then force-close stragglers."""
        deadline = time.monotonic() + DRAIN_GRACE_SECONDS
        while self._active_connections > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: sequential keep-alive request/response cycles."""
        assert self._stop is not None
        self._active_connections += 1
        self._writers.add(writer)
        self.pipeline.telemetry.incr("http_connections")
        try:
            while not self._stop.is_set():
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # Framing is broken or refused; answer and hang up.
                    await self._write_response(
                        writer,
                        exc.status,
                        framing_error(exc.code, exc.message),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break  # EOF between requests, or stop while idle
                method, path, query, headers, body, keep_alive = request
                resp = await self.pipeline.process_http(
                    method,
                    path,
                    query,
                    headers,
                    body,
                    draining=self._stop.is_set(),
                )
                payload = resp.payload
                if (
                    isinstance(payload, dict)
                    and payload.get("op") == "shutdown"
                    and payload.get("ok")
                ):
                    # A granted shutdown: the pipeline has no access to
                    # the serve loop, so the transport flips the stop
                    # event (the framing analogue of SIGTERM).
                    self._stop.set()
                if self._stop.is_set():
                    keep_alive = False  # draining: answer, then close
                await self._write_response(
                    writer,
                    resp.status,
                    payload,
                    resp.content_type,
                    keep_alive,
                    extra_headers=resp.headers,
                )
                if not keep_alive:
                    break
        except (OSError, ValueError, asyncio.IncompleteReadError):
            pass  # client went away mid-message
        finally:
            self._active_connections -= 1
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_line(self, reader: asyncio.StreamReader) -> bytes:
        """One header line, or ``b""`` when stop fires while idle."""
        assert self._stop is not None
        line_task = asyncio.ensure_future(reader.readline())
        stop_task = asyncio.ensure_future(self._stop.wait())
        try:
            await asyncio.wait(
                {line_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if line_task.done():
                return line_task.result()
            line_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await line_task
            return b""
        finally:
            stop_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await stop_task

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict[str, str], bytes, bool] | None:
        """Parse one request: ``(method, path, query, headers, body, keep_alive)``.

        Header names come back lowercased; ``query`` is the raw query
        string (no leading ``?``, empty when absent). Returns ``None``
        on a clean end of connection; raises :class:`_HttpError` on
        anything refused at the protocol level.
        """
        try:
            raw = await self._read_line(reader)
        except ValueError as exc:  # request line over the stream limit
            raise _HttpError(400, "bad_http", f"request line too long: {exc}") from None
        if not raw:
            return None
        parts = raw.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "bad_http", f"malformed request line: {raw[:120]!r}")
        method, target, version = parts[0].upper(), parts[1], parts[2]

        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                hline = await reader.readline()
            except ValueError as exc:
                raise _HttpError(400, "bad_http", f"header too long: {exc}") from None
            if not hline:
                return None  # connection died mid-headers
            header_bytes += len(hline)
            if header_bytes > MAX_HEADER_BYTES:
                raise _HttpError(400, "bad_http", "header section too large")
            text = hline.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()

        keep_alive = version != "HTTP/1.0"
        connection = headers.get("connection", "").lower()
        if "close" in connection:
            keep_alive = False
        elif version == "HTTP/1.0" and "keep-alive" in connection:
            keep_alive = True

        body = b""
        if method in ("POST", "PUT"):
            if "transfer-encoding" in headers:
                raise _HttpError(
                    411,
                    "length_required",
                    "chunked bodies are not supported; send Content-Length",
                )
            length = headers.get("content-length")
            if length is None:
                raise _HttpError(411, "length_required", "Content-Length required")
            try:
                n = int(length)
                if n < 0:
                    raise ValueError(length)
            except ValueError:
                raise _HttpError(
                    400, "bad_http", f"bad Content-Length {length!r}"
                ) from None
            if n > self.max_body_bytes:
                raise _HttpError(
                    413,
                    "payload_too_large",
                    f"body of {n} bytes exceeds the {self.max_body_bytes}-byte limit",
                )
            body = await reader.readexactly(n)
        path, _, query = target.partition("?")
        return method, path, query, headers, body, keep_alive

    # ------------------------------------------------------------------
    # response writing
    # ------------------------------------------------------------------
    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        content_type: str = _JSON,
        keep_alive: bool = True,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        if isinstance(payload, (dict, list)):
            body = (json.dumps(payload) + "\n").encode("utf-8")
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = bytes(payload)
        reason = _REASONS.get(status, "Unknown")
        extras = "".join(f"{name}: {value}\r\n" for name, value in extra_headers)
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extras}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        self.pipeline.telemetry.incr(f"http_status_{status // 100}xx")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


# ----------------------------------------------------------------------
# client side (stdlib http.client; shared by the CLI, peers and tests)
# ----------------------------------------------------------------------
class _UnixHTTPConnection(http.client.HTTPConnection):
    """An :class:`http.client.HTTPConnection` that dials a UNIX socket."""

    def __init__(self, path: str, timeout: float) -> None:
        super().__init__("localhost", timeout=timeout)
        self.socket_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
        except BaseException:
            sock.close()
            raise
        self.sock = sock


def open_connection(address: str, timeout: float = 300.0) -> http.client.HTTPConnection:
    """A keep-alive HTTP connection to a daemon; it dials on first use.

    ``address`` is ``http://HOST:PORT`` (a trailing ``/`` is ignored)
    for a daemon on a TCP port; an address without a scheme is the path
    of a daemon's UNIX socket.

    Raises
    ------
    ReproError
        On any other scheme, or a URL that is not ``http://HOST:PORT``.
    """
    if address.startswith("http://"):
        netloc = address[len("http://") :].rstrip("/")
        if not netloc or "/" in netloc:
            raise ReproError(f"expected http://HOST:PORT, got {address!r}")
        try:
            return http.client.HTTPConnection(netloc, timeout=timeout)
        except http.client.InvalidURL as exc:
            raise ReproError(f"bad daemon address {address!r}: {exc}") from None
    if "://" in address:
        raise ReproError(
            f"unsupported daemon address {address!r}: use http://HOST:PORT "
            "or a UNIX socket path"
        )
    return _UnixHTTPConnection(address, timeout)


def http_request(
    address: str,
    path: str,
    doc: Mapping[str, Any] | None = None,
    *,
    method: str | None = None,
    timeout: float = 300.0,
    headers: Mapping[str, str] | None = None,
) -> tuple[int, Any]:
    """One HTTP request to a repro daemon: ``(status, parsed body)``.

    ``address`` is ``http://HOST:PORT`` or a UNIX socket path (see
    :func:`open_connection`); ``path`` is the request target, e.g.
    ``"/v1/route"``. ``doc`` (when given) is sent as a JSON body with
    ``POST`` unless ``method`` overrides it. ``headers`` adds extra
    request headers (e.g. a ``traceparent`` to join a distributed
    trace). Non-2xx responses are returned, not raised; bodies that
    fail to parse as JSON come back as text.

    Raises
    ------
    ReproError
        When the daemon cannot be reached at all.
    """
    body = None
    all_headers = {"Accept": _JSON}
    if doc is not None:
        body = json.dumps(dict(doc)).encode("utf-8")
        all_headers["Content-Type"] = _JSON
    if headers:
        all_headers.update(headers)
    conn = open_connection(address, timeout)
    try:
        try:
            conn.request(
                method or ("POST" if body is not None else "GET"),
                path,
                body=body,
                headers=all_headers,
            )
        except (BrokenPipeError, ConnectionResetError):
            if conn.sock is None:
                raise
            # The daemon refuses an oversized body (413) before reading
            # it and hangs up; its answer is still there to read.
        resp = conn.getresponse()
        status, raw = resp.status, resp.read()
    except (OSError, http.client.HTTPException) as exc:
        raise ReproError(f"cannot reach HTTP server at {address}: {exc}") from exc
    finally:
        conn.close()
    text = raw.decode("utf-8", errors="replace")
    try:
        return status, json.loads(text)
    except ValueError:
        return status, text


def poll_with_backoff(
    probe: Callable[[], bool], timeout: float, describe: str, cap: float = 0.5
) -> None:
    """Run ``probe`` with exponential backoff until truthy or timeout.

    2 ms doubling to ``cap``, clamped to the remaining budget, so a fast
    server start is noticed in milliseconds while a slow one is not
    hammered.

    Raises
    ------
    ReproError
        If ``probe`` never returns truthy before ``timeout`` elapses;
        the message leads with ``describe`` and names the elapsed wait.
    """
    t0 = time.monotonic()
    deadline = t0 + timeout
    delay = 0.002
    while True:
        if probe():
            return
        now = time.monotonic()
        if now >= deadline:
            raise ReproError(f"{describe} after {now - t0:.1f}s (timeout {timeout}s)")
        time.sleep(min(delay, max(deadline - now, 0.0)))
        delay = min(delay * 2, cap)


def wait_for_http(address: str, timeout: float = 10.0) -> None:
    """Block until ``GET /healthz`` at ``address`` answers 200.

    ``address`` takes the same forms as :func:`http_request`. Polls
    with exponential backoff (:func:`poll_with_backoff`).

    Raises
    ------
    ReproError
        If the daemon does not answer before ``timeout`` elapses; the
        message names the address and the elapsed wait.
    """

    def probe() -> bool:
        try:
            status, _body = http_request(address, "/healthz", timeout=1.0)
            return status == 200
        except ReproError:
            return False

    poll_with_backoff(probe, timeout, f"no HTTP server answering at {address}")
