"""Run a routing daemon on a UNIX socket inside the test process.

The daemon is the real :class:`~repro.service.http.HttpRoutingServer`
in socket mode, on a background thread with its own event loop; the
helpers talk to it over the socket with
:func:`~repro.service.http.http_request`. Every blocking wait carries an
explicit timeout so a hung socket fails the test instead of wedging the
suite.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.service import (
    AsyncRoutingService,
    HttpRoutingServer,
    http_request,
    wait_for_http,
)

JOIN_TIMEOUT = 60.0


def start_daemon(
    sock: str, **service_kwargs: Any
) -> tuple[threading.Thread, AsyncRoutingService]:
    """Serve a fresh :class:`AsyncRoutingService` on ``sock``."""
    service_kwargs.setdefault("cache_size", 64)
    service_kwargs.setdefault("max_workers", 1)
    svc = AsyncRoutingService(**service_kwargs)
    server = HttpRoutingServer(svc, socket_path=sock)
    thread = threading.Thread(target=asyncio.run, args=(server.serve(),), daemon=True)
    thread.start()
    wait_for_http(sock, timeout=JOIN_TIMEOUT)
    return thread, svc


def call(address: str, path: str, doc: dict | None = None) -> Any:
    """One request; the parsed response body (any status)."""
    _status, body = http_request(address, path, doc, timeout=JOIN_TIMEOUT)
    return body


def route(address: str, doc: dict) -> dict:
    """``POST /v1/route`` and the result document."""
    return call(address, "/v1/route", doc)


def route_batch(address: str, docs: list[dict]) -> list[dict]:
    """``POST /v1/route_batch`` and its index-aligned results."""
    body = call(address, "/v1/route_batch", {"requests": docs})
    assert body["ok"], body
    return body["results"]


def stats(address: str) -> dict:
    """The daemon's ``GET /stats`` document."""
    return call(address, "/stats")["stats"]


def shutdown(address: str, thread: threading.Thread) -> None:
    """``POST /v1/shutdown`` and wait for the serve thread to exit."""
    body = call(address, "/v1/shutdown", {})
    assert body["ok"], body
    thread.join(timeout=JOIN_TIMEOUT)
    assert not thread.is_alive()
