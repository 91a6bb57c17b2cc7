"""End-to-end tests for the HTTP/JSON front end (repro.service.http).

The server runs on a background thread with its own event loop and is
exercised through real TCP connections — ``http_request`` for the JSON
surface, raw sockets for protocol-level behaviour (framing
errors, keep-alive, oversized payloads). Every blocking wait carries an
explicit timeout so a hung server fails the test instead of wedging the
suite.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.service import (
    AsyncRoutingService,
    HttpRoutingServer,
    http_request,
    wait_for_http,
)

JOIN_TIMEOUT = 60.0

QASM = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\ncx q[0],q[3];\n'


def _start_http(max_body_bytes: int | None = None, **service_kwargs):
    """Run an HTTP server on a background thread: (server, base_url, thread)."""
    service_kwargs.setdefault("cache_size", 64)
    service_kwargs.setdefault("max_workers", 1)
    svc = AsyncRoutingService(**service_kwargs)
    kwargs = {} if max_body_bytes is None else {"max_body_bytes": max_body_bytes}
    server = HttpRoutingServer(svc, host="127.0.0.1", port=0, **kwargs)
    thread = threading.Thread(
        target=asyncio.run, args=(server.serve(),), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + JOIN_TIMEOUT
    while server.bound_port is None:
        if time.monotonic() > deadline:
            raise RuntimeError("HTTP server did not bind in time")
        time.sleep(0.005)
    base = f"http://127.0.0.1:{server.bound_port}"
    wait_for_http(base, timeout=JOIN_TIMEOUT)
    return server, base, thread


def _shutdown(base: str, thread: threading.Thread) -> None:
    status, body = http_request(base, "/v1/shutdown", {})
    assert status == 200 and body["ok"]
    thread.join(timeout=JOIN_TIMEOUT)
    assert not thread.is_alive()


def _read_response(fh) -> tuple[int, dict[str, str], bytes]:
    """One HTTP response off a socket file: (status, headers, body)."""
    status_line = fh.readline().decode("latin-1")
    assert status_line.startswith("HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = fh.readline().decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = fh.read(int(headers.get("content-length", 0)))
    return status, headers, body


class TestEndpoints:
    def test_healthz_route_stats_metrics_roundtrip(self):
        server, base, thread = _start_http()
        try:
            status, body = http_request(base, "/healthz")
            assert status == 200
            assert body["ok"] is True and body["status"] == "serving"
            assert body["version"]  # identity enrichment

            doc = {"rows": 4, "cols": 4, "workload": "random", "seed": 0}
            status, r1 = http_request(base, "/v1/route", doc)
            assert status == 200
            assert r1["ok"] and r1["source"] == "computed" and r1["depth"] >= 1
            status, r2 = http_request(base, "/v1/route", doc)
            assert r2["source"] == "cache" and r2["depth"] == r1["depth"]

            status, stats = http_request(base, "/stats")
            assert status == 200
            counters = stats["stats"]["telemetry"]["counters"]
            assert counters["aio_requests"] == 2
            assert counters["http_requests"] >= 3

            status, text = http_request(base, "/metrics")
            assert status == 200
            assert isinstance(text, str)
            assert '# TYPE repro_counter_total counter' in text
            assert 'repro_counter_total{name="aio_requests"} 2' in text
            assert "repro_latency_seconds_count" in text
            assert "repro_schedule_cache_hits_total" in text
        finally:
            _shutdown(base, thread)

    def test_route_echoes_id_and_include_schedule(self):
        server, base, thread = _start_http()
        try:
            status, resp = http_request(base, "/v1/route", {
                "id": "req-9", "rows": 3, "cols": 3, "workload": "random",
                "seed": 1, "include_schedule": True,
            })
            assert status == 200 and resp["id"] == "req-9"
            assert resp["schedule"]["format"] == "repro.schedule"
        finally:
            _shutdown(base, thread)

    def test_route_batch_isolates_bad_entries(self):
        server, base, thread = _start_http()
        try:
            good = {"rows": 3, "cols": 3, "workload": "random", "seed": 0}
            status, body = http_request(base, "/v1/route_batch", {
                "requests": [
                    good,
                    {"rows": 3},
                    dict(good),
                    17,
                    # Non-ReproError validation failures (numpy coercion
                    # of bad perm element types) must be isolated too,
                    # not tear down the whole batch/connection.
                    {"rows": 2, "cols": 2, "perm": ["a", "b", "c", "d"]},
                ],
            })
            assert status == 200 and body["ok"] and body["count"] == 5
            results = body["results"]
            assert results[0]["ok"] and results[0]["source"] == "computed"
            assert not results[1]["ok"] and results[1]["code"] == "bad_request"
            assert "request 1" in results[1]["error"]
            assert results[2]["ok"] and results[2]["source"] in ("dedup", "cache")
            assert not results[3]["ok"] and results[3]["code"] == "bad_request"
            assert not results[4]["ok"] and results[4]["code"] == "bad_request"
            assert "perm" in results[4]["error"]
        finally:
            _shutdown(base, thread)

    def test_route_options_named_like_call_parameters(self):
        # Router options reach the router factory untouched, whatever
        # their names: the single op answers what the batch op answers.
        server, base, thread = _start_http()
        try:
            for name in ("timeout", "router", "graph", "perm"):
                doc = {
                    "rows": 3, "cols": 3, "workload": "random",
                    "options": {name: 1},
                }
                status, single = http_request(base, "/v1/route", doc)
                assert status == 200, (name, single)
                assert single["code"] == "route_error", single
                assert f"'{name}'" in single["error"]
                _, batch = http_request(base, "/v1/route_batch", {"requests": [doc]})
                assert batch["results"][0]["code"] == single["code"]
        finally:
            _shutdown(base, thread)

    def test_transpile_batch(self):
        server, base, thread = _start_http()
        try:
            doc = {"qasm": QASM, "rows": 2, "cols": 2}
            status, body = http_request(base, "/v1/transpile_batch", {
                "requests": [doc, dict(doc), {"rows": 2, "cols": 2}],
                "include_qasm": True,
            })
            assert status == 200 and body["count"] == 3
            first, dup, bad = body["results"]
            assert first["ok"] and first["source"] == "computed"
            assert first["metrics"]["n_swaps"] >= 0
            assert "physical_qasm" in first
            assert dup["ok"] and dup["source"] == "dedup"
            assert not bad["ok"] and bad["code"] == "bad_request"
            assert "qasm" in bad["error"]
        finally:
            _shutdown(base, thread)

    def test_cache_endpoints_roundtrip(self):
        """The remote-shard protocol over HTTP, incl. RemoteShardClient."""
        import base64

        from repro.graphs import GridGraph
        from repro.perm import random_permutation
        from repro.routing import route
        from repro.routing.codec import decode_schedule, encode_schedule
        from repro.service import RemoteShardClient

        grid = GridGraph(3, 3)
        schedule = route(grid, random_permutation(grid, seed=2))
        digest = "ef" * 32
        frame_b64 = base64.b64encode(encode_schedule(schedule)).decode("ascii")
        server, base, thread = _start_http()
        try:
            status, body = http_request(
                base, "/v1/cache_get", {"digest": digest}
            )
            assert status == 200 and body["ok"] and body["found"] is False
            status, body = http_request(base, "/v1/cache_put", {
                "digest": digest, "schedule_b64": frame_b64, "cost": 0.1,
            })
            assert status == 200 and body["stored"]
            status, body = http_request(
                base, "/v1/cache_get", {"digest": digest}
            )
            assert body["found"]
            assert decode_schedule(base64.b64decode(body["schedule_b64"])) == schedule
            status, body = http_request(base, "/v1/cache_stats")
            assert status == 200 and body["stats"]["entries"] == 1
            # Validation failures map to 400.
            status, body = http_request(base, "/v1/cache_get", {})
            assert status == 400 and body["code"] == "bad_request"

            # The shard client speaks the same endpoints end to end.
            client = RemoteShardClient(base, timeout=JOIN_TIMEOUT)
            assert client.ping()
            assert client.cache_get(digest) == schedule
            assert client.cache_get("01" * 32) is None
            assert client.cache_stats()["entries"] == 1
            client.close()
        finally:
            _shutdown(base, thread)

    def test_crafted_cache_put_frame_is_bad_request(self):
        """Wrapping int16 layer counts are refused; the server keeps serving."""
        import base64
        import struct

        from repro.routing.codec import MAGIC

        counts = [32767, 32767, 3]  # int16 sum wraps to 1
        frame = struct.pack("<8sqqqq", MAGIC, 4, 3, 1, 0) + struct.pack(
            "<5h", *counts, 0, 1
        )
        assert len(frame) == 50
        server, base, thread = _start_http()
        try:
            status, body = http_request(base, "/v1/cache_put", {
                "digest": "ab" * 32,
                "schedule_b64": base64.b64encode(frame).decode("ascii"),
            })
            assert status == 400 and body["code"] == "bad_request"
            status, body = http_request(
                base, "/v1/route", {"rows": 3, "cols": 3, "workload": "random"}
            )
            assert status == 200 and body["ok"]
        finally:
            _shutdown(base, thread)

    def test_protocol_errors(self):
        server, base, thread = _start_http()
        try:
            status, body = http_request(base, "/nope")
            assert status == 404 and body["code"] == "not_found"
            status, body = http_request(base, "/v1/route", method="GET")
            assert status == 405 and body["code"] == "method_not_allowed"
            status, body = http_request(base, "/healthz", {"x": 1})
            assert status == 405 and body["code"] == "method_not_allowed"
            # Malformed JSON bodies.
            status, body = http_request(base, "/v1/route_batch", {"requests": "x"})
            assert status == 400 and body["code"] == "bad_request"
            status, body = http_request(
                base, "/v1/route_batch", {"requests": [], "timeout": "x"}
            )
            assert status == 400 and body["code"] == "bad_request"
            # A bad timeout on a single request is a validation failure
            # (400/bad_request), not an internal error.
            status, body = http_request(base, "/v1/route", {
                "rows": 3, "cols": 3, "workload": "random", "timeout": "abc",
            })
            assert status == 400 and body["code"] == "bad_request"
            assert "'timeout'" in body["error"]
        finally:
            _shutdown(base, thread)

    def test_malformed_json_body_is_400(self):
        server, base, thread = _start_http()
        try:
            port = server.bound_port
            with socket.create_connection(("127.0.0.1", port), JOIN_TIMEOUT) as s:
                fh = s.makefile("rwb")
                payload = b"{definitely not json"
                fh.write(
                    b"POST /v1/route HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
                )
                fh.flush()
                status, _headers, body = _read_response(fh)
            assert status == 400
            assert json.loads(body)["code"] == "bad_json"
        finally:
            _shutdown(base, thread)


class TestProtocol:
    def test_keep_alive_serves_sequential_requests(self):
        server, base, thread = _start_http()
        try:
            port = server.bound_port
            doc = json.dumps(
                {"rows": 3, "cols": 3, "workload": "random", "seed": 0}
            ).encode()
            request = (
                b"POST /v1/route HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(doc), doc)
            )
            with socket.create_connection(("127.0.0.1", port), JOIN_TIMEOUT) as s:
                s.settimeout(JOIN_TIMEOUT)
                fh = s.makefile("rwb")
                for expected_source in ("computed", "cache"):
                    fh.write(request)
                    fh.flush()
                    status, headers, body = _read_response(fh)
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                    assert json.loads(body)["source"] == expected_source
        finally:
            _shutdown(base, thread)

    def test_missing_content_length_is_411(self):
        server, base, thread = _start_http()
        try:
            port = server.bound_port
            with socket.create_connection(("127.0.0.1", port), JOIN_TIMEOUT) as s:
                s.settimeout(JOIN_TIMEOUT)
                fh = s.makefile("rwb")
                fh.write(b"POST /v1/route HTTP/1.1\r\nHost: x\r\n\r\n")
                fh.flush()
                status, headers, body = _read_response(fh)
            assert status == 411
            assert json.loads(body)["code"] == "length_required"
            assert headers["connection"] == "close"
        finally:
            _shutdown(base, thread)

    def test_oversized_payload_is_413(self):
        server, base, thread = _start_http(max_body_bytes=2048)
        try:
            port = server.bound_port
            with socket.create_connection(("127.0.0.1", port), JOIN_TIMEOUT) as s:
                s.settimeout(JOIN_TIMEOUT)
                fh = s.makefile("rwb")
                # Announce a body far over the limit; the server must
                # refuse before reading it.
                fh.write(
                    b"POST /v1/route HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 10485760\r\n\r\n"
                )
                fh.flush()
                status, headers, body = _read_response(fh)
            assert status == 413
            doc = json.loads(body)
            assert doc["code"] == "payload_too_large"
            assert "2048" in doc["error"]
            # The body was never read, so the connection cannot be
            # reused: the refusal must hang up.
            assert headers["connection"] == "close"
            # The server survives and still answers new connections.
            status, _ = http_request(base, "/healthz")
            assert status == 200
        finally:
            _shutdown(base, thread)

    def test_garbage_request_line_is_400(self):
        server, base, thread = _start_http()
        try:
            port = server.bound_port
            with socket.create_connection(("127.0.0.1", port), JOIN_TIMEOUT) as s:
                s.settimeout(JOIN_TIMEOUT)
                fh = s.makefile("rwb")
                fh.write(b"NOT AN HTTP REQUEST\r\n\r\n")
                fh.flush()
                status, _headers, body = _read_response(fh)
            assert status == 400
            assert json.loads(body)["code"] == "bad_http"
        finally:
            _shutdown(base, thread)

    def test_concurrent_clients(self):
        server, base, thread = _start_http()
        try:
            results: list[tuple[int, dict]] = []
            lock = threading.Lock()

            def client(seed: int) -> None:
                resp = http_request(base, "/v1/route", {
                    "rows": 3, "cols": 3, "workload": "random", "seed": seed,
                })
                with lock:
                    results.append(resp)

            clients = [
                threading.Thread(target=client, args=(s,), daemon=True)
                for s in range(6)
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=JOIN_TIMEOUT)
            assert len(results) == 6
            assert all(status == 200 and body["ok"] for status, body in results)
        finally:
            _shutdown(base, thread)

    def test_mid_request_shutdown_answers_inflight(self):
        server, base, thread = _start_http()
        ex = server.service.service.executor
        real_submit = ex.submit_job
        started = threading.Event()
        release = threading.Event()

        def gated_submit(fn, payload):
            def wrapped(p):
                started.set()
                release.wait(JOIN_TIMEOUT)
                return fn(p)

            return real_submit(wrapped, payload)

        ex.submit_job = gated_submit
        outcome: dict = {}

        def client() -> None:
            outcome["resp"] = http_request(base, "/v1/route", {
                "rows": 4, "cols": 4, "workload": "random", "seed": 3,
            })

        client_thread = threading.Thread(target=client, daemon=True)
        client_thread.start()
        try:
            assert started.wait(JOIN_TIMEOUT)
            # Shutdown arrives while the request is on the worker.
            server.request_shutdown()
            time.sleep(0.05)
            release.set()
            client_thread.join(timeout=JOIN_TIMEOUT)
            assert not client_thread.is_alive()
            status, body = outcome["resp"]
            assert status == 200 and body["ok"]  # drained, not dropped
        finally:
            release.set()
            thread.join(timeout=JOIN_TIMEOUT)
        assert not thread.is_alive()
        with pytest.raises(ReproError):
            http_request(base, "/healthz", timeout=2.0)

    def test_wait_for_http_timeout_message(self):
        with pytest.raises(ReproError, match="no HTTP server answering"):
            wait_for_http("http://127.0.0.1:1", timeout=0.3)


class TestClientIgnoresProxyEnvironment:
    def test_proxy_variables_do_not_divert_peer_traffic(self, monkeypatch):
        """A dead proxy in the environment must not cut off a live peer."""
        from repro.service import RemoteShardClient

        import urllib.request

        server, base, thread = _start_http()
        try:
            for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
                monkeypatch.setenv(name, "http://127.0.0.1:9")
            for name in ("no_proxy", "NO_PROXY"):
                monkeypatch.delenv(name, raising=False)
            # urllib builds its default opener, proxies included, on first
            # use; drop a cached one so an env-reading client would see
            # the dead proxy set above.
            monkeypatch.setattr(urllib.request, "_opener", None)
            status, body = http_request(base, "/healthz", timeout=JOIN_TIMEOUT)
            assert status == 200 and body["ok"]
            client = RemoteShardClient(base, timeout=JOIN_TIMEOUT)
            try:
                assert client.ping() is True
                assert client.cache_stats()["entries"] == 0
            finally:
                client.close()
        finally:
            _shutdown(base, thread)


def _free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class TestHttpCli:
    def test_serve_http_and_batch_http_roundtrip(self, tmp_path, capsys):
        port = _free_port()
        base = f"http://127.0.0.1:{port}"
        rc_box: list[int] = []
        thread = threading.Thread(
            target=lambda: rc_box.append(
                main(["serve", "--http", f"127.0.0.1:{port}", "--workers", "1"])
            ),
            daemon=True,
        )
        thread.start()
        wait_for_http(base, timeout=JOIN_TIMEOUT)

        reqs = tmp_path / "requests.jsonl"
        reqs.write_text(
            json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 0})
            + "\n"
            + json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 1})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "results.jsonl"
        rc = main(["batch", str(reqs), "--daemon", base, "--out", str(out)])
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 2 and all(line["ok"] for line in lines)
        assert f"via daemon {base}" in capsys.readouterr().err

        # Second invocation: warm cache across client invocations.
        rc = main(["batch", str(reqs), "--daemon", base, "--out", str(out),
                   "--stats"])
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["source"] for line in lines] == ["cache", "cache"]
        assert "schedule_cache" in capsys.readouterr().err

        status, body = http_request(base, "/v1/shutdown", {})
        assert status == 200 and body["ok"]
        thread.join(timeout=JOIN_TIMEOUT)
        assert not thread.is_alive()
        assert rc_box == [0]

    def test_batch_http_error_exit_code(self, tmp_path, capsys):
        port = _free_port()
        base = f"http://127.0.0.1:{port}"
        thread = threading.Thread(
            target=lambda: main(
                ["serve", "--http", f"127.0.0.1:{port}", "--workers", "1"]
            ),
            daemon=True,
        )
        thread.start()
        wait_for_http(base, timeout=JOIN_TIMEOUT)
        try:
            reqs = tmp_path / "requests.jsonl"
            reqs.write_text(
                json.dumps({"rows": 3, "cols": 3, "workload": "random"})
                + "\n"
                + json.dumps({"rows": 3, "cols": 3, "workload": "bogus"})
                + "\n",
                encoding="utf-8",
            )
            rc = main(["batch", str(reqs), "--daemon", base])
            assert rc == 3  # per-request failure, mirroring local batch
            out_lines = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
            ]
            assert [line["ok"] for line in out_lines] == [True, False]
        finally:
            http_request(base, "/v1/shutdown", {})
            thread.join(timeout=JOIN_TIMEOUT)

    def test_batch_http_unreachable_errors(self, tmp_path, capsys):
        reqs = tmp_path / "requests.jsonl"
        reqs.write_text(
            json.dumps({"rows": 3, "cols": 3, "workload": "random"}) + "\n",
            encoding="utf-8",
        )
        rc = main(["batch", str(reqs), "--daemon", "http://127.0.0.1:1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_has_one_server_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch", "--help"])
        usage = capsys.readouterr().out
        assert "--daemon ADDR" in usage
        assert "--http" not in usage

    def test_serve_http_validates_address(self, capsys):
        assert main(["serve", "--http", "nope"]) == 2
        assert "--http" in capsys.readouterr().err
        assert main(["serve", "--http", "127.0.0.1:99999"]) == 2
        assert "--http" in capsys.readouterr().err


class TestTenancyCli:
    """`repro serve --tenants/--max-body` + `repro batch --api-key` e2e."""

    def test_serve_flag_validation(self, tmp_path, capsys):
        sock = str(tmp_path / "d.sock")
        assert main(["serve", "--socket", sock, "--max-body", "0"]) == 2
        assert "--max-body" in capsys.readouterr().err
        assert main(["serve", "--http", "127.0.0.1:0", "--max-body", "0"]) == 2
        assert "--max-body" in capsys.readouterr().err
        assert main(
            ["serve", "--http", "127.0.0.1:0", "--max-queue-depth", "0"]
        ) == 2
        assert "--max-queue-depth" in capsys.readouterr().err
        # A malformed tenants file fails the start loudly.
        bad = tmp_path / "tenants.json"
        bad.write_text('{"tenants": [{"key": "no-name"}]}', encoding="utf-8")
        assert main(
            ["serve", "--http", "127.0.0.1:0", "--tenants", str(bad)]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_with_tenants_max_body_and_batch_api_key(
        self, tmp_path, capsys
    ):
        port = _free_port()
        base = f"http://127.0.0.1:{port}"
        tenants = tmp_path / "tenants.json"
        tenants.write_text(json.dumps({
            "tenants": [
                {"name": "acme", "key": "ak_acme", "weight": 2.0},
                {"name": "limited", "key": "ak_lim", "rate": 0.01,
                 "burst": 1.0},
            ],
        }), encoding="utf-8")
        thread = threading.Thread(
            target=lambda: main([
                "serve", "--http", f"127.0.0.1:{port}", "--workers", "1",
                "--tenants", str(tenants), "--max-queue-depth", "64",
                "--max-body", "4096",
            ]),
            daemon=True,
        )
        thread.start()
        wait_for_http(base, timeout=JOIN_TIMEOUT)
        try:
            doc = {"rows": 4, "cols": 4, "workload": "random", "seed": 0}
            # Work ops demand a key once tenancy is enforced...
            status, body = http_request(base, "/v1/route", doc)
            assert status == 401 and body["code"] == "unauthorized"
            # ...presented as a Bearer token or the x-api-key header.
            status, body = http_request(
                base, "/v1/route", doc,
                headers={"Authorization": "Bearer ak_acme"},
            )
            assert status == 200 and body["ok"]
            status, body = http_request(
                base, "/v1/route", dict(doc, seed=1),
                headers={"X-API-Key": "ak_acme"},
            )
            assert status == 200 and body["ok"]

            # The limited tenant's bucket drains after one 4x4 request.
            status, body = http_request(
                base, "/v1/route", dict(doc, seed=2),
                headers={"Authorization": "Bearer ak_lim"},
            )
            assert status == 200 and body["ok"]
            status, body = http_request(
                base, "/v1/route", dict(doc, seed=3),
                headers={"Authorization": "Bearer ak_lim"},
            )
            assert status == 429 and body["code"] == "rate_limited"
            assert body["retry_after"] > 0

            # `repro batch --api-key` carries the credential end to end;
            # a keyless batch against the same server is refused whole.
            reqs = tmp_path / "requests.jsonl"
            reqs.write_text(
                json.dumps(
                    {"rows": 3, "cols": 3, "workload": "random", "seed": 0}
                ) + "\n",
                encoding="utf-8",
            )
            rc = main(["batch", str(reqs), "--daemon", base])
            assert rc == 2
            assert "401" in capsys.readouterr().err
            out = tmp_path / "results.jsonl"
            rc = main(["batch", str(reqs), "--daemon", base,
                       "--api-key", "ak_acme", "--out", str(out)])
            assert rc == 0
            lines = [json.loads(x) for x in out.read_text().splitlines()]
            assert len(lines) == 1 and lines[0]["ok"]

            # --max-body is wired through to the HTTP framing layer.
            with socket.create_connection(("127.0.0.1", port), JOIN_TIMEOUT) as s:
                s.settimeout(JOIN_TIMEOUT)
                fh = s.makefile("rwb")
                fh.write(
                    b"POST /v1/route HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 1048576\r\n\r\n"
                )
                fh.flush()
                status, headers, body_bytes = _read_response(fh)
            assert status == 413
            assert headers["connection"] == "close"
            assert "4096" in json.loads(body_bytes)["error"]

            # Tenancy flows into /stats and the Prometheus rendering.
            status, body = http_request(base, "/stats")
            assert status == 200
            tenancy = body["stats"]["tenancy"]
            assert tenancy["enforced"] is True
            assert tenancy["tenants"]["acme"]["admitted"] == 3
            assert tenancy["tenants"]["limited"]["throttled"] == 1
            assert body["stats"]["aio"]["max_queue_depth"] == 64
            status, text = http_request(base, "/metrics")
            assert status == 200
            assert (
                'repro_tenant_requests_total'
                '{outcome="admitted",tenant="acme"} 3' in text
            )
            assert (
                'repro_tenant_requests_total'
                '{outcome="throttled",tenant="limited"} 1' in text
            )
        finally:
            http_request(base, "/v1/shutdown", {})
            thread.join(timeout=JOIN_TIMEOUT)
        assert not thread.is_alive()


class TestHttpSigtermDrain:
    def test_sigterm_drains_serve_on_the_main_thread(self):
        """``repro serve --http`` exits 0 on SIGTERM and frees its port.

        The serve loop runs on the *main* thread (signal handlers only
        install there); a client thread waits for ``/healthz``, routes
        one request, then sends SIGTERM to this process.
        """
        port = _free_port()
        base = f"http://127.0.0.1:{port}"
        failures: list[BaseException] = []

        def client() -> None:
            try:
                wait_for_http(base, timeout=JOIN_TIMEOUT)
            except BaseException as exc:  # surface in the main thread
                # Nothing answered, so the SIGTERM handler may not be
                # installed and the signal would end the whole test run.
                failures.append(exc)
                return
            try:
                status, body = http_request(base, "/v1/route", {
                    "rows": 3, "cols": 3, "workload": "random", "seed": 1,
                })
                assert status == 200 and body["ok"], body
            except BaseException as exc:
                failures.append(exc)
            finally:
                # The serve loop installs its handlers before it answers
                # the first request, so this reaches the drain path.
                os.kill(os.getpid(), signal.SIGTERM)

        t = threading.Thread(target=client, daemon=True)
        t.start()
        rc = main(["serve", "--http", f"127.0.0.1:{port}", "--workers", "1"])
        t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive()
        assert not failures, failures
        assert rc == 0
        with pytest.raises(ReproError):
            http_request(base, "/healthz", timeout=5.0)
