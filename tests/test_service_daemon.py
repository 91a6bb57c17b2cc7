"""Tests for the daemon on a UNIX socket and its CLI.

The daemon is :class:`~repro.service.http.HttpRoutingServer` in socket
mode, on a background thread with its own event loop; tests talk to it
through the real HTTP client helpers. Every blocking wait carries an
explicit timeout so a hung socket fails the test instead of wedging the
suite (CI adds pytest-timeout on top).
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest
from socket_daemon import JOIN_TIMEOUT, call, route, shutdown, start_daemon, stats

from repro.cli import main
from repro.errors import ReproError
from repro.service import (
    AsyncRoutingService,
    HttpRoutingServer,
    RemoteShardClient,
    http_request,
    request_from_doc,
    wait_for_http,
)
from repro.service import http as http_mod
from repro.service.http import open_connection


class TestRequestFromDoc:
    def test_workload_form(self):
        req = request_from_doc(
            {"rows": 3, "cols": 3, "workload": "random", "seed": 2}
        )
        assert req.graph.n_vertices == 9
        assert req.router == "local"

    def test_perm_form_with_router_and_options(self):
        req = request_from_doc({
            "rows": 2, "cols": 2, "perm": [1, 0, 3, 2],
            "router": "naive", "options": {},
        })
        assert req.router == "naive"
        assert list(req.perm.targets) == [1, 0, 3, 2]

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"rows": 3},
        {"rows": 3, "cols": 3},
        {"rows": "x", "cols": 3, "workload": "random"},
        {"rows": 3, "cols": 3, "workload": "random", "options": "nope"},
    ])
    def test_malformed_docs_raise(self, doc):
        with pytest.raises(ReproError):
            request_from_doc(doc)


def _start_daemon(tmp_path, **service_kwargs):
    """Run a daemon on ``<tmp_path>/repro.sock``: (socket, thread, svc)."""
    sock = str(tmp_path / "repro.sock")
    thread, svc = start_daemon(sock, **service_kwargs)
    return sock, thread, svc


def _post(conn, path, payload) -> tuple[int, dict]:
    """One POST on a kept connection; ``payload`` is a doc or raw bytes."""
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


class TestUnixSocketDaemon:
    def test_ping_route_stats_roundtrip(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        try:
            assert call(sock, "/healthz")["ok"]
            doc = {"rows": 4, "cols": 4, "workload": "random", "seed": 0}
            r1 = route(sock, doc)
            assert r1["ok"] and r1["source"] == "computed"
            assert r1["depth"] >= 1
            r2 = route(sock, doc)
            assert r2["source"] == "cache"
            assert r2["depth"] == r1["depth"]
            assert stats(sock)["telemetry"]["counters"]["aio_requests"] == 2
        finally:
            shutdown(sock, thread)

    def test_include_schedule_and_id_echo(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        try:
            resp = route(sock, {
                "id": "req-7", "rows": 3, "cols": 3,
                "workload": "random", "seed": 1, "include_schedule": True,
            })
            assert resp["id"] == "req-7"
            assert resp["schedule"]["format"] == "repro.schedule"
        finally:
            shutdown(sock, thread)

    def test_bad_requests_isolated(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        conn = open_connection(sock, timeout=JOIN_TIMEOUT)
        try:
            # Every refusal below arrives on one keep-alive connection.
            status, bad = _post(conn, "/v1/route", {"rows": 3})
            assert status == 400 and "cols" in bad["error"]
            status, unknown = _post(conn, "/v1/frobnicate", {})
            assert status == 404 and unknown["code"] == "not_found"
            # Non-JSON garbage gets an error response, not a hangup.
            status, garbage = _post(conn, "/v1/route", b"{not json}")
            assert status == 400 and garbage["code"] == "bad_json"
            # Validation failures (bad timeout type) and
            # non-ReproError failures (an options key colliding with
            # a submit_async parameter) must also come back as one
            # error response, not kill the connection.
            _, bad_timeout = _post(conn, "/v1/route", {
                "rows": 3, "cols": 3, "workload": "random", "timeout": "abc",
            })
            assert not bad_timeout["ok"]
            assert bad_timeout["code"] == "bad_request"
            assert "'timeout'" in bad_timeout["error"]
            _, bad_perm = _post(conn, "/v1/route", {
                "rows": 2, "cols": 2, "perm": ["a", "b", "c", "d"],
            })
            assert not bad_perm["ok"]
            assert bad_perm["code"] == "bad_request"
            assert "perm" in bad_perm["error"]
            _, collision = _post(conn, "/v1/route", {
                "rows": 3, "cols": 3, "workload": "random",
                "options": {"router": "naive"},
            })
            assert not collision["ok"] and collision["error"]
            # The connection is still serviceable afterwards.
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["ok"]
        finally:
            conn.close()
            shutdown(sock, thread)

    def test_refuses_to_hijack_live_socket(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        try:
            rival_svc = AsyncRoutingService(cache_size=8, max_workers=1)
            rival = HttpRoutingServer(rival_svc, socket_path=sock)
            with pytest.raises(ReproError, match="already listening"):
                asyncio.run(rival.serve())
            asyncio.run(rival_svc.aclose())
            # The running daemon is untouched.
            assert call(sock, "/healthz")["ok"]
        finally:
            shutdown(sock, thread)

    def test_stale_socket_file_is_replaced(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        # A dead daemon's leftover: a bound-but-unserved socket file.
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(sock)
        stale.close()
        assert os.path.exists(sock)
        sock2, thread, _svc = _start_daemon(tmp_path)
        assert sock2 == sock
        try:
            assert call(sock, "/healthz")["ok"]
        finally:
            shutdown(sock, thread)

    def test_shutdown_with_idle_second_connection(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        idle = RemoteShardClient(sock, timeout=JOIN_TIMEOUT)
        try:
            assert idle.ping()  # connected and idle from here on
            shutdown(sock, thread)  # must not hang on the idle conn
        finally:
            idle.close()

    def test_socket_file_removed_on_shutdown(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        shutdown(sock, thread)
        assert not os.path.exists(sock)

    def test_client_refuses_dead_socket(self, tmp_path):
        with pytest.raises(ReproError):
            http_request(str(tmp_path / "nothing.sock"), "/healthz", timeout=1.0)
        assert RemoteShardClient(str(tmp_path / "nothing.sock")).ping() is False
        with pytest.raises(ReproError):
            wait_for_http(str(tmp_path / "nothing.sock"), timeout=0.2)


class TestBindRace:
    """The stale-socket TOCTOU fix: probe→unlink→bind under a lock file."""

    def test_racing_daemons_exactly_one_wins(self, tmp_path):
        sock = str(tmp_path / "race.sock")
        # Seed the TOCTOU condition both daemons must resolve: a stale
        # socket file from a dead daemon.
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(sock)
        stale.close()

        barrier = threading.Barrier(2, timeout=JOIN_TIMEOUT)
        served: list[str] = []
        lost: list[str] = []

        def run(name: str) -> None:
            svc = AsyncRoutingService(cache_size=8, max_workers=1)
            server = HttpRoutingServer(svc, socket_path=sock)
            barrier.wait()
            try:
                asyncio.run(server.serve())
                served.append(name)
            except ReproError as exc:
                lost.append(str(exc))
                asyncio.run(svc.aclose())

        threads = [
            threading.Thread(target=run, args=(f"d{i}",), daemon=True)
            for i in range(2)
        ]
        for t in threads:
            t.start()
        wait_for_http(sock, timeout=JOIN_TIMEOUT)
        # The loser notices the live winner and exits loudly.
        deadline = time.monotonic() + JOIN_TIMEOUT
        while len(lost) < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(lost) == 1 and "already listening" in lost[0]
        # The winner is fully functional and shuts down cleanly.
        assert call(sock, "/healthz")["ok"]
        assert call(sock, "/v1/shutdown", {})["ok"]
        for t in threads:
            t.join(timeout=JOIN_TIMEOUT)
            assert not t.is_alive()
        assert served and len(served) + len(lost) == 2
        assert not os.path.exists(sock + ".lock")

    def test_stale_lock_from_dead_pid_is_broken(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        with open(sock + ".lock", "w", encoding="ascii") as fh:
            fh.write(str(proc.pid))
        sock2, thread, _svc = _start_daemon(tmp_path)
        assert sock2 == sock
        try:
            assert call(sock, "/healthz")["ok"]
        finally:
            shutdown(sock, thread)
        assert not os.path.exists(sock + ".lock")

    def test_unremovable_stale_lock_times_out(self, tmp_path, monkeypatch):
        """A stale lock that cannot be unlinked must hit the timeout,
        not spin forever retrying the unlink."""
        monkeypatch.setattr(http_mod, "SOCKET_LOCK_TIMEOUT", 0.2)
        sock = str(tmp_path / "stuck.sock")
        lock = sock + ".lock"
        with open(lock, "w", encoding="ascii") as fh:
            fh.write("0")  # pid 0: always considered stale
        real_unlink = os.unlink

        def failing_unlink(p, *args, **kwargs):
            if str(p) == lock:
                raise PermissionError(f"cannot unlink {p}")
            return real_unlink(p, *args, **kwargs)

        monkeypatch.setattr(http_mod.os, "unlink", failing_unlink)
        svc = AsyncRoutingService(cache_size=8, max_workers=1)
        try:
            with pytest.raises(ReproError, match="socket lock"):
                asyncio.run(HttpRoutingServer(svc, socket_path=sock).serve())
        finally:
            asyncio.run(svc.aclose())

    def test_held_lock_times_out_with_helpful_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(http_mod, "SOCKET_LOCK_TIMEOUT", 0.2)
        sock = str(tmp_path / "held.sock")
        with open(sock + ".lock", "w", encoding="ascii") as fh:
            fh.write(str(os.getpid()))  # alive: never considered stale
        svc = AsyncRoutingService(cache_size=8, max_workers=1)
        try:
            with pytest.raises(ReproError, match="socket lock"):
                asyncio.run(HttpRoutingServer(svc, socket_path=sock).serve())
        finally:
            asyncio.run(svc.aclose())
            os.unlink(sock + ".lock")


class TestHalfOpenClient:
    def test_dead_connection_raises_and_reconnects(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        client = RemoteShardClient(sock, timeout=JOIN_TIMEOUT)
        try:
            assert client.cache_stats()["entries"] == 0
            # The daemon exits while this client's keep-alive
            # connection sits idle, leaving it half-open.
            shutdown(sock, thread)
            with pytest.raises(ReproError):
                client.cache_stats()
            # The client dropped the dead connection...
            assert client._conn is None
            # ...so once a daemon is back on the path, the next request
            # transparently dials a fresh connection.
            sock2, thread2, _svc2 = _start_daemon(tmp_path)
            assert sock2 == sock
            try:
                assert client.cache_stats()["entries"] == 0
            finally:
                shutdown(sock, thread2)
        finally:
            client.close()


class TestWaitForSocket:
    def test_timeout_error_names_path_and_elapsed(self, tmp_path):
        path = str(tmp_path / "nothing.sock")
        with pytest.raises(ReproError) as excinfo:
            wait_for_http(path, timeout=0.2)
        message = str(excinfo.value)
        assert path in message
        assert "after" in message and "timeout 0.2s" in message

    def test_backoff_grows_and_caps(self, tmp_path, monkeypatch):
        delays: list[float] = []
        real_sleep = http_mod.time.sleep
        monkeypatch.setattr(
            http_mod.time, "sleep", lambda s: delays.append(s) or real_sleep(0)
        )
        with pytest.raises(ReproError):
            wait_for_http(str(tmp_path / "nothing.sock"), timeout=0.05)
        assert len(delays) >= 4, delays
        # Doubling from 2 ms while under the remaining budget...
        assert delays[:4] == pytest.approx([0.002, 0.004, 0.008, 0.016])
        # ...and never above the cap (later entries clamp to what is
        # left of the timeout budget).
        assert max(delays) <= 0.5


def _serve_in_thread(argv: list[str], rc_box: list[int] | None = None):
    """Run ``repro serve ...`` on a thread; returns the thread."""
    box = rc_box if rc_box is not None else []
    thread = threading.Thread(target=lambda: box.append(main(argv)), daemon=True)
    thread.start()
    return thread


class TestServeCli:
    def test_serve_and_batch_daemon_roundtrip(self, tmp_path, capsys):
        sock = str(tmp_path / "cli.sock")
        rc_box: list[int] = []
        thread = _serve_in_thread(
            ["serve", "--socket", sock, "--workers", "1"], rc_box
        )
        wait_for_http(sock, timeout=JOIN_TIMEOUT)

        reqs = tmp_path / "requests.jsonl"
        reqs.write_text(
            json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 0})
            + "\n"
            + json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 1})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "results.jsonl"
        rc = main(["batch", str(reqs), "--daemon", sock, "--out", str(out)])
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 2 and all(line["ok"] for line in lines)
        err = capsys.readouterr().err
        assert "via daemon" in err

        # Second invocation: the daemon's cache is warm across clients.
        rc = main(["batch", str(reqs), "--daemon", sock, "--out", str(out)])
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["source"] for line in lines] == ["cache", "cache"]

        shutdown(sock, thread)
        assert rc_box == [0]

    def test_batch_daemon_error_exit_code(self, tmp_path, capsys):
        sock = str(tmp_path / "cli2.sock")
        thread = _serve_in_thread(["serve", "--socket", sock, "--workers", "1"])
        wait_for_http(sock, timeout=JOIN_TIMEOUT)
        try:
            reqs = tmp_path / "requests.jsonl"
            reqs.write_text(
                json.dumps({"rows": 3, "cols": 3, "workload": "random"})
                + "\n"
                + json.dumps({"rows": 3, "cols": 3, "workload": "bogus"})
                + "\n",
                encoding="utf-8",
            )
            rc = main(["batch", str(reqs), "--daemon", sock])
            assert rc == 3  # per-request failure, mirroring local batch
            out_lines = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
            ]
            assert [line["ok"] for line in out_lines] == [True, False]
        finally:
            shutdown(sock, thread)

    def test_batch_api_key_against_tenant_enforcing_daemon(
        self, tmp_path, capsys
    ):
        sock = str(tmp_path / "tenants.sock")
        tenants = tmp_path / "tenants.json"
        tenants.write_text(
            json.dumps({"tenants": [{"name": "acme", "key": "ak_acme"}]}),
            encoding="utf-8",
        )
        thread = _serve_in_thread([
            "serve", "--socket", sock, "--workers", "1",
            "--tenants", str(tenants),
        ])
        wait_for_http(sock, timeout=JOIN_TIMEOUT)
        try:
            reqs = tmp_path / "requests.jsonl"
            reqs.write_text(
                json.dumps({"rows": 3, "cols": 3, "workload": "random",
                            "seed": 0}) + "\n",
                encoding="utf-8",
            )
            # Keyless: the daemon refuses the whole batch with 401.
            rc = main(["batch", str(reqs), "--daemon", sock])
            assert rc == 2
            assert "401" in capsys.readouterr().err
            # --api-key sends the credential as a Bearer header.
            out = tmp_path / "results.jsonl"
            rc = main(["batch", str(reqs), "--daemon", sock,
                       "--api-key", "ak_acme", "--out", str(out)])
            assert rc == 0
            lines = [json.loads(x) for x in out.read_text().splitlines()]
            assert len(lines) == 1 and lines[0]["ok"]
        finally:
            shutdown(sock, thread)

    def test_batch_daemon_over_max_body_reports_413(self, tmp_path, capsys):
        sock = str(tmp_path / "small.sock")
        thread = _serve_in_thread(
            ["serve", "--socket", sock, "--workers", "1", "--max-body", "1024"]
        )
        wait_for_http(sock, timeout=JOIN_TIMEOUT)
        try:
            reqs = tmp_path / "requests.jsonl"
            reqs.write_text(
                "".join(
                    json.dumps({"rows": 3, "cols": 3, "workload": "random",
                                "seed": s}) + "\n"
                    for s in range(20_000)
                ),
                encoding="utf-8",
            )
            # The whole file is one POST /v1/route_batch: far over the
            # limit, refused before the daemon reads the body.
            rc = main(["batch", str(reqs), "--daemon", sock])
            assert rc == 2
            err = capsys.readouterr().err
            assert "status 413" in err and "1024-byte limit" in err
        finally:
            shutdown(sock, thread)

    def test_batch_daemon_missing_socket_errors(self, tmp_path, capsys):
        reqs = tmp_path / "requests.jsonl"
        reqs.write_text(
            json.dumps({"rows": 3, "cols": 3, "workload": "random"}) + "\n",
            encoding="utf-8",
        )
        rc = main(["batch", str(reqs), "--daemon", str(tmp_path / "no.sock")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_validates_flags(self, tmp_path, capsys):
        sock = str(tmp_path / "never.sock")
        assert main(["serve", "--socket", sock, "--cache-size", "0"]) == 2
        assert "--cache-size" in capsys.readouterr().err
        assert main(["serve", "--socket", sock, "--min-cache-seconds", "-1"]) == 2
        assert "--min-cache-seconds" in capsys.readouterr().err
        assert main(["serve", "--socket", sock, "--max-concurrency", "0"]) == 2
        assert "--max-concurrency" in capsys.readouterr().err
        assert main(["serve", "--socket", sock, "--workers", "-1"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not os.path.exists(sock)

    def test_serve_requires_transport(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_serve_help_lists_two_listen_modes(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        usage = capsys.readouterr().out
        assert "--socket PATH" in usage and "--http HOST:PORT" in usage
        assert "--pipe" not in usage and "--shards" not in usage

    def test_socket_mode_serves_the_endpoint_table(self, tmp_path):
        """`repro serve --socket` speaks the HTTP endpoint table."""
        sock = str(tmp_path / "http.sock")
        rc_box: list[int] = []
        thread = _serve_in_thread(
            ["serve", "--socket", sock, "--workers", "1"], rc_box
        )
        wait_for_http(sock, timeout=JOIN_TIMEOUT)
        status, health = http_request(sock, "/healthz")
        assert status == 200 and health["status"] == "serving"
        assert health["node_id"] == sock
        doc = {"rows": 3, "cols": 3, "workload": "random", "seed": 4}
        status, body = http_request(sock, "/v1/route", doc)
        assert status == 200 and body["ok"] and body["source"] == "computed"
        status, body = http_request(sock, "/stats")
        assert status == 200 and body["stats"]["schedule_cache"]["entries"] == 1
        status, text = http_request(sock, "/metrics")
        assert status == 200 and "repro_schedule_cache_entries 1" in text
        status, body = http_request(sock, "/v1/shutdown", {})
        assert status == 200 and body["ok"]
        thread.join(timeout=JOIN_TIMEOUT)
        assert not thread.is_alive() and rc_box == [0]
        assert not os.path.exists(sock)
        assert not os.path.exists(sock + ".lock")

    @pytest.mark.parametrize("cache_size", [1, 10])
    def test_cache_size_bounds_resident_entries(self, tmp_path, cache_size):
        """`--cache-size N` keeps at most N schedules in memory."""
        sock = str(tmp_path / "pin.sock")
        thread = _serve_in_thread([
            "serve", "--socket", sock, "--workers", "1",
            "--cache-size", str(cache_size),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        wait_for_http(sock, timeout=JOIN_TIMEOUT)
        try:
            docs = [
                {"rows": 3, "cols": 3, "workload": "random", "seed": s}
                for s in range(3 * cache_size + 6)
            ]
            digests = {request_from_doc(d).key().digest for d in docs}
            assert len(digests) > cache_size
            for doc in docs:
                assert route(sock, doc)["ok"]
            cache = stats(sock)["schedule_cache"]
            assert cache["entries"] <= cache_size, cache
            assert cache["maxsize"] == cache_size
            assert cache["disk_writes"] == len(digests)
        finally:
            shutdown(sock, thread)
