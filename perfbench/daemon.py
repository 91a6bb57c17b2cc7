"""A ``repro serve --http`` daemon under test, seen from outside.

The benchmark talks to the daemon only the way a real client does: it
spawns the ``repro serve`` command, speaks HTTP/1.1 over a keep-alive
connection, and reads ``/stats``. Memory comes from ``/proc``. Nothing
here imports ``repro``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["Client", "Daemon", "DaemonError", "cache_counters"]

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


class DaemonError(RuntimeError):
    """The daemon could not be started, reached or stopped."""


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Client:
    """One persistent HTTP/1.1 keep-alive connection to the daemon."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def call(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        """Send one request and read the whole response: ``(status, body)``."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def stats(self) -> dict:
        """The daemon's ``/stats`` document."""
        status, raw = self.call("GET", "/stats")
        if status != 200:
            raise DaemonError(f"/stats answered {status}")
        return json.loads(raw)["stats"]

    def close(self) -> None:
        self.conn.close()


def cache_counters(stats: dict) -> dict[str, int]:
    """Memory hits, disk hits and misses from a ``/stats`` document."""
    sc = stats["schedule_cache"]
    remote = int(sc.get("cluster", {}).get("remote_hits", 0))
    return {
        "memory_hits": int(sc["hits"]) - int(sc["disk_hits"]) - remote,
        "disk_hits": int(sc["disk_hits"]),
        "misses": int(sc["misses"]),
    }


def _proc_children(pid: int) -> list[int]:
    """Every live descendant of ``pid``, found by scanning ``/proc``."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ")".
        fields = stat.rsplit(")", 1)[1].split()
        parent_of[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent_of.items() if pp == p]
        found.extend(kids)
        frontier.extend(kids)
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Daemon:
    """A spawned ``repro serve --http`` process and its pool workers.

    Only the flags the benchmark is about are passed (``--http``,
    ``--cache-dir``, ``--cache-size``, ``--workers``); everything else
    stays at its default, so the daemon runs as deployed.
    """

    def __init__(
        self, root: Path, cache_dir: Path, cache_size: int, workers: int, log: Path
    ) -> None:
        self.port = _free_port()
        env = dict(os.environ)
        paths = [str(root / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--http", f"127.0.0.1:{self.port}",
                "--cache-dir", str(cache_dir),
                "--cache-size", str(cache_size),
                "--workers", str(workers),
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.log_path = log

    def wait_ready(self) -> Client:
        """Poll ``/healthz`` until the daemon answers; return a client."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise DaemonError(
                    f"daemon exited with {self.proc.returncode}: {self.log_tail()}"
                )
            client = Client(self.port)
            try:
                status, _ = client.call("GET", "/healthz")
                if status == 200:
                    return client
            except OSError:
                pass
            client.close()
            time.sleep(0.02)
        raise DaemonError(
            f"daemon not ready after {READY_TIMEOUT_S:.0f} s: {self.log_tail()}"
        )

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the daemon and its pool workers, in MiB."""
        pids = [self.proc.pid, *_proc_children(self.proc.pid)]
        return sum(_vm_hwm_kb(p) for p in pids) / 1024.0

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill the process group; wait for all."""
        pids = [self.proc.pid, *_proc_children(self.proc.pid)]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in pids[1:]:
            while time.monotonic() < deadline and _alive(pid):
                time.sleep(0.01)
        self._log.close()


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has ended and counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
