"""Multi-daemon cluster cache: warm hits, live scale-up + failure tolerance.

The acceptance bar for :mod:`repro.service.cluster` is that a ring of
daemons really does behave like one logical cache — including while
its membership changes:

* **Cross-daemon warm serving** — three daemons form a consistent-hash
  ring (``repro serve --peer``, replication 1, so every key lives on
  exactly one shard). The workload is pre-warmed through daemon A
  only; daemon B must then serve the *same* workload warm, with at
  least **50%** of the requests answered by *remote* shards (B owns
  only ~1/3 of the key space) and at least **2x** faster than cold
  local compute of the same workload.
* **Live scale-up (join + key-space handoff)** — a fourth daemon is
  started with no peers and added to the ring with ``repro topology
  join`` (no restarts). All four members must converge on one shared
  epoch, the warm workload re-driven through B *during* the
  transition must complete with **zero errors**, and after handoff
  the joined shard must hold at least **50%** of the
  previously-cached keys it now owns in its *local* tier (it starts
  warm, not cold).
* **Failure isolation** — one shard is SIGKILLed and a fresh workload
  is driven through a surviving daemon: every request must still
  succeed (dead owners degrade to local compute, never to an error).

Run standalone (``python benchmarks/bench_cluster.py``) for a report
and the assertions; ``--ci`` shrinks the workload and only fails on
crash (CI gates on the benchmark *running*, not on shared-runner
timing); ``--out BENCH_cluster.json`` writes the numbers for artifact
upload. Under pytest, a smoke-sized variant runs with lenient
thresholds.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _common import gate, make_parser, report, write_json
from bench_async import _env_with_src
from repro.cli import main as repro_main
from repro.service import (
    HashRing,
    RemoteShardClient,
    RoutingService,
    http_request,
    request_from_doc,
    wait_for_http,
)

#: Grid sizes for the cluster workload. Large enough that computing a
#: schedule visibly outweighs one cache round trip over a UNIX socket.
SIZES = (6, 8, 10)
WORKLOADS = ("random", "block_local")


def unique_docs(n: int, seed_base: int = 0) -> list[dict]:
    """``n`` pairwise-distinct request documents (no repeated instances).

    Uniqueness matters here: a repeated instance would be served from
    the probing daemon's *local* near-cache on its second appearance,
    which would understate the remote-shard traffic this benchmark
    exists to measure.
    """
    docs = []
    for i in range(n):
        size = SIZES[i % len(SIZES)]
        docs.append({
            "rows": size,
            "cols": size,
            "workload": WORKLOADS[(i // len(SIZES)) % len(WORKLOADS)],
            "seed": seed_base + i,
        })
    return docs


def _spawn_shard(sock: str, peers: list[str]) -> subprocess.Popen:
    args = [
        sys.executable, "-m", "repro", "serve", "--socket", sock,
        "--workers", "1", "--replication", "1",
    ]
    for peer in peers:
        args += ["--peer", peer]
    return subprocess.Popen(
        args,
        env=_env_with_src(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _route_batch(sock: str, docs: list[dict]) -> list[dict]:
    """One ``POST /v1/route_batch`` over the daemon's socket."""
    status, body = http_request(sock, "/v1/route_batch", {"requests": docs})
    assert status == 200 and body["ok"], body
    return body["results"]


def _cluster_stats(sock: str) -> dict:
    status, body = http_request(sock, "/stats")
    assert status == 200, body
    return body["stats"]["schedule_cache"]["cluster"]


def _shutdown(sock: str) -> None:
    status, body = http_request(sock, "/v1/shutdown", {})
    assert status == 200 and body["ok"], body


def _wait_for_epoch(socks: list[str], epoch: int, timeout: float = 60.0) -> None:
    """Block until every daemon reports ``epoch`` and an idle handoff."""
    deadline = time.monotonic() + timeout
    while True:
        stats = [_cluster_stats(sock) for sock in socks]
        if all(s["epoch"] == epoch for s in stats) and not any(
            s["handoff_active"] for s in stats
        ):
            return
        if time.monotonic() >= deadline:
            raise AssertionError(f"ring never converged on epoch {epoch}: {stats}")
        time.sleep(0.05)


def _cold_local_seconds(docs: list[dict]) -> float:
    """Cold baseline: compute the whole workload in-process, no cluster."""
    requests = [request_from_doc(doc) for doc in docs]
    with RoutingService(cache_size=len(docs) + 16, max_workers=1) as svc:
        t0 = time.perf_counter()
        results = svc.submit_batch(requests)
        elapsed = time.perf_counter() - t0
    assert all(r.ok for r in results), "cold baseline failed"
    return elapsed


def bench_cluster(n_requests: int = 200) -> dict:
    """3-shard ring: warm via A, serve via B, then kill C and re-drive B."""
    docs = unique_docs(n_requests)
    stats: dict = {"n_requests": n_requests, "n_shards": 3, "replication": 1}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as tmp:
        socks = [os.path.join(tmp, f"shard-{i}.sock") for i in range(3)]
        procs = [
            _spawn_shard(sock, [p for p in socks if p != sock])
            for sock in socks
        ]
        try:
            for sock in socks:
                wait_for_http(sock, timeout=60.0)

            # Pre-warm the ring through shard A only: A computes every
            # schedule and replicates each to its owning shard.
            t0 = time.perf_counter()
            warm = _route_batch(socks[0], docs)
            stats["warm_seconds"] = time.perf_counter() - t0
            assert all(r.get("ok") for r in warm), "warm pass failed"

            stats["cold_local_seconds"] = _cold_local_seconds(docs)

            # Serve the same workload through shard B: nothing should be
            # recomputed, and most hits must come from remote shards.
            t0 = time.perf_counter()
            served = _route_batch(socks[1], docs)
            stats["warm_served_seconds"] = time.perf_counter() - t0
            assert all(r.get("ok") for r in served), "warm serve failed"
            cluster = _cluster_stats(socks[1])
            n_cache = sum(1 for r in served if r.get("source") == "cache")
            stats["served_from_cache"] = n_cache
            stats["remote_hits"] = cluster["remote_hits"]
            stats["remote_hit_rate"] = cluster["remote_hits"] / n_requests
            stats["speedup_vs_cold"] = (
                stats["cold_local_seconds"] / stats["warm_served_seconds"]
                if stats["warm_served_seconds"] > 0
                else float("inf")
            )

            # Live scale-up: start a fourth daemon with *no* peers and
            # join it through the admin CLI — no restarts anywhere.
            sock_d = os.path.join(tmp, "shard-3.sock")
            proc_d = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--socket",
                    sock_d, "--workers", "1", "--replication", "1",
                ],
                env=_env_with_src(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            procs.append(proc_d)
            wait_for_http(sock_d, timeout=60.0)
            t0 = time.perf_counter()
            assert repro_main(
                ["topology", "join", sock_d, "--contact", socks[0]]
            ) == 0, "topology join failed"

            # Zero request errors *during* the transition: the warm
            # workload through B must not notice the membership change.
            during = _route_batch(socks[1], docs)
            stats["transition_errors"] = sum(
                1 for r in during if not r.get("ok")
            )
            assert stats["transition_errors"] == 0, "errors during the join"

            _wait_for_epoch(socks + [sock_d], epoch=2)
            stats["join_seconds"] = time.perf_counter() - t0
            stats["epoch_after_join"] = 2
            stats["handoff_keys_sent"] = sum(
                _cluster_stats(sock)["handoff_keys_sent"] for sock in socks
            )

            # After handoff the joined shard holds its share of the
            # previously-cached key space in its *local* tier.
            ring = HashRing(socks + [sock_d])
            digests = [request_from_doc(doc).key().digest for doc in docs]
            owned = [d for d in digests if ring.owner(d) == sock_d]
            shard_d = RemoteShardClient(sock_d)
            try:
                warm = sum(1 for d in owned if shard_d.cache_get(d) is not None)
            finally:
                shard_d.close()
            stats["joined_owned_keys"] = len(owned)
            stats["joined_warm_keys"] = warm
            stats["joined_warm_rate"] = warm / len(owned) if owned else 1.0

            # Scale back down the documented way: leave, then stop.
            assert repro_main(
                ["topology", "leave", sock_d, "--contact", socks[0]]
            ) == 0, "topology leave failed"
            _wait_for_epoch(socks, epoch=3)
            _shutdown(sock_d)
            proc_d.wait(timeout=60)

            # Kill shard C outright; a fresh workload through B must
            # still complete with zero errors (dead owners degrade to
            # local compute).
            procs[2].send_signal(signal.SIGKILL)
            procs[2].wait(timeout=60)
            degraded_docs = unique_docs(n_requests, seed_base=100_000)
            t0 = time.perf_counter()
            degraded = _route_batch(socks[1], degraded_docs)
            stats["degraded_seconds"] = time.perf_counter() - t0
            cluster = _cluster_stats(socks[1])
            stats["degraded_errors"] = sum(
                1 for r in degraded if not r.get("ok")
            )
            stats["degraded_remote_errors"] = cluster["remote_errors"]
            stats["dead_nodes_seen"] = len(cluster["dead_nodes"])
            assert stats["degraded_errors"] == 0, "dead shard surfaced errors"

            for sock in (socks[0], socks[1]):
                _shutdown(sock)
            procs[0].wait(timeout=60)
            procs[1].wait(timeout=60)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    return stats


# ----------------------------------------------------------------------
# pytest entry point (smoke-sized)
# ----------------------------------------------------------------------
def test_cluster_warm_hits_and_failure_tolerance():
    stats = bench_cluster(n_requests=24)
    # Correctness is asserted inside the bench (all ok, zero degraded
    # errors, epoch convergence); the thresholds here are deliberately
    # lenient — the strict gates are the standalone run's business.
    assert stats["remote_hit_rate"] > 0.2, stats
    assert stats["served_from_cache"] == 24, stats
    assert stats["degraded_errors"] == 0, stats
    assert stats["transition_errors"] == 0, stats
    assert stats["epoch_after_join"] == 2, stats
    assert stats["handoff_keys_sent"] > 0, stats
    assert stats["joined_warm_rate"] > 0.2, stats


# ----------------------------------------------------------------------
# standalone report
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    args = make_parser(__doc__.splitlines()[0]).parse_args(argv)

    n = 30 if args.ci else 200
    stats = bench_cluster(n_requests=n)
    report("3-shard cluster: warm cross-daemon serving", stats)
    write_json({"ci": args.ci, "cluster": stats}, args.out)

    hit_ok = stats["remote_hit_rate"] >= 0.5
    speed_ok = stats["speedup_vs_cold"] >= 2.0
    warm_join_ok = stats["joined_warm_rate"] >= 0.5
    print(
        f"\nremote-cache hit rate {stats['remote_hit_rate']:.2f} "
        f"{gate('>=0.50', hit_ok, args.ci)}"
    )
    print(
        f"warm cluster serve {stats['speedup_vs_cold']:.2f}x cold local "
        f"compute {gate('>=2x', speed_ok, args.ci)}"
    )
    print(
        f"joined shard warm-hit rate {stats['joined_warm_rate']:.2f} on "
        f"{stats['joined_owned_keys']} owned keys after handoff "
        f"{gate('>=0.50', warm_join_ok, args.ci)}"
    )
    print(
        f"join transition: {stats['transition_errors']} request errors "
        f"(0 required): "
        f"{'PASS' if stats['transition_errors'] == 0 else 'FAIL'}"
    )
    print(
        f"killed shard: workload completed with "
        f"{stats['degraded_errors']} errors (0 required): "
        f"{'PASS' if stats['degraded_errors'] == 0 else 'FAIL'}"
    )
    if args.ci:
        # The CI gate is "the benchmark runs and produces numbers";
        # shared-runner timing is reported, not asserted.
        return 0
    ok = (
        hit_ok
        and speed_ok
        and warm_join_ok
        and stats["transition_errors"] == 0
        and stats["degraded_errors"] == 0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
