"""Metrics-driven autoscaling: a live 3-node ring grows to 5 under load.

The acceptance bar for :mod:`repro.service.autoscale` is that the
supervisor really does resize a running ring, end to end, with no
administrator in the loop:

* **Scale-up under pressure** — three daemons form a ring; two more
  run as warm spares outside it. A sustained routing workload drives
  the ring while an :class:`Autoscaler` (tiny ``p99_high``, so the
  pressure signal fires as soon as any latency sample exists) steps
  against it. The ring must reach **5 members** within the step
  budget, via the admin CLI's exact push order and compare-and-set
  discipline — and the workload running *through* the transitions must
  complete with **zero request errors**.
* **Epoch convergence** — after the scale-ups every member must report
  the same topology epoch with all five members and no active handoff
  (the joined spares inherit the ring state, they are not a split
  brain).
* **Scale-down when idle** — with the load stopped, a drain-policy
  autoscaler (no latency signal, queue thresholds only) must return
  both pool nodes and shrink the ring back to the three seed members;
  seeds are never removed.

Run standalone (``python benchmarks/bench_autoscale.py``) for a report
and the assertions; ``--ci`` shrinks the workload and only fails on
crash; ``--out BENCH_autoscale.json`` writes the numbers for artifact
upload.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _common import make_parser, report, write_json
from bench_async import _env_with_src
from bench_cluster import _cluster_stats, _route_batch, _shutdown
from repro.service import Autoscaler, AutoscalePolicy, wait_for_http

SIZES = (5, 6)
WORKLOADS = ("random", "block_local")

#: How long the ring gets to reach the target size / converge.
SCALE_TIMEOUT = 90.0


def unique_docs(n: int, seed_base: int = 0) -> list[dict]:
    """``n`` pairwise-distinct request documents."""
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


def _spawn(sock: str, peers: list[str]) -> subprocess.Popen:
    args = [
        sys.executable, "-m", "repro", "serve", "--socket", sock,
        "--workers", "1", "--replication", "2",
    ]
    for peer in peers:
        args += ["--peer", peer]
    return subprocess.Popen(
        args,
        env=_env_with_src(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_converged(socks: list[str], expect_members: set[str],
                    timeout: float = SCALE_TIMEOUT) -> int:
    """Until every daemon reports one epoch, the given members, idle
    handoff; returns the converged epoch."""
    deadline = time.monotonic() + timeout
    while True:
        stats = [_cluster_stats(sock) for sock in socks]
        epochs = {s["epoch"] for s in stats}
        members_ok = all(
            set(s["ring_nodes"]) == expect_members for s in stats
        )
        if len(epochs) == 1 and members_ok and not any(
            s["handoff_active"] for s in stats
        ):
            return epochs.pop()
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"ring never converged on {sorted(expect_members)}: {stats}"
            )
        time.sleep(0.1)


class _LoadDriver:
    """Background routing load through the ring's seed members."""

    def __init__(self, socks: list[str], batch: int) -> None:
        self.socks = socks
        self.batch = batch
        self.stop = threading.Event()
        self.completed = 0
        self.errors = 0
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        wave = 0
        while not self.stop.is_set():
            sock = self.socks[wave % len(self.socks)]
            docs = unique_docs(self.batch, seed_base=10_000 * wave)
            try:
                results = _route_batch(sock, docs)
            except Exception:
                self.errors += self.batch
                continue
            self.completed += sum(1 for r in results if r.get("ok"))
            self.errors += sum(1 for r in results if not r.get("ok"))
            wave += 1

    def start(self) -> None:
        self._thread.start()

    def finish(self) -> None:
        self.stop.set()
        self._thread.join(timeout=120.0)


def bench_autoscale(batch: int = 12) -> dict:
    """3 seeds + 2 spares: load in, 5-member ring out, then back to 3."""
    stats: dict = {"seed_nodes": 3, "pool_nodes": 2, "batch": batch}
    with tempfile.TemporaryDirectory(prefix="repro-bench-autoscale-") as tmp:
        seeds = [os.path.join(tmp, f"seed-{i}.sock") for i in range(3)]
        spares = [os.path.join(tmp, f"spare-{i}.sock") for i in range(2)]
        procs = [
            _spawn(sock, [p for p in seeds if p != sock]) for sock in seeds
        ]
        procs += [_spawn(sock, []) for sock in spares]
        load = _LoadDriver(seeds, batch)
        try:
            for sock in seeds + spares:
                wait_for_http(sock, timeout=60.0)

            load.start()
            # Any completed request makes the worst p99 exceed 1µs, so
            # pressure holds for as long as there are spare nodes.
            scaler = Autoscaler(
                contacts=seeds,
                pool=spares,
                policy=AutoscalePolicy(
                    min_nodes=3,
                    max_nodes=5,
                    p99_high=1e-6,
                    cooldown=0.5,
                ),
            )
            t0 = time.perf_counter()
            deadline = time.monotonic() + SCALE_TIMEOUT
            members: tuple[str, ...] = ()
            while time.monotonic() < deadline:
                obs, decision = scaler.step()
                members = obs.members
                if len(members) == 5:
                    break
                time.sleep(0.2)
            assert len(members) == 5, f"never reached 5 members: {members}"
            stats["scale_up_seconds"] = time.perf_counter() - t0
            stats["scale_up_steps"] = len(scaler.history)
            stats["scale_ups"] = sum(
                1
                for h in scaler.history
                if h["decision"]["action"] == "scale_up"
            )

            # Every member — seeds and freshly joined spares — must
            # agree on one epoch covering all five nodes.
            epoch = _wait_converged(seeds + spares, set(seeds + spares))
            stats["epoch_at_five"] = epoch

            load.finish()
            stats["requests_completed"] = load.completed
            stats["request_errors"] = load.errors
            assert load.completed > 0, "the load driver never completed work"
            assert load.errors == 0, f"{load.errors} request errors while scaling"

            # Drain policy: no latency signal, so the now-idle queues
            # scale the ring back down — pool nodes only.
            drainer = Autoscaler(
                contacts=seeds,
                pool=spares,
                policy=AutoscalePolicy(
                    min_nodes=3,
                    max_nodes=5,
                    queue_high=10_000.0,
                    queue_low=10_000.0,
                    cooldown=0.5,
                ),
            )
            t0 = time.perf_counter()
            deadline = time.monotonic() + SCALE_TIMEOUT
            while time.monotonic() < deadline:
                obs, decision = drainer.step()
                members = obs.members
                if len(members) == 3:
                    break
                time.sleep(0.2)
            assert set(members) == set(seeds), (
                f"scale-down did not return to the seeds: {members}"
            )
            stats["scale_down_seconds"] = time.perf_counter() - t0
            stats["epoch_at_three"] = _wait_converged(seeds, set(seeds))

            # A final workload through a seed still routes cleanly.
            final = _route_batch(seeds[0], unique_docs(batch, seed_base=777))
            stats["final_errors"] = sum(1 for r in final if not r.get("ok"))
            assert stats["final_errors"] == 0, "errors after scale-down"

            for sock in seeds + spares:
                _shutdown(sock)
            for proc in procs:
                proc.wait(timeout=60)
        finally:
            load.stop.set()
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    return stats


# ----------------------------------------------------------------------
# pytest entry point (smoke-sized; benchmarks/ is not in tier-1)
# ----------------------------------------------------------------------
def test_autoscale_three_to_five_and_back():
    stats = bench_autoscale(batch=6)
    assert stats["scale_ups"] >= 2, stats
    assert stats["request_errors"] == 0, stats
    assert stats["final_errors"] == 0, stats


# ----------------------------------------------------------------------
# standalone report
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    args = make_parser(__doc__.splitlines()[0]).parse_args(argv)

    batch = 6 if args.ci else 16
    stats = bench_autoscale(batch=batch)
    report("autoscale: 3-node ring -> 5 under load -> 3 idle", stats)
    write_json({"ci": args.ci, "autoscale": stats}, args.out)

    print(
        f"\nscale-up to 5 members in {stats['scale_up_seconds']:.1f}s over "
        f"{stats['scale_up_steps']} steps ({stats['scale_ups']} scale_up "
        f"actions): PASS"
    )
    print(
        f"epochs converged at {stats['epoch_at_five']} (5 nodes) and "
        f"{stats['epoch_at_three']} (back to 3): PASS"
    )
    print(
        f"workload during scaling: {stats['requests_completed']} requests, "
        f"{stats['request_errors']} errors (0 required): "
        f"{'PASS' if stats['request_errors'] == 0 else 'FAIL'}"
    )
    # Correctness (reaching 5 members, zero errors, convergence) is
    # asserted inside bench_autoscale; reaching here means it held.
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
