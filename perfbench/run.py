#!/usr/bin/env python3
"""Request-level benchmark for a ``repro serve --http`` daemon.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_64 --seed 1 --seconds 20 --trace 0

One closed-loop client sends requests over one persistent HTTP/1.1
keep-alive connection; the next request goes out only after the previous
response arrives, as a compiler waiting for its schedule would. Every
permutation is generated here from ``--seed`` and sent as an explicit
``perm`` array, so the daemon sees only generated inputs.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs a shorter
end-to-end phase, then replays the same requests in-process through each
layer's public functions (``layers.py``) and prints the per-layer
metrics, each layer's share of the end-to-end median, and the cache
counters from the daemon's ``/stats``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the run's context (versions, CPU count, sample counts, cache path).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from daemon import Client, Daemon, DaemonError, cache_counters  # noqa: E402
from inputs import (  # noqa: E402
    check_schedule,
    depth_and_size,
    max_displacement,
    random_perms,
)

WORKERS = 2
SETUP_REPEATS = 3
SAMPLE_CHECKS = 2
WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    """One traffic mix: grid shape, daemon cache size, working set, cache path."""

    rows: int
    cols: int
    cache_size: int
    #: Distinct requests cycled in order; 0 means every request is new.
    working_set: int
    #: The cache tier every timed request must be served from.
    tier: str
    include_schedule: bool = False


# Why each workload exists:
# - cold_64: distinct random permutations on 64x64, the paper's regime;
#   the routing stages do most of the work and the cache only misses.
# - warm_64: a prefilled working set, all memory hits; request resolution
#   and fingerprinting do most of the work, routing none.
# - disk_64: a working set larger than the memory tier, cycled in order,
#   so every request is a disk hit; codec decode does most of the work.
# - fetch_32: memory hits that return the whole schedule as JSON; the
#   only workload whose every response carries a schedule to check.
# A memory tier of one entry keeps cold_64's memory from growing with the
# number of requests, and is what disk_64's working set overflows.
WORKLOADS = {
    "cold_64": Workload(64, 64, cache_size=1, working_set=0, tier="misses"),
    "warm_64": Workload(64, 64, cache_size=256, working_set=12, tier="memory_hits"),
    "disk_64": Workload(64, 64, cache_size=1, working_set=12, tier="disk_hits"),
    "fetch_32": Workload(
        32,
        32,
        cache_size=256,
        working_set=32,
        tier="memory_hits",
        include_schedule=True,
    ),
}

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "depth_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, daemon failed to start)."""


def _sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _env_info(root: Path) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        head = git.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        head = None
    return {
        "git_head": head,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def _route(
    client: Client, body: bytes, source: str | None
) -> tuple[dict | None, str | None, float, int]:
    """POST one request: ``(response doc, failure, latency s, response bytes)``.

    ``source`` is where the daemon must say the schedule came from.
    """
    t0 = time.perf_counter()
    status, raw = client.call("POST", "/v1/route", body)
    dt = time.perf_counter() - t0
    doc, err = None, None
    if status != 200:
        err = f"HTTP {status}: {raw[:200]!r}"
    else:
        try:
            doc = json.loads(raw)
        except ValueError:
            err = f"unparsable response: {raw[:200]!r}"
        else:
            if not doc.get("ok"):
                err = f"refused: {doc.get('code')}: {doc.get('error')}"
            elif source is not None and doc.get("source") != source:
                err = f"served from {doc.get('source')!r}, expected {source!r}"
    return (None if err else doc), err, dt, len(raw)


def _doc(w: Workload, perm: list[int], include_schedule: bool | None = None) -> dict:
    """A route request document; ``include_schedule`` defaults to the workload's."""
    doc = {"rows": w.rows, "cols": w.cols, "perm": perm}
    if w.include_schedule if include_schedule is None else include_schedule:
        doc["include_schedule"] = True
    return doc


def _body(doc: dict) -> bytes:
    return json.dumps(doc).encode()


def _check_full(
    doc: dict, w: Workload, perm: list[int], shape: tuple[int, int] | None
) -> str | None:
    """Check a response carrying its schedule against ``shape``, if given.

    ``shape`` is the (depth, size) an earlier response reported.
    """
    layers = doc.get("schedule", {}).get("layers")
    if layers is None:
        return "response carries no schedule"
    fault = check_schedule(layers, perm, w.rows, w.cols)
    if fault:
        return fault
    got = depth_and_size(layers)
    if got != (doc["depth"], doc["size"]):
        said = (doc["depth"], doc["size"])
        return f"schedule has (depth, size) {got}, response says {said}"
    if shape is not None and got != shape:
        return f"(depth, size) {got} differs from the timed response's {shape}"
    return None


class Run:
    """One daemon set up for a workload, timed, checked and stopped."""

    def __init__(self, root: Path, name: str, seed: int, work: Path) -> None:
        self.root, self.w, self.work = root, WORKLOADS[name], work
        seeds = np.random.SeedSequence([seed, sorted(WORKLOADS).index(name)]).spawn(3)
        rngs = [np.random.default_rng(s) for s in seeds]
        warm_rng, self.set_rng, self.sample_rng = rngs
        n = self.w.rows * self.w.cols
        self.warmup_perm = random_perms(warm_rng, n, 1)[0]
        self.perms = random_perms(self.set_rng, n, self.w.working_set)
        #: Working-set indices in the order the timed phase cycles them.
        self.cycle = list(range(self.w.working_set))
        #: (depth, size) the daemon first answered for each working-set key.
        self.shapes: dict[int, tuple[int, int]] = {}
        self.daemon: Daemon | None = None
        self.client: Client | None = None
        #: One entry per failed request (timed or sample-checked).
        self.failures: list[str] = []
        #: Faults of the run as a whole (cache path strayed, replay differs).
        self.faults: list[str] = []

    # -- set-up ---------------------------------------------------------
    def setup(self, rep: int) -> float:
        """Spawn, warm up and prefill a daemon; seconds until it is ready to time."""
        t0 = time.perf_counter()
        self.daemon = Daemon(
            self.root, self.work / f"cache{rep}", self.w.cache_size, WORKERS,
            self.work / f"daemon{rep}.log",
        )
        self.client = self.daemon.wait_ready()
        # Pays pool start-up and the lazy scipy import, on a key outside
        # the working set.
        _, err, _, _ = self._ask(self.warmup_perm, None)
        if err:
            raise BenchError(f"warm-up request failed: {err}")
        if self.w.tier == "disk_hits":
            # In cycle order on one connection, so the memory tier ends in
            # the state the timed cycle will keep it in.
            self._prefill(connections=1)
            self._calibrate()
        elif self.w.working_set:
            self._prefill(connections=WORKERS)
        return time.perf_counter() - t0

    def _ask(
        self,
        perm: list[int],
        source: str | None,
        include_schedule: bool = False,
        client: Client | None = None,
    ):
        """One untimed route request for ``perm``; see :func:`_route`."""
        body = _body(_doc(self.w, perm, include_schedule))
        return _route(client or self.client, body, source)

    def _prefill(self, connections: int) -> None:
        """Route the working set, spread over ``connections`` connections."""
        extra = [Client(self.daemon.port) for _ in range(connections - 1)]
        clients = [self.client, *extra]

        def fill(k: int) -> None:
            for i in range(k, len(self.perms), len(clients)):
                doc, err, _, _ = self._ask(self.perms[i], "computed", client=clients[k])
                if err:
                    raise BenchError(f"prefill request failed: {err}")
                self.shapes[i] = (doc["depth"], doc["size"])

        try:
            with ThreadPoolExecutor(len(clients)) as pool:
                for fut in [pool.submit(fill, k) for k in range(len(clients))]:
                    fut.result()
        finally:
            for client in extra:
                client.close()

    def _calibrate(self) -> None:
        """Drop working-set keys that stay in memory when cycled in order.

        A memory tier split into shards keeps a key that is alone in its
        shard resident, however small ``--cache-size`` is; one undivided
        LRU keeps none. After a prefill in cycle order, one more pass in
        that order finds those keys: every other key is a disk hit.
        """
        alone = set()
        before = cache_counters(self.client.stats())["memory_hits"]
        for i in self.cycle:
            _, err, _, _ = self._ask(self.perms[i], "cache")
            if err:
                raise BenchError(f"calibration request failed: {err}")
            after = cache_counters(self.client.stats())["memory_hits"]
            if after > before:
                alone.add(i)
            before = after
        self.cycle = [i for i in self.cycle if i not in alone]
        if len(self.cycle) < 2:
            raise BenchError(
                f"only {len(self.cycle)} working-set keys miss the memory tier"
            )

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    # -- the timed phase ------------------------------------------------
    def _next(self, k: int) -> int:
        """Index into ``self.perms`` of the ``k``-th timed request."""
        if self.w.working_set:
            return self.cycle[k % len(self.cycle)]
        self.perms.extend(random_perms(self.set_rng, self.w.rows * self.w.cols, 1))
        return len(self.perms) - 1

    def timed(self, seconds: float) -> dict:
        """Closed-loop requests for ``seconds``; latencies, responses, counters."""
        source = "computed" if self.w.tier == "misses" else "cache"
        before = cache_counters(self.client.stats())
        latencies, sent, served, req_bytes, resp_bytes = [], [], {}, [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            i = self._next(len(sent))
            body = _body(_doc(self.w, self.perms[i]))
            sent.append(i)
            try:
                doc, err, dt, nbytes = _route(self.client, body, source)
            except OSError as exc:
                raise BenchError(
                    f"request {len(sent)} lost the connection: {exc}"
                ) from None
            req_bytes.append(len(body))
            resp_bytes.append(nbytes)
            if doc is not None:
                shape = (doc["depth"], doc["size"])
                if i in self.shapes and shape != self.shapes[i]:
                    err = (
                        f"(depth, size) {shape} differs from the prefill's "
                        f"{self.shapes[i]}"
                    )
                elif self.w.include_schedule:
                    err = _check_full(doc, self.w, self.perms[i], None)
            if err:
                self.failures.append(f"request {len(sent)}: {err}")
                continue
            latencies.append(dt)
            served[i] = shape
        after = cache_counters(self.client.stats())
        counters = {k: after[k] - before[k] for k in after}
        if counters[self.w.tier] != len(sent) or sum(counters.values()) != len(sent):
            self.faults.append(
                f"cache path: expected {len(sent)} {self.w.tier}, "
                f"/stats counted {counters}"
            )
        return {
            "latencies": latencies,
            "sent": sent,
            "served": served,
            "counters": counters,
            "req_bytes": req_bytes,
            "resp_bytes": resp_bytes,
            "peak_rss_mb": self.daemon.peak_rss_mb(),
        }

    def sample_check(self, served: dict[int, tuple[int, int]]) -> int:
        """Fetch a seeded sample of served keys with their schedules; check them.

        Untimed, after the timed phase: the schedules must be valid and
        have the depth and size the timed responses reported.
        """
        keys = sorted(served)
        count = min(SAMPLE_CHECKS, len(keys))
        picks = self.sample_rng.choice(len(keys), size=count, replace=False)
        for i in (keys[j] for j in sorted(picks)):
            doc, err, _, _ = self._ask(self.perms[i], "cache", include_schedule=True)
            if err is None:
                err = _check_full(doc, self.w, self.perms[i], served[i])
            if err:
                self.failures.append(f"sample check of working-set key {i}: {err}")
        return len(picks)


def _p(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(run: Run, phase: dict, setup_times: list[float]) -> dict:
    lat = phase["latencies"]
    # Every distinct schedule the daemon served: the whole working set
    # (its prefill answers equal the timed ones), or each cold request.
    depths = {**run.shapes, **phase["served"]}
    ratios = [
        depth / max_displacement(run.perms[i], run.w.cols)
        for i, (depth, _) in depths.items()
    ]
    values = {
        "latency_p50_ms": _p(lat, 50) * 1e3,
        "latency_p90_ms": _p(lat, 90) * 1e3,
        # Requests per second of connection time: the client's own
        # checking between requests is not the daemon's throughput.
        "throughput_rps": len(lat) / sum(lat),
        "depth_ratio": float(np.mean(ratios)),
        "setup_s": median(setup_times),
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(run: Run, phase: dict, budget_s: float) -> dict:
    from layers import LAYERS, replay

    layers, n, shapes = replay(
        run.root,
        [_doc(run.w, run.perms[i]) for i in run.cycle],
        [_doc(run.w, run.perms[i]) for i in phase["sent"]],
        cache_size=run.w.cache_size,
        cache_dir=run.work / "replay-cache",
        budget_s=budget_s,
    )
    for k, (i, shape) in enumerate(zip(phase["sent"], shapes)):
        if i in phase["served"] and phase["served"][i] != shape:
            run.faults.append(
                f"replayed request {k}: (depth, size) {shape}, "
                f"daemon served {phase['served'][i]}"
            )
    e2e_ms = _p(phase["latencies"], 50) * 1e3
    out: dict[str, tuple[float, str]] = {"traced.latency_p50_ms": (e2e_ms, "ms")}
    explained = 0.0
    for name in LAYERS:
        lay = layers[name]
        # Cost per request; verify runs on a sample, so its share is what
        # it would add if every request ran it.
        per_req = lay["p50_ms"]
        if name != "schedule.verify":
            per_req *= lay["samples"] / n
        explained += lay["p50_ms"] * lay["path_calls"] / n
        out[f"{name}_ms"] = (lay["p50_ms"], "ms")
        out[f"{name}_calls"] = (lay["calls"], "count")
        out[f"{name}_pct"] = (100.0 * per_req / e2e_ms, "%")
    out["unattributed_ms"] = (e2e_ms - explained, "ms")
    out["unattributed_pct"] = (100.0 * (e2e_ms - explained) / e2e_ms, "%")
    counters = phase["counters"]
    lookups = sum(counters.values())
    out["cache.memory_hits"] = (counters["memory_hits"], "count")
    out["cache.disk_hits"] = (counters["disk_hits"], "count")
    out["cache.misses"] = (counters["misses"], "count")
    out["cache.hit_ratio"] = ((lookups - counters["misses"]) / lookups, "ratio")
    out["request_bytes"] = (median(phase["req_bytes"]), "B")
    out["response_bytes"] = (median(phase["resp_bytes"]), "B")
    out["replayed_requests"] = (n, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {root / 'src'}; "
            "run from a checkout root",
            file=sys.stderr,
        )
        return 2
    signal.signal(signal.SIGTERM, _sigterm)
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(root, args.workload, args.seed, work)
    try:
        # The traced run sets up once and splits its time between the
        # end-to-end phase and the in-process replay.
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_times = []
        for rep in range(repeats):
            setup_times.append(run.setup(rep))
            if rep < repeats - 1:
                run.teardown()
                shutil.rmtree(work / f"cache{rep}", ignore_errors=True)
        phase = run.timed(args.seconds / 2 if args.trace else args.seconds)
        sampled = 0 if run.w.include_schedule else run.sample_check(phase["served"])
        run.teardown()
        if not phase["latencies"]:
            raise BenchError("no request succeeded")
        if args.trace:
            metrics = per_layer(run, phase, args.seconds / 2)
        else:
            metrics = end_to_end(run, phase, setup_times)
    except (BenchError, DaemonError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        run.teardown()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    attempted = len(phase["sent"]) + sampled
    failed = len(run.failures)
    for fault in (run.failures + run.faults)[:20]:
        print(f"perfbench: FAILED {fault}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(phase["latencies"]),
        "error_rate": failed / attempted,
        "working_set": len(run.cycle),
        "cache_counters": phase["counters"],
        "setup_runs_s": setup_times,
        **_env_info(root),
    }
    print(json.dumps({"context": context}))
    correct = failed == 0 and not run.faults
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
