"""Command-line interface: ``python -m repro <command>`` (or ``repro ...``).

Commands
--------
``route``
    Route a generated workload (or the identity) on a grid and print
    depth/size/time per router, optionally the ASCII schedule. With
    ``--json``, machine-readable metrics instead.
``transpile``
    Read an OpenQASM 2 file, map+route it onto a grid device, report
    overheads (``--json`` for machine-readable) and optionally write the
    physical circuit back to QASM.
``batch``
    Bulk routing through :class:`~repro.service.RoutingService`: a file
    of JSON request lines in, a JSONL stream of results out, with
    dedup, schedule caching and a process-pool worker fleet. With
    ``--daemon ADDR`` (a socket path or ``http://HOST:PORT``) the
    requests are shipped to a running ``repro serve`` daemon in one
    ``POST /v1/route_batch`` instead of a fresh local service, so
    repeated invocations reuse one warm pool and cache.
``serve``
    Long-lived daemon speaking HTTP/JSON on a UNIX socket
    (``--socket PATH``) or a TCP port (``--http HOST:PORT``), including
    Prometheus ``/metrics``; see :mod:`repro.service.http` for the
    endpoints. Repeatable ``--peer ADDR`` joins the daemon to a
    cluster cache ring (:mod:`repro.service.cluster`);
    ``--topology-file PATH`` instead watches a JSON membership file
    (reloaded on mtime change or SIGHUP); ``repro batch --cluster
    ADDR`` taps the same ring from a one-shot batch. ``--tenants
    FILE`` enforces multi-tenant API-key authentication with
    weighted-fair queueing, ``--max-queue-depth N`` sheds load with
    429 once that many requests are queued, and ``repro batch
    --api-key KEY`` sends the matching credential (see
    docs/OPERATIONS.md, "Tenancy and overload").
``trace``
    Fetch finished request traces from one or more daemons and render
    each as a span tree with durations (``--id`` for one trace,
    ``--slow N`` for traces above a threshold). Traces fetched from
    several ring members are merged by trace id, so a request that
    hopped daemons renders as one tree (see
    :mod:`repro.service.tracing` and docs/OBSERVABILITY.md).
``topology``
    Inspect or change a live ring's membership without restarts:
    ``repro topology show ADDR`` prints a daemon's epoch + members;
    ``repro topology join NEW --contact ADDR`` / ``repro topology
    leave NODE --contact ADDR`` push an epoch-guarded membership
    change to every member (scale-up triggers key-space handoff so
    the new shard starts warm).
``sweep``
    A small Figure-4/5 style sweep printed as tables with claim checks.
``info``
    List available routers and workload generators.

The CLI is a thin veneer over the library — every code path it exercises
is the public API, which keeps it honest as living documentation. All
machine-readable output (``--json``, ``batch``) goes through the
encoding helpers of :mod:`repro.service.service`, so scripts see one
schema everywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .bench import check_claims, run_sweep, series_table
from .errors import ReproError
from .graphs import GridGraph
from .noise import NoiseModel
from .perm import WORKLOADS, make_workload
from .routing import available_routers, describe_routers, make_router
from .routing.serialize import render_grid_schedule

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Locality-aware qubit routing for grid architectures "
        "(reproduction of Banerjee, Liang, Tohid, IPPS 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser("route", help="route a workload on a grid")
    p_route.add_argument("--rows", type=int, default=8)
    p_route.add_argument("--cols", type=int, default=8)
    p_route.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="random"
    )
    p_route.add_argument("--seed", type=int, default=0)
    p_route.add_argument(
        "--router",
        action="append",
        choices=available_routers(),
        help="repeatable; default: local, naive, ats",
    )
    p_route.add_argument(
        "--show", action="store_true", help="render the best schedule as ASCII"
    )
    p_route.add_argument(
        "--fidelity", action="store_true", help="estimate NISQ success probability"
    )
    p_route.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    p_trans = sub.add_parser("transpile", help="transpile an OpenQASM 2 file")
    p_trans.add_argument("qasm", help="input .qasm path")
    p_trans.add_argument("--rows", type=int, required=True)
    p_trans.add_argument("--cols", type=int, required=True)
    p_trans.add_argument("--router", choices=available_routers(), default="local")
    p_trans.add_argument(
        "--mapping",
        choices=["identity", "random", "center", "annealed"],
        default="identity",
    )
    p_trans.add_argument("--seed", type=int, default=0)
    p_trans.add_argument("--out", help="write the physical circuit here")
    p_trans.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    p_batch = sub.add_parser(
        "batch", help="bulk routing via the RoutingService (JSONL in/out)"
    )
    p_batch.add_argument(
        "requests",
        help="path to a file of JSON request lines, or '-' for stdin; each "
        "line needs rows/cols plus either workload(+seed) or an explicit "
        "perm array, and optionally router/options",
    )
    p_batch.add_argument(
        "--out", default="-", help="JSONL results path, '-' for stdout"
    )
    p_batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: all CPUs; 0 or 1 = one compute thread)",
    )
    p_batch.add_argument("--cache-size", type=int, default=4096)
    p_batch.add_argument(
        "--cache-dir", help="persistent schedule-cache directory"
    )
    p_batch.add_argument(
        "--warm",
        action="store_true",
        help="pre-route the paper workload families before the batch",
    )
    p_batch.add_argument(
        "--include-schedule",
        action="store_true",
        help="embed the full schedule layers in each result line",
    )
    p_batch.add_argument(
        "--stats",
        action="store_true",
        help="print service stats as JSON to stderr after the batch",
    )
    p_batch.add_argument(
        "--daemon",
        metavar="ADDR",
        help="send the requests to a running `repro serve` daemon at this "
        "address (UNIX socket path or http://HOST:PORT) in one POST "
        "/v1/route_batch, bounded by the daemon's --max-body, instead of "
        "routing locally (--workers/--cache-*/--warm are the "
        "daemon's business and ignored here)",
    )
    p_batch.add_argument(
        "--api-key",
        metavar="KEY",
        help="tenant API key sent as an Authorization: Bearer header when "
        "the daemon enforces tenancy (with --daemon; ignored when routing "
        "locally)",
    )
    p_batch.add_argument(
        "--cluster",
        metavar="ADDR",
        action="append",
        help="repeatable: route locally but share the schedule cache of "
        "these peer daemons (UNIX socket path or http://HOST:PORT) over "
        "a consistent-hash ring; this process joins as a client-only "
        "node (warm peer entries are fetched, computed ones pushed back)",
    )
    p_batch.add_argument(
        "--replication",
        type=int,
        default=2,
        help="cache replicas per key on the cluster ring (with --cluster)",
    )
    p_batch.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds a failed cluster peer is skipped before being "
        "probed again (with --cluster)",
    )

    p_serve = sub.add_parser(
        "serve", help="long-lived routing daemon (HTTP/JSON)"
    )
    transport = p_serve.add_mutually_exclusive_group(required=True)
    transport.add_argument(
        "--socket",
        metavar="PATH",
        help="serve HTTP/JSON on this UNIX socket path",
    )
    transport.add_argument(
        "--http",
        metavar="HOST:PORT",
        help="serve HTTP/JSON on this TCP address "
        "(POST /v1/route[_batch], /v1/transpile_batch, GET /healthz, "
        "/stats, /metrics)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: all CPUs; 0 or 1 = one compute thread)",
    )
    p_serve.add_argument("--cache-size", type=int, default=4096)
    p_serve.add_argument(
        "--cache-dir", help="persistent schedule-cache directory"
    )
    p_serve.add_argument(
        "--min-cache-seconds",
        type=float,
        default=0.0,
        help="admission threshold: don't cache schedules computed faster "
        "than this many seconds",
    )
    p_serve.add_argument(
        "--max-concurrency",
        type=int,
        default=64,
        help="maximum in-flight requests",
    )
    p_serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="load-shedding bound: refuse work with 429/rate_limited "
        "(and a Retry-After header on HTTP) once this many requests "
        "are queued ahead of execution (default: unbounded)",
    )
    p_serve.add_argument(
        "--tenants",
        metavar="FILE",
        help="JSON tenant configuration (API keys, weights, token-bucket "
        "rates, per-tenant quotas); enables authentication and "
        "weighted-fair queueing across tenants (see docs/OPERATIONS.md)",
    )
    p_serve.add_argument(
        "--max-body",
        type=int,
        default=None,
        metavar="BYTES",
        help="per-request body-size limit "
        "(413 + Connection: close above it)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-request timeout in seconds",
    )
    p_serve.add_argument(
        "--warm",
        action="store_true",
        help="pre-route the paper workload families before serving",
    )
    p_serve.add_argument(
        "--peer",
        metavar="ADDR",
        action="append",
        help="repeatable: peer daemon address (UNIX socket path or "
        "http://HOST:PORT) forming one logical schedule cache over a "
        "consistent-hash ring (see docs/OPERATIONS.md)",
    )
    p_serve.add_argument(
        "--node-id",
        help="this daemon's ring id — must be the address its peers dial "
        "(default: the --socket path or http://HOST:PORT)",
    )
    p_serve.add_argument(
        "--replication",
        type=int,
        default=2,
        help="cache replicas per key on the cluster ring",
    )
    p_serve.add_argument(
        "--topology-file",
        metavar="PATH",
        help="watch this JSON membership file (mtime poll + SIGHUP) "
        "instead of a static --peer list; the file lists every ring "
        "member address including this daemon's own node id",
    )
    p_serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds a failed cluster peer is skipped before being "
        "probed again (the per-node circuit-breaker cooldown)",
    )
    p_serve.add_argument(
        "--gossip-interval",
        type=float,
        default=0.0,
        help="seconds between SWIM gossip probe rounds (0 disables "
        "gossip, the default); with gossip on, a crashed ring member "
        "is detected and removed automatically — no admin CLI (see "
        "docs/OPERATIONS.md)",
    )
    p_serve.add_argument(
        "--suspicion-timeout",
        type=float,
        default=5.0,
        help="seconds a gossip-suspected member may refute before it "
        "is declared dead and dropped from the ring (with "
        "--gossip-interval)",
    )
    p_serve.add_argument(
        "--sweep-interval",
        type=float,
        default=0.0,
        help="seconds between background anti-entropy sweeps repairing "
        "under-replicated cache keys (0 disables, the default; pushes "
        "are paced by the handoff rate limiter)",
    )
    p_serve.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="minimum level for the service's structured logs (stderr)",
    )
    p_serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as one JSON object per line (with trace_id / "
        "span_id correlation fields) instead of human-readable text",
    )
    p_serve.add_argument(
        "--trace-buffer",
        type=int,
        default=512,
        metavar="N",
        help="finished request traces kept in the in-memory ring "
        "(0 disables tracing entirely)",
    )
    p_serve.add_argument(
        "--trace-slow",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="log a structured warning for any trace slower than this "
        "(0 = never)",
    )

    p_trace = sub.add_parser(
        "trace",
        help="fetch and render request traces from running daemons",
    )
    p_trace.add_argument(
        "contacts",
        nargs="+",
        metavar="ADDR",
        help="daemon addresses (socket path or http://HOST:PORT); give "
        "every ring member to merge cross-daemon traces into one tree",
    )
    p_trace.add_argument(
        "--id", dest="trace_id", metavar="TRACE", help="fetch one trace by id"
    )
    p_trace.add_argument(
        "--slow",
        type=float,
        default=None,
        metavar="SECONDS",
        help="only traces with total duration above this many seconds",
    )
    p_trace.add_argument(
        "--limit",
        type=int,
        default=10,
        help="newest traces to show (per daemon fetch; default 10)",
    )
    p_trace.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    p_topo = sub.add_parser(
        "topology",
        help="inspect or change a live cluster ring (no restarts)",
    )
    topo_sub = p_topo.add_subparsers(dest="topology_command", required=True)
    t_show = topo_sub.add_parser(
        "show", help="print a daemon's current epoch and member set"
    )
    t_show.add_argument(
        "contact", help="any ring member's address (socket path or http://...)"
    )
    t_show.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    t_join = topo_sub.add_parser(
        "join",
        help="add a running daemon to the ring (triggers key-space handoff)",
    )
    t_join.add_argument(
        "node",
        help="the joining daemon's node id — the address the other "
        "members will dial (its --node-id / listen address)",
    )
    t_join.add_argument(
        "--contact",
        required=True,
        metavar="ADDR",
        help="any current ring member to read the topology from",
    )
    t_leave = topo_sub.add_parser(
        "leave", help="remove a member from the ring (its keys re-home)"
    )
    t_leave.add_argument("node", help="the leaving member's node id")
    t_leave.add_argument(
        "--contact",
        required=True,
        metavar="ADDR",
        help="any current ring member to read the topology from",
    )

    p_auto = sub.add_parser(
        "autoscale",
        help="supervise a ring: scale up/down from live /metrics signals",
    )
    p_auto.add_argument(
        "--contact",
        action="append",
        required=True,
        metavar="ADDR",
        help="repeatable: ring member address to read the topology from "
        "(the first one that answers wins)",
    )
    p_auto.add_argument(
        "--pool",
        action="append",
        metavar="ADDR",
        help="repeatable: spare daemon address the autoscaler may add to "
        "the ring (and the only kind it will ever remove); the daemon "
        "must already be running",
    )
    p_auto.add_argument(
        "--min-nodes", type=int, default=1, help="never shrink below this size"
    )
    p_auto.add_argument(
        "--max-nodes", type=int, default=8, help="never grow above this size"
    )
    p_auto.add_argument(
        "--queue-high",
        type=float,
        default=8.0,
        help="scale up when the summed fair-queue depth exceeds this",
    )
    p_auto.add_argument(
        "--queue-low",
        type=float,
        default=1.0,
        help="scale down when the summed queue depth is at or below this",
    )
    p_auto.add_argument(
        "--p99-high",
        type=float,
        default=None,
        metavar="SECONDS",
        help="scale up when any member's pipeline.execute p99 exceeds this",
    )
    p_auto.add_argument(
        "--hit-rate-low",
        type=float,
        default=None,
        metavar="RATE",
        help="scale up when the mean schedule-cache hit rate drops below "
        "this (0..1)",
    )
    p_auto.add_argument(
        "--cooldown",
        type=float,
        default=30.0,
        help="seconds between membership actions (anti-flapping)",
    )
    p_auto.add_argument(
        "--interval",
        type=float,
        default=5.0,
        help="seconds between evaluation steps",
    )
    p_auto.add_argument(
        "--once",
        action="store_true",
        help="run exactly one observe/decide/act step and exit",
    )
    p_auto.add_argument(
        "--json",
        action="store_true",
        help="with --once: print the observation and decision as JSON",
    )

    p_sweep = sub.add_parser("sweep", help="mini Figure 4/5 sweep")
    p_sweep.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 16])
    p_sweep.add_argument("--seeds", type=int, default=2)
    p_sweep.add_argument(
        "--workloads", nargs="+", choices=sorted(WORKLOADS),
        default=["random", "block_local"],
    )

    sub.add_parser("info", help="list routers and workloads")
    return parser


def _cmd_route(args: argparse.Namespace) -> int:
    grid = GridGraph(args.rows, args.cols)
    perm = make_workload(args.workload, grid, seed=args.seed)
    router_names = args.router or ["local", "naive", "ats"]
    noise = NoiseModel()
    if args.json:
        return _cmd_route_json(args, grid, perm, router_names, noise)
    best = None
    print(
        f"{args.workload} permutation on {args.rows}x{args.cols} grid "
        f"(seed {args.seed})"
    )
    for name in router_names:
        router = make_router(name)
        t0 = time.perf_counter()
        sched = router.route(grid, perm)
        dt = time.perf_counter() - t0
        sched.verify(grid, perm)
        line = (
            f"  {name:8s} depth={sched.depth:4d} swaps={sched.size:5d} "
            f"time={dt * 1e3:8.1f}ms"
        )
        if args.fidelity:
            line += f" est.success={noise.schedule_fidelity(sched):.4f}"
        print(line)
        if best is None or sched.depth < best[1].depth:
            best = (name, sched)
    if args.show and best is not None:
        print(f"\nschedule from {best[0]}:")
        print(render_grid_schedule(grid, best[1]))
    return 0


def _cmd_route_json(args, grid, perm, router_names, noise) -> int:
    """The ``route --json`` path: one service-encoded result per router."""
    from .service import RoutingService, route_result_to_dict

    # The service verifies every schedule it computes, the same
    # guarantee the text path gives by verifying before printing.
    results = []
    with RoutingService(cache_size=len(router_names) + 1, max_workers=1) as svc:
        for name in router_names:
            res = svc.submit(grid, perm, router=name)
            extra = {}
            if args.fidelity and res.ok:
                extra["est_success"] = noise.schedule_fidelity(res.schedule)
            results.append(route_result_to_dict(res, **extra))
    doc = {
        "command": "route",
        "rows": args.rows,
        "cols": args.cols,
        "workload": args.workload,
        "seed": args.seed,
        "results": results,
    }
    print(json.dumps(doc, indent=2))
    return 0 if all(r["ok"] for r in results) else 2


def _cmd_transpile(args: argparse.Namespace) -> int:
    from .circuit import dump_file, load_file
    from .transpile import transpile

    circuit = load_file(args.qasm)
    grid = GridGraph(args.rows, args.cols)
    result = transpile(
        circuit, grid, router=args.router, mapping=args.mapping, seed=args.seed
    )
    if args.out:
        dump_file(result.physical, args.out)
    if args.json:
        from .service import transpile_metrics

        doc = {
            "command": "transpile",
            "qasm": args.qasm,
            "rows": args.rows,
            "cols": args.cols,
            "mapping": args.mapping,
            "seed": args.seed,
            "metrics": transpile_metrics(result),
        }
        if args.out:
            doc["out"] = args.out
        print(json.dumps(doc, indent=2))
        return 0
    print(result.summary())
    print(
        "final placement (logical -> physical): "
        + ", ".join(f"{l}->{p}" for l, p in enumerate(result.final_mapping))
    )
    if args.out:
        print(f"physical circuit written to {args.out}")
    return 0


def _parse_batch_line(doc: dict, lineno: int):
    """One JSONL request line -> RouteRequest (raises ReproError with context)."""
    from .service import request_from_doc

    try:
        return request_from_doc(doc)
    except ReproError as exc:
        raise ReproError(f"request line {lineno}: {exc}") from None


def _read_request_docs(path: str) -> list[tuple[int, dict]]:
    """Read a JSONL request file ('-' = stdin) into (lineno, doc) pairs."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ReproError(f"cannot read requests file: {exc}") from exc
    docs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"request line {lineno}: invalid JSON: {exc}") from exc
        docs.append((lineno, doc))
    return docs


def _open_out(path: str):
    """Open the results stream ('-' = stdout) before routing, to fail fast."""
    if path == "-":
        return sys.stdout
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot open output file: {exc}") from exc


def _cmd_batch_daemon(args: argparse.Namespace) -> int:
    """The ``batch --daemon ADDR`` path: one POST /v1/route_batch."""
    from .service import http_request

    docs = []
    for lineno, doc in _read_request_docs(args.requests):
        if not isinstance(doc, dict):
            raise ReproError(f"request line {lineno}: expected a JSON object")
        docs.append(doc)
    out = _open_out(args.out)
    headers = {"Authorization": f"Bearer {args.api_key}"} if args.api_key else None
    t0 = time.perf_counter()
    status, body = http_request(
        args.daemon,
        "/v1/route_batch",
        {"requests": docs, "include_schedule": bool(args.include_schedule)},
        headers=headers,
    )
    elapsed = time.perf_counter() - t0
    if status != 200 or not isinstance(body, dict) or not body.get("ok"):
        detail = body.get("error") if isinstance(body, dict) else body
        raise ReproError(f"daemon batch failed (status {status}): {detail}")
    responses = body["results"]
    stats = None
    if args.stats:
        stats_status, stats_body = http_request(args.daemon, "/stats")
        if stats_status == 200 and isinstance(stats_body, dict):
            stats = stats_body.get("stats")
    try:
        for resp in responses:
            out.write(json.dumps(resp) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    n_err = sum(1 for r in responses if not r.get("ok"))
    rate = len(responses) / elapsed if elapsed > 0 else float("inf")
    print(
        f"batch: {len(responses)} requests in {elapsed:.3f}s "
        f"({rate:.1f} req/s), {n_err} errors, via daemon {args.daemon}",
        file=sys.stderr,
    )
    if stats is not None:
        print(json.dumps(stats, indent=2), file=sys.stderr)
    return 0 if n_err == 0 else 3


def _cmd_batch(args: argparse.Namespace) -> int:
    from .service import RoutingService, route_result_to_dict

    if args.cluster and args.daemon:
        raise ReproError("--cluster routes locally; it excludes --daemon")
    if args.daemon:
        return _cmd_batch_daemon(args)

    if args.cache_size <= 0:
        raise ReproError(f"--cache-size must be positive, got {args.cache_size}")
    if args.workers is not None and args.workers < 0:
        raise ReproError(f"--workers must be >= 0, got {args.workers}")
    if args.replication <= 0:
        raise ReproError(f"--replication must be positive, got {args.replication}")
    if args.breaker_cooldown <= 0:
        raise ReproError(
            f"--breaker-cooldown must be positive, got {args.breaker_cooldown}"
        )

    requests = [
        _parse_batch_line(doc, lineno)
        for lineno, doc in _read_request_docs(args.requests)
    ]

    # Open the output before routing so a bad --out path fails fast
    # instead of discarding a whole computed batch.
    out = _open_out(args.out)

    with RoutingService(
        cache_size=args.cache_size,
        cache_dir=args.cache_dir,
        max_workers=args.workers,
        cluster_peers=tuple(args.cluster or ()),
        cluster_replication=args.replication,
        cluster_retry_interval=args.breaker_cooldown,
    ) as svc:
        t0 = time.perf_counter()
        if args.warm:
            warmed = svc.warm_cache()
            print(f"warmed cache with {warmed} schedules", file=sys.stderr)
        results = svc.submit_batch(requests)
        elapsed = time.perf_counter() - t0

        try:
            for res in results:
                out.write(
                    json.dumps(
                        route_result_to_dict(
                            res, include_schedule=args.include_schedule
                        )
                    )
                    + "\n"
                )
        finally:
            if out is not sys.stdout:
                out.close()

        n_err = sum(1 for r in results if not r.ok)
        rate = len(results) / elapsed if elapsed > 0 else float("inf")
        print(
            f"batch: {len(results)} requests in {elapsed:.3f}s "
            f"({rate:.1f} req/s), {n_err} errors",
            file=sys.stderr,
        )
        if args.stats:
            print(json.dumps(svc.stats(), indent=2), file=sys.stderr)
    return 0 if n_err == 0 else 3


def _parse_host_port(value: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` CLI argument (host defaults to 127.0.0.1)."""
    host, sep, port_text = value.rpartition(":")
    if not sep:
        host, port_text = "", value
    try:
        port = int(port_text)
        if not (0 <= port <= 65535):
            raise ValueError(port_text)
    except ValueError:
        raise ReproError(
            f"--http expects HOST:PORT with a numeric port, got {value!r}"
        ) from None
    return host or "127.0.0.1", port


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` daemon: warm pool + cache shared across clients."""
    import asyncio

    from .service import (
        AsyncRoutingService,
        ClusterTopology,
        HttpRoutingServer,
        TopologyFileWatcher,
        configure_logging,
        get_logger,
    )

    if args.cache_size <= 0:
        raise ReproError(f"--cache-size must be positive, got {args.cache_size}")
    if args.trace_buffer < 0:
        raise ReproError(f"--trace-buffer must be >= 0, got {args.trace_buffer}")
    if args.trace_slow < 0:
        raise ReproError(f"--trace-slow must be >= 0, got {args.trace_slow}")
    if args.workers is not None and args.workers < 0:
        raise ReproError(f"--workers must be >= 0, got {args.workers}")
    if args.max_concurrency <= 0:
        raise ReproError(
            f"--max-concurrency must be positive, got {args.max_concurrency}"
        )
    if args.replication <= 0:
        raise ReproError(f"--replication must be positive, got {args.replication}")
    if args.breaker_cooldown <= 0:
        raise ReproError(
            f"--breaker-cooldown must be positive, got {args.breaker_cooldown}"
        )
    if args.topology_file and args.peer:
        raise ReproError(
            "--topology-file and --peer are mutually exclusive (the file "
            "is the authoritative member list)"
        )
    if args.gossip_interval < 0:
        raise ReproError(
            f"--gossip-interval must be >= 0, got {args.gossip_interval}"
        )
    if args.suspicion_timeout <= 0:
        raise ReproError(
            f"--suspicion-timeout must be positive, got {args.suspicion_timeout}"
        )
    if args.sweep_interval < 0:
        raise ReproError(
            f"--sweep-interval must be >= 0, got {args.sweep_interval}"
        )
    if args.max_queue_depth is not None and args.max_queue_depth <= 0:
        raise ReproError(
            f"--max-queue-depth must be positive, got {args.max_queue_depth}"
        )
    if args.max_body is not None and args.max_body <= 0:
        raise ReproError(f"--max-body must be positive, got {args.max_body}")
    if args.min_cache_seconds < 0:
        raise ReproError(
            f"--min-cache-seconds must be >= 0, got {args.min_cache_seconds}"
        )

    configure_logging(args.log_level, json_output=args.log_json)
    log = get_logger("repro.service.cli")

    if args.http:
        host, port = _parse_host_port(args.http)
        address = f"http://{host}:{port}"
        listen: dict = {"host": host, "port": port}
    else:
        address = args.socket
        listen = {"socket_path": args.socket}
    if args.max_body is not None:
        listen["max_body_bytes"] = args.max_body
    # A shard sits on the ring under the address its peers dial; default
    # to this daemon's own listen address. Every daemon is therefore
    # joinable at runtime (`repro topology join`) even when started with
    # no peers.
    node_id = args.node_id if args.node_id is not None else address

    topology = None
    watcher = None
    if args.topology_file:
        topology = ClusterTopology([node_id] if node_id else [])
        watcher = TopologyFileWatcher(topology, args.topology_file)
        watcher.reload()  # a malformed file fails the start loudly

    tenants = None
    if args.tenants:
        from .service import load_tenants_file

        tenants = load_tenants_file(args.tenants)  # malformed fails loudly
        log.info(
            "tenancy enforced",
            extra={
                "tenants": len(tenants.tenants()),
                "config": args.tenants,
            },
        )

    svc = AsyncRoutingService(
        max_concurrency=args.max_concurrency,
        tenants=tenants,
        max_queue_depth=args.max_queue_depth,
        default_timeout=args.timeout,
        cache_size=args.cache_size,
        cache_dir=args.cache_dir,
        cache_min_cost=args.min_cache_seconds,
        max_workers=args.workers,
        cluster_peers=tuple(args.peer or ()),
        cluster_node_id=node_id,
        cluster_replication=args.replication,
        cluster_topology=topology,
        cluster_retry_interval=args.breaker_cooldown,
        trace_buffer=args.trace_buffer,
        trace_slow=args.trace_slow,
    )
    if args.warm:
        warmed = svc.service.warm_cache()
        log.info("warmed cache", extra={"schedules": warmed})

    gossip_runner = None
    gossip_node = None
    gossip_transport = None
    if args.gossip_interval > 0:
        from .service import (
            GossipConfig,
            GossipNode,
            GossipRunner,
            PeerGossipTransport,
        )

        gossip_transport = PeerGossipTransport()
        gossip_node = GossipNode(
            node_id,
            svc.service.cluster_topology,
            gossip_transport,
            GossipConfig(
                interval=args.gossip_interval,
                suspicion_timeout=args.suspicion_timeout,
            ),
            telemetry=svc.service.telemetry,
        )
        svc.service.gossip = gossip_node
        gossip_runner = GossipRunner(gossip_node)
        gossip_runner.start()
        log.info(
            "gossip failure detector running",
            extra={
                "interval": args.gossip_interval,
                "suspicion_timeout": args.suspicion_timeout,
            },
        )
    if args.sweep_interval > 0:
        svc.service.cache.start_sweeper(args.sweep_interval)
        log.info(
            "anti-entropy sweeper running",
            extra={"interval": args.sweep_interval},
        )

    on_reload = watcher.reload_now if watcher is not None else None
    if watcher is not None:
        watcher.start()
    try:
        server = HttpRoutingServer(svc, on_reload=on_reload, **listen)
        log.info("repro daemon listening", extra={"address": address})
        asyncio.run(server.serve())
        log.info("repro daemon stopped", extra={"address": address})
        return 0
    finally:
        if gossip_runner is not None:
            gossip_runner.stop()
        if gossip_node is not None:
            gossip_node.close()
        if gossip_transport is not None:
            gossip_transport.close()
        if watcher is not None:
            watcher.stop()


def _merge_traces(trace_docs: list[dict]) -> dict[str, dict]:
    """Group per-node trace documents by trace id, concatenating spans.

    A request that hopped daemons produces one trace document *per
    node*, all sharing a trace id; the remote node's root span is
    parented on the caller's span id, so the concatenated span set
    forms one well-nested tree.
    """
    merged: dict[str, dict] = {}
    for doc in trace_docs:
        trace_id = str(doc.get("trace_id", ""))
        if not trace_id:
            continue
        entry = merged.setdefault(
            trace_id,
            {"trace_id": trace_id, "nodes": [], "spans": [], "start_unix": None},
        )
        node = str(doc.get("node_id", ""))
        if node and node not in entry["nodes"]:
            entry["nodes"].append(node)
        for span_doc in doc.get("spans", []):
            if any(
                s.get("span_id") == span_doc.get("span_id")
                for s in entry["spans"]
            ):
                continue  # same node polled twice
            entry["spans"].append({**span_doc, "node_id": node})
        start = doc.get("start_unix")
        if start is not None and (
            entry["start_unix"] is None or start < entry["start_unix"]
        ):
            entry["start_unix"] = start
    return merged


def _render_span_tree(spans: list[dict]) -> list[str]:
    """A merged span set as indented ``name duration [attrs]`` lines.

    Spans whose parent is absent from the set (the trace root, or a
    hop whose caller's node was not polled) render at the top level;
    siblings sort by wall-clock start.
    """
    by_id = {s.get("span_id"): s for s in spans if s.get("span_id")}
    children: dict[str | None, list[dict]] = {}
    for s in spans:
        parent = s.get("parent_id")
        children.setdefault(parent if parent in by_id else None, []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: (s.get("start_unix") or 0.0, s.get("name") or ""))

    lines: list[str] = []

    def walk(span_doc: dict, depth: int) -> None:
        ms = float(span_doc.get("duration_seconds") or 0.0) * 1e3
        parts = [f"{'  ' * depth}{span_doc.get('name', '?')}", f"{ms:.3f}ms"]
        node = span_doc.get("node_id")
        if node:
            parts.append(f"@{node}")
        attrs = span_doc.get("attrs") or {}
        parts.extend(f"{k}={v}" for k, v in sorted(attrs.items()))
        if span_doc.get("status", "ok") != "ok":
            parts.append(f"status={span_doc['status']}")
        lines.append("  ".join(parts))
        for child in children.get(span_doc.get("span_id"), []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return lines


def _cmd_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: fetch, merge and render request traces."""
    from .service import RemoteShardClient

    if args.limit <= 0:
        raise ReproError(f"--limit must be positive, got {args.limit}")
    fetched: list[dict] = []
    errors: list[str] = []
    for contact in args.contacts:
        client = RemoteShardClient(contact)
        try:
            fetched.extend(
                client.trace_get(
                    trace_id=args.trace_id,
                    limit=None if args.trace_id else args.limit,
                    min_seconds=args.slow,
                )
            )
        except ReproError as exc:
            errors.append(f"{contact}: {exc}")
        finally:
            client.close()
    for err in errors:
        print(f"note: {err}", file=sys.stderr)
    if len(errors) == len(args.contacts):
        raise ReproError("no daemon answered trace_get")
    merged = _merge_traces(fetched)
    if args.json:
        print(json.dumps(list(merged.values()), indent=2))
        return 0
    if not merged:
        print("no traces recorded (is tracing enabled and traffic flowing?)")
        return 0
    # Newest first, like the daemon's own ring ordering.
    ordered = sorted(
        merged.values(), key=lambda t: t.get("start_unix") or 0.0, reverse=True
    )
    for entry in ordered:
        total = max(
            (
                float(s.get("duration_seconds") or 0.0)
                for s in entry["spans"]
                if s.get("parent_id") is None
            ),
            default=0.0,
        )
        nodes = ", ".join(entry["nodes"]) or "?"
        print(f"trace {entry['trace_id']}  {total * 1e3:.3f}ms  nodes: {nodes}")
        for line in _render_span_tree(entry["spans"]):
            print(f"  {line}")
        print()
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    """The ``topology`` admin subcommand: show / join / leave a live ring."""
    from .service import RemoteShardClient

    def _topology_from(addr: str) -> dict:
        client = RemoteShardClient(addr)
        try:
            return client.topology_get()
        finally:
            client.close()

    if args.topology_command == "show":
        topo = _topology_from(args.contact)
        if args.json:
            print(json.dumps(topo, indent=2))
        else:
            print(f"epoch {topo.get('epoch')}")
            for member in topo.get("members", []):
                print(f"  {member}")
        return 0

    topo = _topology_from(args.contact)
    epoch = int(topo.get("epoch", 0))
    members = list(topo.get("members", []))
    if args.topology_command == "join":
        if args.node in members:
            raise ReproError(f"{args.node} is already a ring member")
        new_members = sorted(set(members) | {args.node})
        # The newcomer first (its epoch differs, so no CAS — just the
        # monotonic guard), then every existing member under a strict
        # expected-epoch CAS: two racing admins cannot split the ring.
        push_order = [(args.node, False)] + [(m, True) for m in members]
    else:  # leave
        if args.node not in members:
            raise ReproError(f"{args.node} is not a ring member")
        new_members = sorted(set(members) - {args.node})
        if not new_members:
            raise ReproError(
                f"refusing to remove the last ring member {args.node}; "
                "shut the daemon down instead"
            )
        # Remaining members first (CAS-guarded); the leaver last and
        # best-effort — it may already be gone, which is fine.
        push_order = [(m, True) for m in new_members] + [(args.node, False)]
    new_epoch = epoch + 1
    doc = {"members": new_members, "epoch": new_epoch}
    failures: list[str] = []
    for addr, cas in push_order:
        update = {**doc, "expected_epoch": epoch} if cas else doc
        client = RemoteShardClient(addr)
        try:
            client.topology_update(update)
        except ReproError as exc:
            if args.topology_command == "join" and addr == args.node:
                # The newcomer is pushed first; if it cannot be
                # reached, abort before any live member learns the new
                # ring — otherwise they would route a share of the key
                # space to a dead address.
                raise ReproError(
                    f"cannot reach joining node {addr} ({exc}); aborting "
                    "the join before updating the ring"
                ) from exc
            if args.topology_command == "leave" and addr == args.node:
                print(f"note: leaver {addr} unreachable ({exc})", file=sys.stderr)
            else:
                failures.append(f"{addr}: {exc}")
        finally:
            client.close()
    if failures:
        raise ReproError(
            f"topology update reached only part of the ring: {'; '.join(failures)}"
        )
    print(
        f"ring now at epoch {new_epoch} with {len(new_members)} member(s): "
        + ", ".join(new_members)
    )
    return 0


def _cmd_autoscale(args: argparse.Namespace) -> int:
    """The ``autoscale`` supervisor: metrics-driven ring resizing."""
    from .service import AutoscalePolicy, Autoscaler, configure_logging

    configure_logging("info")
    policy = AutoscalePolicy(
        min_nodes=args.min_nodes,
        max_nodes=args.max_nodes,
        queue_high=args.queue_high,
        queue_low=args.queue_low,
        p99_high=args.p99_high,
        hit_rate_low=args.hit_rate_low,
        cooldown=args.cooldown,
    )
    scaler = Autoscaler(args.contact, pool=args.pool or (), policy=policy)
    if args.once:
        obs, decision = scaler.step()
        if args.json:
            print(
                json.dumps(
                    {"observation": obs.as_dict(), "decision": decision.as_dict()},
                    indent=2,
                )
            )
        else:
            print(
                f"epoch {obs.epoch}, {len(obs.members)} member(s), "
                f"queued {obs.queued:.0f} -> {decision.action}"
                + (f" {decision.node}" if decision.node else "")
                + f" ({decision.reason})"
            )
        return 0
    scaler.run(args.interval)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    routers = {name: make_router(name) for name in ("local", "naive", "ats")}
    sweep = run_sweep(
        args.sizes, args.workloads, routers, seeds=range(args.seeds)
    )
    print(series_table(sweep, "depth", title="depth (mean)"))
    print(series_table(sweep, "seconds", title="router time (mean)"))
    for check in check_claims(sweep):
        print(check)
    return 0


def _cmd_info(_: argparse.Namespace) -> int:
    print("routers:  " + ", ".join(available_routers()))
    for info in describe_routers():
        families = ", ".join(info.families) or "-"
        print(f"  {info.name:10s} graphs: {families}")
        if info.summary:
            print(f"             {info.summary}")
    print("workloads: " + ", ".join(sorted(WORKLOADS)))
    return 0


_COMMANDS = {
    "route": _cmd_route,
    "transpile": _cmd_transpile,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "topology": _cmd_topology,
    "autoscale": _cmd_autoscale,
    "sweep": _cmd_sweep,
    "info": _cmd_info,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro ... | head`); exit
        # quietly instead of tracebacking.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
