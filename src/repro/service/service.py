"""The :class:`RoutingService` facade: one object, the whole front end.

Wraps the schedule cache, the worker pool and the telemetry registry
behind the five calls a client needs:

* :meth:`RoutingService.submit` — one routing instance, cache-aware;
* :meth:`RoutingService.submit_batch` — many instances, deduplicated
  and fanned out over the worker pool;
* :meth:`RoutingService.transpile_batch` — full circuit transpilation
  in bulk, same pooling and error isolation;
* :meth:`RoutingService.warm_cache` — pre-route the paper's workload
  families so a fresh deployment starts hot;
* :meth:`RoutingService.stats` — cache counters, latency histograms
  and worker configuration as one JSON-ready dict.

The work calls are thin sync wrappers: each is one ``asyncio.run``
call into an :class:`~repro.service.aio.AsyncRoutingService` that
borrows this service, so the library, ``repro batch`` and the daemon
share one request lifecycle. They cannot be called from inside a
running event loop; async code uses the
:class:`~repro.service.aio.AsyncRoutingService` coroutines instead.

This module also owns the result-encoding helpers
(:func:`route_result_to_dict`, :func:`transpile_metrics`,
:func:`transpile_outcome_to_dict`) shared by the service's JSONL output
and the CLI's ``--json`` flags, so every machine-readable surface emits
the same shape.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..errors import ReproError, ServiceClosedError
from ..graphs.base import Graph
from ..graphs.grid import GridGraph
from ..perm.generators import WORKLOADS, make_workload
from ..perm.permutation import Permutation
from ..routing.serialize import schedule_to_dict
from .cache import LRUCache, ScheduleCache
from .cluster import (
    DEFAULT_HANDOFF_RATE,
    DEFAULT_RETRY_INTERVAL,
    ClusterScheduleCache,
    ClusterTopology,
    RemoteShardClient,
)
from .executor import BatchExecutor, RouteRequest, RouteResult
from .keys import (
    _h,
    graph_fingerprint,
    graph_from_spec,
    canonical_options,
    text_fingerprint,
)
from .telemetry import Telemetry
from .tracing import TraceBuffer

if TYPE_CHECKING:
    from .aio import AsyncRoutingService

__all__ = [
    "RoutingService",
    "TranspileRequest",
    "TranspileOutcome",
    "route_result_to_dict",
    "transpile_metrics",
    "transpile_outcome_to_dict",
]


# ----------------------------------------------------------------------
# transpile requests / outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TranspileRequest:
    """One circuit-transpilation instance for :meth:`RoutingService.transpile_batch`.

    ``qasm`` is the OpenQASM 2 text of the logical circuit (text, not a
    circuit object, so requests fingerprint and ship to workers
    cheaply — use :func:`repro.circuit.qasm.dumps` to convert).
    """

    qasm: str
    graph: Graph
    router: str = "local"
    mapping: str = "identity"
    seed: int = 0
    completion: str = "minimal"
    options: Mapping[str, Any] = field(default_factory=dict)

    def digest(self, include_qasm_out: bool = False) -> str:
        """Canonical fingerprint of this request (cache identity)."""
        return _h(
            b"transpile",
            text_fingerprint(self.qasm).encode(),
            graph_fingerprint(self.graph).encode(),
            self.router.encode("utf-8"),
            self.mapping.encode("utf-8"),
            str(self.seed).encode(),
            self.completion.encode("utf-8"),
            canonical_options(self.options).encode("utf-8"),
            (b"qasm" if include_qasm_out else b"metrics"),
        )


@dataclass
class TranspileOutcome:
    """Outcome of one transpile request (``source`` as in :class:`RouteResult`)."""

    index: int
    digest: str
    router: str
    metrics: dict[str, Any] | None
    physical_qasm: str | None
    seconds: float
    source: str
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether transpilation succeeded."""
        return self.metrics is not None


def transpile_metrics(result) -> dict[str, Any]:
    """The machine-readable metrics of a :class:`~repro.transpile.TranspileResult`."""
    return {
        "router": result.router_name,
        "n_qubits": result.physical.n_qubits,
        "logical_depth": result.logical.depth(),
        "physical_depth": result.physical.depth(),
        "depth_overhead": result.depth_overhead,
        "logical_size": result.logical.size(),
        "physical_size": result.physical.size(),
        "size_overhead": result.size_overhead,
        "n_swaps": result.n_swaps,
        "swap_depth": result.swap_depth,
        "routing_invocations": result.routing_invocations,
        "routing_seconds": result.routing_time,
        "final_mapping": [int(p) for p in result.final_mapping],
    }


def _transpile_in_worker(
    payload: tuple[str, str, dict, str, str, int, str, dict, bool],
) -> tuple[str, str, Any, float, dict]:
    """Pool worker for transpile requests; never raises (see executor).

    Mirrors ``_route_in_worker``'s 5-tuple contract: the last element is
    the per-stage profile collected in-worker (workers cannot share the
    parent's trace context).
    """
    (digest, qasm, spec, router, mapping, seed, completion, options,
     include_qasm) = payload
    t0 = time.perf_counter()
    from ..routing.base import StageProfiler, profile

    profiler = StageProfiler()
    try:
        from ..circuit.qasm import dumps, loads
        from ..transpile.transpiler import transpile

        circuit = loads(qasm)
        graph = graph_from_spec(spec)
        with profile(profiler):
            result = transpile(
                circuit, graph, router=router, mapping=mapping, seed=seed,
                completion=completion, **options,
            )
        body = {
            "metrics": transpile_metrics(result),
            "physical_qasm": dumps(result.physical) if include_qasm else None,
        }
        return (
            digest, "ok", body, time.perf_counter() - t0, profiler.as_dict()
        )
    except Exception as exc:  # noqa: BLE001 - error isolation is the contract
        msg = f"{type(exc).__name__}: {exc}"
        return (digest, "error", msg, time.perf_counter() - t0, {})


# ----------------------------------------------------------------------
# result encoding (shared by service JSONL and CLI --json)
# ----------------------------------------------------------------------
def route_result_to_dict(
    result: RouteResult,
    include_schedule: bool = False,
    **extra: Any,
) -> dict[str, Any]:
    """Encode a :class:`RouteResult` as a JSON-ready dict.

    ``extra`` keys are merged in verbatim — the CLI uses this to attach
    request context (grid shape, workload, fidelity estimates) without
    inventing a second encoding.
    """
    doc: dict[str, Any] = {
        "key": result.key.digest,
        "router": result.router,
        "source": result.source,
        "ok": result.ok,
        "depth": result.depth,
        "size": result.size,
        "seconds": result.seconds,
        "error": result.error,
    }
    if include_schedule and result.schedule is not None:
        doc["schedule"] = schedule_to_dict(result.schedule)
    doc.update(extra)
    return doc


def transpile_outcome_to_dict(outcome: TranspileOutcome, **extra: Any) -> dict[str, Any]:
    """Encode a :class:`TranspileOutcome` as a JSON-ready dict."""
    doc: dict[str, Any] = {
        "key": outcome.digest,
        "router": outcome.router,
        "source": outcome.source,
        "ok": outcome.ok,
        "seconds": outcome.seconds,
        "error": outcome.error,
        "metrics": outcome.metrics,
    }
    if outcome.physical_qasm is not None:
        doc["physical_qasm"] = outcome.physical_qasm
    doc.update(extra)
    return doc


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
class RoutingService:
    """High-throughput front end over the routing and transpile layers.

    Parameters
    ----------
    cache_size:
        In-memory schedule-cache capacity (entries).
    cache_dir:
        Directory for the persistent schedule-cache tier; ``None``
        keeps the cache memory-only.
    cache_min_cost:
        Admission threshold in seconds: schedules computed faster than
        this are not cached (``repro serve --min-cache-seconds``; see
        :class:`~repro.service.cache.ScheduleCache`). The default
        ``0.0`` caches everything.
    cluster_peers:
        Addresses of peer daemons sharing one logical cache (UNIX
        socket paths or ``http://host:port`` base URLs, both speaking
        HTTP). Sugar for an initial
        :class:`~repro.service.cluster.ClusterTopology` of the peers
        plus ``cluster_node_id``; the cache is wrapped in a
        :class:`~repro.service.cluster.ClusterScheduleCache` observing
        that topology.
    cluster_node_id:
        This node's ring id — the address peers dial to reach *this*
        daemon, so every member builds the same ring. ``None`` keeps
        this process off the ring (client-only mode: every key is
        remote-owned, the local tier is purely a near-cache). Passing
        a node id with *no* peers still enables cluster mode with a
        single-member ring, so the daemon can be joined to a ring at
        runtime (``repro topology join``).
    cluster_replication:
        Owners per key on the ring (see
        :class:`~repro.service.cluster.ClusterScheduleCache`).
    cluster_topology:
        An explicit epoch-versioned
        :class:`~repro.service.cluster.ClusterTopology` to observe
        (e.g. one fed by a ``--topology-file`` watcher). Enables
        cluster mode by itself; published on
        :attr:`cluster_topology` either way.
    cluster_retry_interval:
        Seconds a failed peer's circuit breaker stays open
        (``repro serve --breaker-cooldown``).
    cluster_handoff_rate:
        Upper bound on key-space-handoff pushes per second after a
        ring join.
    trace_buffer:
        Capacity of the in-memory ring of finished request traces
        (``repro serve --trace-buffer``). ``0`` disables tracing
        entirely: no trace context is created and the per-span cost
        vanishes from the hot path.
    trace_slow:
        Threshold in seconds above which a finished trace is also
        emitted through the structured logger (``--trace-slow``;
        ``0`` logs nothing).
    max_workers:
        Process-pool size for misses. ``0`` or the default ``1``
        computes on one thread in this process (deterministic, no
        subprocess spawn); pass ``None`` for ``os.cpu_count()`` or an
        explicit count for a fixed pool.
    default_router:
        Router used when a request does not name one.

    Every schedule the service returns has been verified against its
    request once: where it was computed, or where it entered the cache
    from disk or a peer.

    :meth:`submit`, :meth:`submit_batch`, :meth:`transpile_batch` and
    :meth:`warm_cache` each run one ``asyncio.run`` of the async
    lifecycle (:class:`~repro.service.aio.AsyncRoutingService`), so
    they raise ``RuntimeError`` when called from a running event loop.

    Examples
    --------
    >>> from repro import GridGraph, random_permutation
    >>> svc = RoutingService(cache_size=64)
    >>> grid = GridGraph(4, 4)
    >>> res = svc.submit(grid, random_permutation(grid, seed=1))
    >>> res.ok and res.source == "computed"
    True
    >>> svc.submit(grid, random_permutation(grid, seed=1)).source
    'cache'
    """

    def __init__(
        self,
        cache_size: int = 4096,
        cache_dir: str | os.PathLike | None = None,
        max_workers: int | None = 1,
        default_router: str = "local",
        cache_min_cost: float = 0.0,
        cluster_peers: Sequence[str] = (),
        cluster_node_id: str | None = None,
        cluster_replication: int = 2,
        cluster_topology: "ClusterTopology | None" = None,
        cluster_retry_interval: float = DEFAULT_RETRY_INTERVAL,
        cluster_handoff_rate: float = DEFAULT_HANDOFF_RATE,
        trace_buffer: int = 512,
        trace_slow: float = 0.0,
    ) -> None:
        self.default_router = default_router
        self.telemetry = Telemetry()
        #: Ring buffer of finished request traces (``None`` when tracing
        #: is disabled). The handler records one trace per traced op;
        #: the ``trace_get`` op / ``GET /v1/traces`` read it back.
        self.traces: TraceBuffer | None = (
            TraceBuffer(
                capacity=trace_buffer,
                slow_threshold=trace_slow,
                telemetry=self.telemetry,
            )
            if trace_buffer > 0
            else None
        )
        cache: ScheduleCache | ClusterScheduleCache = ScheduleCache(
            maxsize=cache_size, disk_dir=cache_dir, min_cost=cache_min_cost
        )
        #: The epoch-versioned ring membership this service observes
        #: (``None`` when cluster mode is off). The handler's
        #: ``topology_get`` / ``topology_update`` ops and the
        #: ``--topology-file`` watcher mutate this object; the cluster
        #: cache reacts without any restart.
        self.cluster_topology: ClusterTopology | None = None
        if cluster_topology is not None or cluster_peers or cluster_node_id is not None:
            cache = ClusterScheduleCache(
                local=cache,
                peers={addr: RemoteShardClient(addr) for addr in cluster_peers},
                node_id=cluster_node_id,
                replication=cluster_replication,
                retry_interval=cluster_retry_interval,
                topology=cluster_topology,
                handoff_rate=cluster_handoff_rate,
            )
            self.cluster_topology = cache.topology
        #: The SWIM failure detector attached to this service (``None``
        #: unless ``repro serve --gossip-interval`` wired one). Owned by
        #: the CLI lifecycle; the handler's ``gossip`` op reads it.
        self.gossip: Any = None
        self.cache = cache
        self.transpile_cache = LRUCache(maxsize=max(cache_size // 4, 16))
        self.executor = BatchExecutor(max_workers=max_workers, telemetry=self.telemetry)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool and any cluster connections.

        Terminal and idempotent. Concurrent callers are safe (one
        shutdown happens); submitting work afterwards raises
        :class:`~repro.errors.ServiceClosedError`. Remote cache peers
        themselves keep running — only this node's clients close.
        """
        self.executor.close()
        if isinstance(self.cache, ClusterScheduleCache):
            self.cache.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self.executor.closed

    def __enter__(self) -> "RoutingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _lifecycle(self) -> "AsyncRoutingService":
        """An async lifecycle borrowing this service, for one sync call.

        A fresh one per call: its fair scheduler binds to the event loop
        of that call's ``asyncio.run``, so sync callers on different
        threads never share one.

        Raises
        ------
        ServiceClosedError
            Once :meth:`close` was called — before any work, so even a
            request the cache could answer is refused.
        """
        if self.closed:
            raise ServiceClosedError("service is closed; create a new RoutingService")
        from .aio import AsyncRoutingService  # aio imports this module

        return AsyncRoutingService(self)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def submit(
        self,
        graph: Graph,
        perm: Permutation,
        router: str | None = None,
        **options: Any,
    ) -> RouteResult:
        """Route one instance (served from cache when possible)."""
        req = RouteRequest(graph, perm, router or self.default_router, options)
        return asyncio.run(self._lifecycle().route_async(req))

    def submit_batch(
        self,
        requests: Sequence[RouteRequest | Mapping[str, Any] | tuple],
    ) -> list[RouteResult]:
        """Route a batch; results are index-aligned with the input.

        Each entry may be a :class:`RouteRequest`, a ``(graph, perm)`` /
        ``(graph, perm, router)`` tuple, or a mapping with keys
        ``graph``, ``perm`` and optionally ``router`` / ``options``.
        Identical requests are computed once (``source == "dedup"``),
        and one failing instance yields an error result in its slot.

        Raises
        ------
        ReproError
            On an entry that cannot be coerced into a request (batch
        error isolation covers *routing* failures, not malformed calls).
        """
        return asyncio.run(self._lifecycle().submit_batch_async(requests))

    def _coerce(self, entry: RouteRequest | Mapping[str, Any] | tuple) -> RouteRequest:
        if isinstance(entry, RouteRequest):
            return entry
        if isinstance(entry, Mapping):
            try:
                return RouteRequest(
                    graph=entry["graph"],
                    perm=entry["perm"],
                    router=entry.get("router", self.default_router),
                    options=dict(entry.get("options", {})),
                )
            except KeyError as exc:
                raise ReproError(f"batch entry missing key: {exc}") from exc
        if isinstance(entry, tuple) and len(entry) in (2, 3):
            graph, perm = entry[0], entry[1]
            router = entry[2] if len(entry) == 3 else self.default_router
            return RouteRequest(graph=graph, perm=perm, router=router)
        raise ReproError(
            f"cannot interpret batch entry of type {type(entry).__name__}"
        )

    # ------------------------------------------------------------------
    # transpilation
    # ------------------------------------------------------------------
    def transpile_batch(
        self,
        requests: Sequence[TranspileRequest],
        include_qasm: bool = False,
    ) -> list[TranspileOutcome]:
        """Transpile circuits in bulk with dedup, caching and fan-out.

        Semantics mirror :meth:`submit_batch`: outcomes are
        index-aligned, identical requests are computed once, previously
        seen requests are served from the (in-memory) transpile cache,
        and one failing circuit does not affect the others.
        """
        aio = self._lifecycle()
        return asyncio.run(aio.transpile_batch_async(requests, include_qasm))

    # ------------------------------------------------------------------
    # warming and stats
    # ------------------------------------------------------------------
    def warm_cache(
        self,
        sizes: Iterable[int | tuple[int, int]] = (4, 6, 8),
        workloads: Iterable[str] | None = None,
        seeds: Iterable[int] = (0, 1),
        routers: Iterable[str] | None = None,
    ) -> int:
        """Pre-route the paper's workload families into the cache.

        Generates every ``(grid size, workload, seed, router)``
        combination via :mod:`repro.perm.generators` and routes the ones
        not already cached. Returns the number of newly computed
        schedules (0 on a fully warm cache).
        """
        seeds = list(seeds)
        workload_names = sorted(workloads) if workloads is not None else sorted(WORKLOADS)
        router_names = list(routers) if routers is not None else [self.default_router]
        requests: list[RouteRequest] = []
        for size in sizes:
            shape = (size, size) if isinstance(size, int) else tuple(size)
            grid = GridGraph(*shape)
            for workload in workload_names:
                for seed in seeds:
                    perm = make_workload(workload, grid, seed=seed)
                    for router in router_names:
                        requests.append(RouteRequest(grid, perm, router))
        results = self.submit_batch(requests)
        self.telemetry.incr("warmups")
        return sum(1 for r in results if r.source == "computed")

    def stats(self) -> dict[str, Any]:
        """Cache counters, telemetry and configuration, JSON-ready.

        With a cluster cache the ``schedule_cache`` section carries a
        ``cluster`` section (ring membership, per-node health, remote
        hit/miss/repair counters).
        """
        return {
            "schedule_cache": self.cache.as_dict(),
            "transpile_cache": self.transpile_cache.as_dict(),
            "telemetry": self.telemetry.snapshot(),
            "traces": self.traces.stats() if self.traces is not None else None,
            "max_workers": self.executor.max_workers,
            "default_router": self.default_router,
        }
