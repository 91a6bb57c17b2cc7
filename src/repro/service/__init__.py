"""High-throughput service layer: cached, batched, parallel routing.

The modules compose bottom-up — :mod:`~repro.service.keys` (canonical
request fingerprints), :mod:`~repro.service.cache` (tiered LRU schedule
cache with a cost threshold for admission),
:mod:`~repro.service.telemetry` (counters and latency histograms),
:mod:`~repro.service.executor` (the worker pool) — and
:mod:`~repro.service.aio` runs every request over them through one
lifecycle (:class:`AsyncRoutingService`: batch dedup, cache,
single-flight, bounded concurrency, per-request timeouts) for routes
and transpiles alike. :mod:`~repro.service.service` holds the
:class:`RoutingService` facade the CLI's ``batch`` subcommand and the
benchmarks drive, whose work calls are sync wrappers over that
lifecycle, and the one wire protocol is HTTP/1.1
(:mod:`~repro.service.http`, ``repro serve --http HOST:PORT`` or
``--socket PATH``, including the Prometheus ``/metrics`` endpoint).
The transport is a thin framing adapter over one request-lifecycle
pipeline (:mod:`~repro.service.pipeline`, :class:`RequestPipeline`,
with the per-op implementations in :mod:`~repro.service.handler`):
every request flows decode → authenticate → admit → enqueue → execute
→ encode, with each stage traced and timed. The multi-tenant layer
(:mod:`~repro.service.tenancy`) supplies API-key authentication
(:class:`TenantRegistry`), token-bucket rate limiting
(:class:`TokenBucket`), per-tenant quotas and weighted-fair queueing
(:class:`FairScheduler`, start-time fair queueing over the
cost-estimate of each request), and load shedding (429 +
``Retry-After`` once the queue-depth bound is crossed; ``repro serve
--tenants FILE --max-queue-depth N``). :mod:`~repro.service.cluster`
stretches the cache across daemons: an epoch-versioned
:class:`ClusterTopology` (seeded by ``--peer``, changed at runtime only
by the ``topology_update`` op behind ``repro topology join|leave`` and
by gossip) owns the membership, a consistent-hash ring
(:class:`HashRing`) assigns each fingerprint digest to shard owners,
:class:`RemoteShardClient` speaks the
``cache_get``/``cache_put``/``cache_stats``/``topology_*`` endpoints
over a keep-alive HTTP connection, and :class:`ClusterScheduleCache`
ties them into a replicated, failure-isolated cache tier with
key-space handoff to newly joined shards (``repro serve --peer``).

The cluster manages itself from there: :mod:`~repro.service.gossip`
runs a SWIM-style failure detector over the same HTTP endpoints
(:class:`GossipNode` probes one member per round, falls back to
indirect probes via proxies, declares suspects dead after a timeout
and lets falsely accused nodes refute with incarnation numbers;
``repro serve --gossip-interval``), so a crashed shard is removed from
every survivor's topology with no admin involvement — plus an
anti-entropy sweep (:meth:`ClusterScheduleCache.anti_entropy_sweep`,
``--sweep-interval``) repairing under-replicated keys in the
background and handoff eviction re-homing keys off their old owner.
:class:`GossipNode` takes an injectable clock, RNG and
:class:`GossipTransport`, so the test suite drives every protocol path
on a deterministic in-memory simulator.

Observability cuts across every layer: :mod:`~repro.service.tracing`
(request-scoped spans with W3C ``traceparent`` propagation across
daemon hops, a bounded in-memory :class:`TraceBuffer` queryable via
``trace_get`` / ``GET /v1/traces`` / ``repro trace``),
:mod:`~repro.service.logging` (one structured-JSON ``logging``
hierarchy with trace correlation fields, ``repro serve --log-json``)
and the :class:`Telemetry` registry (counters, labeled gauges, latency
and per-routing-stage histograms rendered for Prometheus).

See ``docs/ARCHITECTURE.md`` for the layer diagram, ``docs/API.md``
(generated by ``tools/gen_api_docs.py``) for the full reference,
``docs/OPERATIONS.md`` for running daemons and clusters, and
``docs/OBSERVABILITY.md`` for tracing, logging and metrics.
"""

from .aio import AsyncRoutingService
from .cache import CacheStats, LRUCache, ScheduleCache
from .cluster import (
    ClusterScheduleCache,
    ClusterStats,
    ClusterTopology,
    HashRing,
    InProcessShardClient,
    RemoteShardClient,
    ShardClient,
    TopologyView,
)
from .executor import BatchExecutor, RouteRequest, RouteResult
from .gossip import (
    GossipConfig,
    GossipNode,
    GossipRunner,
    GossipTransport,
    MemberState,
    PeerGossipTransport,
)
from .handler import (
    ERROR_CODES,
    RequestHandler,
    render_prometheus,
    request_from_doc,
    transpile_request_from_doc,
)
from .http import HttpRoutingServer, http_request, wait_for_http
from .pipeline import HttpResponse, RequestPipeline, status_for
from .tenancy import (
    FairScheduler,
    Tenant,
    TenantRegistry,
    TokenBucket,
    bind_tenant,
    current_tenant,
    estimate_cost,
    estimate_doc_cost,
    load_tenants_file,
    parse_tenants_doc,
)
from .keys import (
    RequestKey,
    graph_fingerprint,
    graph_from_spec,
    graph_spec,
    permutation_fingerprint,
    request_key,
    text_fingerprint,
)
from .service import (
    RoutingService,
    TranspileOutcome,
    TranspileRequest,
    route_result_to_dict,
    transpile_metrics,
    transpile_outcome_to_dict,
)
from .logging import JsonFormatter, configure_logging, get_logger
from .telemetry import LatencyHistogram, Telemetry
from .tracing import (
    Span,
    Trace,
    TraceBuffer,
    current_traceparent,
    format_traceparent,
    parse_traceparent,
    record_stage_spans,
    span,
    start_trace,
)

__all__ = [
    "RequestKey",
    "graph_fingerprint",
    "graph_spec",
    "graph_from_spec",
    "permutation_fingerprint",
    "request_key",
    "text_fingerprint",
    "CacheStats",
    "LRUCache",
    "ScheduleCache",
    "HashRing",
    "ClusterTopology",
    "TopologyView",
    "ShardClient",
    "RemoteShardClient",
    "InProcessShardClient",
    "ClusterScheduleCache",
    "ClusterStats",
    "GossipConfig",
    "GossipNode",
    "GossipRunner",
    "GossipTransport",
    "MemberState",
    "PeerGossipTransport",
    "AsyncRoutingService",
    "RequestHandler",
    "ERROR_CODES",
    "render_prometheus",
    "request_from_doc",
    "transpile_request_from_doc",
    "HttpRoutingServer",
    "http_request",
    "wait_for_http",
    "RequestPipeline",
    "HttpResponse",
    "status_for",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
    "FairScheduler",
    "bind_tenant",
    "current_tenant",
    "estimate_cost",
    "estimate_doc_cost",
    "parse_tenants_doc",
    "load_tenants_file",
    "BatchExecutor",
    "RouteRequest",
    "RouteResult",
    "RoutingService",
    "TranspileRequest",
    "TranspileOutcome",
    "route_result_to_dict",
    "transpile_metrics",
    "transpile_outcome_to_dict",
    "LatencyHistogram",
    "Telemetry",
    "Span",
    "Trace",
    "TraceBuffer",
    "span",
    "start_trace",
    "current_traceparent",
    "format_traceparent",
    "parse_traceparent",
    "record_stage_spans",
    "JsonFormatter",
    "configure_logging",
    "get_logger",
]
