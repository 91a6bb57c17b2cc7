"""The transport-agnostic request-lifecycle pipeline.

Every request that reaches the service — over the HTTP transport
(:mod:`repro.service.http`, on a TCP port or a UNIX socket) or a direct
:meth:`~repro.service.handler.RequestHandler.dispatch` call — runs the
same ordered stages, implemented exactly once here:

``decode → authenticate → admit → enqueue → execute → encode``

* **decode** — bytes to a request document (the transport does the
  framing; the pipeline records the timing as a ``pipeline.decode``
  span and stage metric so decode cost is visible per trace).
* **authenticate** — API key (the ``Authorization: Bearer`` or
  ``X-API-Key`` header) to :class:`~repro.service.tenancy.Tenant` via
  the :class:`~repro.service.tenancy.TenantRegistry`. Work ops only;
  introspection and the cluster peer protocol run as the system
  tenant so health probes and peers are never locked out.
* **admit** — load shedding and rate limiting: the global and
  per-tenant queue-depth bounds and the tenant's token bucket, all
  charged in :func:`~repro.service.tenancy.estimate_cost` units. A
  refusal is the stable ``rate_limited`` code (HTTP 429 with
  ``Retry-After``); batches are admitted all-or-nothing.
* **enqueue** — the wait for a weighted-fair scheduler slot, emitted by
  :class:`~repro.service.tenancy.FairScheduler` as the
  ``pipeline.enqueue`` span while the execute stage runs the op.
* **execute** — the op dispatch itself, with the tenant bound into the
  execution context so the async facade schedules it fairly.
* **encode** — outcome accounting (``tenant_requests`` labeled
  counters, the registry's per-tenant outcome counts), trace-id echo
  and error finalization.

Each stage emits a trace span named ``pipeline.<stage>`` and a latency
histogram under the same name; the root span keeps the historical
``handler.<op>`` name so existing trace tooling and dashboards keep
working. :meth:`RequestPipeline.process_http` additionally owns the
HTTP endpoint table (URL → op document), so the transport contains no
op dispatch or error mapping — ``http.py`` is pure framing, which CI
lint-guards.

Stable error codes added by the pipeline on top of the handler's table:
``unauthorized`` (HTTP 401 — no or unknown API key while tenancy is
enforced) and ``rate_limited`` (HTTP 429 + ``Retry-After`` — throttled
or shed by admission control).
"""

from __future__ import annotations

import asyncio
import json
import math
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Mapping

from ..errors import AuthenticationError, RateLimitedError, ReproError
from .aio import AsyncRoutingService
from .handler import TRACED_OPS, RequestHandler, _timeout_from_doc, error_doc
from .logging import get_logger
from .tenancy import SYSTEM_TENANT, Tenant, bind_tenant, estimate_doc_cost
from .tracing import record_stage_spans, span, start_trace

__all__ = [
    "HttpResponse",
    "RequestPipeline",
    "WORK_OPS",
    "framing_error",
    "status_for",
]

_log = get_logger("repro.service.pipeline")

#: Ops that do tenant-billable compute and therefore pass the
#: authenticate and admit stages. Everything else (introspection, the
#: cluster cache/topology protocol, ``trace_get``) executes as the
#: system tenant, exempt from admission, so peers and probes keep
#: working keyless.
WORK_OPS = frozenset({"route", "transpile", "route_batch", "transpile_batch"})

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"


def status_for(resp: Mapping[str, Any]) -> int:
    """HTTP status for a pipeline response document.

    Validation failures are client errors; per-request routing/timeout
    failures are *results* (the request was processed) and stay 200,
    matching the batch error-isolation contract. ``unauthorized`` maps
    to 401 and ``rate_limited`` to 429 (pair it with a ``Retry-After``
    header — :meth:`RequestPipeline.process_http` does).
    """
    if resp.get("ok"):
        return 200
    code = resp.get("code")
    if code in ("bad_json", "bad_request", "unknown_op"):
        return 400
    if code == "unauthorized":
        return 401
    if code == "stale_epoch":
        return 409
    if code == "rate_limited":
        return 429
    if code == "internal":
        return 500
    return 200


def framing_error(code: str, message: str) -> dict[str, Any]:
    """An ``"ok": false`` payload for transport-level (framing) failures.

    The one error-document constructor the transports may call —
    protocol-level refusals (``bad_http``, ``length_required``,
    ``payload_too_large``) happen before a request document exists, so
    they cannot go through :meth:`RequestPipeline.process`.
    """
    return error_doc(code, message)


@dataclass(frozen=True)
class HttpResponse:
    """One HTTP answer from :meth:`RequestPipeline.process_http`.

    The transport writes exactly this — status line, extra headers,
    serialized payload — plus its own framing (``Content-Length``,
    ``Connection``). ``payload`` is a JSON-ready object or a
    pre-rendered string (the Prometheus exposition).
    """

    #: HTTP status code.
    status: int
    #: JSON-ready dict/list, or a pre-rendered text body.
    payload: Any
    #: ``Content-Type`` of the payload.
    content_type: str = _JSON
    #: Extra response headers, e.g. ``Retry-After`` on 429.
    headers: tuple[tuple[str, str], ...] = field(default=())


class RequestPipeline:
    """The one place a request's lifecycle is defined.

    Wraps an :class:`AsyncRoutingService` (and its
    :class:`~repro.service.tenancy.TenantRegistry` and
    :class:`~repro.service.tenancy.FairScheduler`); the transport calls
    :meth:`process_http` and writes the answer — nothing else.
    """

    def __init__(
        self,
        service: AsyncRoutingService,
        handler: RequestHandler | None = None,
    ) -> None:
        self.service = service
        self.handler = handler if handler is not None else RequestHandler(service)
        self.tenants = service.tenants
        self.scheduler = service.scheduler

    @property
    def telemetry(self):
        """The shared telemetry registry (the wrapped service's)."""
        return self.service.telemetry

    # ------------------------------------------------------------------
    # the lifecycle
    # ------------------------------------------------------------------
    async def process(
        self,
        doc: dict[str, Any],
        *,
        api_key: str | None = None,
        traceparent: str | None = None,
        decode_seconds: float = 0.0,
    ) -> dict[str, Any]:
        """Run one request document through every lifecycle stage.

        Never raises (failures come back as ``"ok": false`` documents
        with a stable ``code``), except ``asyncio.CancelledError``,
        which propagates so transports can tear connections down
        cleanly. ``api_key`` and ``traceparent`` come from the request
        headers. Work ops run under a root trace span named
        ``handler.<op>`` with the tenant in its attributes; a W3C
        ``traceparent`` joins the caller's trace.
        """
        op = doc.get("op", "route")
        buffer = self.handler.traces if op in TRACED_OPS else None
        tel = self.telemetry
        tenant = SYSTEM_TENANT
        outcome = "admitted"
        with start_trace(
            f"handler.{op}",
            buffer,
            traceparent=traceparent,
            node_id=self.handler.node_id(),
            op=str(op),
        ) as root:
            # The transport already decoded; lay the stage into the
            # trace retroactively so every stage appears as a span.
            record_stage_spans(
                {"decode": {"seconds": decode_seconds, "count": 1}},
                prefix="pipeline.",
            )
            tel.observe("pipeline.decode", decode_seconds)
            try:
                t0 = time.perf_counter()
                with span("pipeline.authenticate") as asp:
                    tenant = self._authenticate(api_key, op)
                    asp.set("tenant", tenant.name)
                tel.observe("pipeline.authenticate", time.perf_counter() - t0)
                root.set("tenant", tenant.name)
                t0 = time.perf_counter()
                with span("pipeline.admit", tenant=tenant.name):
                    self._admit(tenant, doc, op)
                tel.observe("pipeline.admit", time.perf_counter() - t0)
                t0 = time.perf_counter()
                with span("pipeline.execute"), bind_tenant(tenant):
                    resp = await self._execute(op, doc)
                tel.observe("pipeline.execute", time.perf_counter() - t0)
            except AuthenticationError as exc:
                outcome = "unauthorized"
                resp = error_doc("unauthorized", str(exc), op=str(op))
                _log.warning(
                    "request refused: unauthorized",
                    extra={"op": str(op), "tenant": tenant.name},
                )
            except RateLimitedError as exc:
                outcome = exc.reason
                resp = error_doc("rate_limited", str(exc), op=str(op))
                resp["retry_after"] = exc.retry_after
                _log.warning(
                    "request refused: rate limited",
                    extra={
                        "op": str(op),
                        "tenant": tenant.name,
                        "reason": exc.reason,
                        "retry_after": exc.retry_after,
                    },
                )
            except ReproError as exc:
                resp = error_doc("bad_request", str(exc), op=str(op))
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - one bad request, one error doc
                resp = error_doc(
                    "internal", f"{type(exc).__name__}: {exc}", op=str(op)
                )
            t0 = time.perf_counter()
            with span("pipeline.encode", tenant=tenant.name, outcome=outcome):
                if op in WORK_OPS:
                    tel.incr(
                        "tenant_requests",
                        labels={"tenant": tenant.name, "outcome": outcome},
                    )
                    self.tenants.note(tenant.name, outcome)
                if buffer is not None:
                    if not resp.get("ok"):
                        root.status = "error"
                    resp.setdefault("trace_id", root.trace_id)
            tel.observe("pipeline.encode", time.perf_counter() - t0)
        if "id" in doc:
            resp["id"] = doc["id"]
        return resp

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def _authenticate(self, api_key: str | None, op: Any) -> Tenant:
        """The authenticate stage: API key -> :class:`Tenant`.

        Work ops resolve the key through the registry; non-work ops run
        as the system tenant.

        Raises
        ------
        AuthenticationError
            When the registry is enforced and the key is missing or
            unknown (the ``unauthorized`` code).
        """
        if op not in WORK_OPS:
            return SYSTEM_TENANT
        return self.tenants.authenticate(api_key or None)

    def _admit(self, tenant: Tenant, doc: Mapping[str, Any], op: Any) -> None:
        """The admit stage: load shedding and rate limiting.

        Checks, in order: the global queue-depth bound, the tenant's
        ``max_queued`` quota, the tenant's token bucket (charged the
        cost estimate; a batch charges the sum of its entries,
        all-or-nothing). Only this stage ever sheds — work that passes
        admission always eventually executes, however slowly.

        Raises
        ------
        RateLimitedError
            On any refusal (the ``rate_limited`` code / HTTP 429).
        """
        if op not in WORK_OPS:
            return
        if op in ("route_batch", "transpile_batch"):
            entries = doc.get("requests")
            if isinstance(entries, list):
                n = len(entries)
                cost = sum(
                    estimate_doc_cost(e) if isinstance(e, Mapping) else 1.0
                    for e in entries
                )
            else:
                n, cost = 1, 1.0  # malformed; validation rejects it later
        else:
            n, cost = 1, estimate_doc_cost(doc)
        bound = self.scheduler.max_queue_depth
        queued = self.scheduler.queued
        if bound is not None and queued + n > bound:
            raise RateLimitedError(
                f"queue is full ({queued} queued, bound {bound}); "
                "the service is shedding load",
                retry_after=1.0,
                reason="shed",
            )
        if tenant.max_queued is not None:
            tenant_queued = self.scheduler.queued_for(tenant.name)
            if tenant_queued + n > tenant.max_queued:
                raise RateLimitedError(
                    f"tenant {tenant.name!r} queue quota reached "
                    f"({tenant_queued} queued, quota {tenant.max_queued})",
                    retry_after=1.0,
                    reason="shed",
                )
        retry_after = self.tenants.throttle(tenant, cost)
        if retry_after is not None:
            raise RateLimitedError(
                f"tenant {tenant.name!r} is over its rate limit; "
                f"retry in {retry_after:.2f}s",
                retry_after=retry_after,
                reason="throttled",
            )

    async def _execute(self, op: Any, doc: dict[str, Any]) -> dict[str, Any]:
        """The execute stage: the op dispatch table (default ``route``).

        This is the single dispatch surface; the per-op implementations
        live on :class:`RequestHandler`.
        """
        handler = self.handler
        if op == "route":
            return await handler.route_doc(doc)
        if op == "transpile":
            return await handler.transpile_doc(doc)
        if op == "route_batch":
            run = handler.route_batch_docs
            return await self._batch_doc(op, doc, run, "include_schedule")
        if op == "transpile_batch":
            run = handler.transpile_batch_docs
            return await self._batch_doc(op, doc, run, "include_qasm")
        if op == "cache_get":
            return await handler.cache_get_doc(doc)
        if op == "cache_put":
            return await handler.cache_put_doc(doc)
        if op == "cache_stats":
            return {
                "ok": True,
                "op": "cache_stats",
                "stats": handler.local_cache_stats(),
            }
        if op == "topology_get":
            return handler.topology_get_doc()
        if op == "topology_update":
            return handler.topology_update_doc(doc)
        if op == "gossip":
            # A ping_req proxies a synchronous probe to a third node, so
            # this op can block for a gossip transport timeout — keep it
            # off the event loop.
            return await asyncio.to_thread(handler.gossip_doc, doc)
        if op == "trace_get":
            return handler.trace_get_doc(doc)
        return error_doc("unknown_op", f"unknown op {op!r}")

    async def _batch_doc(
        self,
        op: str,
        doc: Mapping[str, Any],
        run: Callable[..., Awaitable[list[dict[str, Any]]]],
        include_field: str,
    ) -> dict[str, Any]:
        """One ``route_batch`` / ``transpile_batch`` op document.

        ``{"requests": [...], "timeout": null, "include_schedule":
        false}`` (``include_field`` is ``include_qasm`` for transpile).
        ``run`` is the handler's ``route_batch_docs`` or
        ``transpile_batch_docs``, which isolates per-entry errors into
        their result slots, exactly like the batch CLI. Raises
        :class:`ReproError` on a malformed envelope.
        """
        docs = doc.get("requests")
        if not isinstance(docs, list):
            raise ReproError("'requests' must be a JSON array")
        timeout = _timeout_from_doc(doc)
        results = await run(docs, bool(doc.get(include_field)), timeout)
        return {"ok": True, "op": op, "count": len(results), "results": results}

    # ------------------------------------------------------------------
    # HTTP entry point (the endpoint table)
    # ------------------------------------------------------------------
    async def process_http(
        self,
        method: str,
        path: str,
        query: str,
        headers: Mapping[str, str],
        body: bytes,
        *,
        draining: bool = False,
    ) -> HttpResponse:
        """One parsed HTTP request -> the complete :class:`HttpResponse`.

        Owns the endpoint table (URL + method → op document), the
        ``Authorization: Bearer`` / ``X-API-Key`` header extraction,
        the ``traceparent`` propagation, and the status/``Retry-After``
        mapping. The transport (:mod:`repro.service.http`) only frames:
        it parses the message, calls this, and writes the answer. The
        transport detects a granted shutdown from the returned payload
        (``op == "shutdown"`` and ``ok``) — this method has no access
        to the serve loop.
        """
        self.telemetry.incr("http_requests")
        api_key = self._api_key_from_headers(headers)
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return HttpResponse(
                200,
                {
                    "ok": True,
                    "status": "draining" if draining else "serving",
                    **self.handler.health_info(),
                },
            )
        if path == "/v1/traces":
            if method != "GET":
                return self._method_not_allowed(method, path)
            doc, err = self._trace_query(query)
            if err is not None:
                return HttpResponse(400, err)
            return self._doc_response(await self.process(doc))
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return HttpResponse(200, {"ok": True, "stats": self.handler.stats()})
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return HttpResponse(
                200, self.handler.prometheus_metrics(), content_type=_PROM
            )
        if path == "/v1/shutdown":
            if method != "POST":
                return self._method_not_allowed(method, path)
            return HttpResponse(200, {"ok": True, "op": "shutdown"})
        if path in (
            "/v1/route",
            "/v1/route_batch",
            "/v1/transpile_batch",
            "/v1/cache_get",
            "/v1/cache_put",
            "/v1/topology_update",
            "/v1/gossip",
        ):
            if method != "POST":
                return self._method_not_allowed(method, path)
            return await self._op_from_body(
                path.rsplit("/", 1)[1], body, headers, api_key
            )
        if path in ("/v1/cache_stats", "/v1/topology_get"):
            if method not in ("GET", "POST"):
                return self._method_not_allowed(method, path)
            return self._doc_response(
                await self.process({"op": path.rsplit("/", 1)[1]})
            )
        if path == "/v1/topology":
            if method == "GET":
                return self._doc_response(await self.process({"op": "topology_get"}))
            if method == "POST":
                return await self._op_from_body(
                    "topology_update", body, headers, api_key
                )
            return self._method_not_allowed(method, path)
        return HttpResponse(404, error_doc("not_found", f"no endpoint at {path}"))

    async def _op_from_body(
        self,
        op: str,
        body: bytes,
        headers: Mapping[str, str],
        api_key: str | None,
    ) -> HttpResponse:
        """Decode a JSON body into an op document and run the pipeline."""
        t0 = time.perf_counter()
        doc, err = self._parse_body(body)
        decode_seconds = time.perf_counter() - t0
        if err is not None:
            self.telemetry.observe("pipeline.decode", decode_seconds)
            return HttpResponse(400, err)
        assert doc is not None
        resp = await self.process(
            {**doc, "op": op},
            api_key=api_key,
            traceparent=headers.get("traceparent") or None,
            decode_seconds=decode_seconds,
        )
        return self._doc_response(resp)

    def _doc_response(self, resp: dict[str, Any]) -> HttpResponse:
        """Map a response document to status + headers (``Retry-After``)."""
        extra: tuple[tuple[str, str], ...] = ()
        if resp.get("code") == "rate_limited":
            try:
                seconds = max(1, math.ceil(float(resp.get("retry_after", 1.0))))
            except (TypeError, ValueError):
                seconds = 1
            extra = (("Retry-After", str(seconds)),)
        return HttpResponse(status_for(resp), resp, headers=extra)

    @staticmethod
    def _api_key_from_headers(headers: Mapping[str, str]) -> str | None:
        """``Authorization: Bearer <key>`` (preferred) or ``X-API-Key``."""
        auth = headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            key = auth[7:].strip()
            if key:
                return key
        return headers.get("x-api-key") or None

    def _method_not_allowed(self, method: str, path: str) -> HttpResponse:
        return HttpResponse(
            405,
            error_doc("method_not_allowed", f"{method} not supported on {path}"),
        )

    @staticmethod
    def _trace_query(
        query: str,
    ) -> tuple[dict[str, Any], None] | tuple[None, dict[str, Any]]:
        """``GET /v1/traces`` query params as a ``trace_get`` op document."""
        try:
            params = urllib.parse.parse_qs(query, strict_parsing=False)
        except ValueError as exc:  # pragma: no cover - parse_qs is lenient
            return None, error_doc("bad_request", f"bad query string: {exc}")
        doc: dict[str, Any] = {"op": "trace_get"}
        if "id" in params:
            doc["trace_id"] = params["id"][-1]
        if "limit" in params:
            try:
                doc["limit"] = int(params["limit"][-1])
            except ValueError:
                return None, error_doc("bad_request", "'limit' must be an integer")
        if "min_seconds" in params:
            try:
                doc["min_seconds"] = float(params["min_seconds"][-1])
            except ValueError:
                return None, error_doc(
                    "bad_request", "'min_seconds' must be a number"
                )
        return doc, None

    @staticmethod
    def _parse_body(
        body: bytes,
    ) -> tuple[dict[str, Any], None] | tuple[None, dict[str, Any]]:
        """The request body as a JSON object, or a ``bad_json`` error doc."""
        try:
            doc = json.loads(body)
            if not isinstance(doc, dict):
                raise ValueError("expected a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return None, error_doc("bad_json", f"bad request body: {exc}")
        return doc, None
