"""The per-op request implementations behind the HTTP transport.

The HTTP transport (:mod:`repro.service.http`) accepts JSON request
documents and answers with JSON response documents. The
:class:`RequestHandler` owns the per-op *implementations* — document
validation, the op methods driving an
:class:`~repro.service.aio.AsyncRoutingService`, error isolation, and
the stable machine-readable error codes the daemon exposes. The
request *lifecycle* around those ops — decode, authenticate, admit,
enqueue, execute, encode — lives in exactly one place, the
:class:`~repro.service.pipeline.RequestPipeline`;
:meth:`RequestHandler.dispatch` delegates there, so in-process callers
run the same path as the transport.

Error codes (the ``"code"`` field on ``"ok": false`` responses):

==================== ==================================================
``bad_json``         The payload was not a JSON object.
``bad_request``      A well-formed JSON object that fails validation
                     (missing ``rows``/``cols``, bad perm, bad option
                     types, ...).
``unknown_op``       The ``op`` field names no known operation.
``timeout``          The request exceeded its per-request timeout.
``route_error``      Routing itself failed for this instance.
``transpile_error``  Transpilation failed for this instance.
``stale_epoch``      A ``topology_update`` lost the epoch
                     compare-and-set race (re-read and retry).
``unauthorized``     Tenancy is enforced and the request carried no
                     (or an unknown) API key (HTTP 401).
``rate_limited``     Admission control refused the request — token
                     bucket, queue quota, or load shedding (HTTP 429
                     with ``Retry-After``).
``internal``         An unexpected server-side failure (isolated per
                     request; the connection survives).
==================== ==================================================

Successful responses never carry ``code``. Batch entries keep the batch
error-isolation contract: a bad entry yields an ``"ok": false`` entry in
its slot, never a failure of the surrounding batch.

Besides the routing ops, the handler exposes the **remote-shard cache
protocol** (``cache_get`` / ``cache_put`` / ``cache_stats``) that
:mod:`repro.service.cluster` peers speak. These ops always address the
*local* cache tier — a daemon answering a peer never fans the probe
back out to the cluster, which is what makes the ring recursion-free.
Schedules cross this protocol as base64-wrapped binary
:mod:`repro.routing.codec` frames under ``schedule_b64``, and requests
and responses carry ``"codec"`` set to
:data:`~repro.routing.codec.CODEC_VERSION`. A frame of another codec
version fails to decode, so a ``cache_put`` from such a peer is a
``bad_request`` and its ``cache_get`` answers are misses on the
asking side. A ``cache_put`` arrives without the request the schedule
claims to route, so the local tier stores it *unverified*: the first
route request for that digest checks it (see
:meth:`~repro.service.cache.ScheduleCache.get`) and turns a schedule
that does not route the request into a miss, counted in the cache's
``rejected["pushed"]``. ``cache_get`` serves the local tier as held,
unchecked; the asking node checks what it receives.
Runtime reconfiguration rides the same surface: ``topology_get`` /
``topology_update`` read and mutate the daemon's epoch-versioned
:class:`~repro.service.cluster.ClusterTopology` (join / leave /
replace, guarded by an epoch compare-and-set), which is how ``repro
topology`` scales a live ring without restarts.

This module also renders the service's :meth:`stats` document as
Prometheus text exposition format (:func:`render_prometheus`) for the
HTTP ``/metrics`` endpoint.
"""

from __future__ import annotations

import base64
import binascii
import functools
from typing import Any, Awaitable, Callable, Mapping, Sequence

from .. import __version__
from ..errors import ReproError, ScheduleError, StaleEpochError
from ..graphs.grid import GridGraph
from ..perm.generators import make_workload
from ..perm.permutation import Permutation
from ..routing.codec import CODEC_VERSION, decode_schedule, encode_schedule
from .aio import AsyncRoutingService, _cache_call
from .executor import RouteRequest, RouteResult
from .service import (
    TranspileOutcome,
    TranspileRequest,
    route_result_to_dict,
    transpile_outcome_to_dict,
)
from .tracing import TraceBuffer, span

#: Ops that open a trace per request. Introspection (``/healthz``,
#: ``/stats``, ``/metrics``, ``trace_get`` itself, topology reads) is
#: excluded so health probes and scrapers never pollute the trace ring.
TRACED_OPS = frozenset({"route", "transpile", "cache_get", "cache_put"})

__all__ = [
    "ERROR_CODES",
    "RequestHandler",
    "error_doc",
    "render_prometheus",
    "request_from_doc",
    "transpile_request_from_doc",
]

#: The stable error codes with one-line meanings (documentation and
#: introspection; the authoritative list is the module docstring table).
ERROR_CODES: dict[str, str] = {
    "bad_json": "payload was not a JSON object",
    "bad_request": "request document failed validation",
    "unknown_op": "no such operation",
    "timeout": "request exceeded its timeout",
    "route_error": "routing failed for this instance",
    "transpile_error": "transpilation failed for this instance",
    "stale_epoch": "topology update lost the epoch compare-and-set race",
    "unauthorized": "no (or an unknown) API key while tenancy is enforced",
    "rate_limited": "refused by admission control; retry later",
    "internal": "unexpected server-side failure",
}


def error_doc(code: str, message: str, op: str | None = None) -> dict[str, Any]:
    """A failed response document with a stable machine-readable code."""
    doc: dict[str, Any] = {"ok": False, "code": code, "error": message}
    if op is not None:
        doc["op"] = op
    return doc


def request_from_doc(doc: Mapping[str, Any]) -> RouteRequest:
    """Build a :class:`RouteRequest` from a JSON request document.

    The document needs ``rows``/``cols`` plus either an explicit
    ``perm`` array or a ``workload`` name (with optional ``seed``), and
    optionally ``router`` / ``options`` — the same shape the ``repro
    batch`` request file uses.

    Raises
    ------
    ReproError
        On a malformed document (missing keys, bad grid, bad perm, or a
        ``perm`` whose size is not ``rows * cols``).
    """
    if not isinstance(doc, Mapping):
        raise ReproError("expected a JSON object")
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
    except (KeyError, TypeError, ValueError):
        raise ReproError("'rows' and 'cols' integers required") from None
    perm: Permutation | None = None
    if "perm" in doc:
        try:
            perm = Permutation(doc["perm"])
        except ReproError:
            raise
        except (TypeError, ValueError) as exc:
            # Bad element types surface as numpy coercion errors; keep
            # the validation contract (ReproError on malformed docs).
            raise ReproError(f"bad 'perm': {exc}") from None
        # Checked before the grid is built, so a short body cannot make
        # the daemon allocate a grid of any size it names.
        if len(perm) != rows * cols:
            raise ReproError(
                f"permutation size {len(perm)} does not match the "
                f"{rows}x{cols} grid ({rows * cols} vertices)"
            )
    elif "workload" not in doc:
        raise ReproError("needs 'perm' or 'workload'")
    grid = GridGraph(rows, cols)
    if perm is None:
        perm = make_workload(doc["workload"], grid, seed=doc.get("seed", 0))
    options = doc.get("options", {})
    if not isinstance(options, Mapping):
        raise ReproError("'options' must be a JSON object")
    return RouteRequest(
        graph=grid,
        perm=perm,
        router=str(doc.get("router", "local")),
        options=dict(options),
    )


def transpile_request_from_doc(doc: Mapping[str, Any]) -> TranspileRequest:
    """Build a :class:`TranspileRequest` from a JSON request document.

    The document needs ``qasm`` (OpenQASM 2 text) and ``rows``/``cols``,
    and optionally ``router`` / ``mapping`` / ``seed`` / ``completion``
    / ``options``.

    Raises
    ------
    ReproError
        On a malformed document.
    """
    if not isinstance(doc, Mapping):
        raise ReproError("expected a JSON object")
    qasm = doc.get("qasm")
    if not isinstance(qasm, str) or not qasm.strip():
        raise ReproError("'qasm' OpenQASM 2 text required")
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
    except (KeyError, TypeError, ValueError):
        raise ReproError("'rows' and 'cols' integers required") from None
    options = doc.get("options", {})
    if not isinstance(options, Mapping):
        raise ReproError("'options' must be a JSON object")
    try:
        seed = int(doc.get("seed", 0))
    except (TypeError, ValueError):
        raise ReproError("'seed' must be an integer") from None
    return TranspileRequest(
        qasm=qasm,
        graph=GridGraph(rows, cols),
        router=str(doc.get("router", "local")),
        mapping=str(doc.get("mapping", "identity")),
        seed=seed,
        completion=str(doc.get("completion", "minimal")),
        options=dict(options),
    )


def _timeout_from_doc(doc: Mapping[str, Any]) -> float | None:
    """The optional per-request ``timeout`` field, validated.

    Raises
    ------
    ReproError
        When the field is present but not a number — a validation
        failure (``bad_request``), not an internal error.
    """
    timeout = doc.get("timeout")
    if timeout is None:
        return None
    try:
        return float(timeout)
    except (TypeError, ValueError):
        raise ReproError(f"'timeout' must be a number, got {timeout!r}") from None


class RequestHandler:
    """One request document in, one response document out — any transport.

    Wraps an :class:`AsyncRoutingService`; never raises from its public
    coroutines (failures come back as ``"ok": false`` documents with a
    stable ``code``), except for ``asyncio.CancelledError``, which
    always propagates so transports can tear connections down cleanly.
    """

    def __init__(self, service: AsyncRoutingService) -> None:
        self.service = service
        self._pipeline: Any = None

    @property
    def telemetry(self):
        """The wrapped service's telemetry registry."""
        return self.service.telemetry

    @property
    def traces(self) -> TraceBuffer | None:
        """The wrapped service's trace ring (``None`` = tracing off)."""
        return getattr(self.service.service, "traces", None)

    def node_id(self) -> str:
        """This daemon's cluster node id (empty string off-cluster)."""
        cache = self.service.service.cache
        return str(getattr(cache, "node_id", "") or "")

    def health_info(self) -> dict[str, Any]:
        """Identity fields of the HTTP ``/healthz`` answer.

        Reports the package ``version`` always, plus ``node_id`` and the
        topology ``epoch`` when the daemon runs in cluster mode — enough
        for an operator (or a rolling deploy) to tell which build and
        which ring generation answered the probe.
        """
        info: dict[str, Any] = {"version": __version__}
        node_id = self.node_id()
        if node_id:
            info["node_id"] = node_id
        topology = getattr(self.service.service, "cluster_topology", None)
        if topology is not None:
            info["epoch"] = topology.epoch
        return info

    # ------------------------------------------------------------------
    # op dispatch (delegates to the request pipeline)
    # ------------------------------------------------------------------
    def _get_pipeline(self):
        """The lazily built :class:`~repro.service.pipeline.RequestPipeline`.

        Imported lazily because the pipeline module imports this one
        (it reuses :func:`error_doc`, :data:`TRACED_OPS` and the op
        methods); building it on first dispatch keeps the import graph
        acyclic without a third module.
        """
        pipeline = self._pipeline
        if pipeline is None:
            from .pipeline import RequestPipeline

            pipeline = self._pipeline = RequestPipeline(self.service, handler=self)
        return pipeline

    async def dispatch(self, doc: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one request document by ``op`` (default ``route``).

        Delegates to
        :meth:`~repro.service.pipeline.RequestPipeline.process` — the
        full decode → authenticate → admit → enqueue → execute → encode
        lifecycle. Work ops (:data:`TRACED_OPS`) run under a root span
        named ``handler.<op>``, and the response echoes the
        ``trace_id`` so clients can fetch the finished trace via
        ``trace_get``.
        """
        return await self._get_pipeline().process(doc)

    def trace_get_doc(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one ``trace_get``: finished traces from the local ring.

        ``trace_id`` selects one trace (``traces`` is empty when it has
        already been evicted); otherwise the newest traces come back,
        optionally filtered by ``min_seconds`` (total duration) and
        truncated to ``limit``. The response always carries the ring's
        ``buffer`` stats so callers can see drop pressure. Raises
        :class:`ReproError` on malformed fields or when tracing is
        disabled (``--trace-buffer 0``).
        """
        buffer = self.traces
        if buffer is None:
            raise ReproError(
                "tracing is disabled on this daemon (started with --trace-buffer 0)"
            )
        trace_id = doc.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise ReproError("'trace_id' must be a string")
        limit = doc.get("limit")
        if limit is not None:
            try:
                limit = int(limit)
            except (TypeError, ValueError):
                raise ReproError(f"'limit' must be an integer, got {limit!r}") from None
            if limit < 0:
                raise ReproError("'limit' must be >= 0")
        min_seconds = doc.get("min_seconds")
        if min_seconds is not None:
            try:
                min_seconds = float(min_seconds)
            except (TypeError, ValueError):
                raise ReproError(
                    f"'min_seconds' must be a number, got {min_seconds!r}"
                ) from None
        if trace_id:
            trace = buffer.get(trace_id)
            traces = [trace] if trace is not None else []
        else:
            traces = buffer.list()
            if min_seconds:
                traces = [t for t in traces if t.duration >= min_seconds]
            if limit is not None:
                traces = traces[:limit]
        return {
            "ok": True,
            "op": "trace_get",
            "count": len(traces),
            "traces": [t.to_doc() for t in traces],
            "buffer": buffer.stats(),
        }

    # ------------------------------------------------------------------
    # work ops: route and transpile, single and batched
    # ------------------------------------------------------------------
    async def route_doc(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Route one request document into one response document.

        The request built from the document goes to the lifecycle as
        is, so its ``options`` reach the router untouched. Raises
        :class:`ReproError` on a malformed document (callers go through
        :meth:`dispatch` or catch it themselves); routing failures come
        back as ``"ok": false`` result documents.
        """
        req = request_from_doc(doc)
        timeout = _timeout_from_doc(doc)
        result = await self.service.route_async(req, timeout=timeout)
        return _route_result_doc(result, bool(doc.get("include_schedule")))

    async def transpile_doc(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Transpile one request document into one response document."""
        req = transpile_request_from_doc(doc)
        timeout = _timeout_from_doc(doc)
        include_qasm = bool(doc.get("include_qasm"))
        outcome = await self.service.transpile_async(
            req, include_qasm, timeout=timeout
        )
        return _transpile_result_doc(outcome)

    async def route_batch_docs(
        self,
        docs: Sequence[Any],
        include_schedule: bool = False,
        timeout: float | None = None,
    ) -> list[dict[str, Any]]:
        """Route many request documents; results are index-aligned.

        A malformed entry yields a ``bad_request`` document in its slot
        — the rest of the batch still routes (error isolation).
        """
        run = functools.partial(self.service.submit_batch_async, timeout=timeout)
        encode = functools.partial(_route_result_doc, include_schedule=include_schedule)
        return await _isolated_batch(docs, "route", request_from_doc, run, encode)

    async def transpile_batch_docs(
        self,
        docs: Sequence[Any],
        include_qasm: bool = False,
        timeout: float | None = None,
    ) -> list[dict[str, Any]]:
        """Transpile many request documents; semantics mirror routing."""
        run = functools.partial(
            self.service.transpile_batch_async,
            include_qasm=include_qasm,
            timeout=timeout,
        )
        return await _isolated_batch(
            docs, "transpile", transpile_request_from_doc, run, _transpile_result_doc
        )

    # ------------------------------------------------------------------
    # remote-shard cache ops (the cluster protocol)
    # ------------------------------------------------------------------
    def _local_cache(self):
        """The **local** schedule-cache tier, never the cluster wrapper.

        A :class:`~repro.service.cluster.ClusterScheduleCache` exposes
        its local tier as ``.local``; serving peers from it (instead of
        from the cluster view) keeps peer probes recursion-free.
        """
        cache = self.service.service.cache
        return getattr(cache, "local", cache)

    @staticmethod
    def _digest_from_doc(doc: Mapping[str, Any]) -> str:
        digest = doc.get("digest")
        if not isinstance(digest, str) or not digest:
            raise ReproError("'digest' string required")
        return digest

    async def cache_get_doc(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one ``cache_get``: local-tier probe.

        The response carries ``found`` plus, on a hit, the schedule as a
        base64 binary :func:`~repro.routing.codec.encode_schedule`
        frame under ``schedule_b64``. It always echoes ``"codec"``
        (:data:`~repro.routing.codec.CODEC_VERSION`).
        Raises :class:`ReproError` on a malformed request
        (``bad_request`` via :meth:`dispatch`).
        """
        digest = self._digest_from_doc(doc)
        cache = self._local_cache()
        schedule = await _cache_call(cache, cache.get, digest)
        resp: dict[str, Any] = {
            "ok": True,
            "op": "cache_get",
            "digest": digest,
            "codec": CODEC_VERSION,
            "found": schedule is not None,
        }
        if schedule is not None:
            frame = encode_schedule(schedule)
            resp["schedule_b64"] = base64.b64encode(frame).decode("ascii")
        return resp

    async def cache_put_doc(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one ``cache_put``: validate and store into the local tier.

        The schedule arrives as ``schedule_b64``, a base64 binary
        :func:`~repro.routing.codec.encode_schedule` frame that decoding
        re-validates in full, so a peer can never plant a corrupt entry.
        It is stored unverified: nothing here knows the request it
        claims to route, so the first route request for the digest
        checks it. ``cost`` optionally carries the original compute
        seconds for the admission policy. The response echoes
        ``"codec"``. Raises :class:`ReproError` on malformed requests, a
        JSON ``schedule`` document or another codec version's frame
        included.
        """
        digest = self._digest_from_doc(doc)
        frame_b64 = doc.get("schedule_b64")
        if not isinstance(frame_b64, str):
            raise ReproError("'schedule_b64' (a base64 schedule frame) required")
        try:
            frame = base64.b64decode(frame_b64, validate=True)
        except binascii.Error as exc:
            raise ReproError(f"bad 'schedule_b64': {exc}") from None
        try:
            with span("codec.decode", tier="pushed"):
                schedule = decode_schedule(frame)
        except ScheduleError as exc:
            raise ReproError(f"bad 'schedule_b64': {exc}") from None
        cost = doc.get("cost")
        if cost is not None:
            try:
                cost = float(cost)
            except (TypeError, ValueError):
                raise ReproError(f"'cost' must be a number, got {cost!r}") from None
        cache = self._local_cache()
        put = functools.partial(cache.put, cost=cost, unverified="pushed")
        await _cache_call(cache, put, digest, schedule)
        self.telemetry.incr("cache_put_ops")
        return {
            "ok": True,
            "op": "cache_put",
            "digest": digest,
            "codec": CODEC_VERSION,
            "stored": True,
        }

    def local_cache_stats(self) -> dict[str, Any]:
        """The local cache tier's stats document (no network I/O)."""
        return self._local_cache().as_dict()

    # ------------------------------------------------------------------
    # topology ops (runtime ring reconfiguration)
    # ------------------------------------------------------------------
    def _topology(self):
        """The service's :class:`~repro.service.cluster.ClusterTopology`.

        Raises :class:`ReproError` (``bad_request`` via
        :meth:`dispatch`) when the daemon runs without cluster mode —
        there is no ring to describe or change.
        """
        topology = getattr(self.service.service, "cluster_topology", None)
        if topology is None:
            raise ReproError(
                "this daemon has no cluster topology (start it with a "
                "dialable address or --peer)"
            )
        return topology

    def topology_get_doc(self) -> dict[str, Any]:
        """Serve one ``topology_get``: the current epoch + member set."""
        return {
            "ok": True,
            "op": "topology_get",
            "topology": self._topology().as_dict(),
        }

    def topology_update_doc(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one ``topology_update``: epoch-guarded join/leave/replace.

        The document carries ``action`` (``join`` / ``leave`` /
        ``replace``, default ``replace``) plus ``node`` or ``members``,
        and optionally ``epoch`` / ``expected_epoch`` / ``metadata``
        (see :meth:`~repro.service.cluster.ClusterTopology.apply_doc`).
        A lost epoch race answers ``"ok": false`` with the stable
        ``stale_epoch`` code instead of raising, so admins can re-read
        and retry; malformed documents raise :class:`ReproError`
        (``bad_request``).
        """
        topology = self._topology()
        try:
            view = topology.apply_doc(doc)
        except StaleEpochError as exc:
            return error_doc("stale_epoch", str(exc), op="topology_update")
        self.telemetry.incr("topology_updates")
        return {
            "ok": True,
            "op": "topology_update",
            "epoch": view.epoch,
            "topology": view.as_dict(),
        }

    def gossip_doc(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one ``gossip``: a SWIM probe (or indirect-probe request).

        Hands the document to this daemon's
        :class:`~repro.service.gossip.GossipNode`, which merges the
        sender's view and answers with its own (``ack`` plus the usual
        epoch/members/states piggyback). A ``ping_req`` makes this
        daemon probe the named target on the sender's behalf, so the
        call can block for up to one gossip transport timeout — the
        pipeline runs this op on a worker thread for that reason.

        Raises :class:`ReproError` (``bad_request``) when gossip is not
        enabled on this daemon or the document is malformed.
        """
        node = getattr(self.service.service, "gossip", None)
        if node is None:
            raise ReproError(
                "gossip is disabled on this daemon (start it with "
                "--gossip-interval)"
            )
        self.telemetry.incr("gossip_messages")
        return {"ok": True, "op": "gossip", **node.handle(doc)}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The wrapped service's stats document."""
        return self.service.stats()

    def prometheus_metrics(self) -> str:
        """The stats document as Prometheus text exposition format."""
        return render_prometheus(self.service.stats())


def _entry_error(index: int, exc: Exception, op: str) -> dict[str, Any]:
    """One failed batch entry: validation -> ``bad_request``, else
    ``internal`` — but never a failure of the surrounding batch."""
    if isinstance(exc, ReproError):
        return error_doc("bad_request", f"request {index}: {exc}", op=op)
    return error_doc(
        "internal", f"request {index}: {type(exc).__name__}: {exc}", op=op
    )


async def _isolated_batch(
    docs: Sequence[Any],
    op: str,
    parse: Callable[[Any], Any],
    run: Callable[[list[Any]], Awaitable[list[Any]]],
    encode: Callable[[Any], dict[str, Any]],
) -> list[dict[str, Any]]:
    """Parse each document, ``run`` the valid ones as one batch, and
    ``encode`` each result into its slot; a document ``parse`` rejects
    gets an :func:`_entry_error` in its slot instead."""
    entries: list[dict[str, Any] | None] = [None] * len(docs)
    requests: list[Any] = []
    positions: list[int] = []
    for i, doc in enumerate(docs):
        try:
            requests.append(parse(doc))
            positions.append(i)
        except Exception as exc:  # noqa: BLE001 - isolate per entry
            entries[i] = _entry_error(i, exc, op=op)
    if requests:
        for i, result in zip(positions, await run(requests)):
            entries[i] = encode(result)
    return [entry for entry in entries if entry is not None]


def _route_result_doc(result: RouteResult, include_schedule: bool) -> dict[str, Any]:
    """One route result as a response document."""
    resp = route_result_to_dict(result, include_schedule=include_schedule)
    return _attach_result_code(resp, "route")


def _transpile_result_doc(outcome: TranspileOutcome) -> dict[str, Any]:
    """One transpile outcome as a response document."""
    return _attach_result_code(transpile_outcome_to_dict(outcome), "transpile")


def _attach_result_code(resp: dict[str, Any], op: str) -> dict[str, Any]:
    """Stamp ``op`` and, on a failed result, a stable code: ``timeout``,
    else ``route_error`` / ``transpile_error``."""
    resp["op"] = op
    if not resp["ok"]:
        timed_out = (resp["error"] or "").startswith("TimeoutError")
        resp["code"] = "timeout" if timed_out else f"{op}_error"
    return resp


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_label(value: str) -> str:
    """Escape a label value per the exposition-format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_CACHE_COUNTER_FIELDS = (
    "hits",
    "misses",
    "evictions",
    "puts",
    "disk_hits",
    "disk_writes",
    "disk_errors",
    "rejected_puts",
)
_CACHE_GAUGE_FIELDS = ("entries", "maxsize", "hit_rate")

_CLUSTER_COUNTER_FIELDS = (
    "remote_hits",
    "remote_misses",
    "remote_errors",
    "remote_puts",
    "remote_put_errors",
    "read_repairs",
    "degraded_gets",
    "handoff_rounds",
    "handoff_keys_sent",
    "handoff_errors",
    "handoff_aborts",
    "handoff_evicted",
    "sweep_rounds",
    "sweep_repairs",
    "sweep_errors",
)

#: Summary quantiles exported per latency histogram: stats-doc key ->
#: Prometheus ``quantile`` label.
_QUANTILES = (("p50_seconds", "0.5"), ("p95_seconds", "0.95"), ("p99_seconds", "0.99"))


def render_prometheus(stats: Mapping[str, Any]) -> str:
    """Render a ``RoutingService.stats()`` document as Prometheus text.

    Telemetry counters become ``repro_counter_total{name=...}``,
    latency histograms become ``repro_latency_seconds`` summaries
    (bucket-resolution quantiles, exact sum/count), and the cache
    sections become ``repro_<cache>_<field>`` counters and gauges.
    The output conforms to text exposition format version 0.0.4.
    """
    lines: list[str] = []
    telemetry = stats.get("telemetry") or {}

    counters = telemetry.get("counters") or {}
    lines.append("# HELP repro_counter_total Service event counters by name.")
    lines.append("# TYPE repro_counter_total counter")
    for name in sorted(counters):
        lines.append(
            f'repro_counter_total{{name="{_prom_label(str(name))}"}} {counters[name]}'
        )

    # Labeled counters ("labeled_counters" in the snapshot — e.g. the
    # per-tenant tenant_requests series) each get their own metric
    # family: repro_<name>_total{<labels>}.
    labeled = telemetry.get("labeled_counters") or {}
    for name in sorted(labeled):
        metric = f"repro_{name}_total"
        lines.append(f"# TYPE {metric} counter")
        series_list = labeled[name]
        if not isinstance(series_list, list):
            continue
        for series in series_list:
            if not isinstance(series, Mapping):
                continue
            labels = series.get("labels") or {}
            label_str = ",".join(
                f'{k}="{_prom_label(str(v))}"' for k, v in sorted(labels.items())
            )
            lines.append(f'{metric}{{{label_str}}} {series.get("value", 0)}')

    gauges = telemetry.get("gauges") or {}
    for name in sorted(gauges):
        metric = f"repro_{name}"
        value = gauges[name]
        lines.append(f"# TYPE {metric} gauge")
        if isinstance(value, list):
            for series in value:
                if not isinstance(series, Mapping):
                    continue
                labels = series.get("labels") or {}
                label_str = ",".join(
                    f'{k}="{_prom_label(str(v))}"' for k, v in sorted(labels.items())
                )
                lines.append(f'{metric}{{{label_str}}} {series.get("value", 0)}')
        else:
            lines.append(f"{metric} {value}")

    # Per-stage routing-phase summaries ("stage.<router>.<stage>"
    # histograms, fed by the StageProfiler) get their own metric family
    # with router/stage labels; everything else stays under the op label.
    latency = telemetry.get("latency") or {}
    stage_names = sorted(n for n in latency if str(n).startswith("stage."))
    lines.append("# HELP repro_latency_seconds Operation latency summaries.")
    lines.append("# TYPE repro_latency_seconds summary")
    for name in sorted(latency):
        if str(name).startswith("stage."):
            continue
        hist = latency[name]
        label = _prom_label(str(name))
        for key, quantile in _QUANTILES:
            if key in hist:
                lines.append(
                    f'repro_latency_seconds{{op="{label}",quantile="{quantile}"}} '
                    f"{hist[key]}"
                )
        lines.append(
            f'repro_latency_seconds_sum{{op="{label}"}} '
            f"{hist.get('total_seconds', 0.0)}"
        )
        lines.append(
            f'repro_latency_seconds_count{{op="{label}"}} {hist.get("count", 0)}'
        )

    if stage_names:
        lines.append(
            "# HELP repro_stage_seconds Per-stage routing-phase "
            "latency summaries."
        )
        lines.append("# TYPE repro_stage_seconds summary")
        for name in stage_names:
            hist = latency[name]
            # "stage.<router>.<stage>"; a stage name may itself contain
            # dots, so split at most twice from the left.
            parts = str(name).split(".", 2)
            router = parts[1] if len(parts) > 1 else ""
            stage = parts[2] if len(parts) > 2 else ""
            label = f'router="{_prom_label(router)}",stage="{_prom_label(stage)}"'
            for key, quantile in _QUANTILES:
                if key in hist:
                    lines.append(
                        f'repro_stage_seconds{{{label},quantile="{quantile}"}} '
                        f"{hist[key]}"
                    )
            lines.append(
                f"repro_stage_seconds_sum{{{label}}} "
                f"{hist.get('total_seconds', 0.0)}"
            )
            lines.append(
                f'repro_stage_seconds_count{{{label}}} {hist.get("count", 0)}'
            )

    for section in ("schedule_cache", "transpile_cache"):
        cache = stats.get(section) or {}
        prefix = f"repro_{section}"
        for fld in _CACHE_COUNTER_FIELDS:
            if fld in cache:
                lines.append(f"# TYPE {prefix}_{fld}_total counter")
                lines.append(f"{prefix}_{fld}_total {cache[fld]}")
        for fld in _CACHE_GAUGE_FIELDS:
            if fld in cache:
                lines.append(f"# TYPE {prefix}_{fld} gauge")
                lines.append(f"{prefix}_{fld} {cache[fld]}")

    rejected = (stats.get("schedule_cache") or {}).get("rejected") or {}
    if rejected:
        lines.append(
            "# HELP repro_schedule_cache_rejected_total Schedules that failed "
            "their request's check, by the source they entered from."
        )
        lines.append("# TYPE repro_schedule_cache_rejected_total counter")
        for source in sorted(rejected):
            lines.append(
                "repro_schedule_cache_rejected_total"
                f'{{source="{_prom_label(str(source))}"}} {rejected[source]}'
            )

    cluster = (stats.get("schedule_cache") or {}).get("cluster") or {}
    if cluster:
        lines.append("# HELP repro_cluster Cross-daemon cache-sharding counters.")
        for fld in _CLUSTER_COUNTER_FIELDS:
            if fld in cluster:
                lines.append(f"# TYPE repro_cluster_{fld}_total counter")
                lines.append(f"repro_cluster_{fld}_total {cluster[fld]}")
        lines.append("# TYPE repro_cluster_ring_nodes gauge")
        lines.append(f"repro_cluster_ring_nodes {len(cluster.get('ring_nodes', []))}")
        lines.append("# TYPE repro_cluster_dead_nodes gauge")
        lines.append(f"repro_cluster_dead_nodes {len(cluster.get('dead_nodes', []))}")
        lines.append("# TYPE repro_cluster_replication gauge")
        lines.append(f"repro_cluster_replication {cluster.get('replication', 0)}")
        lines.append("# TYPE repro_cluster_epoch gauge")
        lines.append(f"repro_cluster_epoch {cluster.get('epoch', 0)}")
        lines.append("# TYPE repro_cluster_retry_interval_seconds gauge")
        lines.append(
            "repro_cluster_retry_interval_seconds "
            f"{cluster.get('retry_interval', 0)}"
        )
        lines.append("# TYPE repro_cluster_handoff_active gauge")
        lines.append(
            f"repro_cluster_handoff_active {1 if cluster.get('handoff_active') else 0}"
        )
        nodes = cluster.get("nodes")
        if isinstance(nodes, Mapping) and nodes:
            lines.append("# TYPE repro_cluster_node_up gauge")
            for node_id in sorted(nodes):
                node = nodes[node_id]
                up = 1 if isinstance(node, Mapping) and node.get("up") else 0
                lines.append(
                    f'repro_cluster_node_up{{node="{_prom_label(str(node_id))}"}} {up}'
                )
            lines.append("# TYPE repro_cluster_node_cooldown_seconds gauge")
            for node_id in sorted(nodes):
                node = nodes[node_id]
                cooldown = (
                    node.get("cooldown_remaining", 0.0)
                    if isinstance(node, Mapping)
                    else 0.0
                )
                lines.append(
                    "repro_cluster_node_cooldown_seconds"
                    f'{{node="{_prom_label(str(node_id))}"}} {cooldown}'
                )

    max_workers = stats.get("max_workers")
    if isinstance(max_workers, int):
        lines.append("# TYPE repro_max_workers gauge")
        lines.append(f"repro_max_workers {max_workers}")
    return "\n".join(lines) + "\n"
