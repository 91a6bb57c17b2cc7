"""Batch execution: dedup → cache → process-pool fan-out.

The executor turns a list of routing requests into a list of results
with three cost-avoidance layers, applied in order:

1. **Dedup** — identical requests inside one batch (same canonical key)
   are routed once; duplicates share the schedule.
2. **Cache** — keys already in the :class:`~repro.service.cache.ScheduleCache`
   are served synchronously without touching the pool.
3. **Fan-out** — the remaining unique misses run on a persistent
   ``concurrent.futures`` process pool. Workers receive graph *specs*
   (not pickled graph objects), verify the schedule against the
   request, and return binary :mod:`repro.routing.codec` frames instead
   of nested layer lists, so crossing the pool boundary costs a few
   buffer copies rather than a per-swap pickle walk; the parent decodes
   straight into the flat-array schedule representation.

Every schedule this module hands out has been verified against its
request exactly once: where it was computed (the worker, or
:meth:`BatchExecutor._run_inline`), or where it entered the cache from
disk or a peer (the cache's ``check``, fed :meth:`RouteRequest.check`).

Misses are dispatched to the pool in descending estimated-cost order
(stable, restored on collection) so one expensive route starts first
instead of straggling the final chunk; under heavy cost skew the
``pool.map`` chunksize drops to 1 so cheap requests never queue behind
an expensive chunk-mate.

Guarantees: results come back in input order regardless of completion
order, and a failing instance yields an error *result* (``source ==
"error"``) instead of poisoning the batch. If the pool itself dies
(e.g. a worker is OOM-killed), the affected requests are recomputed
inline rather than lost.

Lifecycle: :meth:`BatchExecutor.close` is terminal and idempotent —
concurrent callers all observe a single shutdown, and any submission
after close raises :class:`~repro.errors.ServiceClosedError` instead of
resurrecting the pool or surfacing a raw ``BrokenProcessPool``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..errors import ServiceClosedError
from ..graphs.base import Graph
from ..perm.permutation import Permutation
from ..routing.base import StageProfiler, make_router, profile
from ..routing.codec import decode_schedule, encode_schedule
from ..routing.schedule import Schedule
from .cache import ScheduleCache
from .cluster import ClusterScheduleCache
from .keys import RequestKey, graph_from_spec, graph_spec, request_key
from .telemetry import Telemetry
from .tracing import span

__all__ = [
    "RouteRequest",
    "RouteResult",
    "BatchExecutor",
    "record_stage_telemetry",
]

#: Cost spread (max/min estimated cost) beyond which a pool batch is
#: considered skewed and the ``pool.map`` chunksize is capped at 1.
_SKEW_RATIO = 4


@dataclass(frozen=True)
class RouteRequest:
    """One routing instance: permutation ``perm`` on ``graph`` via ``router``.

    ``options`` are forwarded to the router factory
    (:func:`repro.routing.base.make_router`) and participate in the
    cache key, so e.g. ``ats`` with different trial counts caches
    separately.
    """

    graph: Graph
    perm: Permutation
    router: str = "local"
    options: Mapping[str, Any] = field(default_factory=dict)

    def key(self) -> RequestKey:
        """The request's canonical cache key."""
        return request_key(self.graph, self.perm, self.router, self.options)

    def check(self, schedule: Schedule) -> None:
        """Raise :class:`~repro.errors.ScheduleError` unless ``schedule``
        validly routes this request (the cache tiers' ``check``).

        Proves the schedule is a sequence of matchings of ``graph`` that
        realizes ``perm``, not that the named router produced it.
        """
        schedule.verify(self.graph, self.perm)


@dataclass
class RouteResult:
    """Outcome of one request, aligned with its position in the batch.

    ``source`` records how the schedule was obtained: ``"computed"``
    (routed this batch), ``"cache"`` (served from the schedule cache),
    ``"dedup"`` (shared with an identical request earlier in the batch),
    or ``"error"`` (routing failed; see ``error``, ``schedule is None``).
    """

    index: int
    key: RequestKey
    router: str
    schedule: Schedule | None
    seconds: float
    source: str
    error: str | None = None
    #: Per-stage compute profile ``{stage: {"seconds", "count"}}`` for
    #: computed results (empty for cache/dedup hits and errors).
    stages: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether a schedule was produced."""
        return self.schedule is not None

    @property
    def depth(self) -> int | None:
        """Schedule depth, or ``None`` on error."""
        return self.schedule.depth if self.schedule is not None else None

    @property
    def size(self) -> int | None:
        """Schedule swap count, or ``None`` on error."""
        return self.schedule.size if self.schedule is not None else None


def _warm_worker() -> None:
    """Pool initializer: pay the lazy heavy imports once per worker.

    The grid routers import scipy on their first call (a ~0.5 s hit);
    routing a trivial instance at worker start moves that cost out of
    the first real request's latency.
    """
    try:
        from ..graphs.grid import GridGraph

        make_router("local").route(GridGraph(2, 2), Permutation([1, 0, 2, 3]))
    except Exception:  # noqa: BLE001 - warming is best-effort
        pass


def _route_in_worker(
    payload: tuple[str, dict, list[int], str, dict],
) -> tuple[str, str, Any, float, dict]:
    """Pool worker: rebuild the instance, route and verify it, return a frame.

    Module-level so it pickles by reference. Never raises: failures are
    returned as ``(digest, "error", message, seconds, stages)`` tuples,
    which is what keeps one bad instance from killing the whole batch;
    a schedule that fails verification is such a failure. Successes
    carry ``(frame, verify_seconds)``: the schedule as a binary
    :func:`~repro.routing.codec.encode_schedule` frame (``bytes``
    pickle as one opaque buffer) and the time its verification took.
    The trailing element carries the per-stage routing profile —
    workers cannot share the parent's trace context, so it is collected
    here and shipped back with the result.
    """
    digest, spec, targets, router_name, options = payload
    t0 = time.perf_counter()
    profiler = StageProfiler()
    try:
        graph = graph_from_spec(spec)
        perm = Permutation(targets)
        router = make_router(router_name, **options)
        with profile(profiler):
            schedule = router.route(graph, perm)
        t_verify = time.perf_counter()
        schedule.verify(graph, perm)
        verify_seconds = time.perf_counter() - t_verify
        body = (encode_schedule(schedule), verify_seconds)
        return digest, "ok", body, time.perf_counter() - t0, profiler.as_dict()
    except Exception as exc:  # noqa: BLE001 - error isolation is the contract
        msg = f"{type(exc).__name__}: {exc}"
        return digest, "error", msg, time.perf_counter() - t0, {}


def _worker_schedule(body: tuple[bytes, float]) -> Schedule:
    """Decode the verified frame of a worker's ``"ok"`` result.

    Opens a ``codec.decode`` span with tier ``worker``. Raises
    :class:`~repro.errors.ScheduleError` on a malformed frame.
    """
    frame, _verify_seconds = body
    with span("codec.decode", tier="worker"):
        return decode_schedule(frame)


class BatchExecutor:
    """Cache-aware, deduplicating, optionally parallel request runner.

    Parameters
    ----------
    cache:
        Schedule cache consulted before any work and updated after.
        ``None`` disables caching (every unique request is computed).
    max_workers:
        Process-pool size. ``0`` or ``1`` computes inline in this
        process (no pool, no pickling); ``None`` uses ``os.cpu_count()``.
    telemetry:
        Optional :class:`~repro.service.telemetry.Telemetry` receiving
        per-request counters and latencies.

    A computed schedule that fails verification against its request,
    and a cached one that fails its cache tier's check, never reaches a
    result: the first becomes an error result, the second a miss.
    """

    def __init__(
        self,
        cache: ScheduleCache | ClusterScheduleCache | None = None,
        max_workers: int | None = 1,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be >= 0, got {max_workers}")
        self.cache = cache
        self.max_workers = max_workers
        self.telemetry = telemetry or Telemetry()
        self._pool: ProcessPoolExecutor | None = None
        self._threads: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether misses fan out to a process pool."""
        return self.max_workers is None or self.max_workers > 1

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (terminal)."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(
                "executor is closed; create a new BatchExecutor/RoutingService"
            )

    def _get_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            self._ensure_open()
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, initializer=_warm_worker
                )
            return self._pool

    def _get_threads(self) -> ThreadPoolExecutor:
        """Thread fallback for :meth:`submit_job` when not parallel.

        Sized independently of ``max_workers`` so an async front end on
        an inline executor still gets non-blocking (if GIL-bound)
        concurrency.
        """
        with self._pool_lock:
            self._ensure_open()
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=min(32, (os.cpu_count() or 1) * 4),
                    thread_name_prefix="repro-exec",
                )
            return self._threads

    def reset_pool(self) -> None:
        """Tear down a broken pool so the next job respawns it.

        Recovery, not shutdown: unlike :meth:`close` this is not
        terminal. Used internally (and by the async front end) after a
        ``BrokenProcessPool``-style failure.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut down the worker pools. Terminal and idempotent.

        Safe to call from concurrent threads: exactly one caller performs
        the shutdown, the rest return immediately. Submitting work after
        close raises :class:`~repro.errors.ServiceClosedError`.
        """
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            threads, self._threads = self._threads, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if threads is not None:
            threads.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # generic fan-out
    # ------------------------------------------------------------------
    def run_jobs(
        self,
        fn,
        payloads: Sequence[Any],
        max_chunksize: int | None = None,
    ) -> list[Any]:
        """Map a no-raise, module-level worker over payloads.

        Uses the process pool when parallel (falling back to inline
        execution if the pool dies wholesale), otherwise runs inline.
        ``fn`` must be picklable by reference and must encode failures
        in its return value — an exception escaping ``fn`` in a worker
        triggers the inline fallback for the entire job list.

        ``max_chunksize`` caps the batching heuristic: callers that
        dispatch payloads with heavily skewed per-item cost pass a small
        cap so an expensive item never drags chunk-mates behind it.
        """
        self._ensure_open()
        if self.parallel and len(payloads) > 1:
            try:
                pool = self._get_pool()
                workers = self.max_workers or os.cpu_count() or 1
                chunksize = max(1, len(payloads) // (4 * workers))
                if max_chunksize is not None:
                    chunksize = max(1, min(chunksize, max_chunksize))
                return list(pool.map(fn, payloads, chunksize=chunksize))
            except Exception:  # noqa: BLE001 - BrokenProcessPool and friends
                self.telemetry.incr("pool_failures")
                self.reset_pool()
        return [fn(p) for p in payloads]

    def submit_job(self, fn: Callable[[Any], Any], payload: Any) -> Future:
        """Submit one payload, returning its ``concurrent.futures.Future``.

        The single-request analogue of :meth:`run_jobs`, built for async
        front ends that wrap the future with ``asyncio.wrap_future``
        instead of blocking on ``pool.map``. Parallel executors use the
        process pool (falling back to the thread pool if the pool is
        broken); inline executors run ``fn`` on the thread pool so the
        caller's event loop never blocks. Same contract as
        :meth:`run_jobs`: ``fn`` must encode failures in its return
        value.
        """
        self._ensure_open()
        if self.parallel:
            try:
                return self._get_pool().submit(fn, payload)
            except ServiceClosedError:
                raise
            except Exception:  # noqa: BLE001 - BrokenProcessPool and friends
                self.telemetry.incr("pool_failures")
                self.reset_pool()
        return self._get_threads().submit(fn, payload)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, requests: Sequence[RouteRequest]) -> list[RouteResult]:
        """Run a batch; the result list is index-aligned with the input.

        Raises
        ------
        ServiceClosedError
            If the executor has been closed.
        """
        self._ensure_open()
        t_batch = time.perf_counter()
        results: list[RouteResult | None] = [None] * len(requests)

        # Phase 1: keys, in-batch dedup, cache lookups.
        first_of: dict[str, int] = {}  # digest -> index of first occurrence
        misses: list[int] = []  # indices that must actually be routed
        miss_keys: dict[int, RequestKey] = {}  # reuse phase-1 fingerprints
        for i, req in enumerate(requests):
            key = req.key()
            if key.digest in first_of:
                results[i] = RouteResult(
                    index=i, key=key, router=req.router, schedule=None,
                    seconds=0.0, source="dedup",
                )
                continue
            first_of[key.digest] = i
            cached = (
                self.cache.get(key.digest, req.check)
                if self.cache is not None
                else None
            )
            if cached is not None:
                results[i] = RouteResult(
                    index=i, key=key, router=req.router, schedule=cached,
                    seconds=0.0, source="cache",
                )
            else:
                misses.append(i)
                miss_keys[i] = key

        # Phase 2: route the unique misses (pool or inline).
        if misses:
            if self.parallel and len(misses) > 1:
                outcomes = self._run_pool(requests, misses, miss_keys)
            else:
                outcomes = [
                    self._run_inline(requests[i], i, miss_keys[i])
                    for i in misses
                ]
            for result in outcomes:
                if result.ok and self.cache is not None:
                    self.cache.put(
                        result.key.digest, result.schedule, cost=result.seconds
                    )
                results[result.index] = result

        # Phase 3: resolve dedup placeholders against their originals.
        for i, res in enumerate(results):
            if res is not None and res.source == "dedup":
                orig = results[first_of[res.key.digest]]
                results[i] = RouteResult(
                    index=i, key=res.key, router=res.router,
                    schedule=orig.schedule, seconds=0.0,
                    source="dedup" if orig.ok else "error",
                    error=orig.error,
                )

        final = [r for r in results if r is not None]
        assert len(final) == len(requests)
        self._record_telemetry(final, time.perf_counter() - t_batch)
        return final

    def _run_inline(
        self, req: RouteRequest, index: int, key: RequestKey | None = None
    ) -> RouteResult:
        """Route and verify one request in this process, catching its failure."""
        if key is None:
            key = req.key()
        t0 = time.perf_counter()
        profiler = StageProfiler()
        try:
            router = make_router(req.router, **req.options)
            with profile(profiler):
                schedule = router.route(req.graph, req.perm)
            req.check(schedule)
            return RouteResult(
                index=index, key=key, router=req.router, schedule=schedule,
                seconds=time.perf_counter() - t0, source="computed",
                stages=profiler.as_dict(),
            )
        except Exception as exc:  # noqa: BLE001 - error isolation is the contract
            return RouteResult(
                index=index, key=key, router=req.router, schedule=None,
                seconds=time.perf_counter() - t0, source="error",
                error=f"{type(exc).__name__}: {exc}",
            )

    def _run_pool(
        self,
        requests: Sequence[RouteRequest],
        misses: list[int],
        keys: dict[int, RequestKey],
    ) -> list[RouteResult]:
        """Fan unique misses out over the process pool.

        Payloads go to the pool sorted by descending estimated cost
        (vertex count — route time grows superlinearly in it) so the
        most expensive instance starts immediately instead of
        straggling the last chunk; the sort is stable and the original
        order is restored on collection. When the batch's cost spread
        exceeds :data:`_SKEW_RATIO` the chunksize is capped at 1 —
        with descending order a large chunk would put all the expensive
        instances on one worker.
        """
        payloads = []
        costs = []
        for i in misses:
            req = requests[i]
            costs.append(req.graph.n_vertices)
            payloads.append((
                keys[i].digest,
                graph_spec(req.graph),
                req.perm.targets.tolist(),
                req.router,
                dict(req.options),
            ))
        order = sorted(range(len(misses)), key=lambda p: -costs[p])
        skewed = bool(costs) and max(costs) > _SKEW_RATIO * min(costs)
        raw_sorted = self.run_jobs(
            _route_in_worker,
            [payloads[p] for p in order],
            max_chunksize=1 if skewed else None,
        )
        raw: list[Any] = [None] * len(misses)
        for slot, p in enumerate(order):
            raw[p] = raw_sorted[slot]

        out: list[RouteResult] = []
        for i, (_digest, status, body, seconds, stages) in zip(misses, raw):
            req = requests[i]
            if status == "ok":
                try:
                    schedule = _worker_schedule(body)
                    out.append(RouteResult(
                        index=i, key=keys[i], router=req.router,
                        schedule=schedule, seconds=seconds, source="computed",
                        stages=stages,
                    ))
                    continue
                except Exception as exc:  # noqa: BLE001
                    body = f"worker returned invalid schedule: {exc}"
            out.append(RouteResult(
                index=i, key=keys[i], router=req.router, schedule=None,
                seconds=seconds, source="error", error=str(body),
            ))
        return out

    def _record_telemetry(
        self, results: Sequence[RouteResult], batch_seconds: float
    ) -> None:
        tel = self.telemetry
        tel.incr("batches")
        tel.observe("batch", batch_seconds)
        for r in results:
            tel.incr("requests")
            tel.incr(f"source_{r.source}")
            if r.source == "computed":
                tel.observe("route", r.seconds)
                record_stage_telemetry(tel, r.router, r.stages)


def record_stage_telemetry(
    telemetry: Telemetry,
    router: str,
    stages: Mapping[str, Mapping[str, float]],
) -> None:
    """Roll a per-stage compute profile into stage histograms.

    Histogram names follow ``stage.{router}.{stage}``, which the
    Prometheus endpoint renders as
    ``repro_stage_seconds{router=...,stage=...}`` — the same
    decomposition traces show, aggregated.
    """
    for stage_name, info in stages.items():
        telemetry.observe(
            f"stage.{router}.{stage_name}", float(info.get("seconds", 0.0))
        )
