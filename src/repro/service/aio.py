"""Asyncio front end over the routing service.

:class:`AsyncRoutingService` exposes the same request surface as
:class:`~repro.service.service.RoutingService` — submit one, submit a
batch, transpile a batch — as coroutines that never block the event
loop. Misses are shipped to the executor's worker pool with
:meth:`~repro.service.executor.BatchExecutor.submit_job` and awaited
via ``asyncio.wrap_future`` (process pool) or the thread fallback
(inline executors), instead of blocking on ``pool.map`` the way the
sync facade does. That makes it the natural engine for the daemon
(:mod:`repro.service.http`), where many client connections multiplex
onto one warm pool.

Three service-y concerns are handled here rather than left to callers:

* **Bounded, fair concurrency** — a
  :class:`~repro.service.tenancy.FairScheduler` caps in-flight requests
  (``max_concurrency``) and arbitrates the queue by weighted-fair
  queueing over the calling tenant (taken from the ambient
  :func:`~repro.service.tenancy.current_tenant`, which the request
  pipeline binds; library callers run as the default tenant and see
  plain FIFO). The queue depth and in-flight gauges are exported
  through the shared :class:`~repro.service.telemetry.Telemetry` as
  ``aio_queue_depth`` / ``aio_inflight``, plus per-tenant
  ``tenant_queue_depth`` / ``tenant_inflight`` gauge series.
* **Per-request timeouts** — each request may carry a ``timeout`` (or
  inherit ``default_timeout``); an expired request yields an *error
  result* (``source == "error"``, ``TimeoutError`` in ``error``),
  consistent with the batch error-isolation contract. The underlying
  pool task is cancelled when it has not started yet.
* **Dedup** — identical requests inside one batch are computed once,
  exactly like the sync executor (duplicates report ``source ==
  "dedup"``) — and identical *concurrent* route requests from
  different callers (e.g. concurrent daemon connections) are
  single-flight coalesced onto one computation instead of racing the
  cache.

Cancellation is cooperative and clean: cancelling a coroutine releases
its semaphore slot and decrements the gauges, so a cancelled client
never wedges the service.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import time
from typing import Any, AsyncIterator, Mapping, Sequence

from ..errors import ServiceClosedError
from ..graphs.base import Graph
from ..perm.permutation import Permutation
from ..routing.schedule import Schedule
from .cache import Check
from .executor import (
    RouteRequest,
    RouteResult,
    _route_in_worker,
    _worker_schedule,
    record_stage_telemetry,
)
from .keys import RequestKey, graph_spec
from .service import (
    RoutingService,
    TranspileOutcome,
    TranspileRequest,
    _transpile_in_worker,
)
from .tenancy import (
    FairScheduler,
    TenantRegistry,
    current_tenant,
    estimate_cost,
)
from .tracing import record_stage_spans, span

__all__ = ["AsyncRoutingService"]


def _route_error(
    index: int, key: RequestKey, router: str, seconds: float, error: str
) -> RouteResult:
    """An error-shaped :class:`RouteResult` (``ok`` False, no schedule)."""
    return RouteResult(
        index=index,
        key=key,
        router=router,
        schedule=None,
        seconds=seconds,
        source="error",
        error=error,
    )


def _consume_outcome(future: "asyncio.Future[Any]") -> None:
    """Retrieve an abandoned future's outcome so it never warns at GC."""
    if not future.cancelled():
        future.exception()


def _as_dedup_route(
    orig: RouteResult, index: int, key: RequestKey, router: str
) -> RouteResult:
    """Clone an original result for a duplicate/coalesced request slot."""
    return RouteResult(
        index=index,
        key=key,
        router=router,
        schedule=orig.schedule,
        seconds=0.0,
        source="dedup" if orig.ok else "error",
        error=orig.error,
    )


def _as_dedup_transpile(
    orig: TranspileOutcome, index: int, digest: str, router: str
) -> TranspileOutcome:
    """Clone an original outcome for a duplicate request slot."""
    return TranspileOutcome(
        index=index,
        digest=digest,
        router=router,
        metrics=orig.metrics,
        physical_qasm=orig.physical_qasm,
        seconds=0.0,
        source="dedup" if orig.ok else "error",
        error=orig.error,
    )


def _transpile_error(
    index: int, digest: str, router: str, seconds: float, error: str
) -> TranspileOutcome:
    """An error-shaped :class:`TranspileOutcome`."""
    return TranspileOutcome(
        index=index,
        digest=digest,
        router=router,
        metrics=None,
        physical_qasm=None,
        seconds=seconds,
        source="error",
        error=error,
    )


class AsyncRoutingService:
    """Bounded-concurrency asyncio facade over a :class:`RoutingService`.

    Parameters
    ----------
    service:
        An existing :class:`RoutingService` to drive. ``None`` builds a
        private one from ``**service_kwargs`` (closed by
        :meth:`aclose`); a borrowed service is left open.
    max_concurrency:
        Maximum simultaneously in-flight requests; further submissions
        queue in the weighted-fair scheduler.
    default_timeout:
        Per-request timeout in seconds applied when a call does not
        pass its own; ``None`` waits indefinitely.
    tenants:
        The :class:`~repro.service.tenancy.TenantRegistry` governing
        authentication and admission. ``None`` builds an open registry
        (everything admitted as the default tenant).
    max_queue_depth:
        Global queued-request bound the request pipeline sheds against
        (``None`` = unbounded). The scheduler itself never refuses
        admitted work; this is advisory state for the admit stage.

    Examples
    --------
    >>> import asyncio
    >>> from repro import GridGraph, random_permutation
    >>> async def demo():
    ...     async with AsyncRoutingService(cache_size=16) as svc:
    ...         grid = GridGraph(3, 3)
    ...         res = await svc.submit_async(grid, random_permutation(grid, seed=1))
    ...         return res.ok, res.source
    >>> asyncio.run(demo())
    (True, 'computed')
    """

    def __init__(
        self,
        service: RoutingService | None = None,
        *,
        max_concurrency: int = 64,
        default_timeout: float | None = None,
        tenants: TenantRegistry | None = None,
        max_queue_depth: int | None = None,
        **service_kwargs: Any,
    ) -> None:
        if max_concurrency <= 0:
            raise ValueError(f"max_concurrency must be positive, got {max_concurrency}")
        if service is not None and service_kwargs:
            raise ValueError(
                "pass either an existing service or RoutingService kwargs, not both"
            )
        self.service = (
            service if service is not None else RoutingService(**service_kwargs)
        )
        self._owns_service = service is None
        self.max_concurrency = max_concurrency
        self.default_timeout = default_timeout
        self.tenants = tenants if tenants is not None else TenantRegistry()
        # The scheduler binds to the loop it first awaits on and resets
        # when the service outlives a loop (e.g. successive asyncio.run
        # calls in tests) — only safe while idle, which is the only
        # state a dead loop can leave us in (same rule the semaphore it
        # replaced followed).
        self.scheduler = FairScheduler(
            max_concurrency,
            max_queue_depth=max_queue_depth,
            telemetry=self.service.telemetry,
        )
        # Single-flight map: digest -> future of the in-progress result.
        # Entries live only while their computation runs, so the map is
        # empty whenever the loop changes (no loop-rebinding needed).
        self._inflight: dict[str, asyncio.Future] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def telemetry(self):
        """The shared telemetry registry (the wrapped service's)."""
        return self.service.telemetry

    @property
    def closed(self) -> bool:
        """Whether the underlying service has been closed."""
        return self.service.closed

    async def aclose(self) -> None:
        """Close the owned service without blocking the event loop.

        A borrowed service (passed to ``__init__``) is left open — its
        owner decides its lifetime.
        """
        if self._owns_service and not self.service.closed:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.service.close)

    async def __aenter__(self) -> "AsyncRoutingService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # concurrency plumbing
    # ------------------------------------------------------------------
    @contextlib.asynccontextmanager
    async def _slot(self, cost: float = 1.0) -> AsyncIterator[None]:
        """Acquire one weighted-fair slot for the ambient tenant.

        The tenant comes from the contextvar the request pipeline binds
        (:func:`~repro.service.tenancy.current_tenant`); library
        callers that never went through the pipeline run as the
        registry's default tenant. The scheduler maintains the
        ``aio_queue_depth`` / ``aio_inflight`` gauges and emits the
        ``pipeline.enqueue`` span around the wait.
        """
        tenant = current_tenant() or self.tenants.default_tenant
        async with self.scheduler.slot(tenant, cost):
            yield

    async def _await_job(
        self,
        fn: Any,
        payload: Any,
        timeout: float | None,
        salvage: Any = None,
    ) -> Any:
        """Ship one payload to the executor and await its future.

        Mirrors ``run_jobs``' recovery guarantee: a pool that dies at
        await time (e.g. a worker OOM-killed mid-request) is reset and
        the payload retried once — on the respawned pool or the thread
        fallback — instead of turning every in-flight request into an
        error result. The retry runs on the *remaining* timeout budget,
        so the per-request deadline holds across the recovery.
        """
        t0 = time.perf_counter()
        try:
            return await self._await_job_once(fn, payload, timeout, salvage)
        except (asyncio.TimeoutError, asyncio.CancelledError, ServiceClosedError):
            raise
        except Exception:  # noqa: BLE001 - BrokenProcessPool and friends
            self.telemetry.incr("pool_failures")
            self.service.executor.reset_pool()
            remaining = timeout
            if timeout is not None:
                remaining = timeout - (time.perf_counter() - t0)
                if remaining <= 0:
                    raise asyncio.TimeoutError from None
            return await self._await_job_once(fn, payload, remaining, salvage)

    async def _await_job_once(
        self,
        fn: Any,
        payload: Any,
        timeout: float | None,
        salvage: Any = None,
    ) -> Any:
        """One submit-and-await round.

        The await is shielded so an expired ``timeout`` raises
        immediately even when the pool task is already running (a
        started task cannot be cancelled). An abandoned-but-running
        task is not wasted: ``salvage`` (a callback receiving the
        ``concurrent.futures.Future``) is attached so its eventual
        result can still be cached.
        """
        future = self.service.executor.submit_job(fn, payload)
        wrapped = asyncio.wrap_future(future)
        try:
            return await asyncio.wait_for(asyncio.shield(wrapped), timeout)
        except asyncio.TimeoutError:
            if not future.cancel():
                # Already running: consume the wrapped future's outcome
                # so a late failure never logs "exception was never
                # retrieved", and hand the result to the salvager.
                wrapped.add_done_callback(_consume_outcome)
                if salvage is not None:
                    future.add_done_callback(salvage)
            raise
        except asyncio.CancelledError:
            if not future.cancel():
                wrapped.add_done_callback(_consume_outcome)
            raise

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def submit_async(
        self,
        graph: Graph,
        perm: Permutation,
        router: str | None = None,
        *,
        timeout: float | None = None,
        **options: Any,
    ) -> RouteResult:
        """Route one instance without blocking the event loop.

        Mirrors :meth:`RoutingService.submit`: served from the schedule
        cache when possible, computed on the worker pool otherwise. A
        timeout (argument or ``default_timeout``) turns an overdue
        request into an error result rather than an exception.
        """
        req = RouteRequest(graph, perm, router or self.service.default_router, options)
        return await self._submit_one(req, index=0, timeout=timeout)

    async def submit_batch_async(
        self,
        requests: Sequence[RouteRequest | Mapping[str, Any] | tuple],
        *,
        timeout: float | None = None,
    ) -> list[RouteResult]:
        """Route a batch concurrently; results are index-aligned.

        Accepts the same entry shapes as
        :meth:`RoutingService.submit_batch`. Unique requests run
        concurrently under the semaphore; in-batch duplicates are
        deduplicated exactly like the sync executor (``source ==
        "dedup"``). ``timeout`` applies per request, not to the batch.
        """
        t_batch = time.perf_counter()
        reqs = [self.service._coerce(r) for r in requests]
        keys = [r.key() for r in reqs]
        first_of: dict[str, int] = {}
        tasks: dict[int, asyncio.Task[RouteResult]] = {}
        for i, (req, key) in enumerate(zip(reqs, keys)):
            if key.digest not in first_of:
                first_of[key.digest] = i
                tasks[i] = asyncio.ensure_future(
                    self._submit_one(req, index=i, timeout=timeout, key=key)
                )
        try:
            unique = await asyncio.gather(*tasks.values())
        except BaseException:
            for task in tasks.values():
                task.cancel()
            raise
        by_index = {res.index: res for res in unique}
        results: list[RouteResult] = []
        for i, key in enumerate(keys):
            orig = by_index[first_of[key.digest]]
            if orig.index == i:
                results.append(orig)
                continue
            results.append(_as_dedup_route(orig, i, key, reqs[i].router))
            self.telemetry.incr("aio_requests")
            source = "dedup" if orig.ok else "error"
            self.telemetry.incr(f"aio_source_{source}")
        self.telemetry.incr("aio_batches")
        self.telemetry.observe("aio_batch", time.perf_counter() - t_batch)
        return results

    async def _submit_one(
        self,
        req: RouteRequest,
        index: int,
        timeout: float | None = None,
        key: RequestKey | None = None,
    ) -> RouteResult:
        if timeout is None:
            timeout = self.default_timeout
        async with self._slot(estimate_cost(req.graph.n_vertices)):
            if key is None:
                key = req.key()
            with span("cache.get") as csp:
                cached = await self._cache_get(key.digest, req.check)
                csp.set("hit", cached is not None)
            if cached is not None:
                result = RouteResult(
                    index=index,
                    key=key,
                    router=req.router,
                    schedule=cached,
                    seconds=0.0,
                    source="cache",
                )
            else:
                result = await self._miss_single_flight(req, key, index, timeout)
        self.telemetry.incr("aio_requests")
        self.telemetry.incr(f"aio_source_{result.source}")
        if result.source == "computed":
            self.telemetry.observe("aio_route", result.seconds)
        return result

    async def _miss_single_flight(
        self,
        req: RouteRequest,
        key: RequestKey,
        index: int,
        timeout: float | None,
    ) -> RouteResult:
        """Compute a miss, coalescing concurrent identical requests.

        The first caller for a digest computes and publishes its result
        on an in-flight future; concurrent callers for the same digest
        await that future instead of racing a redundant computation
        (they report ``source == "dedup"``, like in-batch duplicates).
        A follower computes for itself when the leader cannot speak for
        it: the leader was cancelled, or the leader's own timeout
        budget expired (this follower may have a longer one).
        """
        leader_fut = self._inflight.get(key.digest)
        if leader_fut is None:
            fut: asyncio.Future = asyncio.get_running_loop().create_future()
            self._inflight[key.digest] = fut
            try:
                result = await self._route_miss(req, key, index, timeout)
            except BaseException:
                raise
            else:
                fut.set_result(result)
                return result
            finally:
                if self._inflight.get(key.digest) is fut:
                    del self._inflight[key.digest]
                if not fut.done():
                    fut.cancel()  # leader failed: wake followers to retry
        try:
            orig = await asyncio.wait_for(asyncio.shield(leader_fut), timeout)
        except asyncio.TimeoutError:
            self.telemetry.incr("aio_timeouts")
            message = f"TimeoutError: request exceeded {timeout}s"
            return _route_error(index, key, req.router, 0.0, message)
        except asyncio.CancelledError:
            if not leader_fut.cancelled():
                raise  # this follower was cancelled, not the leader
            return await self._route_miss(req, key, index, timeout)
        if not orig.ok and orig.error and orig.error.startswith("TimeoutError"):
            # The leader ran out of *its* budget — not a property of the
            # instance. Compute under this request's own timeout.
            return await self._route_miss(req, key, index, timeout)
        self.telemetry.incr("aio_coalesced")
        return _as_dedup_route(orig, index, key, req.router)

    async def _route_miss(
        self,
        req: RouteRequest,
        key: RequestKey,
        index: int,
        timeout: float | None,
    ) -> RouteResult:
        payload = (
            key.digest,
            graph_spec(req.graph),
            req.perm.targets.tolist(),
            req.router,
            dict(req.options),
        )
        t0 = time.perf_counter()
        try:
            with span("compute", router=req.router) as csp:
                raw = await self._await_job(
                    _route_in_worker,
                    payload,
                    timeout,
                    salvage=self._route_salvager(key),
                )
                _digest, status, body, seconds, stages = raw
                csp.set("status", status)
                if status == "ok":
                    record_stage_spans(stages)
                    record_stage_telemetry(self.telemetry, req.router, stages)
                    verified = {"verify": {"seconds": body[1], "count": 1}}
                    record_stage_spans(verified, prefix="schedule.", tier="worker")
        except asyncio.TimeoutError:
            self.telemetry.incr("aio_timeouts")
            elapsed = time.perf_counter() - t0
            message = f"TimeoutError: request exceeded {timeout}s"
            return _route_error(index, key, req.router, elapsed, message)
        except (asyncio.CancelledError, ServiceClosedError):
            raise
        except Exception as exc:  # noqa: BLE001 - pool died twice; isolate
            elapsed = time.perf_counter() - t0
            message = f"{type(exc).__name__}: {exc}"
            return _route_error(index, key, req.router, elapsed, message)
        if status != "ok":
            return _route_error(index, key, req.router, seconds, str(body))
        try:
            schedule = _worker_schedule(body)
        except Exception as exc:  # noqa: BLE001 - isolate per request
            message = f"{type(exc).__name__}: {exc}"
            return _route_error(index, key, req.router, seconds, message)
        with span("cache.put"):
            await self._cache_put(key.digest, schedule, seconds)
        return RouteResult(
            index=index,
            key=key,
            router=req.router,
            schedule=schedule,
            seconds=seconds,
            source="computed",
        )

    @staticmethod
    def _cache_blocks(cache: Any) -> bool:
        """Whether cache operations may block (disk tier or remote shards).

        A cluster cache advertises network I/O via its ``remote``
        property (true exactly while the current topology has peers);
        a disk-backed cache may read/parse files. Either way the
        operation belongs on a worker thread, not the event loop.
        """
        return (
            getattr(cache, "disk_dir", None) is not None
            or bool(getattr(cache, "remote", False))
        )

    async def _cache_get(self, digest: str, check: Check) -> Schedule | None:
        """Probe the schedule cache without stalling the event loop.

        ``check`` is the request's verifier, applied by the cache to
        what enters from disk or a peer. A memory-only cache answers
        synchronously (an OrderedDict probe under a lock — cheaper than
        a thread hop; only a peer's unverified push is checked there,
        once); a cache with a disk tier or remote cluster shards may do
        I/O on a miss, so it runs on a worker thread.
        """
        cache = self.service.cache
        if not self._cache_blocks(cache):
            return cache.get(digest, check)
        loop = asyncio.get_running_loop()
        # run_in_executor does not propagate contextvars; carry the
        # trace context across the thread hop so spans opened inside the
        # cluster cache (remote probes, read repair) join this request's
        # trace.
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(
            None, lambda: ctx.run(cache.get, digest, check)
        )

    async def _cache_put(
        self, digest: str, schedule: Schedule, cost: float
    ) -> None:
        """Store a schedule; disk/remote writes go to a worker thread."""
        cache = self.service.cache
        if not self._cache_blocks(cache):
            cache.put(digest, schedule, cost=cost)
            return
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        await loop.run_in_executor(
            None,
            lambda: ctx.run(
                functools.partial(cache.put, digest, schedule, cost=cost)
            ),
        )

    def _route_salvager(self, key: RequestKey) -> Any:
        """A done-callback caching the result of a timed-out route job.

        Runs on an executor thread after the abandoned job finishes —
        the caches and telemetry are thread-safe, so the work a client
        gave up on still warms the cache for the next one. The worker
        verified the schedule before returning it.
        """

        def _salvage(future: Any) -> None:
            try:
                _digest, status, body, seconds, _stages = future.result()
                if status != "ok":
                    return
                schedule = _worker_schedule(body)
                self.service.cache.put(key.digest, schedule, cost=seconds)
                self.telemetry.incr("aio_salvaged")
            except Exception:  # noqa: BLE001 - salvage is best-effort
                pass

        return _salvage

    # ------------------------------------------------------------------
    # transpilation
    # ------------------------------------------------------------------
    async def transpile_batch_async(
        self,
        requests: Sequence[TranspileRequest],
        include_qasm: bool = False,
        *,
        timeout: float | None = None,
    ) -> list[TranspileOutcome]:
        """Transpile circuits concurrently; semantics mirror the sync path.

        Outcomes are index-aligned, duplicates computed once, cache
        consulted, failures isolated; ``timeout`` applies per request.
        """
        t_batch = time.perf_counter()
        digests = [r.digest(include_qasm_out=include_qasm) for r in requests]
        first_of: dict[str, int] = {}
        tasks: dict[int, asyncio.Task[TranspileOutcome]] = {}
        for i, (req, digest) in enumerate(zip(requests, digests)):
            if digest not in first_of:
                first_of[digest] = i
                tasks[i] = asyncio.ensure_future(
                    self._transpile_one(req, digest, i, include_qasm, timeout)
                )
        try:
            unique = await asyncio.gather(*tasks.values())
        except BaseException:
            for task in tasks.values():
                task.cancel()
            raise
        by_index = {out.index: out for out in unique}
        outcomes: list[TranspileOutcome] = []
        for i, digest in enumerate(digests):
            orig = by_index[first_of[digest]]
            if orig.index == i:
                outcomes.append(orig)
                continue
            outcomes.append(
                _as_dedup_transpile(orig, i, digest, requests[i].router)
            )
        self.telemetry.incr("aio_transpile_batches")
        self.telemetry.observe("aio_transpile_batch", time.perf_counter() - t_batch)
        return outcomes

    async def _transpile_one(
        self,
        req: TranspileRequest,
        digest: str,
        index: int,
        include_qasm: bool,
        timeout: float | None,
    ) -> TranspileOutcome:
        if timeout is None:
            timeout = self.default_timeout
        async with self._slot(estimate_cost(req.graph.n_vertices)):
            with span("cache.get") as csp:
                cached = self.service.transpile_cache.get(digest)
                csp.set("hit", cached is not None)
            if cached is not None:
                return TranspileOutcome(
                    index=index,
                    digest=digest,
                    router=req.router,
                    metrics=cached["metrics"],
                    physical_qasm=cached["physical_qasm"],
                    seconds=0.0,
                    source="cache",
                )
            payload = (
                digest,
                req.qasm,
                graph_spec(req.graph),
                req.router,
                req.mapping,
                req.seed,
                req.completion,
                dict(req.options),
                include_qasm,
            )
            t0 = time.perf_counter()
            try:
                with span("compute", router=req.router) as csp:
                    raw = await self._await_job(
                        _transpile_in_worker,
                        payload,
                        timeout,
                        salvage=self._transpile_salvager(digest),
                    )
                    _digest, status, body, seconds, stages = raw
                    csp.set("status", status)
                    if status == "ok":
                        record_stage_spans(stages)
                        record_stage_telemetry(self.telemetry, req.router, stages)
            except asyncio.TimeoutError:
                self.telemetry.incr("aio_timeouts")
                elapsed = time.perf_counter() - t0
                message = f"TimeoutError: request exceeded {timeout}s"
                return _transpile_error(index, digest, req.router, elapsed, message)
            except (asyncio.CancelledError, ServiceClosedError):
                raise
            except Exception as exc:  # noqa: BLE001 - pool died twice; isolate
                elapsed = time.perf_counter() - t0
                message = f"{type(exc).__name__}: {exc}"
                return _transpile_error(index, digest, req.router, elapsed, message)
            if status != "ok":
                return _transpile_error(index, digest, req.router, seconds, str(body))
            self.service.transpile_cache.put(digest, body)
            return TranspileOutcome(
                index=index,
                digest=digest,
                router=req.router,
                metrics=body["metrics"],
                physical_qasm=body["physical_qasm"],
                seconds=seconds,
                source="computed",
            )

    def _transpile_salvager(self, digest: str) -> Any:
        """A done-callback caching the result of a timed-out transpile."""

        def _salvage(future: Any) -> None:
            try:
                _digest, status, body, seconds, _stages = future.result()
                if status != "ok":
                    return
                self.service.transpile_cache.put(digest, body)
                self.telemetry.incr("aio_salvaged")
            except Exception:  # noqa: BLE001 - salvage is best-effort
                pass

        return _salvage

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The wrapped service's stats plus the async-front-end config.

        Includes a ``tenancy`` section — registry mode, per-tenant
        outcome counters, and the fair scheduler's occupancy — so
        ``/stats`` shows who is being admitted, throttled and shed.
        """
        doc = self.service.stats()
        doc["aio"] = {
            "max_concurrency": self.max_concurrency,
            "default_timeout": self.default_timeout,
            "max_queue_depth": self.scheduler.max_queue_depth,
        }
        doc["tenancy"] = {
            **self.tenants.stats(),
            "scheduler": self.scheduler.stats(),
        }
        return doc
