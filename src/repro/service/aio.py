"""The request lifecycle: one asyncio path for every route and transpile.

:class:`AsyncRoutingService` runs every request — a route or a
transpile, single or batched, from the daemon
(:mod:`repro.service.http`), ``repro batch`` or the sync
:class:`~repro.service.service.RoutingService` wrapper — through one
lifecycle:

``batch dedup → fair slot → cache → single-flight → compute → put``

Misses are shipped to the executor's workers with
:meth:`~repro.service.executor.BatchExecutor.submit_job` and awaited via
``asyncio.wrap_future`` — a process pool when parallel, one compute
thread otherwise — so the event loop never blocks. What differs between
the two job kinds (the cache tier, the worker function and its payload,
how a worker's body becomes a value, the result type) lives in one small
adapter per kind, :class:`_RouteJobs` and :class:`_TranspileJobs`.

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
  pool task is cancelled when it has not started yet; a started one
  is salvaged into the cache when it finishes.
* **Dedup** — identical requests inside one batch are computed once
  (duplicates report ``source == "dedup"``), and identical *concurrent*
  requests from different callers (e.g. concurrent daemon connections)
  are single-flight coalesced onto one computation instead of racing
  the cache.

Cancellation is cooperative and clean: cancelling a coroutine releases
its semaphore slot and decrements the gauges, so a cancelled client
never wedges the service.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import dataclasses
import functools
import time
from typing import Any, AsyncIterator, Callable, Mapping, Sequence, Union

from ..errors import ServiceClosedError
from ..graphs.base import Graph
from ..perm.permutation import Permutation
from .executor import (
    RouteRequest,
    RouteResult,
    _route_in_worker,
    _worker_schedule,
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


async def _cache_call(cache: Any, fn: Callable[..., Any], *args: Any) -> Any:
    """Run one operation of ``cache`` without stalling the event loop.

    A memory-only tier answers synchronously (an OrderedDict probe under
    a lock is cheaper than a thread hop). A tier with a disk directory
    or remote cluster shards may do I/O, so ``fn`` runs on a worker
    thread. ``run_in_executor`` does not propagate contextvars, so the
    trace context is carried across the hop: spans opened inside the
    cache (disk decode, remote probes, read repair) join the request's
    trace.
    """
    disk_dir = getattr(cache, "disk_dir", None)
    if disk_dir is None and not getattr(cache, "remote", False):
        return fn(*args)
    ctx = contextvars.copy_context()
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, functools.partial(ctx.run, fn, *args))


def _consume_outcome(future: "asyncio.Future[Any]") -> None:
    """Retrieve an abandoned future's outcome so it never warns at GC."""
    if not future.cancelled():
        future.exception()


def _as_dedup(orig: Any, index: int) -> Any:
    """Clone a result for a duplicate or coalesced request slot.

    Identical requests share a digest, hence the key and router too.
    """
    source = "dedup" if orig.ok else "error"
    return dataclasses.replace(orig, index=index, seconds=0.0, source=source)


class _RouteJobs:
    """Route jobs: the schedule cache, verified worker frames, RouteResult."""

    #: Telemetry names: compute latency, batch latency, batch count.
    latency, batch, batches = "aio_route", "aio_batch", "aio_batches"
    worker = staticmethod(_route_in_worker)

    def __init__(self, service: RoutingService) -> None:
        self.service = service

    @property
    def cache(self) -> Any:
        return self.service.cache

    @staticmethod
    def key(req: RouteRequest) -> RequestKey:
        return req.key()

    @staticmethod
    def digest(key: RequestKey) -> str:
        return key.digest

    def get(self, req: RouteRequest, key: RequestKey) -> Any:
        return self.cache.get(key.digest, req.check)

    def put(self, key: RequestKey, schedule: Any, seconds: float) -> None:
        self.cache.put(key.digest, schedule, cost=seconds)

    @staticmethod
    def payload(req: RouteRequest, key: RequestKey) -> tuple:
        spec, targets = graph_spec(req.graph), req.perm.targets.tolist()
        return key.digest, spec, targets, req.router, dict(req.options)

    @staticmethod
    def computed(body: Any) -> None:
        """Lay the worker's verification into the ``compute`` span."""
        verified = {"verify": {"seconds": body[1], "count": 1}}
        record_stage_spans(verified, prefix="schedule.", tier="worker")

    #: A worker's verified frame, decoded (raises on a malformed one).
    value = staticmethod(_worker_schedule)

    @staticmethod
    def result(
        index: int,
        key: RequestKey,
        router: str,
        schedule: Any,
        seconds: float,
        source: str,
        error: str | None = None,
    ) -> RouteResult:
        return RouteResult(index, key, router, schedule, seconds, source, error)


class _TranspileJobs:
    """Transpile jobs: the transpile cache, metrics bodies, TranspileOutcome."""

    latency = "aio_transpile"
    batch, batches = "aio_transpile_batch", "aio_transpile_batches"
    worker = staticmethod(_transpile_in_worker)

    def __init__(self, service: RoutingService, include_qasm: bool) -> None:
        self.service = service
        self.include_qasm = include_qasm

    @property
    def cache(self) -> Any:
        return self.service.transpile_cache

    def key(self, req: TranspileRequest) -> str:
        return req.digest(include_qasm_out=self.include_qasm)

    @staticmethod
    def digest(key: str) -> str:
        return key

    def get(self, req: TranspileRequest, digest: str) -> Any:
        return self.cache.get(digest)

    def put(self, digest: str, body: Any, seconds: float) -> None:
        self.cache.put(digest, body, cost=seconds)

    def payload(self, req: TranspileRequest, digest: str) -> tuple:
        return (
            digest,
            req.qasm,
            graph_spec(req.graph),
            req.router,
            req.mapping,
            req.seed,
            req.completion,
            dict(req.options),
            self.include_qasm,
        )

    @staticmethod
    def computed(body: Any) -> None:
        """Nothing beyond the stage profile to trace."""

    @staticmethod
    def value(body: Any) -> Any:
        return body

    @staticmethod
    def result(
        index: int,
        digest: str,
        router: str,
        body: Any,
        seconds: float,
        source: str,
        error: str | None = None,
    ) -> TranspileOutcome:
        metrics = body["metrics"] if body is not None else None
        qasm = body["physical_qasm"] if body is not None else None
        return TranspileOutcome(
            index, digest, router, metrics, qasm, seconds, source, error
        )


_Jobs = Union[_RouteJobs, _TranspileJobs]


class AsyncRoutingService:
    """Bounded-concurrency asyncio lifecycle over a :class:`RoutingService`.

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
        self._routes = _RouteJobs(self.service)
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
    # routing and transpilation
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
        return await self.route_async(req, timeout=timeout)

    async def route_async(
        self, request: RouteRequest, *, timeout: float | None = None
    ) -> RouteResult:
        """Route one built :class:`RouteRequest` (no batch around it).

        ``timeout`` applies as in :meth:`submit_async`; the request's
        ``options`` reach the router factory untouched.
        """
        return await self._run_one(self._routes, request, 0, timeout)

    async def submit_batch_async(
        self,
        requests: Sequence[RouteRequest | Mapping[str, Any] | tuple],
        *,
        timeout: float | None = None,
    ) -> list[RouteResult]:
        """Route a batch concurrently; results are index-aligned.

        Accepts the same entry shapes as
        :meth:`RoutingService.submit_batch`. Unique requests run
        concurrently under the fair scheduler; in-batch duplicates are
        computed once (``source == "dedup"``). ``timeout`` applies per
        request, not to the batch.
        """
        reqs = [self.service._coerce(r) for r in requests]
        return await self._run_batch(self._routes, reqs, timeout)

    async def transpile_async(
        self,
        request: TranspileRequest,
        include_qasm: bool = False,
        *,
        timeout: float | None = None,
    ) -> TranspileOutcome:
        """Transpile one :class:`TranspileRequest` (no batch around it).

        The single-request twin of :meth:`transpile_batch_async`, as
        :meth:`route_async` is of :meth:`submit_batch_async`.
        """
        jobs = _TranspileJobs(self.service, include_qasm)
        return await self._run_one(jobs, request, 0, timeout)

    async def transpile_batch_async(
        self,
        requests: Sequence[TranspileRequest],
        include_qasm: bool = False,
        *,
        timeout: float | None = None,
    ) -> list[TranspileOutcome]:
        """Transpile circuits concurrently; semantics mirror routing.

        Outcomes are index-aligned, duplicates computed once, the
        transpile cache consulted, failures isolated; ``timeout``
        applies per request.
        """
        jobs = _TranspileJobs(self.service, include_qasm)
        return await self._run_batch(jobs, list(requests), timeout)

    # ------------------------------------------------------------------
    # the lifecycle
    # ------------------------------------------------------------------
    async def _run_batch(
        self, jobs: _Jobs, reqs: list[Any], timeout: float | None
    ) -> list[Any]:
        """Run each unique request once; duplicates share its result."""
        t_batch = time.perf_counter()
        keys = [jobs.key(req) for req in reqs]
        first_of: dict[str, int] = {}
        tasks: dict[int, asyncio.Task] = {}
        for i, (req, key) in enumerate(zip(reqs, keys)):
            digest = jobs.digest(key)
            if digest not in first_of:
                first_of[digest] = i
                tasks[i] = asyncio.ensure_future(
                    self._run_one(jobs, req, i, timeout, key)
                )
        try:
            unique = await asyncio.gather(*tasks.values())
        except BaseException:
            for task in tasks.values():
                task.cancel()
            raise
        by_index = dict(zip(tasks, unique))
        results: list[Any] = []
        for i, key in enumerate(keys):
            orig = by_index[first_of[jobs.digest(key)]]
            if orig.index == i:
                results.append(orig)
                continue
            dup = _as_dedup(orig, i)
            results.append(dup)
            self.telemetry.incr("aio_requests")
            self.telemetry.incr(f"aio_source_{dup.source}")
        self.telemetry.incr(jobs.batches)
        self.telemetry.observe(jobs.batch, time.perf_counter() - t_batch)
        return results

    async def _run_one(
        self,
        jobs: _Jobs,
        req: Any,
        index: int,
        timeout: float | None,
        key: Any = None,
    ) -> Any:
        """One request: fair slot, cache, single-flight compute, telemetry."""
        if timeout is None:
            timeout = self.default_timeout
        async with self._slot(estimate_cost(req.graph.n_vertices)):
            if key is None:
                key = jobs.key(req)
            with span("cache.get") as csp:
                value = await _cache_call(jobs.cache, jobs.get, req, key)
                csp.set("hit", value is not None)
            if value is not None:
                result = jobs.result(index, key, req.router, value, 0.0, "cache")
            else:
                result = await self._single_flight(jobs, req, key, index, timeout)
        self.telemetry.incr("aio_requests")
        self.telemetry.incr(f"aio_source_{result.source}")
        if result.source == "computed":
            self.telemetry.observe(jobs.latency, result.seconds)
        return result

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

    async def _single_flight(
        self,
        jobs: _Jobs,
        req: Any,
        key: Any,
        index: int,
        timeout: float | None,
    ) -> Any:
        """Compute a miss, coalescing concurrent identical requests.

        The first caller for a digest computes and publishes its result
        on an in-flight future; concurrent callers for the same digest
        await that future instead of racing a redundant computation
        (they report ``source == "dedup"``, like in-batch duplicates).
        A follower computes for itself when the leader cannot speak for
        it: the leader was cancelled, or the leader's own timeout
        budget expired (this follower may have a longer one).
        """
        digest = jobs.digest(key)
        leader_fut = self._inflight.get(digest)
        if leader_fut is None:
            fut: asyncio.Future = asyncio.get_running_loop().create_future()
            self._inflight[digest] = fut
            try:
                result = await self._compute(jobs, req, key, index, timeout)
                fut.set_result(result)
                return result
            finally:
                if self._inflight.get(digest) is fut:
                    del self._inflight[digest]
                if not fut.done():
                    fut.cancel()  # leader failed: wake followers to retry
        try:
            orig = await asyncio.wait_for(asyncio.shield(leader_fut), timeout)
        except asyncio.TimeoutError:
            self.telemetry.incr("aio_timeouts")
            message = f"TimeoutError: request exceeded {timeout}s"
            return jobs.result(index, key, req.router, None, 0.0, "error", message)
        except asyncio.CancelledError:
            if not leader_fut.cancelled():
                raise  # this follower was cancelled, not the leader
            return await self._compute(jobs, req, key, index, timeout)
        if not orig.ok and orig.error and orig.error.startswith("TimeoutError"):
            # The leader ran out of *its* budget — not a property of the
            # instance. Compute under this request's own timeout.
            return await self._compute(jobs, req, key, index, timeout)
        self.telemetry.incr("aio_coalesced")
        return _as_dedup(orig, index)

    async def _compute(
        self,
        jobs: _Jobs,
        req: Any,
        key: Any,
        index: int,
        timeout: float | None,
    ) -> Any:
        """Compute one miss on the workers, then cache its value."""
        t0 = time.perf_counter()
        try:
            with span("compute", router=req.router) as csp:
                raw = await self._await_job(
                    jobs.worker,
                    jobs.payload(req, key),
                    timeout,
                    salvage=functools.partial(self._salvage, jobs, key),
                )
                _digest, status, body, seconds, stages = raw
                csp.set("status", status)
                if status == "ok":
                    record_stage_spans(stages)
                    # Aggregated on /metrics as
                    # repro_stage_seconds{router=...,stage=...}.
                    for stage, info in stages.items():
                        name = f"stage.{req.router}.{stage}"
                        self.telemetry.observe(name, float(info.get("seconds", 0.0)))
                    jobs.computed(body)
        except asyncio.TimeoutError:
            self.telemetry.incr("aio_timeouts")
            elapsed = time.perf_counter() - t0
            message = f"TimeoutError: request exceeded {timeout}s"
            return jobs.result(index, key, req.router, None, elapsed, "error", message)
        except ServiceClosedError:
            raise
        except Exception as exc:  # noqa: BLE001 - pool died twice; isolate
            elapsed = time.perf_counter() - t0
            message = f"{type(exc).__name__}: {exc}"
            return jobs.result(index, key, req.router, None, elapsed, "error", message)
        if status != "ok":
            error = str(body)
            return jobs.result(index, key, req.router, None, seconds, "error", error)
        try:
            value = jobs.value(body)
        except Exception as exc:  # noqa: BLE001 - isolate per request
            message = f"{type(exc).__name__}: {exc}"
            return jobs.result(index, key, req.router, None, seconds, "error", message)
        with span("cache.put"):
            await _cache_call(jobs.cache, jobs.put, key, value, seconds)
        return jobs.result(index, key, req.router, value, seconds, "computed")

    def _salvage(self, jobs: _Jobs, key: Any, future: Any) -> None:
        """Done-callback caching the result of a timed-out job.

        Runs on an executor thread after the abandoned job finishes —
        the caches and telemetry are thread-safe, so the work a client
        gave up on still warms the cache for the next one. A route
        worker verified its schedule before returning it.
        """
        try:
            _digest, status, body, seconds, _stages = future.result()
            if status == "ok":
                jobs.put(key, jobs.value(body), seconds)
                self.telemetry.incr("aio_salvaged")
        except Exception:  # noqa: BLE001 - salvage is best-effort
            pass

    async def _await_job(
        self,
        fn: Any,
        payload: Any,
        timeout: float | None,
        salvage: Any = None,
    ) -> Any:
        """Ship one payload to the executor and await its future.

        A pool that dies at await time (e.g. a worker OOM-killed
        mid-request) is reset and the payload retried once — on the
        respawned pool or the compute thread — instead of turning every
        in-flight request into an error result. The retry runs on the
        *remaining* timeout budget, so the per-request deadline holds
        across the recovery.
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
