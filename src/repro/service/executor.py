"""Requests, results and the worker pool they are computed on.

:class:`RouteRequest` and :class:`RouteResult` are the routing job
kind's request and result types. :class:`BatchExecutor` owns where a
miss is computed: a persistent ``concurrent.futures`` process pool when
``max_workers`` allows more than one worker, one compute thread
otherwise. The request lifecycle around it — dedup, cache,
single-flight, timeouts, salvage — lives in
:mod:`repro.service.aio`, which submits one job per miss with
:meth:`BatchExecutor.submit_job`.

Workers receive graph *specs* (not pickled graph objects), verify the
schedule against the request, and return binary
:mod:`repro.routing.codec` frames instead of nested layer lists, so
crossing the pool boundary costs a few buffer copies rather than a
per-swap pickle walk; the parent decodes straight into the flat-array
schedule representation. A worker never raises: a failing instance
comes back as an error tuple, which is what keeps one bad request from
poisoning the others.

Lifecycle: :meth:`BatchExecutor.close` is terminal and idempotent —
concurrent callers all observe a single shutdown, and any submission
after close raises :class:`~repro.errors.ServiceClosedError` instead of
resurrecting the pool or surfacing a raw ``BrokenProcessPool``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import ServiceClosedError
from ..graphs.base import Graph
from ..perm.permutation import Permutation
from ..routing.base import StageProfiler, make_router, profile
from ..routing.codec import decode_schedule, encode_schedule
from ..routing.schedule import Schedule
from .keys import RequestKey, graph_from_spec, request_key
from .telemetry import Telemetry
from .tracing import span

__all__ = ["RouteRequest", "RouteResult", "BatchExecutor"]


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
    (routed for this request), ``"cache"`` (served from the schedule
    cache), ``"dedup"`` (shared with an identical request earlier in the
    batch, or with a concurrent identical request), or ``"error"``
    (routing failed; see ``error``, ``schedule is None``).
    """

    index: int
    key: RequestKey
    router: str
    schedule: Schedule | None
    seconds: float
    source: str
    error: str | None = None

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
    """The worker pool misses are computed on.

    Parameters
    ----------
    max_workers:
        Process-pool size. ``0`` or ``1`` computes on one thread in this
        process (no pool, no pickling); ``None`` uses ``os.cpu_count()``.
    telemetry:
        Optional :class:`~repro.service.telemetry.Telemetry` receiving
        the ``pool_failures`` counter.
    """

    def __init__(
        self,
        max_workers: int | None = 1,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be >= 0, got {max_workers}")
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
        """The compute thread :meth:`submit_job` uses when not parallel.

        One thread: routing is GIL-bound Python, so more threads only
        interleave the same work and slow every request down.
        """
        with self._pool_lock:
            self._ensure_open()
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-exec"
                )
            return self._threads

    def reset_pool(self) -> None:
        """Tear down a broken pool so the next job respawns it.

        Recovery, not shutdown: unlike :meth:`close` this is not
        terminal. Used internally (and by the async lifecycle) after a
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

    def submit_job(self, fn: Callable[[Any], Any], payload: Any) -> Future:
        """Submit one payload, returning its ``concurrent.futures.Future``.

        Built for the async lifecycle, which wraps the future with
        ``asyncio.wrap_future``. Parallel executors use the process pool
        (falling back to the compute thread if the pool is broken);
        inline executors run ``fn`` on the compute thread so the
        caller's event loop never blocks. ``fn`` must encode failures in
        its return value, and must pickle by reference (a module-level
        function) when the executor is parallel.

        Raises
        ------
        ServiceClosedError
            If the executor has been closed.
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

