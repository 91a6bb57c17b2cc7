"""Multi-tenant admission control and weighted-fair scheduling.

The request pipeline (:mod:`repro.service.pipeline`) needs a notion of
*who* is calling before it can protect the service from overload: mixed
routing workloads have wildly heterogeneous per-request cost (grid size
swings compute by orders of magnitude), so one abusive tenant
submitting large-grid requests can starve everyone if admission is
blind. This module owns everything tenant-shaped:

* :class:`Tenant` — one caller's identity and policy (API key, WFQ
  ``weight``, token-bucket ``rate``/``burst``, ``max_inflight`` /
  ``max_queued`` quotas).
* :class:`TenantRegistry` — API-key → tenant resolution with a
  pluggable ``auth_hook``, the per-tenant token buckets, and the
  per-tenant outcome counters surfaced under ``stats()["tenancy"]``.
  An *open* registry (no tenants configured) admits everything as the
  ``default`` tenant, so single-user deployments pay nothing.
* :class:`TokenBucket` — a monotonic-clock token bucket whose refusals
  carry a ``retry_after`` hint (the pipeline turns it into the stable
  ``rate_limited`` code / HTTP 429 ``Retry-After``).
* :class:`FairScheduler` — start-time fair queueing (SFQ) over the
  worker pool: each request is tagged with a virtual start/finish time
  (``cost / weight``), the waiter with the minimum start tag runs next,
  and a tenant's share of the pool converges to its weight share
  regardless of how fast it submits. This replaces the plain
  semaphore-plus-FIFO the async facade used to run.

Request cost is grid size, normalized by :func:`estimate_cost` so the
WFQ tags and token-bucket charges reflect compute weight, not request
count.

See ``docs/OPERATIONS.md`` ("Tenancy and overload") for the tenants
file format and the operational knobs.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, AsyncIterator, Callable, Iterable, Mapping

from ..errors import AuthenticationError, ReproError
from .telemetry import Telemetry
from .tracing import span

__all__ = [
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
    "FairScheduler",
    "estimate_cost",
    "estimate_doc_cost",
    "parse_tenants_doc",
    "load_tenants_file",
    "current_tenant",
    "bind_tenant",
]

#: Reference grid size (4x4) whose route costs exactly 1.0 unit; all
#: WFQ tags and token-bucket charges are multiples of this.
_REFERENCE_VERTICES = 16


def estimate_cost(n_vertices: int) -> float:
    """Relative compute-cost estimate for one request on ``n_vertices``.

    Grid routing does ``O(n)`` work per layer over ``O(sqrt(n))``-deep
    schedules, so cost scales ~``n**1.5``; the value is normalized so a
    4x4 grid (16 vertices) costs ``1.0``. It is the weighted-fair-
    queueing tag and the token-bucket charge.
    """
    n = max(1, int(n_vertices))
    return (n / _REFERENCE_VERTICES) ** 1.5


def estimate_doc_cost(doc: Mapping[str, Any]) -> float:
    """Cost estimate for a raw request document (pre-validation).

    Reads ``rows``/``cols`` leniently — a malformed document costs the
    reference ``1.0`` (it will be rejected by validation anyway, and
    admission must never raise on garbage).
    """
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
        if rows <= 0 or cols <= 0:
            return 1.0
    except (KeyError, TypeError, ValueError):
        return 1.0
    return estimate_cost(rows * cols)


@dataclass(frozen=True)
class Tenant:
    """One caller's identity and resource policy.

    ``None`` for any limit field means unlimited. ``weight`` is the
    tenant's relative share of the worker pool under contention (the
    WFQ weight); ``rate``/``burst`` parameterize the token bucket in
    cost units per second (see :func:`estimate_cost` — a 4x4 route
    costs 1.0).
    """

    #: Stable tenant name (telemetry label, span attribute, log field).
    name: str
    #: API key identifying this tenant; ``None`` for keyless tenants
    #: (the anonymous/default tenants).
    key: str | None = None
    #: Relative weighted-fair-queueing share (> 0).
    weight: float = 1.0
    #: Sustained admission rate in cost units/second (``None`` = unlimited).
    rate: float | None = None
    #: Token-bucket burst capacity in cost units (default ``2 * rate``).
    burst: float | None = None
    #: Maximum concurrently executing requests (``None`` = unlimited).
    max_inflight: int | None = None
    #: Maximum queued (admitted, not yet executing) requests.
    max_queued: int | None = None

    def __post_init__(self) -> None:
        """Validate the policy fields (raises :class:`ReproError`)."""
        if not self.name or not isinstance(self.name, str):
            raise ReproError("tenant 'name' must be a non-empty string")
        if self.weight <= 0:
            raise ReproError(
                f"tenant {self.name!r}: 'weight' must be positive, got {self.weight}"
            )
        if self.rate is not None and self.rate <= 0:
            raise ReproError(
                f"tenant {self.name!r}: 'rate' must be positive, got {self.rate}"
            )
        if self.burst is not None and self.burst <= 0:
            raise ReproError(
                f"tenant {self.name!r}: 'burst' must be positive, got {self.burst}"
            )
        if self.max_inflight is not None and self.max_inflight <= 0:
            raise ReproError(
                f"tenant {self.name!r}: 'max_inflight' must be positive"
            )
        if self.max_queued is not None and self.max_queued < 0:
            raise ReproError(f"tenant {self.name!r}: 'max_queued' must be >= 0")


#: The implicit tenant of an open (un-configured) registry and of
#: in-process library callers that never went through the pipeline.
DEFAULT_TENANT = Tenant("default")

#: The tenant under which exempt ops (introspection, the cluster cache
#: protocol, topology administration) execute — never rate limited, so
#: health probes and peer traffic cannot be starved by tenant policy.
SYSTEM_TENANT = Tenant("system")


class TokenBucket:
    """A thread-safe token bucket over the monotonic clock.

    Tokens refill continuously at ``rate`` per second up to ``burst``.
    :meth:`acquire` is all-or-nothing and never blocks: it either
    debits the requested amount or answers with a ``retry_after`` hint.
    """

    def __init__(self, rate: float, burst: float | None = None) -> None:
        if rate <= 0:
            raise ReproError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else 2.0 * self.rate
        if self.burst <= 0:
            raise ReproError(f"burst must be positive, got {burst}")
        self._tokens = self.burst
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        self._tokens = min(
            self.burst, self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    def acquire(self, amount: float = 1.0) -> float | None:
        """Debit ``amount`` tokens; ``None`` on success, else retry-after.

        A refusal debits nothing. The returned hint is the time until
        ``amount`` tokens will have refilled (capped below by 10 ms so
        clients never busy-spin on a zero).
        """
        amount = max(0.0, float(amount))
        with self._lock:
            now = time.monotonic()
            self._refill(now)
            if self._tokens >= amount:
                self._tokens -= amount
                return None
            needed = min(amount, self.burst) - self._tokens
            return max(0.01, needed / self.rate)

    def peek(self) -> float:
        """Current token balance (after refill; for stats only)."""
        with self._lock:
            self._refill(time.monotonic())
            return self._tokens


_CURRENT_TENANT: ContextVar[Tenant | None] = ContextVar(
    "repro_current_tenant", default=None
)


def current_tenant() -> Tenant | None:
    """The tenant bound to the current context (``None`` outside one).

    Set by the request pipeline around the execute stage; read by
    :class:`~repro.service.aio.AsyncRoutingService` when it acquires a
    scheduler slot, so tenancy flows through the async facade without
    threading a parameter through every call.
    """
    return _CURRENT_TENANT.get()


class bind_tenant:
    """Context manager binding a :class:`Tenant` to the current context.

    >>> with bind_tenant(Tenant("acme")):
    ...     current_tenant().name
    'acme'
    """

    __slots__ = ("_tenant", "_token")

    def __init__(self, tenant: Tenant) -> None:
        self._tenant = tenant

    def __enter__(self) -> Tenant:
        self._token = _CURRENT_TENANT.set(self._tenant)
        return self._tenant

    def __exit__(self, *exc_info: object) -> None:
        _CURRENT_TENANT.reset(self._token)


#: Pluggable authentication hook: ``hook(api_key) -> Tenant | None``.
#: Consulted before the static key table; returning ``None`` falls
#: through to it (so a hook can extend, not just replace, the file).
AuthHook = Callable[[str | None], "Tenant | None"]

#: Per-tenant outcome counters tracked by the registry.
_OUTCOMES = ("admitted", "throttled", "shed", "unauthorized")


class TenantRegistry:
    """API-key → :class:`Tenant` resolution plus per-tenant runtime state.

    Three modes:

    * **Open** (no tenants configured, the default): every request —
      keyed or keyless — resolves to :data:`DEFAULT_TENANT` with no
      limits. Single-user deployments and the test suite run here.
    * **Enforced** (tenants configured): a work request must carry a
      known API key; a keyless request is refused with
      :class:`~repro.errors.AuthenticationError` unless an
      ``anonymous`` tenant is configured, in which case keyless work
      runs under it (with its quotas).
    * **Hooked**: an ``auth_hook`` callable is consulted first for
      every key — the seam for external identity systems (JWT
      validation, a secrets service). Returning ``None`` falls through
      to the static table.
    """

    def __init__(
        self,
        tenants: Iterable[Tenant] = (),
        *,
        anonymous: Tenant | None = None,
        auth_hook: AuthHook | None = None,
    ) -> None:
        self._by_key: dict[str, Tenant] = {}
        self._by_name: dict[str, Tenant] = {}
        for tenant in tenants:
            if tenant.key is None:
                raise ReproError(
                    f"tenant {tenant.name!r} has no API key; keyless access "
                    "is configured via the 'anonymous' entry"
                )
            if tenant.key in self._by_key:
                raise ReproError(
                    f"duplicate API key for tenant {tenant.name!r}"
                )
            if tenant.name in self._by_name:
                raise ReproError(f"duplicate tenant name {tenant.name!r}")
            self._by_key[tenant.key] = tenant
            self._by_name[tenant.name] = tenant
        self.anonymous = anonymous
        if anonymous is not None:
            self._by_name.setdefault(anonymous.name, anonymous)
        self.auth_hook = auth_hook
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self._outcomes: dict[str, dict[str, int]] = {}

    @property
    def enforced(self) -> bool:
        """Whether API keys are required for work requests."""
        return bool(self._by_key) or self.anonymous is not None

    @property
    def default_tenant(self) -> Tenant:
        """The tenant for in-process callers that bypass the pipeline."""
        return DEFAULT_TENANT

    def tenants(self) -> list[Tenant]:
        """Every configured tenant (including the anonymous one)."""
        return list(self._by_name.values())

    def authenticate(self, api_key: str | None) -> Tenant:
        """Resolve an API key to a tenant.

        The ``auth_hook`` is consulted first; then the static key
        table; a keyless request falls back to the anonymous tenant
        (enforced mode) or the default tenant (open mode).

        Raises
        ------
        AuthenticationError
            In enforced mode, for an unknown key or a keyless request
            with no anonymous tenant configured.
        """
        if self.auth_hook is not None:
            tenant = self.auth_hook(api_key)
            if tenant is not None:
                return tenant
        if not self.enforced:
            return DEFAULT_TENANT
        if api_key is None:
            if self.anonymous is not None:
                return self.anonymous
            raise AuthenticationError(
                "an API key is required (no anonymous tenant is configured)"
            )
        tenant = self._by_key.get(api_key)
        if tenant is None:
            raise AuthenticationError("unknown API key")
        return tenant

    def throttle(self, tenant: Tenant, cost: float) -> float | None:
        """Charge ``cost`` units to the tenant's token bucket.

        ``None`` means admitted; a float is the suggested retry-after
        in seconds. Tenants without a ``rate`` are never throttled.
        """
        if tenant.rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(tenant.name)
            if bucket is None:
                bucket = self._buckets[tenant.name] = TokenBucket(
                    tenant.rate, tenant.burst
                )
        return bucket.acquire(cost)

    def note(self, tenant_name: str, outcome: str) -> None:
        """Count one admission outcome for a tenant (for ``stats()``).

        ``outcome`` is one of ``admitted`` / ``throttled`` / ``shed`` /
        ``unauthorized``.
        """
        with self._lock:
            counters = self._outcomes.setdefault(
                tenant_name, dict.fromkeys(_OUTCOMES, 0)
            )
            counters[outcome] = counters.get(outcome, 0) + 1

    def stats(self) -> dict[str, Any]:
        """Per-tenant configuration and outcome counters, JSON-ready."""
        with self._lock:
            outcomes = {name: dict(c) for name, c in self._outcomes.items()}
            balances = {
                name: bucket.peek() for name, bucket in self._buckets.items()
            }
        tenants: dict[str, Any] = {}
        names = set(self._by_name) | set(outcomes)
        for name in sorted(names):
            tenant = self._by_name.get(name)
            doc: dict[str, Any] = dict.fromkeys(_OUTCOMES, 0)
            doc.update(outcomes.get(name, {}))
            if tenant is not None:
                doc["weight"] = tenant.weight
                doc["rate"] = tenant.rate
                if name in balances:
                    doc["tokens"] = balances[name]
            tenants[name] = doc
        return {
            "enforced": self.enforced,
            "anonymous": self.anonymous.name if self.anonymous else None,
            "tenants": tenants,
        }


def _tenant_from_doc(doc: Mapping[str, Any], *, require_key: bool) -> Tenant:
    """Build one :class:`Tenant` from a tenants-file entry."""
    if not isinstance(doc, Mapping):
        raise ReproError("each tenant entry must be a JSON object")
    unknown = set(doc) - {
        "name", "key", "weight", "rate", "burst", "max_inflight", "max_queued",
    }
    if unknown:
        raise ReproError(f"unknown tenant field(s): {sorted(unknown)}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ReproError("tenant 'name' must be a non-empty string")
    key = doc.get("key")
    if require_key and (not isinstance(key, str) or not key):
        raise ReproError(f"tenant {name!r}: 'key' must be a non-empty string")
    try:
        return Tenant(
            name=name,
            key=key if isinstance(key, str) and key else None,
            weight=float(doc.get("weight", 1.0)),
            rate=float(doc["rate"]) if doc.get("rate") is not None else None,
            burst=float(doc["burst"]) if doc.get("burst") is not None else None,
            max_inflight=(
                int(doc["max_inflight"])
                if doc.get("max_inflight") is not None
                else None
            ),
            max_queued=(
                int(doc["max_queued"])
                if doc.get("max_queued") is not None
                else None
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ReproError(f"tenant {name!r}: bad field value: {exc}") from None


def parse_tenants_doc(doc: Mapping[str, Any]) -> TenantRegistry:
    """Build a :class:`TenantRegistry` from a tenants-file document.

    Expected shape (see ``docs/OPERATIONS.md`` for the field table)::

        {"tenants": [{"name": "acme", "key": "ak_1", "weight": 4,
                      "rate": 50, "burst": 100,
                      "max_inflight": 32, "max_queued": 128}, ...],
         "anonymous": {"name": "anonymous", "rate": 5}}

    ``anonymous`` is optional; without it, keyless work requests are
    refused (``unauthorized`` / HTTP 401) once any tenant is
    configured.

    Raises
    ------
    ReproError
        On any malformed entry — a daemon must fail its start loudly
        rather than come up with a half-parsed policy.
    """
    if not isinstance(doc, Mapping):
        raise ReproError("tenants document must be a JSON object")
    entries = doc.get("tenants", [])
    if not isinstance(entries, list):
        raise ReproError("'tenants' must be a JSON array")
    tenants = [_tenant_from_doc(entry, require_key=True) for entry in entries]
    anonymous = None
    if doc.get("anonymous") is not None:
        anon_doc = doc["anonymous"]
        if not isinstance(anon_doc, Mapping):
            raise ReproError("'anonymous' must be a JSON object")
        anonymous = _tenant_from_doc(
            {"name": "anonymous", **anon_doc}, require_key=False
        )
    return TenantRegistry(tenants, anonymous=anonymous)


def load_tenants_file(path: str) -> TenantRegistry:
    """Read and parse a tenants JSON file (see :func:`parse_tenants_doc`).

    Raises
    ------
    ReproError
        If the file cannot be read or parsed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ReproError(f"cannot read tenants file {path}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"tenants file {path} is not valid JSON: {exc}") from exc
    return parse_tenants_doc(doc)


class _Waiter:
    """One queued acquisition: the future plus its SFQ tags."""

    __slots__ = ("future", "tenant", "start", "finish")

    def __init__(
        self,
        future: "asyncio.Future[None]",
        tenant: Tenant,
        start: float,
        finish: float,
    ) -> None:
        self.future = future
        self.tenant = tenant
        self.start = start
        self.finish = finish


class FairScheduler:
    """Start-time fair queueing (SFQ) over a bounded worker pool.

    Replaces the semaphore-plus-FIFO the async facade used: each
    acquisition is tagged with a virtual start time ``S = max(V, F_t)``
    and finish time ``F = S + cost / weight`` (``V`` the global virtual
    time, ``F_t`` the tenant's last finish tag); when a slot frees, the
    queued waiter with the minimum start tag runs. Under contention
    each tenant's share of the pool therefore converges to its weight
    share *in cost units* — a tenant spamming large grids gets the same
    compute share as one sending small ones, not the same request rate.

    Single-event-loop discipline (like the semaphore it replaces): all
    acquire/release calls happen on the service's loop. State resets
    when the loop changes, which is only safe while idle — the only
    state a dead loop can leave behind.

    ``max_queue_depth`` is the global bound the pipeline's admit stage
    sheds against; the scheduler itself never refuses work that was
    already admitted.
    """

    def __init__(
        self,
        max_concurrency: int,
        *,
        max_queue_depth: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_concurrency <= 0:
            raise ValueError(
                f"max_concurrency must be positive, got {max_concurrency}"
            )
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        self.max_concurrency = max_concurrency
        self.max_queue_depth = max_queue_depth
        self._telemetry = telemetry
        self._loop: asyncio.AbstractEventLoop | None = None
        self._vtime = 0.0
        self._last_finish: dict[str, float] = {}
        self._queues: dict[str, deque[_Waiter]] = {}
        self._inflight_total = 0
        self._inflight: dict[str, int] = {}
        self._granted: dict[str, int] = {}
        self._queued_total = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Requests admitted but not yet granted a slot."""
        return self._queued_total

    @property
    def inflight(self) -> int:
        """Requests currently holding a slot."""
        return self._inflight_total

    def queued_for(self, tenant_name: str) -> int:
        """Queue depth of one tenant."""
        queue = self._queues.get(tenant_name)
        return len(queue) if queue else 0

    def stats(self) -> dict[str, Any]:
        """Scheduler occupancy and per-tenant shares, JSON-ready."""
        tenants = {
            name: {
                "inflight": self._inflight.get(name, 0),
                "queued": self.queued_for(name),
                "granted": self._granted.get(name, 0),
            }
            for name in sorted(
                set(self._inflight) | set(self._queues) | set(self._granted)
            )
        }
        return {
            "max_concurrency": self.max_concurrency,
            "max_queue_depth": self.max_queue_depth,
            "inflight": self._inflight_total,
            "queued": self._queued_total,
            "virtual_time": self._vtime,
            "tenants": tenants,
        }

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------
    def _check_loop(self) -> None:
        """Reset runtime state when the event loop changed (idle only)."""
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._loop = loop
            self._vtime = 0.0
            self._last_finish.clear()
            self._queues.clear()
            self._inflight_total = 0
            self._inflight.clear()
            self._queued_total = 0

    def _set_tenant_gauges(self, name: str) -> None:
        if self._telemetry is not None:
            labels = {"tenant": name}
            self._telemetry.set_gauge(
                "tenant_queue_depth", self.queued_for(name), labels=labels
            )
            self._telemetry.set_gauge(
                "tenant_inflight", self._inflight.get(name, 0), labels=labels
            )

    def _grant(self, waiter: _Waiter) -> None:
        """Move one waiter from queued to inflight (bookkeeping only)."""
        name = waiter.tenant.name
        self._vtime = max(self._vtime, waiter.start)
        self._inflight_total += 1
        self._inflight[name] = self._inflight.get(name, 0) + 1
        self._granted[name] = self._granted.get(name, 0) + 1
        if self._telemetry is not None:
            self._telemetry.incr("aio_inflight")
        waiter.future.set_result(None)

    def _release_counts(self, name: str) -> None:
        self._inflight_total -= 1
        self._inflight[name] = self._inflight.get(name, 1) - 1
        if self._telemetry is not None:
            self._telemetry.incr("aio_inflight", -1)
        self._set_tenant_gauges(name)

    def _eligible_head(self) -> _Waiter | None:
        """The queued waiter to run next: minimum start tag among heads.

        Skips tenants at their ``max_inflight`` quota and discards
        cancelled waiters encountered at queue heads.
        """
        best: _Waiter | None = None
        best_key: tuple[float, float, str] | None = None
        for name, queue in self._queues.items():
            while queue and queue[0].future.cancelled():
                queue.popleft()
                self._queued_total -= 1
            if not queue:
                continue
            head = queue[0]
            cap = head.tenant.max_inflight
            if cap is not None and self._inflight.get(name, 0) >= cap:
                continue
            key = (head.start, head.finish, name)
            if best_key is None or key < best_key:
                best, best_key = head, key
        if best is not None:
            queue = self._queues[best.tenant.name]
            queue.popleft()
            self._queued_total -= 1
        return best

    def _pump(self) -> None:
        """Grant slots to eligible waiters while capacity remains."""
        while self._inflight_total < self.max_concurrency:
            waiter = self._eligible_head()
            if waiter is None:
                return
            self._grant(waiter)
            self._set_tenant_gauges(waiter.tenant.name)

    def _discard(self, waiter: _Waiter) -> None:
        """Remove a cancelled waiter that is still queued."""
        queue = self._queues.get(waiter.tenant.name)
        if queue is not None:
            try:
                queue.remove(waiter)
            except ValueError:
                return  # already popped (granted or head-discarded)
            self._queued_total -= 1

    async def acquire(self, tenant: Tenant, cost: float = 1.0) -> None:
        """Wait for a slot under the tenant's weight and quotas.

        Tags the request with its SFQ virtual times, queues it, and
        waits under a ``pipeline.enqueue`` trace span (the pipeline's
        enqueue stage). Cancellation is clean: a cancelled waiter is
        removed from the queue, and a waiter cancelled *after* its
        grant releases the slot before re-raising.
        """
        self._check_loop()
        loop = asyncio.get_running_loop()
        name = tenant.name
        cost = max(1e-6, float(cost))
        start = max(self._vtime, self._last_finish.get(name, 0.0))
        finish = start + cost / tenant.weight
        self._last_finish[name] = finish
        waiter = _Waiter(loop.create_future(), tenant, start, finish)
        self._queues.setdefault(name, deque()).append(waiter)
        self._queued_total += 1
        self._pump()
        tel = self._telemetry
        if tel is not None:
            tel.incr("aio_queue_depth")
        self._set_tenant_gauges(name)
        t0 = time.perf_counter()
        try:
            with span("pipeline.enqueue", tenant=name):
                if not waiter.future.done():
                    await waiter.future
        except asyncio.CancelledError:
            if waiter.future.cancelled() or not waiter.future.done():
                waiter.future.cancel()
                self._discard(waiter)
            else:
                # Granted, then cancelled before resuming: give the
                # slot back so it is never leaked.
                self._release_counts(name)
                self._pump()
            raise
        finally:
            if tel is not None:
                tel.incr("aio_queue_depth", -1)
                tel.observe("pipeline.enqueue", time.perf_counter() - t0)
            self._set_tenant_gauges(name)

    def release(self, tenant: Tenant) -> None:
        """Return a slot and wake the next eligible waiter."""
        self._release_counts(tenant.name)
        self._pump()

    @contextlib.asynccontextmanager
    async def slot(self, tenant: Tenant, cost: float = 1.0) -> AsyncIterator[None]:
        """Async context manager pairing :meth:`acquire`/:meth:`release`."""
        await self.acquire(tenant, cost)
        try:
            yield
        finally:
            self.release(tenant)
