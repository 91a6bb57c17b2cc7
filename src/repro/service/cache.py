"""Thread-safe LRU caches for the routing service.

Two tiers:

* :class:`LRUCache` — an in-memory, thread-safe LRU mapping digests to
  arbitrary values, with hit/miss/eviction counters. Used directly for
  transpile outcomes (which hold circuit objects).
* :class:`ScheduleCache` — an :class:`LRUCache` of
  :class:`~repro.routing.schedule.Schedule` values with an optional
  persistent on-disk tier and a cost threshold for admission. Disk
  entries are binary :mod:`repro.routing.codec` frames
  (``<disk_dir>/<digest>.rsc``), one file per digest in one flat
  directory, so a warm cache survives process restarts and can be
  shipped between machines. Files in any other format or location
  (such as the ``shard-<i>/`` subdirectories of older releases) are
  never read.

Verification: :meth:`ScheduleCache.get` takes the request's verifier
(``check``). A schedule loaded from disk, and a memory entry stored
without its request (a peer's ``cache_put``, see ``unverified`` on
:meth:`ScheduleCache.put`), is checked before it is served; one that
fails is dropped, counted in :attr:`ScheduleCache.rejected` and
reported as a miss. Entries computed or checked in this process are
served with no further work.

Concurrency notes: all state is guarded by one ``RLock`` per cache.
Disk writes go through a temp-file + ``os.replace`` so a crashed writer
never leaves a truncated entry; corrupt or unreadable disk entries are
treated as misses (and deleted) rather than raised.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from ..errors import ScheduleError
from ..routing.codec import decode_schedule, encode_schedule
from ..routing.schedule import Schedule
from .tracing import span

__all__ = ["CacheStats", "Check", "INGEST_SOURCES", "LRUCache", "ScheduleCache"]

#: A request's verifier: raises :class:`~repro.errors.ScheduleError`
#: unless the schedule validly routes the request
#: (:meth:`~repro.service.executor.RouteRequest.check`).
Check = Callable[[Schedule], None]

#: Where a checked schedule can enter the cache from; rejections are
#: counted per source in :attr:`ScheduleCache.rejected`.
INGEST_SOURCES = ("disk", "remote", "pushed")


@dataclass
class CacheStats:
    """Counters for one cache instance (monotonic since construction)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    disk_errors: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from any tier (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Counters plus derived rates, JSON-ready."""
        d = asdict(self)
        d["lookups"] = self.lookups
        d["hit_rate"] = self.hit_rate
        return d


class LRUCache:
    """A bounded, thread-safe, least-recently-used mapping.

    Parameters
    ----------
    maxsize:
        Maximum number of entries kept in memory; least recently *used*
        entries are evicted first. Must be positive.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = int(maxsize)
        self._lock = threading.RLock()
        self._data: OrderedDict[str, Any] = OrderedDict()
        self.stats = CacheStats()

    def get(self, digest: str) -> Any | None:
        """The cached value, or ``None`` on a miss (marks the entry used)."""
        with self._lock:
            try:
                value = self._data[digest]
            except KeyError:
                self.stats.misses += 1
                return None
            self._data.move_to_end(digest)
            self.stats.hits += 1
            return value

    def put(self, digest: str, value: Any, cost: float | None = None) -> None:
        """Insert/refresh an entry, evicting the LRU tail if over capacity.

        ``cost`` (seconds spent computing the value) is an admission
        hint: ignored here, compared with ``min_cost`` by
        :class:`ScheduleCache`. Accepted everywhere so callers can pass
        it unconditionally.
        """
        with self._lock:
            self.stats.puts += 1
            self._insert(digest, value)

    def _insert(self, digest: str, value: Any) -> None:
        """Insert/refresh without counting a put (caller holds the lock)."""
        if digest in self._data:
            self._data.move_to_end(digest)
        self._data[digest] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> Iterator[str]:
        """Snapshot of the digests, LRU first."""
        with self._lock:
            return iter(list(self._data))

    def discard(self, digest: str) -> bool:
        """Remove one entry if present; returns whether it was held.

        A deliberate removal (key-space handoff re-homed the entry), so
        it does **not** count as an ``evictions`` — that counter means
        "capacity pressure pushed something out".
        """
        with self._lock:
            return self._data.pop(digest, None) is not None

    def clear(self) -> None:
        """Drop every in-memory entry (stats are kept)."""
        with self._lock:
            self._data.clear()

    def as_dict(self) -> dict[str, Any]:
        """Counters plus capacity and occupancy, JSON-ready.

        The one stats-document shape every cache flavour extends
        (schedule caches add admission and disk fields, cluster caches
        a ``cluster`` section), so the service stats, the peer
        ``cache_stats`` op and telemetry all agree on the base fields.
        """
        return {
            **self.stats.as_dict(),
            "entries": len(self),
            "maxsize": self.maxsize,
        }


class _Unchecked(NamedTuple):
    """A memory entry stored without its request, checked on first read."""

    schedule: Schedule
    source: str  # one of INGEST_SOURCES


class ScheduleCache(LRUCache):
    """Schedule cache with an optional persistent disk tier.

    Parameters
    ----------
    maxsize:
        In-memory entry bound (see :class:`LRUCache`).
    disk_dir:
        Directory for the persistent tier (created on demand). ``None``
        disables persistence. Each entry is ``<digest>.rsc`` holding a
        binary :func:`~repro.routing.codec.encode_schedule` frame.
    min_cost:
        Admission threshold in seconds: a ``put`` whose ``cost`` hint
        is below it is not stored (recomputing such a schedule is
        cheaper than the space it would take) and counts in
        :attr:`rejected_puts`. A ``put`` without a cost is always
        admitted, so an unmeasured schedule never silently disables
        caching. The default ``0.0`` admits everything.

    >>> from repro.graphs import GridGraph
    >>> from repro.perm import random_permutation
    >>> from repro.routing import route
    >>> sched = route(GridGraph(3, 3), random_permutation(GridGraph(3, 3), seed=0))
    >>> cache = ScheduleCache(maxsize=8, min_cost=1e-3)
    >>> cache.put("cheap", sched, cost=1e-6)
    >>> cache.put("dear", sched, cost=5.0)
    >>> cache.put("unmeasured", sched)
    >>> sorted(cache.keys()), cache.rejected_puts
    (['dear', 'unmeasured'], 1)
    """

    def __init__(
        self,
        maxsize: int = 4096,
        disk_dir: str | os.PathLike | None = None,
        min_cost: float = 0.0,
    ) -> None:
        if min_cost < 0:
            raise ValueError(f"min_cost must be non-negative, got {min_cost}")
        super().__init__(maxsize)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.min_cost = float(min_cost)
        #: Puts refused because their cost was below :attr:`min_cost`.
        self.rejected_puts = 0
        #: Schedules that failed their request's check, per ingest
        #: source (each one was served as a miss).
        self.rejected: dict[str, int] = dict.fromkeys(INGEST_SOURCES, 0)

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _disk_path(self, digest: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{digest}.rsc"

    def _disk_load(self, digest: str) -> Schedule | None:
        if self.disk_dir is None:
            return None
        path = self._disk_path(digest)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            with span("codec.decode", tier="disk"):
                return decode_schedule(data)
        except ScheduleError:
            pass
        # Corrupt entry (or another codec version's): drop it so it is
        # recomputed, not re-served. Concurrent readers can race to this
        # unlink; a file that is already gone was evicted (and counted)
        # by the winner, so the loser tolerates the miss instead of
        # crashing and does not double-count the eviction.
        try:
            path.unlink()
        except FileNotFoundError:
            return None
        except OSError:
            pass
        with self._lock:
            self.stats.disk_errors += 1
        return None

    def _disk_unlink(self, digest: str) -> bool:
        """Remove the disk copy of ``digest``; True if there was one."""
        if self.disk_dir is None:
            return False
        try:
            self._disk_path(digest).unlink()
        except OSError:
            return False
        return True

    def _disk_store(self, digest: str, schedule: Schedule) -> None:
        if self.disk_dir is None:
            return
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            path = self._disk_path(digest)
            # pid+tid so concurrent writers (threads or processes) of the
            # same digest never share a temp file.
            tmp = path.with_suffix(f".tmp{os.getpid()}.{threading.get_ident()}")
            tmp.write_bytes(encode_schedule(schedule))
            os.replace(tmp, path)
            with self._lock:
                self.stats.disk_writes += 1
        except OSError:
            with self._lock:
                self.stats.disk_errors += 1

    # ------------------------------------------------------------------
    # tiered get/put
    # ------------------------------------------------------------------
    def vet(self, schedule: Schedule, check: Check, source: str) -> bool:
        """Run ``check`` on a schedule that entered from ``source``.

        Opens a ``schedule.verify`` span tagged with the ``tier``. A
        failed check counts in :attr:`rejected` and returns ``False``.
        """
        with span("schedule.verify", tier=source) as sp:
            try:
                check(schedule)
            except ScheduleError:
                sp.status = "error"
                with self._lock:
                    self.rejected[source] += 1
                return False
        return True

    def get(self, digest: str, check: Check | None = None) -> Schedule | None:
        """Memory tier first, then disk; disk hits are promoted to memory.

        ``check`` is the request's verifier. With it, a disk load and a
        memory entry stored ``unverified`` are checked before they are
        served; one that fails is dropped from both tiers, counted in
        :attr:`rejected` and reported as a miss. Without it nothing is
        checked, and a disk load is promoted as unverified.
        """
        with self._lock:
            entry = self._data.get(digest)
            if entry is not None:
                self._data.move_to_end(digest)
                if check is None or not isinstance(entry, _Unchecked):
                    self.stats.hits += 1
                    return entry.schedule if isinstance(entry, _Unchecked) else entry
        if entry is not None and check is not None:  # an unchecked entry
            passed = self.vet(entry.schedule, check, entry.source)
            with self._lock:
                # Another thread may have replaced the entry meanwhile;
                # only the entry that was checked is updated or dropped.
                held = self._data.get(digest) is entry
                if passed:
                    self.stats.hits += 1
                    if held:
                        self._data[digest] = entry.schedule
                    return entry.schedule
                self.stats.misses += 1
                if held:
                    del self._data[digest]
            if held:
                self._disk_unlink(digest)
            return None
        schedule = self._disk_load(digest)
        if schedule is not None and check is not None:
            if not self.vet(schedule, check, "disk"):
                self._disk_unlink(digest)
                schedule = None
        with self._lock:
            if schedule is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._insert(
                digest, schedule if check is not None else _Unchecked(schedule, "disk")
            )
        return schedule

    def put(
        self,
        digest: str,
        schedule: Schedule,
        cost: float | None = None,
        *,
        unverified: str | None = None,
    ) -> None:
        """Store in memory and (if configured) on disk, unless too cheap.

        ``unverified`` names the source (one of :data:`INGEST_SOURCES`)
        of a schedule that arrived without its request, such as a
        peer's ``cache_put``: the entry is checked on its first read
        that passes a ``check``.
        """
        if cost is not None and cost < self.min_cost:
            with self._lock:
                self.rejected_puts += 1
            return
        value = schedule if unverified is None else _Unchecked(schedule, unverified)
        super().put(digest, value, cost=cost)
        self._disk_store(digest, schedule)

    def discard(self, digest: str) -> bool:
        """Remove one entry from both tiers; True if either tier held it.

        The disk copy goes too — a re-homed key left on disk would be
        resurrected (and re-served as if owned) by the next ``get``.
        """
        dropped = super().discard(digest)
        return self._disk_unlink(digest) or dropped

    def as_dict(self) -> dict[str, Any]:
        """The LRU rollup plus the rejection counters and the disk-tier location."""
        with self._lock:
            rejected = dict(self.rejected)
        return {
            **super().as_dict(),
            "rejected_puts": self.rejected_puts,
            "rejected": rejected,
            "disk_dir": str(self.disk_dir) if self.disk_dir else None,
        }
