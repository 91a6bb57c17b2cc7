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
from typing import Any, Iterator

from ..errors import ScheduleError
from ..routing.codec import decode_schedule, encode_schedule
from ..routing.schedule import Schedule

__all__ = ["CacheStats", "LRUCache", "ScheduleCache"]


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
            if digest in self._data:
                self._data.move_to_end(digest)
            self._data[digest] = value
            self.stats.puts += 1
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
            return decode_schedule(data)
        except ScheduleError:
            pass
        # Corrupt entry: drop it so it is recomputed, not re-served.
        # Concurrent readers can race to this unlink; a file that is
        # already gone was evicted (and counted) by the winner, so
        # the loser tolerates the miss instead of crashing and does
        # not double-count the eviction.
        try:
            path.unlink()
        except FileNotFoundError:
            return None
        except OSError:
            pass
        with self._lock:
            self.stats.disk_errors += 1
        return None

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
    def get(self, digest: str) -> Schedule | None:
        """Memory tier first, then disk; disk hits are promoted to memory."""
        with self._lock:
            if digest in self._data:
                self._data.move_to_end(digest)
                self.stats.hits += 1
                return self._data[digest]
        schedule = self._disk_load(digest)
        with self._lock:
            if schedule is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self.stats.disk_hits += 1
        # Promote without double-counting a put.
        super().put(digest, schedule)
        with self._lock:
            self.stats.puts -= 1
        return schedule

    def put(self, digest: str, schedule: Schedule, cost: float | None = None) -> None:
        """Store in memory and (if configured) on disk, unless too cheap."""
        if cost is not None and cost < self.min_cost:
            with self._lock:
                self.rejected_puts += 1
            return
        super().put(digest, schedule, cost=cost)
        self._disk_store(digest, schedule)

    def discard(self, digest: str) -> bool:
        """Remove one entry from both tiers; True if either tier held it.

        The disk copy goes too — a re-homed key left on disk would be
        resurrected (and re-served as if owned) by the next ``get``.
        """
        dropped = super().discard(digest)
        if self.disk_dir is not None:
            try:
                self._disk_path(digest).unlink()
                dropped = True
            except OSError:
                pass
        return dropped

    def as_dict(self) -> dict[str, Any]:
        """The LRU rollup plus ``rejected_puts`` and the disk-tier location."""
        return {
            **super().as_dict(),
            "rejected_puts": self.rejected_puts,
            "disk_dir": str(self.disk_dir) if self.disk_dir else None,
        }
