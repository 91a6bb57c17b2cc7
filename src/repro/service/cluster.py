"""Multi-host cache sharding: consistent hashing + remote-shard protocol.

This module partitions the schedule cache across *daemons*. Routing
results are pure functions of the canonical request fingerprint
(:mod:`repro.service.keys`), so any daemon that has computed a schedule
can serve it to every other daemon — the way tket-style routers
amortize repeated passes over circuit families — as long as all of them
agree on who owns which key.

Four pieces provide that agreement:

* :class:`ClusterTopology` — the epoch-versioned membership object
  every other layer observes. Each change (join / leave / replace)
  swaps in a freshly built :class:`HashRing` and bumps a monotonic
  epoch under a compare-and-set guard, so concurrent administrators
  cannot split-brain a ring and observers can tell "the ring changed
  under me" from "my probe missed". ``--peer`` flags seed it; after
  that it changes only through :meth:`ClusterTopology.update`, called
  by the runtime ``topology_update`` op (``repro topology join|leave``)
  and by gossip (:mod:`repro.service.gossip`).
* :class:`HashRing` — consistent hashing with virtual nodes over the
  request-fingerprint digest. Every daemon builds the same ring from
  the same node ids, so ownership is a pure function of the digest; on
  membership change only ~1/n of the key space moves (see the
  hypothesis tests for the exact invariants).
* :class:`RemoteShardClient` — a thin keep-alive HTTP client for the
  ``cache_get`` / ``cache_put`` / ``cache_stats`` / ``topology_get`` /
  ``topology_update`` endpoints that every daemon serves, on a TCP
  port (address = ``http://host:port``) or a UNIX socket (address =
  the socket path). Schedules ship as base64-wrapped binary
  :mod:`repro.routing.codec` frames, and every cache request carries
  ``"codec"`` set to :data:`~repro.routing.codec.CODEC_VERSION`. A
  peer on another codec version fails to decode this node's frames
  and this node fails to decode its frames, so a mixed ring falls back
  to local compute in both directions.
* :class:`ClusterScheduleCache` — the ``ScheduleCache`` drop-in that
  the service layer actually holds. ``get`` probes the local tier
  first, then the key's remote owners in ring order; ``put`` writes
  the local tier plus every remote replica. A remote hit is checked
  against the request (``check``) before it is used; one that fails
  marks its peer failed and is counted in the local tier's
  ``rejected["remote"]``. Remote hits are **read-repaired**: promoted
  into the local tier and pushed to any replica that was probed and
  missed first. A pushed entry arrives without its request, so the
  receiving node stores it unverified and checks it on first read.
  Ownership is re-read from the topology on every operation, so a
  membership change takes effect mid-flight without restarting
  anything.

When a node **joins**, the members that lose primary ownership of keys
stream those now-foreign hot-tier entries to the newcomer over the
ordinary ``cache_put`` op (a bounded-rate background thread, aborted
by the next epoch bump), so a scale-up event ends with a warm ring
instead of a cold shard — see
:meth:`ClusterScheduleCache.wait_for_handoff`.

Failure isolation is absolute: a dead shard degrades the cluster to
local compute, never to an error. Each node has a tiny circuit breaker
— after a transport failure the node is skipped for
``retry_interval`` seconds, then probed again — and every remote
failure is counted, not raised, so the routing hot path can only ever
see a cache miss.
"""

from __future__ import annotations

import base64
import binascii
import bisect
import hashlib
import http.client
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence

from ..errors import ClusterShardError, ReproError, StaleEpochError
from ..routing.codec import CODEC_VERSION, decode_schedule, encode_schedule
from ..routing.schedule import Schedule
from .cache import CacheStats, Check, ScheduleCache
from .logging import get_logger
from .tracing import current_traceparent, span

__all__ = [
    "HashRing",
    "ClusterTopology",
    "TopologyView",
    "ShardClient",
    "RemoteShardClient",
    "InProcessShardClient",
    "ClusterScheduleCache",
    "ClusterStats",
]

#: Default virtual nodes per ring member. 128 points per node keeps the
#: max/min load ratio of a 3-node ring around ~1.2 while the ring stays
#: small enough to rebuild on every membership change.
DEFAULT_VNODES = 128

#: Seconds a failed node is skipped before being probed again
#: (constructor- and CLI-tunable; see ``repro serve --breaker-cooldown``).
DEFAULT_RETRY_INTERVAL = 30.0

#: Default transport timeout for shard operations (seconds). Cache
#: probes must be much cheaper than recomputing, so this is short: a
#: peer slower than this is treated as down and the key recomputed.
DEFAULT_SHARD_TIMEOUT = 5.0

#: Default key-space handoff rate (``cache_put`` pushes per second the
#: background handoff thread allows itself). Low enough that a scale-up
#: never floods the ring with replication traffic, high enough that a
#: few thousand hot entries migrate in seconds.
DEFAULT_HANDOFF_RATE = 500.0


class HashRing:
    """Consistent hashing with virtual nodes over digest hex strings.

    Each node is hashed to ``vnodes`` points on a 64-bit ring; a key
    (the first 16 hex chars of its SHA-256 request digest) is owned by
    the first node point at or clockwise after it. Because ownership
    depends only on the node ids and ``vnodes``, every process that
    builds a ring from the same members computes identical owners —
    the property multi-daemon cache sharding rests on.

    Parameters
    ----------
    nodes:
        Initial node ids (arbitrary non-empty strings — in a cluster,
        the addresses peers use to reach each node).
    vnodes:
        Virtual-node points per node; higher is smoother but slower to
        rebuild. Must be positive.

    Raises
    ------
    ValueError
        On a non-positive ``vnodes`` or a duplicate/empty node id.

    >>> ring = HashRing(["a", "b", "c"])
    >>> ring.owner("00" * 32) in {"a", "b", "c"}
    True
    >>> ring.replicas("00" * 32, 2) == ring.replicas("00" * 32, 2)
    True
    """

    def __init__(self, nodes: Sequence[str] = (), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = int(vnodes)
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for node in nodes:
            self.add_node(node)

    @staticmethod
    def _node_point(node: str, replica: int) -> int:
        payload = f"{node}\x00{replica}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")

    @staticmethod
    def _key_point(digest: str) -> int:
        try:
            return int(digest[:16], 16)
        except ValueError:
            raise ValueError(f"digest must be a hex string, got {digest!r}") from None

    @property
    def nodes(self) -> frozenset[str]:
        """The current ring members (a snapshot)."""
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        """Place ``node`` (its ``vnodes`` points) on the ring.

        Raises
        ------
        ValueError
            If the id is empty or already a member.
        """
        if not node:
            raise ValueError("node id must be a non-empty string")
        if node in self._nodes:
            raise ValueError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for i in range(self.vnodes):
            bisect.insort(self._points, (self._node_point(node, i), node))

    def remove_node(self, node: str) -> None:
        """Remove ``node`` from the ring; its key span moves to successors.

        Raises
        ------
        ValueError
            If the node is not a member.
        """
        if node not in self._nodes:
            raise ValueError(f"node {node!r} is not on the ring")
        self._nodes.discard(node)
        self._points = [(p, n) for (p, n) in self._points if n != node]

    def owner(self, digest: str) -> str:
        """The single node owning ``digest``.

        Raises
        ------
        ValueError
            On an empty ring or a non-hex digest.
        """
        owners = self.replicas(digest, 1)
        if not owners:
            raise ValueError("cannot look up an owner on an empty ring")
        return owners[0]

    def replicas(self, digest: str, n: int) -> list[str]:
        """The first ``n`` *distinct* nodes clockwise from ``digest``.

        The list is deterministic, duplicate-free, and clamps to the
        member count; element 0 is the primary owner. An empty ring
        yields an empty list.
        """
        if n <= 0 or not self._points:
            return []
        start = bisect.bisect_left(self._points, (self._key_point(digest), ""))
        out: list[str] = []
        seen: set[str] = set()
        for k in range(len(self._points)):
            _, node = self._points[(start + k) % len(self._points)]
            if node not in seen:
                seen.add(node)
                out.append(node)
                if len(out) >= min(n, len(self._nodes)):
                    break
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashRing(nodes={sorted(self._nodes)}, vnodes={self.vnodes})"


# ----------------------------------------------------------------------
# epoch-versioned membership
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologyView:
    """One immutable observation of the cluster membership.

    Readers take a view once per operation and use its ``ring`` for
    every ownership decision inside that operation, so a concurrent
    membership change can never split one lookup across two rings.
    The ``ring`` object is built fresh for each view and never mutated
    afterwards.
    """

    epoch: int
    members: frozenset[str]
    metadata: Mapping[str, Mapping[str, Any]]
    ring: HashRing

    def as_dict(self) -> dict[str, Any]:
        """The view as a JSON-ready topology document."""
        members = sorted(self.members)
        return {
            "epoch": self.epoch,
            "members": members,
            "metadata": {m: dict(self.metadata.get(m, {})) for m in members},
        }


class ClusterTopology:
    """Epoch-versioned, thread-safe cluster membership.

    The single source of truth for "who is on the ring right now".
    :class:`ClusterScheduleCache`, the request handler's
    ``topology_get`` / ``topology_update`` ops (the ``repro topology``
    admin CLI) and gossip all observe or mutate this one object
    instead of owning private peer lists.

    Every successful mutation swaps in a complete new
    :class:`TopologyView` (member set, per-node metadata, freshly built
    :class:`HashRing`) under a strictly increasing **epoch**. Two
    guards keep concurrent writers coherent:

    * ``expected_epoch`` — compare-and-set: the update applies only if
      the current epoch still matches, else :class:`StaleEpochError`.
    * ``epoch`` — an explicit new epoch must be strictly greater than
      the current one, else :class:`StaleEpochError`. This is how a
      fleet converges on one shared epoch: the administrator computes
      ``E + 1`` once and pushes it to every member.

    Subscribers registered with :meth:`subscribe` are called with
    ``(old_view, new_view)`` after each change, outside the topology
    lock — this is the hook the cluster cache uses to prune clients
    and launch key-space handoff.

    >>> topo = ClusterTopology(["a", "b"])
    >>> topo.epoch
    1
    >>> topo.join("c").epoch
    2
    >>> sorted(topo.members)
    ['a', 'b', 'c']
    """

    def __init__(
        self,
        members: Sequence[str] = (),
        *,
        epoch: int = 1,
        vnodes: int = DEFAULT_VNODES,
        metadata: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> None:
        if epoch <= 0:
            raise ValueError(f"epoch must be positive, got {epoch}")
        self.vnodes = int(vnodes)
        self._lock = threading.Lock()
        self._subscribers: list[Callable[[TopologyView, TopologyView], None]] = []
        self._view = self._build_view(int(epoch), set(members), dict(metadata or {}))

    def _build_view(
        self,
        epoch: int,
        members: set[str],
        metadata: Mapping[str, Mapping[str, Any]],
    ) -> TopologyView:
        meta = {m: dict(metadata.get(m, {})) for m in members}
        return TopologyView(
            epoch=epoch,
            members=frozenset(members),
            metadata=meta,
            ring=HashRing(sorted(members), vnodes=self.vnodes),
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The current epoch (monotonically increasing)."""
        return self._view.epoch

    @property
    def members(self) -> frozenset[str]:
        """The current member set (a snapshot)."""
        return self._view.members

    def view(self) -> TopologyView:
        """The current immutable :class:`TopologyView`."""
        return self._view

    def as_dict(self) -> dict[str, Any]:
        """The current topology as a JSON-ready document."""
        return self._view.as_dict()

    # ------------------------------------------------------------------
    # observing
    # ------------------------------------------------------------------
    def subscribe(self, fn: Callable[[TopologyView, TopologyView], None]) -> None:
        """Call ``fn(old_view, new_view)`` after every membership change.

        Callbacks run outside the topology lock, in the mutating
        thread; exceptions are swallowed (an observer must never be
        able to veto or corrupt a membership change).
        """
        with self._lock:
            self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[TopologyView, TopologyView], None]) -> None:
        """Remove a subscriber registered with :meth:`subscribe` (idempotent).

        Compared with ``==``, not ``is``: subscribers are typically
        bound methods, and every attribute access creates a fresh
        bound-method object (identity never matches; equality does).
        """
        with self._lock:
            self._subscribers = [s for s in self._subscribers if s != fn]

    # ------------------------------------------------------------------
    # mutating
    # ------------------------------------------------------------------
    def update(
        self,
        members: Sequence[str] | None = None,
        *,
        action: str = "replace",
        node: str | None = None,
        epoch: int | None = None,
        expected_epoch: int | None = None,
        metadata: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> TopologyView:
        """Apply one membership change; returns the new (or unchanged) view.

        ``action`` is ``"join"`` / ``"leave"`` (with ``node``) or
        ``"replace"`` (with the full ``members`` list). A ``replace``
        that changes nothing — same member set, no explicit ``epoch``,
        no metadata — is a no-op and does **not** bump the epoch, so a
        repeated admin push or gossip merge cannot abort an in-flight
        handoff.

        Raises
        ------
        StaleEpochError
            When ``expected_epoch`` no longer matches, or ``epoch`` is
            not strictly newer than the current epoch.
        ReproError
            On a malformed change (unknown action, joining an existing
            member, leaving a non-member, missing fields).
        """
        with self._lock:
            cur = self._view
            if expected_epoch is not None and int(expected_epoch) != cur.epoch:
                raise StaleEpochError(
                    f"topology update expected epoch {int(expected_epoch)}, "
                    f"but the current epoch is {cur.epoch}; re-read the "
                    "topology and retry"
                )
            if action == "join":
                if not node:
                    raise ReproError("'node' required for a join")
                if node in cur.members:
                    raise ReproError(f"node {node!r} is already a ring member")
                new_members = set(cur.members) | {node}
            elif action == "leave":
                if not node:
                    raise ReproError("'node' required for a leave")
                if node not in cur.members:
                    raise ReproError(f"node {node!r} is not a ring member")
                new_members = set(cur.members) - {node}
            elif action == "replace":
                if members is None:
                    raise ReproError("'members' required for a replace")
                new_members = set(members)
            else:
                raise ReproError(f"unknown topology action {action!r}")
            merged_meta = {m: dict(cur.metadata.get(m, {})) for m in new_members}
            if metadata:
                for m, extra in metadata.items():
                    if m in merged_meta and isinstance(extra, Mapping):
                        merged_meta[m].update(extra)
            if epoch is not None:
                new_epoch = int(epoch)
                if new_epoch <= cur.epoch:
                    raise StaleEpochError(
                        f"topology epoch {new_epoch} is not newer than the "
                        f"current epoch {cur.epoch}"
                    )
            else:
                unchanged = new_members == set(cur.members) and merged_meta == {
                    m: dict(cur.metadata.get(m, {})) for m in cur.members
                }
                if action == "replace" and unchanged:
                    return cur  # idempotent reload: nothing changed
                new_epoch = cur.epoch + 1
            new = self._build_view(new_epoch, new_members, merged_meta)
            self._view = new
            subscribers = list(self._subscribers)
        for fn in subscribers:
            try:
                fn(cur, new)
            except Exception:  # noqa: BLE001 - observers cannot veto changes
                pass
        return new

    def join(self, node: str, **kwargs: Any) -> TopologyView:
        """Add one member (sugar for :meth:`update` with ``action="join"``)."""
        return self.update(action="join", node=node, **kwargs)

    def leave(self, node: str, **kwargs: Any) -> TopologyView:
        """Remove one member (sugar for :meth:`update` with ``action="leave"``)."""
        return self.update(action="leave", node=node, **kwargs)

    def replace(self, members: Sequence[str], **kwargs: Any) -> TopologyView:
        """Install a full member set (sugar for ``action="replace"``)."""
        return self.update(members=members, action="replace", **kwargs)

    def apply_doc(self, doc: Mapping[str, Any]) -> TopologyView:
        """Apply a validated ``topology_update`` request document.

        The document carries ``action`` (default ``replace``) plus
        ``node`` or ``members``, and optionally ``epoch`` /
        ``expected_epoch`` / ``metadata`` — the wire shape the handler
        op, the HTTP endpoint and the admin CLI all share.

        Raises
        ------
        ReproError
            On malformed fields (the handler maps this to
            ``bad_request``).
        StaleEpochError
            On a lost epoch race (mapped to ``stale_epoch``).
        """
        action = doc.get("action", "replace")
        if not isinstance(action, str):
            raise ReproError("'action' must be a string")
        members = doc.get("members")
        if members is not None:
            if not isinstance(members, list) or not all(
                isinstance(m, str) and m for m in members
            ):
                raise ReproError("'members' must be a list of non-empty strings")
        node = doc.get("node")
        if node is not None and (not isinstance(node, str) or not node):
            raise ReproError("'node' must be a non-empty string")
        epoch = doc.get("epoch")
        expected = doc.get("expected_epoch")
        try:
            epoch = int(epoch) if epoch is not None else None
            expected = int(expected) if expected is not None else None
        except (TypeError, ValueError):
            raise ReproError("'epoch' and 'expected_epoch' must be integers") from None
        metadata = doc.get("metadata")
        if metadata is not None and not isinstance(metadata, Mapping):
            raise ReproError("'metadata' must be a JSON object")
        return self.update(
            members=members,
            action=action,
            node=node,
            epoch=epoch,
            expected_epoch=expected,
            metadata=metadata,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        view = self._view
        return (
            f"ClusterTopology(epoch={view.epoch}, members={sorted(view.members)})"
        )


class ShardClient(Protocol):
    """The transport contract :class:`ClusterScheduleCache` speaks.

    Implementations raise :class:`~repro.errors.ClusterShardError` (or
    any :class:`~repro.errors.ReproError`) on transport failure; the
    cluster cache isolates the failure, it never propagates to routing.
    """

    def cache_get(self, digest: str) -> Schedule | None:
        """The shard's schedule for ``digest``, or ``None`` on a miss."""
        ...

    def cache_put(
        self, digest: str, schedule: Schedule, cost: float | None = None
    ) -> bool:
        """Store a schedule on the shard; ``True`` when acknowledged."""
        ...

    def cache_stats(self) -> dict[str, Any]:
        """The shard's local cache-stats document."""
        ...

    def close(self) -> None:
        """Release any transport resources (idempotent)."""
        ...


class RemoteShardClient:
    """Speak the cache ops to a remote daemon over HTTP.

    Parameters
    ----------
    address:
        ``http://HOST:PORT`` for a daemon on a TCP port, anything else
        is the path of a daemon's UNIX socket (see
        :func:`~repro.service.http.open_connection`).
    timeout:
        Per-operation transport timeout in seconds. Short by design
        (:data:`DEFAULT_SHARD_TIMEOUT`): a cache probe slower than this
        is worse than recomputing.

    The client keeps one keep-alive connection, guarded by a lock, so it
    is thread-safe and a probe pays no connection set-up. After a
    failure the connection is dropped and the next call dials afresh,
    which is what the cluster cache's retry-after-cooldown loop relies
    on.
    """

    def __init__(self, address: str, timeout: float = DEFAULT_SHARD_TIMEOUT) -> None:
        if not address:
            raise ValueError("shard address must be a non-empty string")
        self.address = address
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict[str, str]
    ) -> tuple[int, bytes]:
        """One request on the kept connection (dialled on demand).

        The caller holds the lock. Any failure drops the connection, so
        the next exchange dials a fresh one.
        """
        if self._conn is None:
            from .http import open_connection  # local import: avoids a cycle

            self._conn = open_connection(self.address, self.timeout)
        conn = self._conn
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            self._drop()
            raise
        if resp.will_close:
            self._drop()
        return resp.status, data

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _request(
        self, method: str, path: str, doc: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """One call: ``(method, path, JSON body)`` -> the JSON response.

        Propagates the caller's trace context as a W3C ``traceparent``
        header; the receiving daemon starts its own trace under the
        same trace id, parented on our current span.

        A peer may close a keep-alive connection while it sits idle
        between two calls. That is not a dead shard, so a call on a
        reused connection that finds it closed is sent once more on a
        fresh one before the breaker trips. ``topology_update`` is never
        re-sent: its lost response may mean the update already applied,
        and a second send would turn that success into a spurious
        compare-and-set failure.
        """
        headers = {"Accept": "application/json"}
        body = None
        if doc is not None:
            body = json.dumps(dict(doc)).encode("utf-8")
            headers["Content-Type"] = "application/json"
        traceparent = current_traceparent()
        if traceparent is not None:
            headers["traceparent"] = traceparent
        with self._lock:
            reused = self._conn is not None
            try:
                try:
                    status, data = self._exchange(method, path, body, headers)
                except ConnectionError:
                    if not reused or path == "/v1/topology_update":
                        raise
                    status, data = self._exchange(method, path, body, headers)
            except (ReproError, OSError, http.client.HTTPException) as exc:
                raise ClusterShardError(f"shard {self.address}: {exc}") from exc
        try:
            resp = json.loads(data)
        except ValueError:
            resp = None
        if not isinstance(resp, dict):
            # Wrong service on the address, version skew or truncation:
            # degrade like any other shard failure.
            raise ClusterShardError(
                f"shard {self.address}: non-JSON response (status {status})"
            )
        return resp

    def _checked(
        self, op: str, doc: Mapping[str, Any] | None = None, method: str = "POST"
    ) -> dict[str, Any]:
        """Call ``POST /v1/<op>`` (or ``method`` on an absolute path)."""
        path = op if op.startswith("/") else f"/v1/{op}"
        resp = self._request(method, path, doc)
        if not resp.get("ok"):
            raise ClusterShardError(
                f"shard {self.address} refused {op}: "
                f"{resp.get('code')}: {resp.get('error')}"
            )
        return resp

    # ------------------------------------------------------------------
    # the ShardClient surface
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """Whether the shard answers ``GET /healthz`` (never raises)."""
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except ReproError:
            return False

    def cache_get(self, digest: str) -> Schedule | None:
        """Fetch ``digest`` from the shard's **local** cache tier.

        The peer answers a hit with a binary ``schedule_b64`` frame. A
        frame this node cannot decode (a daemon too old to send one, or
        one on another codec version) fails the probe, and the caller
        computes locally.

        Returns
        -------
        Schedule | None
            The deserialized schedule, or ``None`` when the shard does
            not hold the key.

        Raises
        ------
        ClusterShardError
            On transport failure or a refused/malformed response.
        """
        resp = self._checked("cache_get", {"digest": digest, "codec": CODEC_VERSION})
        if not resp.get("found"):
            return None
        try:
            frame = base64.b64decode(resp["schedule_b64"], validate=True)
            with span("codec.decode", tier="remote"):
                return decode_schedule(frame)
        except (KeyError, TypeError, binascii.Error, ReproError) as exc:
            raise ClusterShardError(
                f"shard {self.address} returned a malformed schedule "
                f"for {digest[:12]}: {exc}"
            ) from exc

    def cache_put(
        self, digest: str, schedule: Schedule, cost: float | None = None
    ) -> bool:
        """Replicate a schedule onto the shard as a binary frame.

        Returns ``True`` when the shard accepted the entry (its local
        admission policy may still reject it silently).

        Raises
        ------
        ClusterShardError
            On transport failure or a refused response.
        """
        frame = encode_schedule(schedule)
        doc: dict[str, Any] = {
            "digest": digest,
            "codec": CODEC_VERSION,
            "schedule_b64": base64.b64encode(frame).decode("ascii"),
        }
        if cost is not None:
            doc["cost"] = float(cost)
        return bool(self._checked("cache_put", doc).get("stored"))

    def cache_stats(self) -> dict[str, Any]:
        """The shard's local cache-stats document.

        Raises
        ------
        ClusterShardError
            On transport failure or a refused response.
        """
        return dict(self._checked("cache_stats").get("stats") or {})

    def topology_get(self) -> dict[str, Any]:
        """The daemon's current topology document (epoch + members).

        Raises
        ------
        ClusterShardError
            On transport failure, a refused response, or a daemon
            running without cluster mode.
        """
        topo = self._checked("topology_get").get("topology")
        if not isinstance(topo, Mapping):
            raise ClusterShardError(
                f"shard {self.address} returned a malformed topology document"
            )
        return dict(topo)

    def topology_update(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Apply a topology change on the daemon; returns its new topology.

        ``doc`` is the ``topology_update`` request shape (``action`` /
        ``members`` / ``node`` / ``epoch`` / ``expected_epoch``); see
        :meth:`ClusterTopology.apply_doc`.

        Raises
        ------
        ClusterShardError
            On transport failure or a refused update (including a lost
            ``stale_epoch`` compare-and-set race — the refusing code is
            embedded in the message).
        """
        resp = self._checked("topology_update", doc)
        return dict(resp.get("topology") or {})

    def gossip(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Deliver one gossip document; returns the peer's ack + view.

        ``doc`` is a :meth:`~repro.service.gossip.GossipNode.wire_doc`
        payload (``kind`` / ``from`` / ``epoch`` / ``members`` /
        ``states``). The response carries the peer's post-merge view
        back — the anti-entropy half of every probe.

        Raises
        ------
        ClusterShardError
            On transport failure or a refused response (including a
            daemon running without ``--gossip-interval``).
        """
        return self._checked("gossip", doc)

    def service_stats(self) -> dict[str, Any]:
        """The daemon's full ``stats`` document (caches + telemetry).

        Unlike :meth:`cache_stats` this is the whole service snapshot —
        queue-depth gauges, latency histograms, hit rates, and the
        cluster section (epoch, ring nodes, handoff state) that an
        operator polls for convergence.

        Raises
        ------
        ClusterShardError
            On transport failure or a refused response.
        """
        return dict(self._checked("/stats", method="GET").get("stats") or {})

    def trace_get(
        self,
        trace_id: str | None = None,
        limit: int | None = None,
        min_seconds: float | None = None,
    ) -> list[dict[str, Any]]:
        """Fetch finished trace documents from the daemon's trace ring.

        ``trace_id`` selects one trace; otherwise the newest traces,
        optionally filtered to those slower than ``min_seconds`` and
        truncated to ``limit``. Returns the raw
        :meth:`~repro.service.tracing.Trace.to_doc` documents (the
        ``repro trace`` CLI merges these across nodes by trace id).

        Raises
        ------
        ClusterShardError
            On transport failure or a refused response (including a
            daemon running with tracing disabled).
        """
        query: dict[str, Any] = {}
        if trace_id is not None:
            query["id"] = trace_id
        if limit is not None:
            query["limit"] = int(limit)
        if min_seconds is not None:
            query["min_seconds"] = float(min_seconds)
        path = "/v1/traces"
        if query:
            path += "?" + urllib.parse.urlencode(query)
        traces = self._checked(path, method="GET").get("traces")
        return list(traces) if isinstance(traces, list) else []

    def close(self) -> None:
        """Close the kept connection; the next call dials a new one."""
        with self._lock:
            self._drop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteShardClient({self.address!r})"


class InProcessShardClient:
    """A :class:`ShardClient` over a cache object in this process.

    Lets tests and :mod:`examples.cluster_demo` build a multi-node ring
    without sockets: each "node" is just another cache instance. Pass
    the *local tier* of the other node (a
    :class:`~repro.service.cache.ScheduleCache`); passing a
    :class:`ClusterScheduleCache` automatically unwraps to its local
    tier so two nodes pointing at each other can never recurse.
    """

    def __init__(self, cache: Any) -> None:
        self.cache = getattr(cache, "local", cache)

    def ping(self) -> bool:
        """Always reachable."""
        return True

    def cache_get(self, digest: str) -> Schedule | None:
        """Probe the wrapped cache."""
        return self.cache.get(digest)

    def cache_put(
        self, digest: str, schedule: Schedule, cost: float | None = None
    ) -> bool:
        """Store into the wrapped cache, unverified like a daemon's push."""
        self.cache.put(digest, schedule, cost=cost, unverified="pushed")
        return True

    def cache_stats(self) -> dict[str, Any]:
        """The wrapped cache's stats document."""
        return self.cache.as_dict()

    def close(self) -> None:
        """Nothing to release."""


@dataclass
class ClusterStats:
    """Cluster-level counters (monotonic since construction).

    ``remote_hits`` / ``remote_misses`` count *probes* answered by
    peers; ``remote_errors`` counts transport failures (each also
    trips that node's circuit breaker); ``read_repairs`` counts
    entries pushed back to replicas that missed; ``degraded_gets``
    counts lookups where at least one owner was skipped as dead —
    the "a dead shard degrades to local compute" path. The
    ``handoff_*`` counters track key-space handoff: ``handoff_rounds``
    background streams started by a topology change,
    ``handoff_keys_sent`` entries pushed to newly joined owners,
    ``handoff_errors`` failed pushes, ``handoff_aborts`` streams
    cut short by the next epoch bump (or close), and
    ``handoff_evicted`` entries dropped from the local tier after
    every new owner confirmed its copy (the key re-homed cleanly, so
    the old owner stops serving a stale-able duplicate). The
    ``sweep_*`` counters track the background anti-entropy sweep:
    ``sweep_rounds`` completed passes over the local key space,
    ``sweep_repairs`` entries pushed to owners that were missing them,
    and ``sweep_errors`` failed probes or pushes.
    """

    remote_hits: int = 0
    remote_misses: int = 0
    remote_errors: int = 0
    remote_puts: int = 0
    remote_put_errors: int = 0
    read_repairs: int = 0
    degraded_gets: int = 0
    handoff_rounds: int = 0
    handoff_keys_sent: int = 0
    handoff_errors: int = 0
    handoff_aborts: int = 0
    handoff_evicted: int = 0
    sweep_rounds: int = 0
    sweep_repairs: int = 0
    sweep_errors: int = 0

    def as_dict(self) -> dict[str, Any]:
        """The counters as a JSON-ready dict."""
        return {
            "remote_hits": self.remote_hits,
            "remote_misses": self.remote_misses,
            "remote_errors": self.remote_errors,
            "remote_puts": self.remote_puts,
            "remote_put_errors": self.remote_put_errors,
            "read_repairs": self.read_repairs,
            "degraded_gets": self.degraded_gets,
            "handoff_rounds": self.handoff_rounds,
            "handoff_keys_sent": self.handoff_keys_sent,
            "handoff_errors": self.handoff_errors,
            "handoff_aborts": self.handoff_aborts,
            "handoff_evicted": self.handoff_evicted,
            "sweep_rounds": self.sweep_rounds,
            "sweep_repairs": self.sweep_repairs,
            "sweep_errors": self.sweep_errors,
        }


@dataclass
class _NodeState:
    """Per-peer health + counters (guarded by the cluster lock).

    ``client`` is ``None`` only on the throwaway template used to
    shape stats for never-probed members; every state held in
    ``ClusterScheduleCache._nodes`` carries a real client.
    """

    client: ShardClient | None
    hits: int = 0
    misses: int = 0
    errors: int = 0
    puts: int = 0
    consecutive_failures: int = 0
    down_until: float = 0.0
    last_error: str | None = None

    def as_dict(self, now: float) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "puts": self.puts,
            "up": now >= self.down_until,
            "cooldown_remaining": max(0.0, self.down_until - now),
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
        }


class ClusterScheduleCache:
    """One logical schedule cache spread over a ring of daemons.

    A ``ScheduleCache`` drop-in for the service layer: ``get`` / ``put``
    / ``__contains__`` / ``__len__`` / ``keys`` / ``clear`` / ``stats``
    / ``maxsize`` / ``disk_dir`` all exist, with cluster semantics:

    * ``get`` — local tier first (it doubles as a near-cache), then
      each remote owner of the key in ring order. A remote hit is
      promoted into the local tier and read-repaired onto any replica
      that was probed and missed before it.
    * ``put`` — local tier always (local compute is never wasted),
      plus every *remote* owner in the key's replica set.
    * Failure isolation — a peer that errors is marked down for
      ``retry_interval`` seconds and skipped; its keys fall back to
      local compute. No remote failure ever escapes as an exception.

    Membership is **observed, not owned**: every operation reads the
    current :class:`TopologyView` from the shared
    :class:`ClusterTopology`, so joins and leaves take effect without
    restarting anything. Shard clients are created lazily from member
    addresses (``client_factory``, default :class:`RemoteShardClient`)
    and pruned when a member leaves. When new members join while this
    node is on the ring, a bounded-rate background thread streams the
    hot-tier entries this node was the old primary owner of — and a
    newcomer now owns — to the new owner via ``cache_put`` (key-space
    handoff), aborting if the epoch moves again mid-stream.

    Parameters
    ----------
    local:
        The local cache tier (a :class:`~repro.service.cache.ScheduleCache`).
    peers:
        Optional mapping of node id -> pre-wired :class:`ShardClient`
        (in-process rings, tests). When no ``topology`` is passed,
        these ids plus ``node_id`` form the initial membership —
        ``--peer`` is exactly this sugar; there is no separate static
        path.
    node_id:
        This node's own ring id. ``None`` keeps the local node **off**
        the ring (client-only mode: every key is remote-owned — what
        ``repro batch --cluster`` uses); a daemon that is itself a
        shard passes the address its peers dial.
    replication:
        Owners per key (clamped to the ring size). 1 stores each key
        on exactly one shard; 2 tolerates one dead shard without
        losing warm entries.
    vnodes:
        Virtual nodes per ring member (used when building the implicit
        topology; an explicit ``topology`` brings its own).
    retry_interval:
        Seconds a failed peer's circuit breaker stays open before the
        peer is probed again (``repro serve --breaker-cooldown``).
    topology:
        An explicit :class:`ClusterTopology` to observe (shared with
        the handler's ``topology_*`` ops and the file watcher).
        ``None`` builds one from ``peers`` + ``node_id``.
    client_factory:
        ``node_id -> ShardClient`` for members without a pre-wired
        client; defaults to :class:`RemoteShardClient` with
        ``shard_timeout``.
    shard_timeout:
        Transport timeout for default-constructed clients.
    handoff:
        Whether to stream owned keys to newly joined members.
    handoff_rate:
        Upper bound on handoff ``cache_put`` pushes per second (also
        paces the anti-entropy sweep).
    clock:
        Monotonic-seconds source for the circuit breakers (injectable
        so breaker-cooldown tests can use a virtual clock).

    Raises
    ------
    ValueError
        On a non-positive ``replication`` / ``retry_interval`` /
        ``handoff_rate``, or a ``node_id`` that collides with a peer id.
    """

    def __init__(
        self,
        local: ScheduleCache,
        peers: Mapping[str, ShardClient] | None = None,
        node_id: str | None = None,
        replication: int = 2,
        vnodes: int = DEFAULT_VNODES,
        retry_interval: float = DEFAULT_RETRY_INTERVAL,
        *,
        topology: ClusterTopology | None = None,
        client_factory: Callable[[str], ShardClient] | None = None,
        shard_timeout: float = DEFAULT_SHARD_TIMEOUT,
        handoff: bool = True,
        handoff_rate: float = DEFAULT_HANDOFF_RATE,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if replication <= 0:
            raise ValueError(f"replication must be positive, got {replication}")
        if retry_interval <= 0:
            raise ValueError(f"retry_interval must be positive, got {retry_interval}")
        if handoff_rate <= 0:
            raise ValueError(f"handoff_rate must be positive, got {handoff_rate}")
        peers = dict(peers or {})
        if node_id is not None and node_id in peers:
            raise ValueError(f"node_id {node_id!r} collides with a peer id")
        self.local = local
        self.node_id = node_id
        self.replication = int(replication)
        self.retry_interval = float(retry_interval)
        self.handoff_rate = float(handoff_rate)
        self._handoff_enabled = bool(handoff)
        self._preset_clients = peers
        self._client_factory = client_factory or (
            lambda address: RemoteShardClient(address, timeout=shard_timeout)
        )
        if topology is None:
            members = set(peers)
            if node_id is not None:
                members.add(node_id)
            topology = ClusterTopology(sorted(members), vnodes=vnodes)
        self.topology = topology
        self._clock = clock
        self._lock = threading.Lock()
        self._nodes: dict[str, _NodeState] = {}
        self._closed = False
        self._handoff_thread: threading.Thread | None = None
        self._sweep_stop = threading.Event()
        self._sweep_thread: threading.Thread | None = None
        self.cluster_stats = ClusterStats()
        topology.subscribe(self._on_topology_change)

    @property
    def ring(self) -> HashRing:
        """The current epoch's consistent-hash ring (a live snapshot)."""
        return self.topology.view().ring

    @property
    def epoch(self) -> int:
        """The topology epoch this cache currently observes."""
        return self.topology.epoch

    @property
    def remote(self) -> bool:
        """Whether ``get``/``put`` may block on I/O to other nodes.

        Consulted by the async front end to decide on a worker-thread
        hop (like a disk tier). True exactly when the current view
        contains any member besides this node.
        """
        return any(m != self.node_id for m in self.topology.members)

    # ------------------------------------------------------------------
    # node health
    # ------------------------------------------------------------------
    def _state(self, node: str) -> _NodeState:
        """The node's health state, creating its client lazily."""
        with self._lock:
            state = self._nodes.get(node)
            if state is None:
                client = self._preset_clients.get(node)
                if client is None:
                    client = self._client_factory(node)
                state = self._nodes[node] = _NodeState(client=client)
            return state

    def _live_client(self, node: str) -> ShardClient | None:
        """The node's client, or ``None`` while its breaker is open."""
        state = self._state(node)
        with self._lock:
            if self._clock() < state.down_until:
                return None
            return state.client

    def _mark_ok(self, node: str) -> None:
        state = self._state(node)
        with self._lock:
            state.consecutive_failures = 0
            state.down_until = 0.0
            state.last_error = None

    def _mark_failed(self, node: str, exc: Exception) -> None:
        state = self._state(node)
        with self._lock:
            state.errors += 1
            state.consecutive_failures += 1
            state.down_until = self._clock() + self.retry_interval
            state.last_error = f"{type(exc).__name__}: {exc}"
            self.cluster_stats.remote_errors += 1

    def dead_nodes(self) -> list[str]:
        """Peers currently skipped by the circuit breaker."""
        now = self._clock()
        with self._lock:
            return sorted(nid for nid, s in self._nodes.items() if now < s.down_until)

    # ------------------------------------------------------------------
    # topology changes + key-space handoff
    # ------------------------------------------------------------------
    def _on_topology_change(self, old: TopologyView, new: TopologyView) -> None:
        """React to a membership change: prune clients, start handoff."""
        removed: list[_NodeState] = []
        with self._lock:
            if self._closed:
                return
            for nid in list(self._nodes):
                if nid not in new.members:
                    removed.append(self._nodes.pop(nid))
        for state in removed:
            try:
                if state.client is not None:
                    state.client.close()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        self._maybe_start_handoff(old, new)

    def _maybe_start_handoff(self, old: TopologyView, new: TopologyView) -> None:
        if not self._handoff_enabled or self.node_id is None:
            return
        if self.node_id not in new.members:
            return
        newcomers = new.members - old.members - {self.node_id}
        if not newcomers:
            return
        thread = threading.Thread(
            target=self._handoff_worker,
            args=(old, new, frozenset(newcomers)),
            name=f"repro-handoff-epoch{new.epoch}",
            daemon=True,
        )
        with self._lock:
            self._handoff_thread = thread
            self.cluster_stats.handoff_rounds += 1
        thread.start()

    def _pace(self) -> None:
        """Sleep one ``handoff_rate`` slot (shared by handoff and sweep)."""
        time.sleep(1.0 / self.handoff_rate)

    def _handoff_worker(
        self, old: TopologyView, new: TopologyView, newcomers: frozenset[str]
    ) -> None:
        """Stream this node's now-foreign hot keys to the new owners.

        Runs in a background thread after a join. For every local-tier
        digest this node was the *old primary owner* of (the
        primary-only rule keeps N old members from pushing the same key
        N times), any newly joined node in the digest's new replica set
        receives the entry via ``cache_put``, at most ``handoff_rate``
        pushes per second. The stream aborts as soon as the topology
        epoch moves past the one it was started for, or the cache is
        closed.

        A key that re-homed completely — every newcomer copy was
        confirmed stored and this node is no longer in the key's new
        replica set — is then evicted from the local tier
        (``handoff_evicted``): the ring will route future lookups to
        the new owners, and keeping an unowned duplicate here only
        squeezes genuinely-owned keys out of the LRU. Any failed or
        skipped push keeps the local copy, so an entry always survives
        somewhere.
        """
        errors = 0
        evicted = 0
        aborted = False
        for digest in list(self.local.keys()):
            if self._closed or self.topology.epoch != new.epoch:
                aborted = True
                break
            old_owners = old.ring.replicas(digest, self.replication)
            if not old_owners or old_owners[0] != self.node_id:
                continue
            new_owners = new.ring.replicas(digest, self.replication)
            targets = [n for n in new_owners if n in newcomers]
            if not targets:
                continue
            schedule = self.local.get(digest)
            if schedule is None:
                continue  # evicted since the key listing
            digest_ok = True
            for node in targets:
                if self._closed or self.topology.epoch != new.epoch:
                    aborted = True
                    break
                client = self._live_client(node)
                if client is None:
                    errors += 1
                    digest_ok = False
                    continue
                with span("cache.handoff_put", node=node) as hsp:
                    try:
                        client.cache_put(digest, schedule)
                    except ReproError as exc:
                        hsp.status = "error"
                        self._mark_failed(node, exc)
                        errors += 1
                        digest_ok = False
                        continue
                self._mark_ok(node)
                with self._lock:
                    self.cluster_stats.handoff_keys_sent += 1
                self._pace()
            if aborted:
                break
            if digest_ok and self.node_id not in new_owners:
                if self.local.discard(digest):
                    evicted += 1
        with self._lock:
            self.cluster_stats.handoff_errors += errors
            self.cluster_stats.handoff_evicted += evicted
            if aborted:
                self.cluster_stats.handoff_aborts += 1

    def handoff_active(self) -> bool:
        """Whether a key-space handoff stream is currently running."""
        with self._lock:
            thread = self._handoff_thread
        return thread is not None and thread.is_alive()

    def wait_for_handoff(self, timeout: float | None = None) -> bool:
        """Block until the current handoff stream (if any) finishes.

        Returns ``True`` when no stream is running afterwards (``False``
        on timeout). Benchmarks and drills use this to assert a joined
        shard is warm before measuring it.
        """
        with self._lock:
            thread = self._handoff_thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()

    # ------------------------------------------------------------------
    # anti-entropy sweep
    # ------------------------------------------------------------------
    def anti_entropy_sweep(self) -> dict[str, Any]:
        """One repair pass over the local key space; returns a summary.

        For every local-tier digest this node co-owns under the current
        ring, each *other* owner is probed with ``cache_get``; owners
        that miss receive this node's copy via ``cache_put``
        (``sweep_repairs``). Keys whose every owner already holds a
        copy get **no** put — the sweep is idempotent on a healthy
        ring. Entries are content-addressed by their request digest, so
        any local copy is a valid repair source; the self-in-owners
        rule (rather than primary-only) lets a replica repair a primary
        that lost its copy, which is exactly the under-replication a
        crashed-and-rejoined node leaves behind.

        Pushes are paced by ``handoff_rate``. The pass aborts early —
        without counting a ``sweep_rounds`` round — when the topology
        epoch moves, the cache is closed, or :meth:`stop_sweeper` is
        called. Never raises for a dead or misbehaving peer.
        """
        view = self.topology.view()
        scanned = 0
        repairs = 0
        errors = 0
        aborted = False
        if self.node_id is not None and self.node_id in view.members:
            for digest in list(self.local.keys()):
                if (
                    self._closed
                    or self._sweep_stop.is_set()
                    or self.topology.epoch != view.epoch
                ):
                    aborted = True
                    break
                owners = view.ring.replicas(digest, self.replication)
                if self.node_id not in owners:
                    continue
                scanned += 1
                schedule: Schedule | None = None
                missing_local = False
                for node in owners:
                    if node == self.node_id:
                        continue
                    client = self._live_client(node)
                    if client is None:
                        errors += 1
                        continue
                    with span("cache.sweep_probe", node=node) as psp:
                        try:
                            held = client.cache_get(digest)
                        except ReproError as exc:
                            psp.status = "error"
                            self._mark_failed(node, exc)
                            errors += 1
                            continue
                        psp.set("hit", held is not None)
                    self._mark_ok(node)
                    if held is not None:
                        continue
                    if schedule is None:
                        schedule = self.local.get(digest)
                        if schedule is None:
                            missing_local = True  # evicted since the listing
                            break
                    with span("cache.sweep_put", node=node) as ssp:
                        try:
                            client.cache_put(digest, schedule)
                        except ReproError as exc:
                            ssp.status = "error"
                            self._mark_failed(node, exc)
                            errors += 1
                            continue
                    self._mark_ok(node)
                    repairs += 1
                    self._pace()
                if missing_local:
                    continue
        with self._lock:
            self.cluster_stats.sweep_repairs += repairs
            self.cluster_stats.sweep_errors += errors
            if not aborted:
                self.cluster_stats.sweep_rounds += 1
        return {
            "scanned": scanned,
            "repaired": repairs,
            "errors": errors,
            "aborted": aborted,
        }

    def start_sweeper(self, period: float) -> None:
        """Run :meth:`anti_entropy_sweep` every ``period`` seconds.

        Idempotent while a sweeper is running; the thread is a daemon
        and is stopped by :meth:`stop_sweeper` or :meth:`close`. This
        is what ``repro serve --sweep-interval`` starts.
        """
        if period <= 0:
            raise ValueError(f"sweep period must be positive, got {period}")
        with self._lock:
            if self._sweep_thread is not None and self._sweep_thread.is_alive():
                return
            self._sweep_stop.clear()
            thread = self._sweep_thread = threading.Thread(
                target=self._sweep_loop,
                args=(float(period),),
                name="repro-sweeper",
                daemon=True,
            )
        thread.start()

    def _sweep_loop(self, period: float) -> None:
        log = get_logger("repro.service.cluster")
        while not self._sweep_stop.wait(period):
            try:
                self.anti_entropy_sweep()
            except Exception:  # noqa: BLE001 - one bad pass must not stop repair
                log.exception("anti-entropy sweep failed")

    def stop_sweeper(self, timeout: float = 5.0) -> None:
        """Stop the background sweeper thread (idempotent)."""
        self._sweep_stop.set()
        with self._lock:
            thread = self._sweep_thread
            self._sweep_thread = None
        if thread is not None:
            thread.join(timeout)

    # ------------------------------------------------------------------
    # the ScheduleCache surface
    # ------------------------------------------------------------------
    def _owners(self, digest: str, view: TopologyView | None = None) -> list[str]:
        view = view or self.topology.view()
        return view.ring.replicas(digest, self.replication)

    def get(self, digest: str, check: Check | None = None) -> Schedule | None:
        """Local tier, then each live remote owner; ``None`` on miss.

        ``check`` is the request's verifier: the local tier applies it
        (see :meth:`ScheduleCache.get`), and a remote hit that fails it
        marks its peer failed, as a malformed frame would, and the
        next owner is tried. A remote hit read without ``check`` is
        promoted into the local tier unverified.

        Ownership comes from one topology view taken at entry, so a
        concurrent membership change can never split this lookup across
        two rings. May block on network I/O — the async front end runs
        it on a worker thread (see the ``remote`` property). Never
        raises for a dead or misbehaving peer.
        """
        with span("cache.local_get") as lsp:
            schedule = self.local.get(digest, check)
            lsp.set("hit", schedule is not None)
        if schedule is not None:
            return schedule
        view = self.topology.view()
        missed: list[str] = []
        degraded = False
        for node in self._owners(digest, view):
            if node == self.node_id:
                continue  # the local tier already missed
            client = self._live_client(node)
            if client is None:
                degraded = True
                continue
            with span("cache.remote_get", node=node) as rsp:
                try:
                    schedule = client.cache_get(digest)
                except ReproError as exc:
                    rsp.status = "error"
                    self._mark_failed(node, exc)
                    degraded = True
                    continue
                rsp.set("hit", schedule is not None)
            if schedule is not None and check is not None:
                if not self.local.vet(schedule, check, "remote"):
                    self._mark_failed(
                        node,
                        ClusterShardError(
                            f"shard {node} served a schedule for {digest[:12]} "
                            "that does not route the request"
                        ),
                    )
                    degraded = True
                    continue
            self._mark_ok(node)
            if schedule is None:
                state = self._state(node)
                with self._lock:
                    state.misses += 1
                    self.cluster_stats.remote_misses += 1
                missed.append(node)
                continue
            state = self._state(node)
            with self._lock:
                state.hits += 1
                self.cluster_stats.remote_hits += 1
            # Promote into the local tier (near-cache) and repair the
            # replicas that answered "not found" before this hit.
            self.local.put(
                digest, schedule, unverified=None if check is not None else "remote"
            )
            for lagging in missed:
                self._repair(lagging, digest, schedule)
            return schedule
        if degraded:
            with self._lock:
                self.cluster_stats.degraded_gets += 1
        return None

    def _repair(self, node: str, digest: str, schedule: Schedule) -> None:
        """Best-effort read-repair of one lagging replica."""
        client = self._live_client(node)
        if client is None:
            return
        with span("cache.read_repair", node=node) as rsp:
            try:
                client.cache_put(digest, schedule)
            except ReproError as exc:
                rsp.status = "error"
                self._mark_failed(node, exc)
                return
        with self._lock:
            self.cluster_stats.read_repairs += 1

    def put(self, digest: str, schedule: Schedule, cost: float | None = None) -> None:
        """Store locally and replicate to every remote owner (best effort).

        The local tier always receives the entry — a computing node
        never throws its own work away, and a fully dead cluster
        degrades to exactly the single-process cache. Remote failures
        are counted, never raised.
        """
        self.local.put(digest, schedule, cost=cost)
        view = self.topology.view()
        for node in self._owners(digest, view):
            if node == self.node_id:
                continue  # stored by the local put above
            client = self._live_client(node)
            if client is None:
                continue
            with span("cache.remote_put", node=node) as rsp:
                try:
                    client.cache_put(digest, schedule, cost=cost)
                except ReproError as exc:
                    rsp.status = "error"
                    self._mark_failed(node, exc)
                    with self._lock:
                        self.cluster_stats.remote_put_errors += 1
                    continue
            self._mark_ok(node)
            state = self._state(node)
            with self._lock:
                state.puts += 1
                self.cluster_stats.remote_puts += 1

    def __contains__(self, digest: str) -> bool:
        """Local-tier containment only (no network probe)."""
        return digest in self.local

    def __len__(self) -> int:
        """Local-tier entry count (peers report theirs via ``cache_stats``)."""
        return len(self.local)

    def keys(self) -> Iterator[str]:
        """Local-tier digests only."""
        return self.local.keys()

    def discard(self, digest: str) -> bool:
        """Drop ``digest`` from the local tier only; True when present.

        Remote owners keep their copies — this is the handoff-eviction
        primitive, not a cluster-wide delete.
        """
        return self.local.discard(digest)

    def clear(self) -> None:
        """Drop the local tier; remote shards are their daemons' business."""
        self.local.clear()

    @property
    def maxsize(self) -> int:
        """The local tier's in-memory capacity."""
        return self.local.maxsize

    @property
    def disk_dir(self):
        """The local tier's persistent directory (``None`` when memory-only)."""
        return self.local.disk_dir

    def close(self) -> None:
        """Close every peer client (idempotent; peers keep running).

        Also stops observing the topology, stops the background
        anti-entropy sweeper, and aborts any in-flight key-space
        handoff stream.
        """
        with self._lock:
            self._closed = True
            states = list(self._nodes.values())
        self.topology.unsubscribe(self._on_topology_change)
        self.stop_sweeper()
        self.wait_for_handoff(timeout=1.0)  # the worker sees _closed fast
        for state in states:
            try:
                if state.client is not None:
                    state.client.close()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
        for client in self._preset_clients.values():
            try:
                client.close()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """The cluster view as plain cache counters (a fresh snapshot).

        A remote hit rescued a local miss, so cluster hits are local
        hits plus remote hits and cluster misses are local misses minus
        the rescued ones; the disk counters are the local tier's.
        """
        local = self.local.stats
        with self._lock:
            remote_hits = self.cluster_stats.remote_hits
        total = CacheStats(
            hits=local.hits + remote_hits,
            misses=max(local.misses - remote_hits, 0),
            evictions=local.evictions,
            puts=local.puts,
            disk_hits=local.disk_hits,
            disk_writes=local.disk_writes,
            disk_errors=local.disk_errors,
        )
        return total

    def per_node_stats(self) -> dict[str, dict[str, Any]]:
        """One health + counter dict per peer (for telemetry).

        Members never probed yet (no client materialized) report
        all-zero counters and ``up: true`` — a fresh joiner is assumed
        healthy until a probe says otherwise.
        """
        now = self._clock()
        with self._lock:
            stats = {nid: s.as_dict(now) for nid, s in self._nodes.items()}
        fresh = _NodeState(client=None).as_dict(now)
        for nid in self.topology.members:
            if nid != self.node_id and nid not in stats:
                stats[nid] = dict(fresh)
        return stats

    def as_dict(self) -> dict[str, Any]:
        """Local-tier stats plus the ``cluster`` section, JSON-ready.

        The shape extends the local tier's ``as_dict``: callers (the
        stats document, Prometheus rendering) read the usual cache
        counters at the top level and cluster telemetry under
        ``"cluster"``. Involves no network I/O — peer stats are their
        own daemons' ``cache_stats`` documents.
        """
        doc = self.local.as_dict()
        view = self.topology.view()
        with self._lock:
            cluster = self.cluster_stats.as_dict()
        doc["cluster"] = {
            **cluster,
            "node_id": self.node_id,
            "replication": self.replication,
            "epoch": view.epoch,
            "retry_interval": self.retry_interval,
            "handoff_active": self.handoff_active(),
            "ring_nodes": sorted(view.members),
            "dead_nodes": self.dead_nodes(),
            "nodes": self.per_node_stats(),
        }
        return doc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        view = self.topology.view()
        return (
            f"ClusterScheduleCache(node_id={self.node_id!r}, "
            f"epoch={view.epoch}, members={sorted(view.members)}, "
            f"replication={self.replication})"
        )
