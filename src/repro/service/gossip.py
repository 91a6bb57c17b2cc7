"""SWIM-style gossip membership layered on :class:`ClusterTopology`.

Without gossip, ring membership is *administered*: joins and leaves
arrive only via the ``repro topology`` CLI, so a crashed shard stays in
the ring until an operator notices. This module closes that gap with
the SWIM failure-detector pattern (Das et al., DSN 2002), adapted to
this codebase's synchronous request/reply transports:

* **Probing** — every :meth:`GossipNode.tick` pings one ring member
  (round-robin over a shuffled cycle, so every member is probed within
  ``N - 1`` ticks). A ping is one ``gossip`` op carrying this node's
  full view — epoch, member list and per-member state — and the ack
  carries the receiver's view back, so every exchange is also an
  anti-entropy round; there is no separate "sync" traffic.
* **Suspicion before death** — a failed direct probe falls back to
  ``indirect_probes`` randomly chosen proxies (the SWIM ``ping-req``):
  each proxy probes the target itself and reports back. Only when the
  direct and every indirect probe fail is the target marked *suspect*;
  only after ``suspicion_timeout`` more seconds without contradiction
  is it declared *dead* and removed from the topology (one epoch bump,
  spread to every member by the normal probe traffic — no admin CLI).
* **Incarnations and refutation** — every state claim carries the
  subject's incarnation number, and only the subject may increment it.
  A falsely suspected node learns of the suspicion from the piggyback,
  bumps its incarnation and is alive again one round trip later; a
  node that learns it was declared dead refutes the same way and
  rejoins the ring. Claims merge by the SWIM lattice: a higher
  incarnation always wins, and at equal incarnation ``dead`` beats
  ``suspect`` beats ``alive``.
* **Epoch convergence** — a strictly newer ``(epoch, members)`` pair
  replaces the local topology outright. When two views share an epoch
  but disagree on membership (concurrent deaths on both sides of a
  healed partition), both sides install the member *union* at
  ``epoch + 1`` — a commutative, idempotent merge, so both arrive at
  the same view — and any node wrongly resurrected by the union is
  re-removed by the still-circulating ``dead`` claim.

Because the protocol is timer- and randomness-driven, everything above
is written against an injectable clock, RNG and transport. Production
wires :class:`PeerGossipTransport` (``POST /v1/gossip`` via
:class:`~repro.service.cluster.RemoteShardClient`) and drives
ticks from a :class:`GossipRunner` thread (``repro serve
--gossip-interval``). The test suite instead plugs in an in-memory
simulator with a virtual clock, per-node seeded RNGs and per-link fault
rules, so every protocol path — suspicion, refutation, false-positive
recovery, partition heal — runs as a deterministic unit test. See
``docs/OPERATIONS.md`` for tunables and the flapping-node runbook.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Protocol

from ..errors import ReproError
from .cluster import ClusterTopology, RemoteShardClient, TopologyView
from .logging import get_logger
from .telemetry import Telemetry

__all__ = [
    "GossipConfig",
    "GossipNode",
    "GossipRunner",
    "GossipTransport",
    "MemberState",
    "PeerGossipTransport",
]

#: Seconds between probe rounds in production (``--gossip-interval``).
DEFAULT_GOSSIP_INTERVAL = 1.0
#: Seconds a suspect may refute before being declared dead.
DEFAULT_SUSPICION_TIMEOUT = 5.0
#: Proxies asked to probe an unreachable target before suspecting it.
DEFAULT_INDIRECT_PROBES = 3
#: Transport timeout for production gossip messages. Deliberately much
#: shorter than the cache's shard timeout: a slow ack is as good as a
#: lost one to a failure detector.
DEFAULT_GOSSIP_TIMEOUT = 2.0

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

#: Tiebreak at equal incarnation: a stronger claim wins.
_STATUS_RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2}


@dataclass(frozen=True)
class GossipConfig:
    """Tunables for one :class:`GossipNode`.

    ``interval`` is the seconds between probe rounds (the
    :class:`GossipRunner` tick period; the simulated clock advances by
    it per round), ``suspicion_timeout`` the seconds a suspect has to
    refute before it is declared dead, and ``indirect_probes`` the
    number of proxies asked to reach an unresponsive target first.
    """

    interval: float = DEFAULT_GOSSIP_INTERVAL
    suspicion_timeout: float = DEFAULT_SUSPICION_TIMEOUT
    indirect_probes: int = DEFAULT_INDIRECT_PROBES

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if self.suspicion_timeout <= 0:
            raise ValueError(
                f"suspicion_timeout must be positive, got {self.suspicion_timeout}"
            )
        if self.indirect_probes < 0:
            raise ValueError(
                f"indirect_probes must be >= 0, got {self.indirect_probes}"
            )


@dataclass
class MemberState:
    """One member's last known state (guarded by the node's lock).

    ``suspect_since`` is *this* node's local clock reading when the
    member entered suspicion — each node runs its own timeout rather
    than trusting a remote timestamp (clocks are not comparable).
    """

    status: str = ALIVE
    incarnation: int = 0
    suspect_since: float | None = None

    def as_doc(self) -> dict[str, Any]:
        """The wire shape of this state claim."""
        return {"status": self.status, "incarnation": self.incarnation}


class GossipTransport(Protocol):
    """How a :class:`GossipNode` reaches a peer (sync request/reply)."""

    def send(self, node: str, doc: dict[str, Any]) -> dict[str, Any]:
        """Deliver one gossip document to ``node``; return its ack.

        Raises :class:`~repro.errors.ReproError` (typically
        :class:`~repro.errors.ClusterShardError`) when the peer cannot
        be reached — the signal the failure detector exists to observe.
        """
        ...


class PeerGossipTransport:
    """The production transport: ``POST /v1/gossip`` to each peer.

    Lazily keeps one :class:`~repro.service.cluster.RemoteShardClient`
    per peer address (UNIX socket path or ``http://`` base URL) and
    reuses its keep-alive connection across rounds. :meth:`forget` drops a
    departed peer's client — :class:`GossipNode` calls it from its
    topology subscription so dead members do not leak connections.
    """

    def __init__(
        self,
        timeout: float = DEFAULT_GOSSIP_TIMEOUT,
        client_factory: Callable[[str], Any] | None = None,
    ) -> None:
        self.timeout = float(timeout)
        self._factory = client_factory or (
            lambda address: RemoteShardClient(address, timeout=self.timeout)
        )
        self._lock = threading.Lock()
        self._clients: dict[str, Any] = {}

    def send(self, node: str, doc: dict[str, Any]) -> dict[str, Any]:
        """Send one gossip document to the peer dialed at ``node``."""
        with self._lock:
            client = self._clients.get(node)
            if client is None:
                client = self._clients[node] = self._factory(node)
        return client.gossip(doc)

    def forget(self, node: str) -> None:
        """Close and drop the cached client for a departed peer."""
        with self._lock:
            client = self._clients.pop(node, None)
        if client is not None:
            try:
                client.close()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass

    def close(self) -> None:
        """Close every cached peer client."""
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            try:
                client.close()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass


class GossipNode:
    """One ring member's SWIM state machine (transport-agnostic).

    The node *observes and mutates* the shared
    :class:`~repro.service.cluster.ClusterTopology` — a confirmed death
    applies ``topology.leave`` (one epoch bump the cluster cache and
    every peer converge on), a refuted death applies ``topology.join``
    — and subscribes to it, so administrative changes made through the
    ``topology_update`` op flow into the gossip state too.

    Parameters
    ----------
    node_id:
        This node's ring id (the address peers dial).
    topology:
        The shared epoch-versioned membership to keep honest.
    transport:
        How to reach peers (:class:`PeerGossipTransport` in production,
        an in-memory simulator in tests).
    config:
        Protocol tunables; ``None`` uses the defaults.
    clock:
        Monotonic-seconds source (injectable for the simulator).
    rng:
        Randomness for probe-order shuffling and proxy sampling
        (seedable for the simulator).
    telemetry:
        Optional registry; protocol counters mirror into it as
        ``gossip_<name>`` counters.

    Thread safety: ``tick`` (the runner thread) and ``handle`` (the
    transport threads) may run concurrently; all member state is
    guarded by one re-entrant lock, and network sends happen outside
    it.
    """

    def __init__(
        self,
        node_id: str,
        topology: ClusterTopology,
        transport: GossipTransport,
        config: GossipConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        rng: random.Random | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not node_id:
            raise ValueError("node_id must be a non-empty string")
        self.node_id = node_id
        self.topology = topology
        self.transport = transport
        self.config = config or GossipConfig()
        self.telemetry = telemetry
        #: This node's own incarnation; only refutation increments it.
        self.incarnation = 0
        #: Protocol event counters (see ``_incr`` call sites).
        self.counters: dict[str, int] = {}
        self._clock = clock
        self._rng = rng or random.Random()
        self._lock = threading.RLock()
        self._states: dict[str, MemberState] = {
            member: MemberState()
            for member in topology.members
            if member != node_id
        }
        self._probe_queue: list[str] = []
        topology.subscribe(self._on_topology_change)

    def close(self) -> None:
        """Stop observing the topology (idempotent)."""
        self.topology.unsubscribe(self._on_topology_change)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def member_states(self) -> dict[str, dict[str, Any]]:
        """A snapshot of every tracked member's state document."""
        with self._lock:
            return {node: state.as_doc() for node, state in self._states.items()}

    def as_dict(self) -> dict[str, Any]:
        """Protocol state for stats documents, JSON-ready."""
        with self._lock:
            return {
                "node_id": self.node_id,
                "incarnation": self.incarnation,
                "interval": self.config.interval,
                "suspicion_timeout": self.config.suspicion_timeout,
                "members": {
                    node: state.as_doc() for node, state in self._states.items()
                },
                "counters": dict(self.counters),
            }

    def _incr(self, name: str) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + 1
        if self.telemetry is not None:
            self.telemetry.incr(f"gossip_{name}")

    # ------------------------------------------------------------------
    # the wire documents
    # ------------------------------------------------------------------
    def wire_doc(self, kind: str | None = None) -> dict[str, Any]:
        """This node's full view as one gossip document.

        Piggybacked on every probe and every ack: the topology's
        ``(epoch, members)`` pair plus every known member-state claim,
        with this node always claiming itself alive at its current
        incarnation (the refutation carrier).
        """
        with self._lock:
            states = {node: state.as_doc() for node, state in self._states.items()}
            states[self.node_id] = {"status": ALIVE, "incarnation": self.incarnation}
        view = self.topology.view()
        doc: dict[str, Any] = {
            "from": self.node_id,
            "epoch": view.epoch,
            "members": sorted(view.members),
            "states": states,
        }
        if kind is not None:
            doc["kind"] = kind
        return doc

    def handle(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one incoming gossip document; returns the ack body.

        ``kind: "ping"`` merges the sender's view and acks. ``kind:
        "ping_req"`` additionally probes ``target`` on the sender's
        behalf (the indirect-probe path) and acks with the outcome.
        Every ack carries this node's (post-merge) view back.

        Raises
        ------
        ReproError
            On a malformed document (unknown kind, bad ``target``).
        """
        if not isinstance(doc, Mapping):
            raise ReproError("gossip payload must be a JSON object")
        kind = doc.get("kind", "ping")
        if kind not in ("ping", "ping_req"):
            raise ReproError(f"unknown gossip kind {kind!r}")
        self.merge(doc)
        ack = True
        if kind == "ping_req":
            target = doc.get("target")
            if not isinstance(target, str) or not target:
                raise ReproError("'target' must be a non-empty string for ping_req")
            self._incr("proxy_probes")
            resp = self._try_send(target, self.wire_doc("ping"))
            if resp is None:
                ack = False
            else:
                self.merge(resp)
                ack = bool(resp.get("ack", True))
        return {"ack": ack, **self.wire_doc()}

    # ------------------------------------------------------------------
    # the probe cycle
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One protocol round: expire suspects, probe one member.

        Driven by the :class:`GossipRunner` thread in production and by
        the in-memory simulator in tests. Never raises for an
        unreachable peer — that is the observation, not an error.
        """
        now = self._clock()
        expired: list[str] = []
        with self._lock:
            for node, state in sorted(self._states.items()):
                if (
                    state.status == SUSPECT
                    and state.suspect_since is not None
                    and now - state.suspect_since >= self.config.suspicion_timeout
                ):
                    state.status = DEAD
                    state.suspect_since = None
                    expired.append(node)
        for node in expired:
            self._apply_death(node)
        target = self._next_target()
        if target is None:
            return
        with self._lock:
            state = self._states.get(target)
            target_dead = state is not None and state.status == DEAD
        if target_dead:
            # A resurrection probe: dead latches stay in the rotation so
            # a healed partition (both sides removed each other) can
            # reconnect — the ping carries our dead claim, the target
            # refutes it, and the ack's view merges both sides back
            # together. Direct ping only: no proxies, no suspicion
            # bookkeeping for a node already past dead.
            self._incr("resurrection_probes")
            resp = self._try_send(target, self.wire_doc("ping"))
            if resp is not None:
                self.merge(resp)
            return
        if self._probe(target):
            return
        with self._lock:
            state = self._states.get(target)
            if state is not None and state.status == ALIVE:
                state.status = SUSPECT
                state.suspect_since = self._clock()
                self._incr("suspicions")

    def _next_target(self) -> str | None:
        """The next probe target: round-robin over a shuffled cycle.

        Dead-latched members stay in the rotation (see the resurrection
        probe in :meth:`tick`); a cycle therefore visits every tracked
        state once, in a per-cycle shuffled order.
        """
        with self._lock:
            while True:
                if not self._probe_queue:
                    if not self._states:
                        return None
                    queue = sorted(self._states)
                    self._rng.shuffle(queue)
                    self._probe_queue = queue
                node = self._probe_queue.pop()
                if node in self._states:
                    return node

    def _probe(self, target: str) -> bool:
        """Direct probe, then indirect via sampled proxies; True = alive."""
        self._incr("probes")
        resp = self._try_send(target, self.wire_doc("ping"))
        if resp is not None:
            self.merge(resp)
            if resp.get("ack", True):
                return True
        with self._lock:
            eligible = sorted(
                node
                for node, state in self._states.items()
                if state.status != DEAD and node != target
            )
        k = min(self.config.indirect_probes, len(eligible))
        if 0 < k < len(eligible):
            proxies = self._rng.sample(eligible, k)
        else:
            proxies = eligible[:k]
        for proxy in proxies:
            self._incr("indirect_probes")
            resp = self._try_send(
                proxy, {**self.wire_doc("ping_req"), "target": target}
            )
            if resp is None:
                continue
            self.merge(resp)
            if resp.get("ack"):
                return True
        self._incr("probe_failures")
        return False

    def _try_send(self, node: str, doc: dict[str, Any]) -> dict[str, Any] | None:
        try:
            resp = self.transport.send(node, doc)
        except ReproError:
            return None
        return resp if isinstance(resp, Mapping) else None

    # ------------------------------------------------------------------
    # merging remote views
    # ------------------------------------------------------------------
    def merge(self, doc: Mapping[str, Any]) -> None:
        """Fold a peer's gossip document into local state.

        Malformed fields are skipped, never raised — a half-garbled
        view from a confused peer must not take the detector down.
        """
        # A dead claim often rides in the very document whose epoch
        # removes its subject; snapshot the pre-merge membership so the
        # claim still lands as a latch after the replace (otherwise the
        # subject would look like stale chatter and the death — or its
        # refutation — would stop spreading here).
        members_before = self.topology.members
        epoch = doc.get("epoch")
        members = doc.get("members")
        if (
            isinstance(epoch, int)
            and not isinstance(epoch, bool)
            and isinstance(members, list)
            and all(isinstance(m, str) and m for m in members)
        ):
            self._merge_epoch(epoch, members)
        states = doc.get("states")
        if isinstance(states, Mapping):
            self._merge_states(states, members_before)

    def _merge_epoch(self, epoch: int, members: Sequence[str]) -> None:
        view = self.topology.view()
        if epoch > view.epoch:
            # Strictly newer wins outright: the sender has seen changes
            # this node has not.
            try:
                self.topology.replace(sorted(members), epoch=epoch)
            except ReproError:
                pass  # lost a race to an even newer epoch
        elif epoch == view.epoch and set(members) != view.members:
            # Same epoch, different members: concurrent changes on both
            # sides of a partition. Install the union one epoch up —
            # commutative and idempotent, so both sides land on the
            # same view; wrongly resurrected members are re-removed by
            # their still-circulating dead claims.
            merged = sorted(set(members) | view.members)
            try:
                self.topology.replace(merged, epoch=epoch + 1)
            except ReproError:
                pass
            self._incr("epoch_merges")

    @staticmethod
    def _supersedes(status: str, incarnation: int, current: MemberState) -> bool:
        if incarnation != current.incarnation:
            return incarnation > current.incarnation
        return _STATUS_RANK[status] > _STATUS_RANK[current.status]

    def _merge_states(
        self,
        states: Mapping[str, Any],
        former_members: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        deaths: list[str] = []
        rejoins: list[str] = []
        rejoin_self = False
        with self._lock:
            members = self.topology.members
            for node in sorted(states):
                claim = states[node]
                if not isinstance(claim, Mapping):
                    continue
                status = claim.get("status")
                incarnation = claim.get("incarnation")
                if (
                    status not in _STATUS_RANK
                    or not isinstance(incarnation, int)
                    or isinstance(incarnation, bool)
                    or incarnation < 0
                ):
                    continue
                if node == self.node_id:
                    if self._merge_self_claim(str(status), incarnation):
                        rejoin_self = True
                    continue
                current = self._states.get(node)
                if current is None:
                    if node in members or (
                        node in former_members and status == DEAD
                    ):
                        # Current members are always tracked; a dead
                        # claim about a member the same document just
                        # removed becomes a latch (so the death keeps
                        # spreading and resurrection probes run).
                        current = self._states[node] = MemberState()
                    else:
                        continue  # stale chatter about a forgotten node
                if not self._supersedes(str(status), incarnation, current):
                    continue
                was_dead = current.status == DEAD
                current.incarnation = incarnation
                current.status = str(status)
                if status == SUSPECT:
                    # Run our own timeout from our own clock; remote
                    # timestamps are not comparable across nodes.
                    if current.suspect_since is None:
                        current.suspect_since = self._clock()
                else:
                    current.suspect_since = None
                if status == DEAD:
                    if not was_dead:
                        deaths.append(node)
                elif was_dead:
                    rejoins.append(node)
        for node in deaths:
            self._apply_death(node)
        for node in rejoins:
            self._apply_rejoin(node)
        if rejoin_self and self.node_id not in self.topology.members:
            self._apply_rejoin(self.node_id)

    def _merge_self_claim(self, status: str, incarnation: int) -> bool:
        """Handle a claim about *this* node; True = rejoin the ring.

        Caller holds the lock. An alive claim at a higher incarnation
        is adopted (a restarted process catching up with its old self);
        a suspect or dead claim at our incarnation or above is refuted
        by incrementing past it — the next outgoing document carries
        the new incarnation and beats the stale claim everywhere.
        """
        if status == ALIVE:
            if incarnation > self.incarnation:
                self.incarnation = incarnation
            return False
        if incarnation >= self.incarnation:
            self.incarnation = incarnation + 1
            self._incr("refutations")
            return status == DEAD
        return False

    def _apply_death(self, node: str) -> None:
        """Remove a confirmed-dead member from the shared topology."""
        try:
            self.topology.leave(node)
        except ReproError:
            pass  # another path (or another node's epoch) removed it first
        self._incr("deaths")

    def _apply_rejoin(self, node: str) -> None:
        """Re-admit a refuted member (or this node itself) to the ring."""
        try:
            self.topology.join(node)
        except ReproError:
            pass  # already re-admitted via a newer epoch
        self._incr("rejoins")

    # ------------------------------------------------------------------
    # topology subscription
    # ------------------------------------------------------------------
    def _on_topology_change(self, old: TopologyView, new: TopologyView) -> None:
        """Track membership edits from any source (admin CLI included)."""
        with self._lock:
            for node in sorted(new.members - old.members):
                if node == self.node_id:
                    continue
                state = self._states.get(node)
                if state is None:
                    self._states[node] = MemberState()
                elif state.status == DEAD:
                    # Readmitted by a newer epoch before its refutation
                    # reached us; keep the incarnation (its own claims
                    # have moved past it) but stop calling it dead.
                    state.status = ALIVE
                    state.suspect_since = None
            for node in sorted(old.members - new.members):
                state = self._states.get(node)
                if state is not None and state.status != DEAD:
                    # A clean leave: forget it. A death keeps its latch
                    # so the dead claim spreads until everyone knows.
                    del self._states[node]
            self._probe_queue = [n for n in self._probe_queue if n in new.members]
        forget = getattr(self.transport, "forget", None)
        if forget is None:
            return
        for node in sorted(old.members - new.members):
            if node == self.node_id:
                continue
            try:
                forget(node)
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass


class GossipRunner:
    """Drives :meth:`GossipNode.tick` from a daemon background thread.

    ``repro serve --gossip-interval`` starts one; the interval defaults
    to the node's configured one. A tick that raises is logged and the
    loop continues — the failure detector must not die of one bad
    round.
    """

    def __init__(self, node: GossipNode, interval: float | None = None) -> None:
        self.node = node
        self.interval = float(
            interval if interval is not None else node.config.interval
        )
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._log = get_logger("repro.service.gossip")

    def start(self) -> None:
        """Start the probe loop (idempotent while running)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-gossip", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.node.tick()
            except Exception:  # noqa: BLE001 - one bad round must not stop probing
                self._log.exception("gossip tick failed")

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the probe loop and join the thread (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None
