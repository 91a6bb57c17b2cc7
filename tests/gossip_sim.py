"""A deterministic in-memory gossip cluster for tests.

:class:`SimNetwork` runs :class:`~repro.service.gossip.GossipNode`
instances over :class:`SimTransport` links with a virtual clock,
per-node seeded RNGs and per-link fault rules (drop probability, delay,
partition, crash), so every protocol path — suspicion, refutation,
false-positive recovery, partition heal — is a reproducible unit test
instead of a sleep-based integration test. It plugs into the node's
injectable clock, RNG and :class:`~repro.service.gossip.GossipTransport`.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Sequence
from typing import Any

from repro.errors import ClusterShardError
from repro.service import ClusterTopology, GossipConfig, GossipNode


class SimTransport:
    """One simulated node's :class:`GossipTransport` (see :class:`SimNetwork`)."""

    def __init__(self, network: "SimNetwork", node_id: str) -> None:
        self.network = network
        self.node_id = node_id

    def send(self, node: str, doc: dict[str, Any]) -> dict[str, Any]:
        """Route the document through the simulated network."""
        return self.network.deliver(self.node_id, node, doc)


class SimNetwork:
    """An in-memory gossip cluster with a virtual clock and fault rules.

    Every source of nondeterminism is pinned: time only moves when
    :meth:`advance` (or :meth:`run_round`) moves it, every node's RNG
    is seeded from ``seed`` and its id, link-level drops draw from one
    seeded RNG, and nodes tick in sorted-id order. The same seed and
    the same fault script therefore replay the same protocol history,
    byte for byte — which is what makes suspicion, refutation and
    partition-heal unit-testable.

    Fault injection is per directed link or per node:

    * :meth:`crash` — the node stops ticking and answering (SIGKILL).
    * :meth:`partition` — both directions of a link fail outright.
    * :meth:`set_drop` — each message on the link is lost with a
      probability (drawn from the seeded RNG).
    * :meth:`set_delay` — messages slower than ``timeout`` count as
      lost (a synchronous transport cannot tell late from never).
    * :meth:`heal` — remove one link's rules, or all of them.

    Documents cross the "wire" through a JSON round trip, so anything
    a node tries to gossip must really be wire-serializable.
    """

    def __init__(
        self,
        seed: int = 0,
        config: GossipConfig | None = None,
        timeout: float = 1.0,
    ) -> None:
        self.seed = int(seed)
        self.config = config or GossipConfig()
        self.timeout = float(timeout)
        self.now = 0.0
        self.nodes: dict[str, GossipNode] = {}
        self.crashed: set[str] = set()
        self.delivered = 0
        self.failed = 0
        self._rules: dict[tuple[str, str], dict[str, float]] = {}
        self._drop_rng = random.Random(self.seed ^ 0x5EED)

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def clock(self) -> float:
        """The virtual monotonic clock (inject as every node's clock)."""
        return self.now

    def advance(self, seconds: float) -> None:
        """Move virtual time forward."""
        self.now += float(seconds)

    def _node_rng(self, node_id: str) -> random.Random:
        # sha256, not hash(): str hashing is salted per process and
        # would break cross-run determinism.
        digest = hashlib.sha256(node_id.encode("utf-8")).digest()
        return random.Random(self.seed ^ int.from_bytes(digest[:8], "big"))

    def add_node(
        self,
        node_id: str,
        members: Sequence[str],
        *,
        epoch: int = 1,
        topology: ClusterTopology | None = None,
    ) -> GossipNode:
        """Create and register one simulated member.

        ``members`` seeds the node's own :class:`ClusterTopology` at
        ``epoch`` (pass an explicit ``topology`` to share or pre-shape
        one). A mid-test joiner typically starts with the sponsor's
        member set plus itself at ``sponsor.epoch + 1`` and gossips
        itself into everyone else.
        """
        if node_id in self.nodes:
            raise ValueError(f"sim node {node_id!r} already exists")
        if topology is None:
            topology = ClusterTopology(sorted(set(members)), epoch=epoch)
        node = GossipNode(
            node_id,
            topology,
            SimTransport(self, node_id),
            self.config,
            clock=self.clock,
            rng=self._node_rng(node_id),
        )
        self.nodes[node_id] = node
        return node

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash(self, node_id: str) -> None:
        """SIGKILL the node: it stops ticking and answering."""
        self.crashed.add(node_id)

    def revive(self, node_id: str) -> None:
        """Undo :meth:`crash` (the process is back, state intact)."""
        self.crashed.discard(node_id)

    def _set_rule(self, a: str, b: str, key: str, value: float) -> None:
        for link in ((a, b), (b, a)):
            self._rules.setdefault(link, {})[key] = value

    def partition(self, a: str, b: str) -> None:
        """Cut the link between ``a`` and ``b`` (both directions)."""
        self._set_rule(a, b, "drop", 1.0)

    def set_drop(self, a: str, b: str, probability: float) -> None:
        """Lose each message on the link with this probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self._set_rule(a, b, "drop", probability)

    def set_delay(self, a: str, b: str, seconds: float) -> None:
        """Delay the link; at or past ``timeout`` it behaves as lost."""
        self._set_rule(a, b, "delay", float(seconds))

    def heal(self, a: str | None = None, b: str | None = None) -> None:
        """Remove one link's fault rules, or every rule when no link given."""
        if a is None and b is None:
            self._rules.clear()
            return
        if a is None or b is None:
            raise ValueError("heal takes both endpoints, or neither")
        self._rules.pop((a, b), None)
        self._rules.pop((b, a), None)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _check_link(self, src: str, dst: str, what: str) -> None:
        rule = self._rules.get((src, dst))
        if rule is None:
            return
        drop = rule.get("drop", 0.0)
        if drop > 0.0 and self._drop_rng.random() < drop:
            self.failed += 1
            raise ClusterShardError(f"sim link {src}->{dst} dropped the {what}")
        if rule.get("delay", 0.0) >= self.timeout:
            self.failed += 1
            raise ClusterShardError(f"sim link {src}->{dst} timed out")

    def deliver(self, src: str, dst: str, doc: dict[str, Any]) -> dict[str, Any]:
        """One request/reply exchange, subject to the fault rules."""
        if src in self.crashed:
            raise ClusterShardError(f"sim node {src} is down")
        # The JSON round trip plays the role of the wire: it both
        # proves serializability and severs shared mutable state.
        wire = json.loads(json.dumps(doc))
        if dst not in self.nodes or dst in self.crashed:
            self.failed += 1
            raise ClusterShardError(f"sim node {dst} is unreachable")
        self._check_link(src, dst, "request")
        response = self.nodes[dst].handle(wire)
        self._check_link(dst, src, "reply")
        self.delivered += 1
        return json.loads(json.dumps(response))

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def live_nodes(self) -> list[GossipNode]:
        """Every non-crashed node, in id order."""
        return [
            self.nodes[node_id]
            for node_id in sorted(self.nodes)
            if node_id not in self.crashed
        ]

    def run_round(self) -> None:
        """Tick every live node once (id order), then advance one interval."""
        for node in self.live_nodes():
            node.tick()
        self.advance(self.config.interval)

    def converged(self) -> bool:
        """Whether every live node reports one ``(epoch, members)`` pair."""
        views = {
            (node.topology.epoch, node.topology.members)
            for node in self.live_nodes()
        }
        return len(views) <= 1

    def run_until_converged(self, max_rounds: int) -> int:
        """Run rounds until convergence; returns the rounds consumed.

        Raises
        ------
        AssertionError
            When the cluster still disagrees after ``max_rounds`` — the
            failure mode the bounded-convergence property tests gate.
        """
        for rounds in range(int(max_rounds) + 1):
            if self.converged():
                return rounds
            self.run_round()
        views = {
            node.node_id: (node.topology.epoch, sorted(node.topology.members))
            for node in self.live_nodes()
        }
        raise AssertionError(
            f"gossip did not converge within {max_rounds} rounds: {views}"
        )
