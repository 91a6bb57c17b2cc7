"""Tests for the cluster's self-repair loops (repro.service.cluster).

Three repair mechanisms deferred from the original handoff work:
handoff *eviction* (a cleanly re-homed key leaves the old owner's
local tier), the background *anti-entropy sweep* (under-replicated
keys are pushed back up to the configured replication, idempotently),
and circuit-breaker *healing* under an injected clock (a partitioned
then healed link never leaves a permanently open breaker). Everything
runs over in-process shard clients — no sockets, no sleeps beyond the
paced pushes themselves.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from repro.errors import ClusterShardError
from repro.graphs import GridGraph
from repro.perm import random_permutation
from repro.routing import route
from repro.service import (
    ClusterScheduleCache,
    ClusterTopology,
    InProcessShardClient,
    LRUCache,
    ScheduleCache,
)
from repro.service.handler import _CLUSTER_COUNTER_FIELDS, render_prometheus

JOIN_TIMEOUT = 60.0


def _digest(i: int) -> str:
    return hashlib.sha256(f"key-{i}".encode()).hexdigest()


DIGESTS = [_digest(i) for i in range(128)]

#: Fast pacing so paced pushes don't slow the suite down.
FAST = {"handoff_rate": 100_000.0}


@pytest.fixture(scope="module")
def schedule():
    grid = GridGraph(3, 3)
    return route(grid, random_permutation(grid, seed=0))


class CountingClient:
    """An :class:`InProcessShardClient` that records every put digest."""

    def __init__(self, tier):
        self.inner = InProcessShardClient(tier)
        self.put_digests: list[str] = []

    def ping(self):
        return self.inner.ping()

    def cache_get(self, digest):
        return self.inner.cache_get(digest)

    def cache_put(self, digest, schedule, cost=None):
        self.put_digests.append(digest)
        return self.inner.cache_put(digest, schedule, cost=cost)

    def cache_stats(self):
        return self.inner.cache_stats()

    def close(self):
        self.inner.close()


class FlakyClient:
    """A shard client whose link can be cut and healed mid-test."""

    def __init__(self, tier):
        self.tier = tier
        self.failing = False

    def _check(self):
        if self.failing:
            raise ClusterShardError("simulated partition")

    def ping(self):
        return not self.failing

    def cache_get(self, digest):
        self._check()
        return self.tier.get(digest)

    def cache_put(self, digest, schedule, cost=None):
        self._check()
        self.tier.put(digest, schedule, cost=cost)
        return True

    def cache_stats(self):
        self._check()
        return self.tier.as_dict()

    def close(self):
        pass


# ----------------------------------------------------------------------
# local-tier discard (the eviction primitive)
# ----------------------------------------------------------------------
class TestDiscard:
    def test_lru_discard_is_not_an_eviction(self):
        cache = LRUCache(maxsize=8)
        cache.put(DIGESTS[0], "x")
        assert cache.discard(DIGESTS[0]) is True
        assert cache.discard(DIGESTS[0]) is False
        assert DIGESTS[0] not in cache
        # Deliberate removal: the capacity-pressure counter stays 0.
        assert cache.stats.evictions == 0

    def test_schedule_cache_discard_drops_disk_copy(self, schedule, tmp_path):
        cache = ScheduleCache(maxsize=8, disk_dir=tmp_path)
        cache.put(DIGESTS[1], schedule)
        path = tmp_path / f"{DIGESTS[1]}.rsc"
        assert path.exists()
        assert cache.discard(DIGESTS[1]) is True
        assert not path.exists()
        # Without the disk unlink the next get would resurrect it.
        assert cache.get(DIGESTS[1]) is None


# ----------------------------------------------------------------------
# handoff eviction
# ----------------------------------------------------------------------
class TestHandoffEviction:
    def test_rehomed_keys_leave_old_owner_but_stay_served(self, schedule):
        tier_a = ScheduleCache(maxsize=512)
        tier_b = ScheduleCache(maxsize=512)
        a = ClusterScheduleCache(
            tier_a,
            node_id="A",
            replication=1,
            client_factory=lambda addr: InProcessShardClient(tier_b),
            **FAST,
        )
        try:
            for d in DIGESTS[:64]:
                a.put(d, schedule)
            assert all(d in tier_a for d in DIGESTS[:64])

            a.topology.join("B")
            assert a.wait_for_handoff(JOIN_TIMEOUT)

            moved = [
                d for d in DIGESTS[:64] if a.ring.replicas(d, 1) == ["B"]
            ]
            kept = [d for d in DIGESTS[:64] if d not in moved]
            assert moved and kept  # the split is meaningful
            # Re-homed keys left the old owner's local tier...
            assert all(d not in tier_a for d in moved)
            assert all(d in tier_b for d in moved)
            # ...but the cluster still serves them (remotely).
            for d in moved[:8]:
                assert a.get(d) == schedule
            assert all(d in tier_a for d in kept)
            assert a.cluster_stats.handoff_evicted == len(moved)
            assert a.cluster_stats.handoff_keys_sent >= len(moved)
        finally:
            a.close()

    def test_failed_push_keeps_the_local_copy(self, schedule):
        tier_a = ScheduleCache(maxsize=512)
        dead_tier = ScheduleCache(maxsize=512)
        client = FlakyClient(dead_tier)
        client.failing = True
        a = ClusterScheduleCache(
            tier_a,
            node_id="A",
            replication=1,
            client_factory=lambda addr: client,
            **FAST,
        )
        try:
            for d in DIGESTS[:32]:
                a.put(d, schedule)
            a.topology.join("B")
            assert a.wait_for_handoff(JOIN_TIMEOUT)
            # Nothing confirmed, so nothing was evicted: an entry must
            # always survive somewhere.
            assert a.cluster_stats.handoff_evicted == 0
            assert all(d in tier_a for d in DIGESTS[:32])
            assert a.cluster_stats.handoff_errors >= 1
        finally:
            a.close()

    def test_evicted_counter_reaches_prometheus(self, schedule):
        assert "handoff_evicted" in _CLUSTER_COUNTER_FIELDS
        assert "sweep_repairs" in _CLUSTER_COUNTER_FIELDS
        tier = ScheduleCache(maxsize=8)
        cluster = ClusterScheduleCache(tier, node_id="A", replication=1)
        try:
            text = render_prometheus({"schedule_cache": cluster.as_dict()})
        finally:
            cluster.close()
        assert "repro_cluster_handoff_evicted_total 0" in text
        assert "repro_cluster_sweep_repairs_total 0" in text


# ----------------------------------------------------------------------
# anti-entropy sweep
# ----------------------------------------------------------------------
def _three_node_ring(schedule):
    """Node A's cluster cache over a static 3-member ring.

    Returns ``(a, tiers, clients)`` where ``clients`` maps peer name to
    its :class:`CountingClient` so tests can assert exactly which
    digests were pushed.
    """
    tiers = {n: ScheduleCache(maxsize=512) for n in ("A", "B", "C")}
    clients = {n: CountingClient(tiers[n]) for n in ("B", "C")}
    a = ClusterScheduleCache(
        tiers["A"],
        node_id="A",
        replication=2,
        topology=ClusterTopology(["A", "B", "C"]),
        client_factory=lambda addr: clients[addr],
        handoff=False,
        **FAST,
    )
    return a, tiers, clients


class TestAntiEntropySweep:
    def test_under_replicated_keys_repaired_idempotently(self, schedule):
        a, tiers, clients = _three_node_ring(schedule)
        try:
            owned = [d for d in DIGESTS if "A" in a.ring.replicas(d, 2)]
            lonely, healthy = owned[: len(owned) // 2], owned[len(owned) // 2 :]
            assert lonely and healthy
            for d in lonely:  # only this node holds a copy
                tiers["A"].put(d, schedule)
            for d in healthy:  # every owner already holds a copy
                for owner in a.ring.replicas(d, 2):
                    tiers[owner].put(d, schedule)

            summary = a.anti_entropy_sweep()
            assert summary["aborted"] is False
            assert summary["scanned"] == len(owned)
            assert summary["repaired"] == len(lonely)
            pushed = clients["B"].put_digests + clients["C"].put_digests
            # Exactly the lonely keys were pushed — healthy keys got no
            # duplicate puts.
            assert sorted(pushed) == sorted(lonely)
            for d in lonely:
                peer = next(
                    n for n in a.ring.replicas(d, 2) if n != "A"
                )
                assert d in tiers[peer]

            # A second pass over the now-healthy ring repairs nothing.
            again = a.anti_entropy_sweep()
            assert again["repaired"] == 0 and again["aborted"] is False
            assert len(clients["B"].put_digests + clients["C"].put_digests) == len(
                pushed
            )
            assert a.cluster_stats.sweep_rounds == 2
            assert a.cluster_stats.sweep_repairs == len(lonely)
            assert a.cluster_stats.sweep_errors == 0
        finally:
            a.close()

    def test_keys_this_node_does_not_own_are_skipped(self, schedule):
        a, tiers, clients = _three_node_ring(schedule)
        try:
            strays = [d for d in DIGESTS if "A" not in a.ring.replicas(d, 2)]
            assert strays
            for d in strays[:8]:  # e.g. left behind by an old epoch
                tiers["A"].put(d, schedule)
            summary = a.anti_entropy_sweep()
            assert summary["scanned"] == 0 and summary["repaired"] == 0
            assert not clients["B"].put_digests and not clients["C"].put_digests
        finally:
            a.close()

    def test_sweep_noop_when_node_off_the_ring(self, schedule):
        tier = ScheduleCache(maxsize=64)
        a = ClusterScheduleCache(
            tier,
            node_id="A",
            replication=2,
            topology=ClusterTopology(["B", "C"]),
            handoff=False,
        )
        try:
            tier.put(DIGESTS[0], schedule)
            summary = a.anti_entropy_sweep()
            assert summary == {
                "scanned": 0,
                "repaired": 0,
                "errors": 0,
                "aborted": False,
            }
        finally:
            a.close()

    def test_dead_peer_counts_errors_not_raises(self, schedule):
        tiers = {n: ScheduleCache(maxsize=64) for n in ("A", "B")}
        client = FlakyClient(tiers["B"])
        client.failing = True
        a = ClusterScheduleCache(
            tiers["A"],
            node_id="A",
            replication=2,
            topology=ClusterTopology(["A", "B"]),
            client_factory=lambda addr: client,
            handoff=False,
            **FAST,
        )
        try:
            for d in DIGESTS[:4]:
                tiers["A"].put(d, schedule)
            summary = a.anti_entropy_sweep()
            assert summary["errors"] >= 1 and summary["repaired"] == 0
            # The breaker keeps later probes cheap, and the pass still
            # completes (a dead peer must not wedge the repair loop).
            assert summary["aborted"] is False
        finally:
            a.close()

    def test_sweeper_thread_lifecycle(self, schedule):
        a, tiers, clients = _three_node_ring(schedule)
        try:
            with pytest.raises(ValueError):
                a.start_sweeper(0.0)
            a.start_sweeper(0.005)
            a.start_sweeper(0.005)  # idempotent while running
            for _ in range(400):
                if a.cluster_stats.sweep_rounds >= 2:
                    break
                time.sleep(0.005)
            a.stop_sweeper()
            assert a.cluster_stats.sweep_rounds >= 2
            a.stop_sweeper()  # idempotent when stopped
        finally:
            a.close()


# ----------------------------------------------------------------------
# circuit-breaker healing under a virtual clock
# ----------------------------------------------------------------------
class TestBreakerHeal:
    def test_partitioned_then_healed_link_closes_breaker(self, schedule):
        now = {"t": 0.0}
        tiers = {n: ScheduleCache(maxsize=64) for n in ("A", "B")}
        client = FlakyClient(tiers["B"])
        a = ClusterScheduleCache(
            tiers["A"],
            node_id="A",
            replication=2,
            topology=ClusterTopology(["A", "B"]),
            client_factory=lambda addr: client,
            retry_interval=30.0,
            handoff=False,
            clock=lambda: now["t"],
            **FAST,
        )
        try:
            # Cut the link: the replicating put fails and opens the
            # breaker for one retry interval.
            client.failing = True
            a.put(DIGESTS[0], schedule)
            assert DIGESTS[0] in tiers["A"]  # local copy always lands
            stats_b = a.per_node_stats()["B"]
            assert stats_b["cooldown_remaining"] == pytest.approx(30.0)
            assert "B" in a.dead_nodes()

            # While open, traffic skips the peer instead of dialing it.
            a.put(DIGESTS[1], schedule)
            assert DIGESTS[1] not in tiers["B"]

            # Heal the link but not the clock: still in cooldown.
            client.failing = False
            now["t"] = 29.0
            assert a.per_node_stats()["B"]["cooldown_remaining"] > 0

            # Past the cooldown the breaker half-opens, the probe
            # succeeds, and the breaker closes fully: cooldown returns
            # to 0 and stays there.
            now["t"] = 30.5
            assert a.per_node_stats()["B"]["cooldown_remaining"] == 0
            a.put(DIGESTS[2], schedule)
            assert DIGESTS[2] in tiers["B"]
            stats_b = a.per_node_stats()["B"]
            assert stats_b["cooldown_remaining"] == 0
            assert stats_b["consecutive_failures"] == 0
            assert a.dead_nodes() == []

            # The healed link also lets the sweep re-replicate what the
            # partition left behind: with two members every key is
            # owned by both, and only the two partition-era puts are
            # missing on B.
            summary = a.anti_entropy_sweep()
            assert summary["repaired"] == 2 and summary["errors"] == 0
            for d in DIGESTS[:3]:
                assert d in tiers["B"]
        finally:
            a.close()
