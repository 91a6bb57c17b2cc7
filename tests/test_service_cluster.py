"""Tests for multi-host cache sharding (repro.service.cluster).

Three layers: :class:`HashRing` invariants (including the hypothesis
rebalancing properties — adding/removing a node moves only ~1/n of the
keys), :class:`ClusterScheduleCache` semantics over in-process shard
clients (replication, read-repair, failure isolation), and the real
remote-shard protocol against a daemon on a background thread.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from socket_daemon import JOIN_TIMEOUT, route_batch, shutdown, start_daemon, stats

from repro.errors import ClusterShardError
from repro.graphs import GridGraph
from repro.perm import random_permutation
from repro.routing import route
from repro.service import (
    AsyncRoutingService,
    ClusterScheduleCache,
    HashRing,
    HttpRoutingServer,
    InProcessShardClient,
    RemoteShardClient,
    RoutingService,
    ScheduleCache,
    wait_for_http,
)


def _digest(i: int) -> str:
    return hashlib.sha256(f"key-{i}".encode()).hexdigest()


DIGESTS = [_digest(i) for i in range(256)]


@pytest.fixture(scope="module")
def schedule():
    grid = GridGraph(3, 3)
    return route(grid, random_permutation(grid, seed=0))


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------
class TestHashRing:
    def test_owner_deterministic_and_member(self):
        ring = HashRing(["a", "b", "c"])
        for d in DIGESTS[:32]:
            assert ring.owner(d) == ring.owner(d)
            assert ring.owner(d) in {"a", "b", "c"}

    def test_same_members_same_ring(self):
        r1 = HashRing(["a", "b", "c"])
        r2 = HashRing(["c", "a", "b"])  # construction order is irrelevant
        assert all(r1.owner(d) == r2.owner(d) for d in DIGESTS)

    def test_replicas_distinct_and_clamped(self):
        ring = HashRing(["a", "b", "c"])
        for d in DIGESTS[:32]:
            reps = ring.replicas(d, 2)
            assert len(reps) == 2 and len(set(reps)) == 2
            assert ring.replicas(d, 10) == ring.replicas(d, 3)
            assert reps[0] == ring.owner(d)

    def test_balance_is_roughly_uniform(self):
        ring = HashRing(["a", "b", "c", "d"])
        counts = {n: 0 for n in "abcd"}
        for d in DIGESTS:
            counts[ring.owner(d)] += 1
        # 64 vnodes/node: no node should own a wildly skewed share.
        assert all(c > 0 for c in counts.values())
        assert max(counts.values()) < 3 * min(counts.values()) + 16

    def test_empty_and_invalid(self):
        ring = HashRing()
        assert ring.replicas(DIGESTS[0], 2) == []
        with pytest.raises(ValueError):
            ring.owner(DIGESTS[0])
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing([""])
        with pytest.raises(ValueError):
            ring.remove_node("ghost")
        ring.add_node("a")
        with pytest.raises(ValueError):
            ring.add_node("a")
        with pytest.raises(ValueError):
            ring.owner("not-hex")

    def test_membership_api(self):
        ring = HashRing(["a"])
        assert "a" in ring and len(ring) == 1
        ring.add_node("b")
        assert ring.nodes == frozenset({"a", "b"})
        ring.remove_node("a")
        assert "a" not in ring and len(ring) == 1


class TestHashRingRebalancing:
    """The consistent-hashing contract, property-tested."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_nodes=st.integers(min_value=1, max_value=8),
        newcomer=st.integers(min_value=100, max_value=120),
    )
    def test_adding_a_node_moves_about_one_nth(self, n_nodes, newcomer):
        nodes = [f"node-{i}" for i in range(n_nodes)]
        ring = HashRing(nodes)
        before = {d: ring.owner(d) for d in DIGESTS}
        ring.add_node(f"node-{newcomer}")
        moved = sum(1 for d in DIGESTS if ring.owner(d) != before[d])
        expected = len(DIGESTS) / (n_nodes + 1)
        # Every moved key must move *to* the newcomer (never between
        # old nodes), which bounds the disruption at the newcomer's
        # share of the ring.
        for d in DIGESTS:
            if ring.owner(d) != before[d]:
                assert ring.owner(d) == f"node-{newcomer}"
        assert moved <= 3 * expected + 16

    @settings(max_examples=25, deadline=None)
    @given(
        n_nodes=st.integers(min_value=2, max_value=8),
        victim=st.integers(min_value=0, max_value=7),
    )
    def test_removing_a_node_strands_only_its_keys(self, n_nodes, victim):
        victim %= n_nodes
        nodes = [f"node-{i}" for i in range(n_nodes)]
        ring = HashRing(nodes)
        before = {d: ring.owner(d) for d in DIGESTS}
        ring.remove_node(f"node-{victim}")
        for d in DIGESTS:
            if before[d] != f"node-{victim}":
                assert ring.owner(d) == before[d]

    @settings(max_examples=25, deadline=None)
    @given(
        n_nodes=st.integers(min_value=1, max_value=8),
        r=st.integers(min_value=1, max_value=4),
        idx=st.integers(min_value=0, max_value=len(DIGESTS) - 1),
    )
    def test_replica_sets_deterministic_and_distinct(self, n_nodes, r, idx):
        nodes = [f"node-{i}" for i in range(n_nodes)]
        digest = DIGESTS[idx]
        reps = HashRing(nodes).replicas(digest, r)
        assert reps == HashRing(list(reversed(nodes))).replicas(digest, r)
        assert len(reps) == min(r, n_nodes)
        assert len(set(reps)) == len(reps)

    @settings(max_examples=25, deadline=None)
    @given(n_nodes=st.integers(min_value=2, max_value=8))
    def test_add_then_remove_is_identity(self, n_nodes):
        nodes = [f"node-{i}" for i in range(n_nodes)]
        ring = HashRing(nodes)
        before = {d: ring.replicas(d, 2) for d in DIGESTS[:64]}
        ring.add_node("transient")
        ring.remove_node("transient")
        assert all(ring.replicas(d, 2) == before[d] for d in DIGESTS[:64])


# ----------------------------------------------------------------------
# ClusterScheduleCache over in-process clients
# ----------------------------------------------------------------------
class _FailingClient:
    """A shard client whose transport always dies (a dead daemon)."""

    def __init__(self):
        self.calls = 0

    def ping(self):
        return False

    def cache_get(self, digest):
        self.calls += 1
        raise ClusterShardError("shard is down")

    def cache_put(self, digest, schedule, cost=None):
        self.calls += 1
        raise ClusterShardError("shard is down")

    def cache_stats(self):
        raise ClusterShardError("shard is down")

    def close(self):
        pass


def _two_node_cluster(replication=2, **kwargs):
    """Two caches wired at each other through in-process clients."""
    tier_a, tier_b = ScheduleCache(maxsize=64), ScheduleCache(maxsize=64)
    a = ClusterScheduleCache(
        tier_a, {"B": InProcessShardClient(tier_b)}, node_id="A",
        replication=replication, **kwargs,
    )
    b = ClusterScheduleCache(
        tier_b, {"A": InProcessShardClient(tier_a)}, node_id="B",
        replication=replication, **kwargs,
    )
    return a, b, tier_a, tier_b


class TestClusterScheduleCache:
    def test_put_replicates_to_remote_owner(self, schedule):
        a, b, tier_a, tier_b = _two_node_cluster(replication=2)
        for d in DIGESTS[:16]:
            a.put(d, schedule, cost=0.5)
        # replication=2 on a 2-node ring: every key lands on both tiers.
        assert all(d in tier_a for d in DIGESTS[:16])
        assert all(d in tier_b for d in DIGESTS[:16])
        assert a.cluster_stats.remote_puts == 16

    def test_remote_hit_promotes_into_local_tier(self, schedule):
        a, b, tier_a, tier_b = _two_node_cluster(replication=1)
        # Seed only B's tier; A must fetch remotely exactly once.
        remote_owned = next(d for d in DIGESTS if a.ring.owner(d) == "B")
        tier_b.put(remote_owned, schedule)
        assert a.get(remote_owned) == schedule
        assert a.cluster_stats.remote_hits == 1
        assert remote_owned in tier_a  # promoted
        assert a.get(remote_owned) == schedule  # now a local hit
        assert a.cluster_stats.remote_hits == 1

    def test_cluster_wide_miss_returns_none(self, schedule):
        a, b, *_ = _two_node_cluster()
        assert a.get(DIGESTS[0]) is None
        assert a.cluster_stats.remote_hits == 0

    def test_read_repair_fills_lagging_replica(self, schedule):
        # Three nodes, replication 3: every node owns every key. Seed
        # only the *last* probed replica so the earlier one misses and
        # gets repaired.
        tiers = [ScheduleCache(maxsize=64) for _ in range(3)]
        names = ["n0", "n1", "n2"]
        local = ClusterScheduleCache(
            tiers[0],
            {"n1": InProcessShardClient(tiers[1]),
             "n2": InProcessShardClient(tiers[2])},
            node_id="n0",
            replication=3,
        )
        digest = DIGESTS[7]
        owners = [n for n in local.ring.replicas(digest, 3) if n != "n0"]
        assert len(owners) == 2
        last = owners[-1]
        tiers[names.index(last)].put(digest, schedule)
        assert local.get(digest) == schedule
        assert local.cluster_stats.read_repairs == 1
        # The replica that missed now holds the entry.
        lagging = owners[0]
        assert digest in tiers[names.index(lagging)]

    def test_dead_shard_degrades_never_raises(self, schedule):
        tier = ScheduleCache(maxsize=64)
        dead = _FailingClient()
        cluster = ClusterScheduleCache(
            tier, {"dead": dead}, node_id="A", replication=2,
            retry_interval=0.05,
        )
        for d in DIGESTS[:8]:
            assert cluster.get(d) is None  # degrades to a miss
            cluster.put(d, schedule)  # and put still stores locally
        assert all(d in tier for d in DIGESTS[:8])
        assert cluster.cluster_stats.remote_errors >= 1
        assert "dead" in cluster.dead_nodes()
        # Circuit breaker: while open, the dead client is not re-dialed.
        calls = dead.calls
        cluster.get(DIGESTS[9])
        assert dead.calls == calls
        assert cluster.cluster_stats.degraded_gets >= 1
        # After the cooldown it is probed again.
        time.sleep(0.06)
        cluster.get(DIGESTS[10])
        assert dead.calls == calls + 1

    def test_client_only_mode_probes_remote_for_every_key(self, schedule):
        tier_remote = ScheduleCache(maxsize=64)
        tier_local = ScheduleCache(maxsize=64)
        client_only = ClusterScheduleCache(
            tier_local, {"R": InProcessShardClient(tier_remote)},
            node_id=None, replication=1,
        )
        assert client_only.ring.nodes == frozenset({"R"})
        tier_remote.put(DIGESTS[3], schedule)
        assert client_only.get(DIGESTS[3]) == schedule
        assert client_only.cluster_stats.remote_hits == 1
        client_only.put(DIGESTS[4], schedule)
        assert DIGESTS[4] in tier_remote and DIGESTS[4] in tier_local

    def test_schedule_cache_surface(self, schedule):
        a, b, tier_a, _ = _two_node_cluster()
        a.put(DIGESTS[0], schedule)
        assert DIGESTS[0] in a
        assert len(a) == len(tier_a)
        assert DIGESTS[0] in list(a.keys())
        assert a.maxsize == tier_a.maxsize
        assert a.disk_dir is None
        a.clear()
        assert len(a) == 0

    def test_stats_property_counts_remote_hits_as_hits(self, schedule):
        a, b, tier_a, tier_b = _two_node_cluster(replication=1)
        remote_owned = next(d for d in DIGESTS if a.ring.owner(d) == "B")
        tier_b.put(remote_owned, schedule)
        assert a.get(remote_owned) is not None  # local miss, remote hit
        assert a.get(DIGESTS[200]) is None  # a cluster-wide miss
        stats = a.stats
        assert stats.hits >= 1
        # The local miss that was rescued remotely is not a cluster miss.
        assert stats.misses == tier_a.stats.misses - 1

    def test_as_dict_shape(self, schedule):
        tier = ScheduleCache(maxsize=32, min_cost=1.0)
        cluster = ClusterScheduleCache(
            tier, {"B": _FailingClient()}, node_id="A", replication=2
        )
        cluster.put(DIGESTS[0], schedule)
        cluster.put(DIGESTS[1], schedule, cost=1e-6)
        doc = cluster.as_dict()
        assert doc["rejected_puts"] == 1  # the local rollup passes through
        cl = doc["cluster"]
        assert cl["node_id"] == "A" and cl["replication"] == 2
        assert set(cl["ring_nodes"]) == {"A", "B"}
        assert "B" in cl["nodes"] and "remote_hits" in cl
        assert cl["nodes"]["B"]["errors"] >= 1

    def test_constructor_validation(self):
        tier = ScheduleCache(maxsize=8)
        with pytest.raises(ValueError):
            ClusterScheduleCache(tier, {}, replication=0)
        with pytest.raises(ValueError):
            ClusterScheduleCache(tier, {}, retry_interval=0)
        with pytest.raises(ValueError):
            ClusterScheduleCache(
                tier, {"A": InProcessShardClient(tier)}, node_id="A"
            )

    def test_in_process_client_unwraps_cluster(self, schedule):
        a, b, tier_a, _ = _two_node_cluster()
        wrapped = InProcessShardClient(a)
        assert wrapped.cache is tier_a  # never recurses into the ring
        assert wrapped.ping()
        wrapped.cache_put(DIGESTS[0], schedule)
        assert wrapped.cache_get(DIGESTS[0]) == schedule
        assert wrapped.cache_stats()["entries"] == 1


# ----------------------------------------------------------------------
# the remote-shard protocol against a real daemon
# ----------------------------------------------------------------------
def _start_daemon(tmp_path, name="repro.sock", **service_kwargs):
    sock = str(tmp_path / name)
    thread, _svc = start_daemon(sock, **service_kwargs)
    return sock, thread


class TestRemoteShardProtocol:
    def test_cache_ops_roundtrip(self, tmp_path, schedule):
        sock, thread = _start_daemon(tmp_path)
        try:
            client = RemoteShardClient(sock, timeout=JOIN_TIMEOUT)
            assert client.ping()
            assert client.cache_get(DIGESTS[0]) is None
            assert client.cache_put(DIGESTS[0], schedule, cost=0.25)
            fetched = client.cache_get(DIGESTS[0])
            assert fetched == schedule
            stats = client.cache_stats()
            assert stats["entries"] == 1 and stats["puts"] == 1
            client.close()
        finally:
            shutdown(sock, thread)

    def test_daemon_serves_peer_entries(self, tmp_path, schedule):
        """A daemon probes its peer's warm cache before computing."""
        sock_a, thread_a = _start_daemon(tmp_path, name="a.sock")
        sock_b = str(tmp_path / "b.sock")
        svc_b = AsyncRoutingService(
            cache_size=64,
            max_workers=1,
            cluster_peers=(sock_a,),
            cluster_node_id=sock_b,
            cluster_replication=2,
        )
        server_b = HttpRoutingServer(svc_b, socket_path=sock_b)
        thread_b = threading.Thread(
            target=asyncio.run, args=(server_b.serve(),), daemon=True
        )
        thread_b.start()
        wait_for_http(sock_b, timeout=JOIN_TIMEOUT)
        try:
            docs = [
                {"rows": 4, "cols": 4, "workload": "random", "seed": s}
                for s in range(8)
            ]
            warm = route_batch(sock_a, docs)
            assert all(r["ok"] for r in warm)
            served = route_batch(sock_b, docs)
            assert all(r["ok"] for r in served)
            cluster = stats(sock_b)["schedule_cache"]["cluster"]
            # B computed nothing: every key was a local or remote hit.
            assert all(r["source"] == "cache" for r in served)
            assert cluster["remote_hits"] >= 1
        finally:
            shutdown(sock_b, thread_b)
            shutdown(sock_a, thread_a)

    def test_garbled_peer_response_degrades_to_miss(self, tmp_path, schedule):
        """A non-JSON reply (wrong service, version skew) is a shard
        failure — it trips the breaker, it never escapes the cache."""
        import socket as socket_mod

        sock_path = str(tmp_path / "garbled.sock")
        server = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        server.bind(sock_path)
        server.listen(1)

        def answer_garbage():
            conn, _ = server.accept()
            conn.recv(4096)
            conn.sendall(b"definitely not json\n")
            conn.close()

        thread = threading.Thread(target=answer_garbage, daemon=True)
        thread.start()
        try:
            tier = ScheduleCache(maxsize=8)
            cluster = ClusterScheduleCache(
                tier,
                {sock_path: RemoteShardClient(sock_path, timeout=JOIN_TIMEOUT)},
                node_id=None,
                replication=1,
            )
            assert cluster.get(DIGESTS[0]) is None  # degrades, never raises
            assert cluster.cluster_stats.remote_errors == 1
            assert sock_path in cluster.dead_nodes()
            cluster.put(DIGESTS[0], schedule)  # breaker open: local only
            assert DIGESTS[0] in tier
            cluster.close()
        finally:
            thread.join(timeout=JOIN_TIMEOUT)
            server.close()

    def test_batch_cluster_cli_reads_peer_cache(self, tmp_path, capsys):
        """`repro batch --cluster ADDR` taps a daemon's warm cache."""
        from repro.cli import main

        sock, thread = _start_daemon(tmp_path)
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(
            "\n".join(
                json.dumps({"rows": 4, "cols": 4, "workload": "random", "seed": s})
                for s in range(6)
            )
        )
        out_file = tmp_path / "results.jsonl"
        try:
            warm = route_batch(
                sock,
                [json.loads(line) for line in requests_file.read_text().splitlines()],
            )
            assert all(r["ok"] for r in warm)
            code = main([
                "batch", str(requests_file), "--cluster", sock,
                "--workers", "1", "--out", str(out_file),
            ])
            assert code == 0
            results = [
                json.loads(line) for line in out_file.read_text().splitlines()
            ]
            # Client-only node: every key is remote-owned, so the warm
            # daemon serves the whole batch.
            assert all(r["ok"] and r["source"] == "cache" for r in results)
        finally:
            shutdown(sock, thread)

    def test_batch_cluster_excludes_daemon_and_http(self, tmp_path, capsys):
        from repro.cli import main

        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(
            json.dumps({"rows": 3, "cols": 3, "workload": "random"})
        )
        code = main([
            "batch", str(requests_file), "--cluster", "/tmp/x.sock",
            "--daemon", "/tmp/y.sock",
        ])
        assert code == 2
        assert "--cluster" in capsys.readouterr().err

    def test_dead_peer_degrades_to_compute(self, tmp_path):
        dead_sock = str(tmp_path / "dead.sock")  # nothing listening
        svc = RoutingService(
            cache_size=32,
            max_workers=1,
            cluster_peers=(dead_sock,),
            cluster_replication=1,
        )
        grid = GridGraph(4, 4)
        try:
            res = svc.submit(grid, random_permutation(grid, seed=1))
            assert res.ok and res.source == "computed"
            cluster = svc.stats()["schedule_cache"]["cluster"]
            assert cluster["remote_errors"] >= 1
            assert dead_sock in cluster["dead_nodes"]
        finally:
            svc.close()
