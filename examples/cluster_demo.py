#!/usr/bin/env python
"""Cluster cache demo: two shards, one logical cache, a live join.

Run:
    python examples/cluster_demo.py

Builds a two-node consistent-hash ring **in process** (no sockets, no
subprocesses — each "node" is a :class:`~repro.service.RoutingService`
whose cache is a :class:`~repro.service.ClusterScheduleCache` wired to
the other node's local tier through
:class:`~repro.service.InProcessShardClient`), then shows the payoff:

1. node A computes a workload once (and replicates each schedule to
   the shard that owns it on the ring);
2. node B serves the *same* workload entirely from cache — partly from
   its own tier, partly as **remote hits** fetched from A — without
   computing anything;
3. node C **joins the ring at runtime** (one epoch-guarded
   :class:`~repro.service.ClusterTopology` mutation, no restarts) and
   is warmed by key-space handoff: the old primary owners stream the
   entries C now owns into its tier before it serves anything.

The real multi-host version is the same object graph with
:class:`~repro.service.RemoteShardClient` (a keep-alive HTTP client)
instead of the in-process client: start daemons with ``repro serve
--socket PATH --peer ...`` or ``repro serve --http HOST:PORT --peer
...`` and scale them with ``repro topology join|leave`` (see
docs/OPERATIONS.md, and benchmarks/bench_cluster.py for a measured ring
with the live join drill).
"""

from __future__ import annotations

from repro import GridGraph, random_permutation
from repro.service import (
    ClusterScheduleCache,
    InProcessShardClient,
    RouteRequest,
    RoutingService,
)


def join_ring(svc: RoutingService, node_id: str, tiers: dict) -> None:
    """Swap the service's plain cache for a cluster cache on the ring.

    This is exactly what ``repro serve --peer`` / ``repro batch
    --cluster`` do, with in-process peers instead of remote daemons:
    the ``tiers`` registry plays the role of "dialable addresses", so
    members that join the topology later are wired up on demand.
    """
    cluster = ClusterScheduleCache(
        local=svc.cache,
        peers={nid: InProcessShardClient(t) for nid, t in tiers.items()
               if nid != node_id},
        node_id=node_id,
        replication=1,  # each key lives on exactly one shard
        client_factory=lambda nid: InProcessShardClient(tiers[nid]),
    )
    svc.cache = cluster
    svc.executor.cache = cluster
    svc.cluster_topology = cluster.topology


def main() -> None:
    node_a = RoutingService(cache_size=256, max_workers=1)
    node_b = RoutingService(cache_size=256, max_workers=1)
    tier_a, tier_b = node_a.cache, node_b.cache  # the local tiers
    tiers = {"node-A": tier_a, "node-B": tier_b}
    join_ring(node_a, "node-A", tiers)
    join_ring(node_b, "node-B", tiers)

    grid = GridGraph(8, 8)
    requests = [
        RouteRequest(grid, random_permutation(grid, seed=s)) for s in range(12)
    ]

    print("node A computes the workload once:")
    results_a = node_a.submit_batch(requests)
    print(f"  sources: {sorted({r.source for r in results_a})}")
    ring = node_a.cache.ring
    owners = [ring.owner(r.key.digest) for r in results_a]
    print(f"  ring ownership: {owners.count('node-A')} keys on node-A, "
          f"{owners.count('node-B')} on node-B")
    print(f"  local tiers: {len(tier_a)} entries on A "
          f"(it computed everything), {len(tier_b)} replicated to B")

    print("\nnode B serves the same workload from the cluster cache:")
    results_b = node_b.submit_batch(requests)
    cluster_b = node_b.cache.cluster_stats
    n_cache = sum(1 for r in results_b if r.source == "cache")
    print(f"  {n_cache}/{len(results_b)} served from cache, "
          f"{cluster_b.remote_hits} of them cross-shard remote hits "
          f"(zero recomputed)")

    assert all(r.source == "cache" for r in results_b), "expected a warm serve"
    assert cluster_b.remote_hits > 0, "expected at least one cross-shard hit"

    print("\nnode C joins the ring live (epoch bump + key-space handoff):")
    tier_c = RoutingService(cache_size=256, max_workers=1)
    tiers["node-C"] = tier_c.cache  # now "dialable" by the factory
    # Mutate each member's topology — what `repro topology join` does
    # over the wire, every member converging on the same bumped epoch.
    for node in (node_a, node_b):
        node.cluster_topology.join("node-C")
    assert node_a.cache.wait_for_handoff(timeout=30.0)
    assert node_b.cache.wait_for_handoff(timeout=30.0)
    moved = [
        r.key.digest
        for r in results_a
        if node_a.cache.ring.owner(r.key.digest) == "node-C"
    ]
    warm = sum(1 for digest in moved if digest in tier_c.cache)
    sent = (
        node_a.cache.cluster_stats.handoff_keys_sent
        + node_b.cache.cluster_stats.handoff_keys_sent
    )
    print(f"  epoch {node_a.cache.epoch} on every member, "
          f"{len(moved)} keys re-homed to node-C, "
          f"{warm} already in its tier via handoff ({sent} streamed)")
    assert node_a.cache.epoch == node_b.cache.epoch == 2
    assert warm == len(moved), "handoff should warm every re-homed key"

    print("\ncluster telemetry (node B):")
    for key, value in node_b.cache.as_dict()["cluster"].items():
        if key != "nodes":
            print(f"  {key:18s} {value}")

    node_a.close()
    node_b.close()
    tier_c.close()


if __name__ == "__main__":
    main()
