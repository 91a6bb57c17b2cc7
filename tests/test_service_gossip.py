"""Tests for SWIM gossip membership (repro.service.gossip).

Everything runs on the deterministic :class:`SimNetwork` harness
(``tests/gossip_sim.py``) — a virtual clock, per-node seeded RNGs and
per-link fault injection — so each protocol path (suspicion, indirect
probes, refutation, false-positive recovery, partition heal) is a
reproducible unit test, plus hypothesis properties pinning bounded
convergence and incarnation monotonicity for arbitrary churn sequences. The handler/pipeline tests
at the end check the ``gossip`` op wiring without any real transport.
"""

from __future__ import annotations

import asyncio
import time

import pytest
from gossip_sim import SimNetwork
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClusterShardError, ReproError
from repro.service import (
    AsyncRoutingService,
    ClusterTopology,
    GossipConfig,
    GossipNode,
    GossipRunner,
    MemberState,
    PeerGossipTransport,
    RequestHandler,
)

#: Tight timings so sim tests need few rounds: one-second rounds, three
#: seconds of suspicion, two proxies.
CFG = GossipConfig(interval=1.0, suspicion_timeout=3.0, indirect_probes=2)


def build_ring(members, seed=0, config=CFG):
    net = SimNetwork(seed=seed, config=config)
    for m in members:
        net.add_node(m, members)
    return net


def run_until(net, predicate, max_rounds=80):
    """Run rounds until ``predicate(net)``; fail the test on the bound."""
    for rounds in range(max_rounds + 1):
        if predicate(net):
            return rounds
        net.run_round()
    views = {
        n.node_id: (n.topology.epoch, sorted(n.topology.members))
        for n in net.live_nodes()
    }
    raise AssertionError(f"predicate not reached in {max_rounds} rounds: {views}")


def members_everywhere(expected):
    expected = set(expected)
    return lambda net: net.converged() and all(
        set(n.topology.members) == expected for n in net.live_nodes()
    )


# ----------------------------------------------------------------------
# config + state plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_defaults_valid(self):
        cfg = GossipConfig()
        assert cfg.interval > 0 and cfg.suspicion_timeout > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"interval": -1.0},
            {"suspicion_timeout": 0.0},
            {"indirect_probes": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GossipConfig(**kwargs)

    def test_member_state_doc(self):
        state = MemberState(status="suspect", incarnation=3)
        assert state.as_doc() == {"status": "suspect", "incarnation": 3}

    def test_node_requires_id(self):
        net = SimNetwork(config=CFG)
        with pytest.raises(ValueError):
            net.add_node("", ["a"])


class TestSimNetwork:
    def test_duplicate_node_rejected(self):
        net = build_ring(["a", "b"])
        with pytest.raises(ValueError):
            net.add_node("a", ["a", "b"])

    def test_unknown_destination_fails(self):
        net = build_ring(["a", "b"])
        with pytest.raises(ClusterShardError):
            net.deliver("a", "ghost", net.nodes["a"].wire_doc("ping"))

    def test_drop_probability_validated(self):
        net = build_ring(["a", "b"])
        with pytest.raises(ValueError):
            net.set_drop("a", "b", 1.5)

    def test_heal_needs_both_endpoints(self):
        net = build_ring(["a", "b"])
        with pytest.raises(ValueError):
            net.heal("a")

    def test_same_seed_same_history(self):
        def history(seed):
            net = build_ring(["a", "b", "c"], seed=seed)
            net.crash("c")
            for _ in range(12):
                net.run_round()
            return (
                net.delivered,
                net.failed,
                {
                    n.node_id: (n.topology.epoch, sorted(n.topology.members))
                    for n in net.live_nodes()
                },
            )

        assert history(11) == history(11)


# ----------------------------------------------------------------------
# protocol basics: the piggyback is the dissemination
# ----------------------------------------------------------------------
class TestProtocolBasics:
    def test_ping_piggybacks_epoch_both_directions(self):
        # A third node's join is known only to "a"; one ping a->b and
        # one b->a spread it in each direction.
        net = build_ring(["a", "b"])
        net.nodes["a"].topology.join("c")
        resp = net.deliver("a", "b", net.nodes["a"].wire_doc("ping"))
        assert resp["ack"] is True
        assert set(net.nodes["b"].topology.members) == {"a", "b", "c"}

        net2 = build_ring(["a", "b"])
        net2.nodes["b"].topology.join("c")
        # a's ping carries the *old* view; the ack's piggyback carries
        # b's newer one back, which a merges.
        net2.nodes["a"].tick()
        assert set(net2.nodes["a"].topology.members) == {"a", "b", "c"}

    def test_wire_doc_always_claims_self_alive(self):
        net = build_ring(["a", "b"])
        doc = net.nodes["a"].wire_doc("ping")
        assert doc["states"]["a"] == {"status": "alive", "incarnation": 0}
        assert doc["from"] == "a" and doc["kind"] == "ping"

    def test_unknown_kind_rejected(self):
        net = build_ring(["a", "b"])
        with pytest.raises(ReproError):
            net.nodes["a"].handle({"kind": "frobnicate", "from": "b"})

    def test_ping_req_requires_target(self):
        net = build_ring(["a", "b"])
        with pytest.raises(ReproError):
            net.nodes["a"].handle({"kind": "ping_req", "from": "b"})

    def test_malformed_claims_skipped_not_raised(self):
        net = build_ring(["a", "b", "c"])
        node = net.nodes["a"]
        node.merge(
            {
                "epoch": "not-an-int",
                "members": ["a", 7],
                "states": {
                    "b": {"status": "zombie", "incarnation": 1},
                    "c": {"status": "alive", "incarnation": -2},
                    "d": "not-a-mapping",
                },
            }
        )
        states = node.member_states()
        assert states["b"] == {"status": "alive", "incarnation": 0}
        assert states["c"] == {"status": "alive", "incarnation": 0}
        assert "d" not in states

    def test_admin_topology_changes_tracked(self):
        net = build_ring(["a", "b"])
        node = net.nodes["a"]
        node.topology.join("c")
        assert "c" in node.member_states()
        node.topology.leave("c")
        assert "c" not in node.member_states()  # clean leave: no latch


# ----------------------------------------------------------------------
# death detection
# ----------------------------------------------------------------------
class TestDeathDetection:
    def test_crashed_member_removed_everywhere_no_admin(self):
        net = build_ring(["a", "b", "c"], seed=42)
        base_epoch = net.nodes["a"].topology.epoch
        net.crash("c")
        run_until(net, members_everywhere({"a", "b"}))
        for node in net.live_nodes():
            assert node.topology.epoch > base_epoch
        # The dead latch is retained for dissemination (and rotation).
        latched = [n.member_states().get("c") for n in net.live_nodes()]
        assert any(s and s["status"] == "dead" for s in latched)

    def test_detection_bounded_by_suspicion_timeout(self):
        # With a 3-member ring, every member is probed within 2 rounds;
        # suspicion lasts 3 rounds; give generous slack for indirect
        # probe attempts but assert a hard bound well under "never".
        net = build_ring(["a", "b", "c"], seed=5)
        net.crash("c")
        rounds = run_until(net, members_everywhere({"a", "b"}), max_rounds=20)
        assert rounds <= 20

    def test_indirect_probe_saves_one_bad_link(self):
        # Only the a<->c link is down; b can still reach c, so a's
        # indirect probe via b keeps c alive: nobody is ever declared
        # dead and the membership never changes.
        net = build_ring(["a", "b", "c"], seed=3)
        net.partition("a", "c")
        for _ in range(20):
            net.run_round()
        assert all(
            set(n.topology.members) == {"a", "b", "c"} for n in net.live_nodes()
        )
        assert all(n.counters.get("deaths", 0) == 0 for n in net.live_nodes())
        assert net.nodes["a"].counters.get("indirect_probes", 0) > 0

    def test_no_indirect_probes_means_false_positive(self):
        # The control for the test above: with indirect probes disabled
        # the same single bad link *does* kill c from a's view — which
        # is exactly the false positive SWIM's ping_req exists to stop.
        cfg = GossipConfig(interval=1.0, suspicion_timeout=3.0, indirect_probes=0)
        net = build_ring(["a", "b", "c"], seed=3, config=cfg)
        net.partition("a", "c")
        run_until(
            net,
            lambda n: any(
                node.counters.get("suspicions", 0) > 0 for node in n.live_nodes()
            ),
            max_rounds=20,
        )


# ----------------------------------------------------------------------
# refutation
# ----------------------------------------------------------------------
class TestRefutation:
    def test_suspect_refutes_before_timeout(self):
        # a cannot reach c (and has no proxies to try), so it suspects
        # c; b still reaches c, and once c hears the suspect claim it
        # bumps its incarnation, which clears the suspicion through the
        # normal piggyback — c must never die.
        cfg = GossipConfig(interval=1.0, suspicion_timeout=30.0, indirect_probes=0)
        net = build_ring(["a", "b", "c"], seed=9, config=cfg)
        net.partition("a", "c")
        run_until(
            net,
            lambda n: n.nodes["a"].member_states().get("c", {}).get("status")
            == "suspect",
            max_rounds=20,
        )
        run_until(
            net,
            lambda n: n.nodes["a"].member_states().get("c", {}).get("status")
            == "alive",
            max_rounds=30,
        )
        assert net.nodes["c"].incarnation >= 1
        assert net.nodes["c"].counters.get("refutations", 0) >= 1
        assert all(n.counters.get("deaths", 0) == 0 for n in net.live_nodes())

    def test_falsely_declared_dead_node_rejoins(self):
        # c is fully cut off long enough to be declared dead and
        # removed; when the links heal, the resurrection probe carries
        # the dead claim to c, c refutes with a higher incarnation and
        # rejoins every view — full false-positive recovery.
        net = build_ring(["a", "b", "c"], seed=21)
        net.partition("a", "c")
        net.partition("b", "c")
        run_until(
            net,
            lambda n: set(n.nodes["a"].topology.members) == {"a", "b"}
            and set(n.nodes["b"].topology.members) == {"a", "b"},
        )
        net.heal()
        run_until(net, members_everywhere({"a", "b", "c"}))
        # The recovery must be stable, not a transient union: keep
        # running and the ring stays whole (any still-circulating dead
        # claim about c is refuted or superseded, never re-applied).
        for _ in range(10):
            net.run_round()
        assert members_everywhere({"a", "b", "c"})(net)
        assert sum(n.counters.get("deaths", 0) for n in net.live_nodes()) >= 1

    def test_incarnation_refutation_lattice(self):
        net = build_ring(["a", "b"])
        node = net.nodes["a"]
        # A suspect claim about ourselves at our incarnation forces a
        # bump past it.
        node.merge({"states": {"a": {"status": "suspect", "incarnation": 0}}})
        assert node.incarnation == 1
        # A stale claim (lower incarnation) changes nothing.
        node.merge({"states": {"a": {"status": "dead", "incarnation": 0}}})
        assert node.incarnation == 1
        # An alive self-claim at a higher incarnation is adopted (a
        # restart catching up with its former self).
        node.merge({"states": {"a": {"status": "alive", "incarnation": 5}}})
        assert node.incarnation == 5


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------
class TestPartitionHeal:
    def test_two_two_split_heals_to_full_ring(self):
        members = ["a", "b", "c", "d"]
        net = build_ring(members, seed=7)
        for x in ("a", "b"):
            for y in ("c", "d"):
                net.partition(x, y)
        # Each side declares the other dead and converges on itself.
        run_until(
            net,
            lambda n: set(n.nodes["a"].topology.members) == {"a", "b"}
            and set(n.nodes["c"].topology.members) == {"c", "d"},
        )
        net.heal()
        # Both sides reached the same epoch number with different
        # members — the equal-epoch union merge plus refutations must
        # still converge every view to the full ring.
        run_until(net, members_everywhere(set(members)))

    def test_lossy_link_does_not_break_membership(self):
        net = build_ring(["a", "b", "c"], seed=13)
        net.set_drop("a", "c", 0.4)
        for _ in range(40):
            net.run_round()
        assert all(
            set(n.topology.members) == {"a", "b", "c"} for n in net.live_nodes()
        )
        assert all(n.counters.get("deaths", 0) == 0 for n in net.live_nodes())

    def test_delay_at_timeout_counts_as_loss(self):
        net = build_ring(["a", "b"], seed=1)
        net.set_delay("a", "b", net.timeout)
        with pytest.raises(ClusterShardError):
            net.deliver("a", "b", net.nodes["a"].wire_doc("ping"))
        net.heal()
        assert net.deliver("a", "b", net.nodes["a"].wire_doc("ping"))["ack"]


# ----------------------------------------------------------------------
# convergence properties (hypothesis)
# ----------------------------------------------------------------------
NODE_IDS = ["n0", "n1", "n2", "n3", "n4"]


@st.composite
def churn_script(draw):
    """A bounded sequence of crash/revive/admin-leave events."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["crash", "revive", "leave"]))
        ops.append((kind, draw(st.sampled_from(NODE_IDS))))
    return ops


class TestConvergenceProperties:
    @settings(max_examples=25, deadline=None)
    @given(script=churn_script(), seed=st.integers(min_value=0, max_value=2**16))
    def test_any_churn_converges_bounded(self, script, seed):
        net = build_ring(NODE_IDS, seed=seed)
        crashed: set[str] = set()
        removed: set[str] = set()
        incarnations = {m: 0 for m in NODE_IDS}

        def check_incarnations():
            # Incarnation numbers never regress, on any live node.
            for node in net.live_nodes():
                inc = node.incarnation
                assert inc >= incarnations[node.node_id]
                incarnations[node.node_id] = inc

        for kind, target in script:
            if kind == "crash" and target not in crashed:
                if len(crashed) + 1 >= len(NODE_IDS):
                    continue  # keep at least one live node
                crashed.add(target)
                net.crash(target)
            elif kind == "revive" and target in crashed:
                crashed.discard(target)
                net.revive(target)
            elif kind == "leave" and target not in removed and target not in crashed:
                live = [m for m in NODE_IDS if m not in crashed and m not in removed]
                if target not in live or len(live) <= 2:
                    continue
                removed.add(target)
                # An admin leave: push the new member list to every
                # live node at a fresh epoch, like the topology CLI.
                epoch = max(n.topology.epoch for n in net.live_nodes()) + 1
                members = sorted(set(live) - {target})
                for node in net.live_nodes():
                    try:
                        node.topology.replace(members, epoch=epoch)
                    except ReproError:
                        pass
            for _ in range(draw_rounds(kind)):
                net.run_round()
                check_incarnations()

        expected = {m for m in NODE_IDS if m not in crashed and m not in removed}
        # Every live member converges to the same epoch + membership
        # within a bounded number of protocol rounds. Revived nodes
        # refute their deaths and rejoin, so the expected view is the
        # full live set.
        for _ in range(120):
            net.run_round()
            check_incarnations()
            live_views = {
                (n.topology.epoch, n.topology.members)
                for n in net.live_nodes()
                if n.node_id in expected
            }
            if len(live_views) == 1 and all(
                set(n.topology.members) == expected
                for n in net.live_nodes()
                if n.node_id in expected
            ):
                break
        else:
            views = {
                n.node_id: (n.topology.epoch, sorted(n.topology.members))
                for n in net.live_nodes()
            }
            raise AssertionError(f"no convergence: {views} expected {expected}")


def draw_rounds(kind: str) -> int:
    """Rounds of settling per event — enough for detection to engage."""
    return 6 if kind == "crash" else 3


# ----------------------------------------------------------------------
# runner + transports
# ----------------------------------------------------------------------
class TestGossipRunner:
    def test_runner_drives_ticks(self):
        net = build_ring(["a", "b"], config=GossipConfig(interval=0.01))
        runner = GossipRunner(net.nodes["a"], interval=0.01)
        runner.start()
        runner.start()  # idempotent
        for _ in range(500):
            if net.nodes["a"].counters.get("probes", 0) >= 2:
                break
            time.sleep(0.01)
        runner.stop()
        assert net.nodes["a"].counters.get("probes", 0) >= 2

    def test_bad_interval_rejected(self):
        net = build_ring(["a", "b"])
        with pytest.raises(ValueError):
            GossipRunner(net.nodes["a"], interval=0.0)


class TestPeerGossipTransport:
    def test_caches_and_forgets_clients(self):
        created: list[str] = []

        class FakeClient:
            def __init__(self, address):
                self.address = address
                self.closed = False
                created.append(address)

            def gossip(self, doc):
                return {"ack": True, "from": self.address}

            def close(self):
                self.closed = True

        transport = PeerGossipTransport(client_factory=FakeClient)
        assert transport.send("x", {"kind": "ping"})["ack"]
        assert transport.send("x", {"kind": "ping"})["ack"]
        assert created == ["x"]  # one client, reused
        transport.forget("x")
        transport.send("x", {"kind": "ping"})
        assert created == ["x", "x"]  # recreated after forget
        transport.close()


# ----------------------------------------------------------------------
# handler + pipeline wiring
# ----------------------------------------------------------------------
class TestGossipOpWiring:
    def test_gossip_disabled_is_bad_request(self):
        async def run():
            async with AsyncRoutingService(
                cache_size=16, max_workers=1, cluster_node_id="me"
            ) as svc:
                handler = RequestHandler(svc)
                resp = await handler.dispatch({"op": "gossip", "kind": "ping"})
                assert not resp["ok"] and resp["code"] == "bad_request"
                assert "gossip-interval" in resp["error"]

        asyncio.run(run())

    def test_gossip_op_merges_and_acks(self):
        async def run():
            async with AsyncRoutingService(
                cache_size=16, max_workers=1, cluster_node_id="me"
            ) as svc:
                topology = svc.service.cluster_topology
                assert topology is not None

                class NoTransport:
                    def send(self, node, doc):
                        raise ClusterShardError("no links in this test")

                node = GossipNode("me", topology, NoTransport())
                svc.service.gossip = node
                try:
                    handler = RequestHandler(svc)
                    peer = GossipNode(
                        "peer", ClusterTopology(["me", "peer"], epoch=5), NoTransport()
                    )
                    resp = await handler.dispatch(
                        {"op": "gossip", **peer.wire_doc("ping")}
                    )
                    assert resp["ok"] and resp["op"] == "gossip"
                    assert resp["ack"] is True
                    # The peer's newer epoch was merged into the service
                    # topology and the ack piggybacks it back.
                    assert topology.epoch == 5
                    assert set(topology.members) == {"me", "peer"}
                    assert resp["epoch"] == 5
                    bad = await handler.dispatch({"op": "gossip", "kind": "nope"})
                    assert not bad["ok"] and bad["code"] == "bad_request"
                finally:
                    node.close()
                    peer.close()

        asyncio.run(run())


class TestTopologySubscriptionLifecycle:
    def test_close_unsubscribes(self):
        topology = ClusterTopology(["a", "b"])
        net = SimNetwork(config=CFG)
        node = net.add_node("a", ["a", "b"], topology=topology)
        node.close()
        topology.join("c")
        assert "c" not in node.member_states()

    def test_rng_is_deterministic_per_node(self):
        one = SimNetwork(seed=3, config=CFG)
        two = SimNetwork(seed=3, config=CFG)
        seq_one = [one._node_rng("a").random() for _ in range(3)]
        seq_two = [two._node_rng("a").random() for _ in range(3)]
        assert seq_one == seq_two
        assert one._node_rng("a").random() != one._node_rng("b").random()
