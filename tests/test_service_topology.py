"""Tests for epoch-versioned cluster topology (repro.service.cluster).

Four layers: :class:`ClusterTopology` semantics (epoch CAS, join /
leave / replace, hypothesis transition invariants),
:class:`TopologyFileWatcher` reload semantics, runtime reconfiguration
of a live :class:`ClusterScheduleCache` (client pruning + key-space
handoff, including the abort-on-next-epoch rule), and the full wire
path: handler ``topology_get`` / ``topology_update`` ops, the ``repro
topology`` admin CLI, and a live two-daemon join -> handoff -> warm-hit
integration drill.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from socket_daemon import JOIN_TIMEOUT, route_batch, shutdown, start_daemon, stats

from repro.errors import ClusterShardError, ReproError, StaleEpochError
from repro.graphs import GridGraph
from repro.perm import random_permutation
from repro.routing import route
from repro.service import (
    AsyncRoutingService,
    ClusterScheduleCache,
    ClusterTopology,
    InProcessShardClient,
    RemoteShardClient,
    RequestHandler,
    ScheduleCache,
    TopologyFileWatcher,
    parse_topology_doc,
    render_prometheus,
    request_from_doc,
)


def _digest(i: int) -> str:
    return hashlib.sha256(f"key-{i}".encode()).hexdigest()


DIGESTS = [_digest(i) for i in range(256)]


@pytest.fixture(scope="module")
def schedule():
    grid = GridGraph(3, 3)
    return route(grid, random_permutation(grid, seed=0))


# ----------------------------------------------------------------------
# ClusterTopology semantics
# ----------------------------------------------------------------------
class TestClusterTopology:
    def test_join_leave_replace_bump_epoch(self):
        topo = ClusterTopology(["a", "b"])
        assert topo.epoch == 1 and topo.members == frozenset({"a", "b"})
        assert topo.join("c").epoch == 2
        assert topo.leave("a").epoch == 3
        view = topo.replace(["x", "y"])
        assert view.epoch == 4 and topo.members == frozenset({"x", "y"})

    def test_replace_with_same_members_is_a_noop(self):
        topo = ClusterTopology(["a", "b"])
        view = topo.replace(["b", "a"])
        assert view.epoch == 1  # no change, no bump (SIGHUP re-reads are free)

    def test_expected_epoch_cas(self):
        topo = ClusterTopology(["a"])
        topo.join("b", expected_epoch=1)
        with pytest.raises(StaleEpochError):
            topo.join("c", expected_epoch=1)  # lost the race
        assert topo.members == frozenset({"a", "b"})  # rejected update is inert
        assert topo.epoch == 2

    def test_explicit_epoch_must_be_newer(self):
        topo = ClusterTopology(["a"], epoch=5)
        with pytest.raises(StaleEpochError):
            topo.replace(["a", "b"], epoch=5)
        with pytest.raises(StaleEpochError):
            topo.replace(["a", "b"], epoch=3)
        assert topo.replace(["a", "b"], epoch=9).epoch == 9

    def test_malformed_changes_raise(self):
        topo = ClusterTopology(["a"])
        with pytest.raises(ReproError):
            topo.join("a")  # already a member
        with pytest.raises(ReproError):
            topo.leave("ghost")
        with pytest.raises(ReproError):
            topo.update(action="frobnicate")
        with pytest.raises(ReproError):
            topo.update(action="join")  # no node
        with pytest.raises(ReproError):
            topo.update(action="replace")  # no members
        with pytest.raises(ValueError):
            ClusterTopology(["a"], epoch=0)
        assert topo.epoch == 1  # nothing above mutated anything

    def test_subscribers_see_old_and_new_views(self):
        topo = ClusterTopology(["a"])
        seen = []
        topo.subscribe(lambda old, new: seen.append((old.epoch, new.epoch)))
        topo.join("b")
        assert seen == [(1, 2)]
        topo.replace(["a", "b"])  # no-op: subscribers not called
        assert seen == [(1, 2)]

    def test_unsubscribe_works_with_bound_methods(self):
        # Bound methods are fresh objects on every attribute access, so
        # unsubscribe must compare by equality, not identity.
        class Observer:
            def __init__(self):
                self.calls = 0

            def on_change(self, old, new):
                self.calls += 1

        topo = ClusterTopology(["a"])
        obs = Observer()
        topo.subscribe(obs.on_change)
        topo.join("b")
        assert obs.calls == 1
        topo.unsubscribe(obs.on_change)
        topo.join("c")
        assert obs.calls == 1

    def test_unsubscribe_and_observer_exception_isolation(self):
        topo = ClusterTopology(["a"])
        calls = []

        def boom(old, new):
            calls.append(new.epoch)
            raise RuntimeError("observer bug")

        topo.subscribe(boom)
        topo.join("b")  # the observer error is swallowed
        assert calls == [2] and topo.epoch == 2
        topo.unsubscribe(boom)
        topo.join("c")
        assert calls == [2]

    def test_apply_doc_validation(self):
        topo = ClusterTopology(["a"])
        for doc in (
            {"members": "nope"},
            {"members": [1, 2]},
            {"members": [""]},
            {"action": 7},
            {"action": "join", "node": ""},
            {"epoch": "x", "members": ["a"]},
            {"metadata": "nope", "members": ["a"]},
        ):
            with pytest.raises(ReproError):
                topo.apply_doc(doc)
        view = topo.apply_doc({"action": "join", "node": "b"})
        assert view.members == frozenset({"a", "b"})

    def test_metadata_survives_and_merges(self):
        topo = ClusterTopology(["a"], metadata={"a": {"zone": "z1"}})
        topo.join("b", metadata={"b": {"zone": "z2"}})
        view = topo.view()
        assert view.metadata["a"]["zone"] == "z1"
        assert view.metadata["b"]["zone"] == "z2"
        doc = topo.as_dict()
        assert doc["members"] == ["a", "b"] and doc["epoch"] == 2
        assert doc["metadata"]["b"] == {"zone": "z2"}


class TestTopologyTransitionInvariants:
    """The epoch/ownership contract under arbitrary transitions."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_nodes=st.integers(min_value=1, max_value=6),
        ops=st.lists(st.integers(min_value=0, max_value=11), max_size=8),
    )
    def test_epoch_strictly_increases(self, n_nodes, ops):
        topo = ClusterTopology([f"n{i}" for i in range(n_nodes)])
        epochs = [topo.epoch]
        for op in ops:
            node = f"n{op}"
            if node in topo.members:
                if len(topo.members) > 1:
                    topo.leave(node)
            else:
                topo.join(node)
            epochs.append(topo.epoch)
        assert all(b >= a for a, b in zip(epochs, epochs[1:]))
        changed = [b for a, b in zip(epochs, epochs[1:]) if b != a]
        assert len(set(changed)) == len(changed)  # strict on every change

    @settings(max_examples=25, deadline=None)
    @given(n_nodes=st.integers(min_value=1, max_value=6))
    def test_join_moves_only_newcomer_owned_keys(self, n_nodes):
        topo = ClusterTopology([f"n{i}" for i in range(n_nodes)])
        before = {d: topo.view().ring.owner(d) for d in DIGESTS}
        topo.join("newcomer")
        after_ring = topo.view().ring
        for d in DIGESTS:
            if after_ring.owner(d) != before[d]:
                assert after_ring.owner(d) == "newcomer"

    @settings(max_examples=25, deadline=None)
    @given(
        n_nodes=st.integers(min_value=2, max_value=6),
        victim=st.integers(min_value=0, max_value=5),
    )
    def test_leave_strands_only_victim_keys(self, n_nodes, victim):
        victim %= n_nodes
        topo = ClusterTopology([f"n{i}" for i in range(n_nodes)])
        before = {d: topo.view().ring.owner(d) for d in DIGESTS}
        topo.leave(f"n{victim}")
        after_ring = topo.view().ring
        for d in DIGESTS:
            if before[d] != f"n{victim}":
                assert after_ring.owner(d) == before[d]

    @settings(max_examples=25, deadline=None)
    @given(
        n_nodes=st.integers(min_value=2, max_value=6),
        r=st.integers(min_value=1, max_value=4),
        idx=st.integers(min_value=0, max_value=len(DIGESTS) - 1),
    )
    def test_replica_sets_stay_distinct_across_epoch_bumps(self, n_nodes, r, idx):
        topo = ClusterTopology([f"n{i}" for i in range(n_nodes)])
        digest = DIGESTS[idx]
        for mutate in (lambda: topo.join("extra"), lambda: topo.leave("n0")):
            reps = topo.view().ring.replicas(digest, r)
            assert len(set(reps)) == len(reps)
            assert len(reps) == min(r, len(topo.members))
            mutate()
        reps = topo.view().ring.replicas(digest, r)
        assert len(set(reps)) == len(reps)
        assert len(reps) == min(r, len(topo.members))

    @settings(max_examples=25, deadline=None)
    @given(
        n_nodes=st.integers(min_value=1, max_value=6),
        skew=st.integers(min_value=1, max_value=5),
    )
    def test_stale_epoch_update_is_rejected_and_inert(self, n_nodes, skew):
        members = [f"n{i}" for i in range(n_nodes)]
        topo = ClusterTopology(members, epoch=10)
        with pytest.raises(StaleEpochError):
            topo.apply_doc({
                "members": members + ["intruder"],
                "expected_epoch": 10 + skew,
            })
        with pytest.raises(StaleEpochError):
            topo.apply_doc({"members": members + ["intruder"], "epoch": 10})
        assert topo.epoch == 10 and "intruder" not in topo.members


# ----------------------------------------------------------------------
# topology files
# ----------------------------------------------------------------------
class TestParseTopologyDoc:
    def test_shapes(self):
        assert parse_topology_doc(["a", "b"]) == (["a", "b"], None, {})
        members, epoch, meta = parse_topology_doc(
            {"members": ["a", {"id": "b", "metadata": {"zone": "z"}}], "epoch": 4}
        )
        assert members == ["a", "b"] and epoch == 4
        assert meta == {"b": {"zone": "z"}}

    @pytest.mark.parametrize("doc", [
        "nope",
        {"members": "nope"},
        {"members": [1]},
        {"members": [{"metadata": {}}]},
        {"members": [{"id": "a", "metadata": 3}]},
        {"members": ["a"], "epoch": "x"},
        {"members": ["a"], "epoch": 0},
    ])
    def test_malformed(self, doc):
        with pytest.raises(ReproError):
            parse_topology_doc(doc)


class TestTopologyFileWatcher:
    def test_reload_applies_and_is_idempotent(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"members": ["a", "b"]}))
        topo = ClusterTopology(["a"])
        watcher = TopologyFileWatcher(topo, path)
        assert watcher.reload() is True
        assert topo.members == frozenset({"a", "b"}) and topo.epoch == 2
        assert watcher.reload() is False  # same members: no bump
        assert topo.epoch == 2 and watcher.reloads == 1

    def test_metadata_bearing_file_reload_does_not_churn_epochs(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({
            "members": [{"id": "a", "metadata": {"zone": "z1"}}, "b"],
        }))
        topo = ClusterTopology(["a"])
        watcher = TopologyFileWatcher(topo, path)
        assert watcher.reload() is True and topo.epoch == 2
        # Re-reading the identical file (mtime touch, SIGHUP) must not
        # bump the epoch — a bump would abort in-flight handoffs.
        assert watcher.reload() is False and topo.epoch == 2
        assert topo.view().metadata["a"] == {"zone": "z1"}

    def test_first_load_accepts_the_fleet_starting_epoch(self, tmp_path):
        # A fresh daemon sits at an implicit epoch 1; the fleet's first
        # shared file naturally says "epoch": 1 too and must apply.
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"members": ["a", "b"], "epoch": 1}))
        topo = ClusterTopology(["a"])
        watcher = TopologyFileWatcher(topo, path)
        assert watcher.reload() is True
        assert topo.members == frozenset({"a", "b"})
        # After the first load the stale-epoch protection is strict.
        path.write_text(json.dumps({"members": ["a"], "epoch": 1}))
        with pytest.raises(StaleEpochError):
            watcher.reload()

    def test_file_epoch_semantics(self, tmp_path):
        path = tmp_path / "topo.json"
        topo = ClusterTopology(["a"], epoch=5)
        watcher = TopologyFileWatcher(topo, path)
        path.write_text(json.dumps({"members": ["a", "b"], "epoch": 7}))
        assert watcher.reload() is True and topo.epoch == 7
        # A stale epoch with the same members is silently ignored...
        path.write_text(json.dumps({"members": ["a", "b"], "epoch": 3}))
        assert watcher.reload() is False and topo.epoch == 7
        # ...but a stale epoch with a *different* set is an error.
        path.write_text(json.dumps({"members": ["a"], "epoch": 3}))
        with pytest.raises(StaleEpochError):
            watcher.reload()
        assert topo.members == frozenset({"a", "b"})

    def test_bad_file_raises_from_reload(self, tmp_path):
        topo = ClusterTopology(["a"])
        watcher = TopologyFileWatcher(topo, tmp_path / "missing.json")
        with pytest.raises(ReproError):
            watcher.reload()
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError):
            TopologyFileWatcher(topo, bad).reload()
        with pytest.raises(ValueError):
            TopologyFileWatcher(topo, bad, interval=0)

    def test_watch_thread_picks_up_changes_and_sighup(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(["a"]))
        topo = ClusterTopology(["a"])
        watcher = TopologyFileWatcher(topo, path, interval=0.05)
        watcher.reload()
        watcher.start()
        try:
            time.sleep(0.12)  # ensure a distinct mtime even on coarse clocks
            path.write_text(json.dumps(["a", "b"]))
            deadline = time.monotonic() + JOIN_TIMEOUT
            while topo.members != frozenset({"a", "b"}):
                assert time.monotonic() < deadline, topo.as_dict()
                time.sleep(0.02)
            # A forced reload (the SIGHUP hook) applies without an
            # mtime change and records errors instead of raising.
            path.write_text("{broken")
            watcher.reload_now()
            deadline = time.monotonic() + JOIN_TIMEOUT
            while watcher.last_error is None:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert topo.members == frozenset({"a", "b"})  # old view holds
        finally:
            watcher.stop()


# ----------------------------------------------------------------------
# runtime reconfiguration of a live cluster cache
# ----------------------------------------------------------------------
def _factory(tiers):
    return lambda nid: InProcessShardClient(tiers[nid])


class TestRuntimeReconfiguration:
    def test_join_triggers_handoff_of_moved_keys(self, schedule):
        tiers = {"A": ScheduleCache(maxsize=512), "B": ScheduleCache(maxsize=512)}
        topo = ClusterTopology(["A"])
        a = ClusterScheduleCache(
            tiers["A"], node_id="A", replication=1, topology=topo,
            client_factory=_factory(tiers), handoff_rate=100000.0,
        )
        for d in DIGESTS[:64]:
            a.put(d, schedule)
        assert len(tiers["A"]) == 64 and len(tiers["B"]) == 0
        topo.join("B")
        assert a.wait_for_handoff(timeout=JOIN_TIMEOUT)
        moved = [d for d in DIGESTS[:64] if topo.view().ring.owner(d) == "B"]
        assert moved  # 64 keys on a 2-ring: some must re-home
        assert all(d in tiers["B"] for d in moved)
        assert a.cluster_stats.handoff_rounds == 1
        assert a.cluster_stats.handoff_keys_sent == len(moved)
        doc = a.as_dict()["cluster"]
        assert doc["epoch"] == 2 and doc["handoff_keys_sent"] == len(moved)
        # The joined node now serves its keys from its *own* tier.
        assert tiers["B"].get(moved[0]) == schedule

    def test_ownership_follows_the_new_epoch(self, schedule):
        tiers = {"A": ScheduleCache(maxsize=64), "B": ScheduleCache(maxsize=64)}
        topo = ClusterTopology(["A"])
        a = ClusterScheduleCache(
            tiers["A"], node_id="A", replication=1, topology=topo,
            client_factory=_factory(tiers),
        )
        assert not a.remote  # single-member ring: no network possible
        topo.join("B")
        assert a.remote
        remote_owned = next(d for d in DIGESTS if topo.view().ring.owner(d) == "B")
        tiers["B"].put(remote_owned, schedule)
        assert a.get(remote_owned) == schedule  # fetched via the new ring
        assert a.cluster_stats.remote_hits == 1

    def test_leave_prunes_the_departed_client(self, schedule):
        tiers = {"A": ScheduleCache(maxsize=64), "B": ScheduleCache(maxsize=64)}
        topo = ClusterTopology(["A", "B"])
        a = ClusterScheduleCache(
            tiers["A"], node_id="A", replication=2, topology=topo,
            client_factory=_factory(tiers),
        )
        a.put(DIGESTS[0], schedule)
        assert DIGESTS[0] in tiers["B"]  # replicated while B was a member
        topo.leave("B")
        before = len(tiers["B"])
        a.put(DIGESTS[1], schedule)
        assert len(tiers["B"]) == before  # no longer an owner of anything
        assert "B" not in a.per_node_stats()

    def test_next_epoch_aborts_a_running_handoff(self, schedule):
        tiers = {
            "A": ScheduleCache(maxsize=512),
            "B": ScheduleCache(maxsize=512),
        }
        topo = ClusterTopology(["A"])
        a = ClusterScheduleCache(
            tiers["A"], node_id="A", replication=1, topology=topo,
            client_factory=_factory(tiers), handoff_rate=20.0,
        )
        for d in DIGESTS[:128]:
            a.put(d, schedule)
        topo.join("B")  # ~64 keys to stream at 20/s: several seconds
        time.sleep(0.1)
        topo.leave("B")  # epoch moves on: the stream must stop
        assert a.wait_for_handoff(timeout=JOIN_TIMEOUT)
        assert a.cluster_stats.handoff_aborts == 1
        assert a.cluster_stats.handoff_keys_sent < 128

    def test_client_only_node_never_hands_off(self, schedule):
        tiers = {"R": ScheduleCache(maxsize=64)}
        topo = ClusterTopology(["R"])
        client_only = ClusterScheduleCache(
            ScheduleCache(maxsize=64), node_id=None, replication=1,
            topology=topo, client_factory=_factory(tiers),
        )
        client_only.put(DIGESTS[0], schedule)
        tiers["S"] = ScheduleCache(maxsize=64)
        topo.join("S")
        assert client_only.wait_for_handoff(timeout=JOIN_TIMEOUT)
        assert client_only.cluster_stats.handoff_rounds == 0

    def test_close_detaches_from_the_topology(self, schedule):
        tiers = {"A": ScheduleCache(maxsize=64), "B": ScheduleCache(maxsize=64)}
        topo = ClusterTopology(["A"])
        a = ClusterScheduleCache(
            tiers["A"], node_id="A", replication=1, topology=topo,
            client_factory=_factory(tiers),
        )
        a.put(DIGESTS[0], schedule)
        a.close()
        topo.join("B")  # after close: no handoff, no client churn
        assert a.cluster_stats.handoff_rounds == 0


class _ScriptedPeer:
    """A UNIX-socket HTTP peer that drops connections on cue.

    Answers ``GET /healthz`` and keeps the connection open; on any other
    request it reads the request and closes the connection without an
    answer, the way a peer that idle-closed or died mid-request looks
    to a keep-alive client. With ``idle_close`` it also closes every
    connection right after answering. Records every request line and
    counts accepted connections.
    """

    def __init__(self, path: str, idle_close: bool = False) -> None:
        self.requests: list[str] = []
        self.connections = 0
        self.closed = threading.Event()
        self._idle_close = idle_close
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(path)
        self._server.listen(4)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return  # listener closed
            self.connections += 1
            with conn, conn.makefile("rb") as fh:
                while True:
                    line = fh.readline().decode("latin-1").strip()
                    if not line:
                        break
                    length = 0
                    while header := fh.readline().strip():
                        name, _, value = header.decode("latin-1").partition(":")
                        if name.lower() == "content-length":
                            length = int(value)
                    fh.read(length)
                    self.requests.append(line)
                    if not line.startswith("GET /healthz"):
                        break  # close without answering
                    body = b'{"ok": true}'
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                    )
                    if self._idle_close:
                        break
            self.closed.set()

    def close(self) -> None:
        # shutdown() wakes the accept() the serving thread is parked in.
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._server.close()
        self._thread.join(timeout=JOIN_TIMEOUT)


class TestRemoteShardClientReconnect:
    def test_half_open_connection_retries_once(self, tmp_path):
        sock = str(tmp_path / "idle.sock")
        peer = _ScriptedPeer(sock, idle_close=True)
        client = RemoteShardClient(sock, timeout=JOIN_TIMEOUT)
        try:
            assert client.ping() is True  # opens the keep-alive connection
            assert peer.closed.wait(JOIN_TIMEOUT)  # the peer idle-closed it
            # One transparent retry on a fresh connection, no breaker trip.
            assert client.ping() is True
            assert peer.connections == 2
            assert peer.requests == ["GET /healthz HTTP/1.1"] * 2
        finally:
            client.close()
            peer.close()

    def test_topology_update_is_never_retried_on_disconnect(self, tmp_path):
        # The eaten response may mean the update already applied;
        # re-sending it would turn success into a spurious CAS failure.
        sock = str(tmp_path / "update.sock")
        peer = _ScriptedPeer(sock)
        client = RemoteShardClient(sock, timeout=JOIN_TIMEOUT)
        try:
            assert client.ping() is True  # a reused connection from here on
            with pytest.raises(ClusterShardError):
                client.topology_update({"members": ["a"], "epoch": 2})
            updates = [r for r in peer.requests if "topology_update" in r]
            assert len(updates) == 1
        finally:
            client.close()
            peer.close()

    def test_double_disconnect_still_fails(self, tmp_path):
        sock = str(tmp_path / "dead.sock")
        peer = _ScriptedPeer(sock)
        client = RemoteShardClient(sock, timeout=JOIN_TIMEOUT)
        try:
            assert client.ping() is True
            with pytest.raises(ClusterShardError):
                client.cache_stats()
            probes = [r for r in peer.requests if "cache_stats" in r]
            assert len(probes) == 2  # the retry, then the failure
            assert client._conn is None  # the next call dials afresh
        finally:
            client.close()
            peer.close()


# ----------------------------------------------------------------------
# the wire path: handler ops, admin CLI, live join drill
# ----------------------------------------------------------------------
class TestTopologyOps:
    def test_topology_get_and_update_over_dispatch(self):
        async def run():
            async with AsyncRoutingService(
                cache_size=16, max_workers=1, cluster_node_id="self",
            ) as svc:
                handler = RequestHandler(svc)
                got = await handler.dispatch({"op": "topology_get"})
                assert got["ok"] and got["topology"]["epoch"] == 1
                assert got["topology"]["members"] == ["self"]
                upd = await handler.dispatch({
                    "op": "topology_update", "action": "join", "node": "peer",
                    "expected_epoch": 1,
                })
                assert upd["ok"] and upd["epoch"] == 2
                assert upd["topology"]["members"] == ["peer", "self"]
                stale = await handler.dispatch({
                    "op": "topology_update", "action": "leave", "node": "peer",
                    "expected_epoch": 1,
                })
                assert not stale["ok"] and stale["code"] == "stale_epoch"
                bad = await handler.dispatch({
                    "op": "topology_update", "members": "nope",
                })
                assert not bad["ok"] and bad["code"] == "bad_request"
                stats = svc.stats()["schedule_cache"]["cluster"]
                assert stats["epoch"] == 2
                assert stats["retry_interval"] == pytest.approx(30.0)
                text = render_prometheus(svc.stats())
                assert "repro_cluster_epoch 2" in text
                assert "repro_cluster_handoff_keys_sent_total 0" in text
                assert "repro_cluster_node_cooldown_seconds" in text
        asyncio.run(run())

    def test_topology_ops_without_cluster_mode(self):
        async def run():
            async with AsyncRoutingService(cache_size=16, max_workers=1) as svc:
                handler = RequestHandler(svc)
                got = await handler.dispatch({"op": "topology_get"})
                assert not got["ok"] and got["code"] == "bad_request"
        asyncio.run(run())


def _start_daemon(tmp_path, name, **service_kwargs):
    sock = str(tmp_path / name)
    service_kwargs.setdefault("cache_size", 256)
    service_kwargs.setdefault("cluster_node_id", sock)
    thread, _svc = start_daemon(sock, **service_kwargs)
    return sock, thread


def _cluster_stats(sock):
    return stats(sock)["schedule_cache"]["cluster"]


class TestLiveJoinDrill:
    def test_two_daemon_join_handoff_then_warm_hits(self, tmp_path, capsys):
        """Warm a 1-ring, `repro topology join` a second daemon, and
        assert the moved keys land on (and serve from) the newcomer."""
        from repro.cli import main

        sock_a, thread_a = _start_daemon(tmp_path, "a.sock")
        sock_b, thread_b = _start_daemon(tmp_path, "b.sock")
        try:
            docs = [
                {"rows": 4, "cols": 4, "workload": "random", "seed": s}
                for s in range(16)
            ]
            digests = [request_from_doc(d).key().digest for d in docs]
            assert all(r["ok"] for r in route_batch(sock_a, docs))

            assert main(["topology", "join", sock_b, "--contact", sock_a]) == 0
            out = capsys.readouterr().out
            assert "epoch 2" in out

            # Both members converge on one epoch; A streams B's keys over.
            deadline = time.monotonic() + JOIN_TIMEOUT
            while True:
                stats_a = _cluster_stats(sock_a)
                stats_b = _cluster_stats(sock_b)
                if (
                    stats_a["epoch"] == 2
                    and stats_b["epoch"] == 2
                    and not stats_a["handoff_active"]
                ):
                    break
                assert time.monotonic() < deadline, (stats_a, stats_b)
                time.sleep(0.05)
            assert set(stats_a["ring_nodes"]) == {sock_a, sock_b}
            assert set(stats_b["ring_nodes"]) == {sock_a, sock_b}

            ring = ClusterTopology([sock_a, sock_b]).view().ring
            moved = [d for d in digests if ring.owner(d) == sock_b]
            assert moved, "expected some keys to re-home to the newcomer"
            assert stats_a["handoff_keys_sent"] >= len(moved)
            # The newcomer's *local* tier answers for every moved key.
            shard_b = RemoteShardClient(sock_b, timeout=JOIN_TIMEOUT)
            try:
                assert all(shard_b.cache_get(d) is not None for d in moved)
            finally:
                shard_b.close()
            # And the whole original workload is warm through B.
            served = route_batch(sock_b, docs)
            assert all(r["ok"] and r["source"] == "cache" for r in served)

            # `repro topology show` sees the converged ring.
            assert main(["topology", "show", sock_a]) == 0
            out = capsys.readouterr().out
            assert sock_b in out and "epoch 2" in out

            # Scale back down: leave bumps the epoch everywhere.
            assert main(["topology", "leave", sock_b, "--contact", sock_a]) == 0
            deadline = time.monotonic() + JOIN_TIMEOUT
            while _cluster_stats(sock_a)["epoch"] != 3:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert _cluster_stats(sock_a)["ring_nodes"] == [sock_a]
        finally:
            shutdown(sock_b, thread_b)
            shutdown(sock_a, thread_a)

    def test_topology_join_rejects_existing_member(self, tmp_path, capsys):
        from repro.cli import main

        sock_a, thread_a = _start_daemon(tmp_path, "solo.sock")
        try:
            code = main(["topology", "join", sock_a, "--contact", sock_a])
            assert code == 2
            assert "already a ring member" in capsys.readouterr().err
        finally:
            shutdown(sock_a, thread_a)

    def test_topology_join_aborts_when_newcomer_unreachable(
        self, tmp_path, capsys
    ):
        """An unreachable joiner must not be installed into the live ring."""
        from repro.cli import main

        sock_a, thread_a = _start_daemon(tmp_path, "live.sock")
        ghost = str(tmp_path / "ghost.sock")  # nothing listening
        try:
            code = main(["topology", "join", ghost, "--contact", sock_a])
            assert code == 2
            assert "aborting the join" in capsys.readouterr().err
            topo = _cluster_stats(sock_a)
            assert topo["epoch"] == 1 and topo["ring_nodes"] == [sock_a]
        finally:
            shutdown(sock_a, thread_a)
