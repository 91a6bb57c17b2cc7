"""Every served schedule is verified against its request exactly once.

A schedule is checked where it is computed (a pool worker or the
compute thread), or where it enters the cache: loaded from disk, answered by a
peer's ``cache_get``, or pushed by a peer's ``cache_put`` (stored
unverified and checked on its first read). These tests plant
well-formed schedules that route the *wrong* permutation at each of
those entry points and show none of them is ever served.
"""

from __future__ import annotations

import asyncio
import base64
import shutil

import pytest
from socket_daemon import call, route, shutdown, start_daemon, stats

from repro import GridGraph, Schedule, random_permutation
from repro.routing import route as route_schedule
from repro.routing.codec import encode_schedule
from repro.routing.grid_local import LocalGridRouter
from repro.service import (
    AsyncRoutingService,
    ClusterScheduleCache,
    InProcessShardClient,
    RemoteShardClient,
    RouteRequest,
    RoutingService,
    ScheduleCache,
)
from repro.service.handler import RequestHandler

GRID = GridGraph(4, 4)
DOC = {"rows": 4, "cols": 4, "workload": "random", "seed": 3}


def _request(seed: int = 3) -> RouteRequest:
    return RouteRequest(GRID, random_permutation(GRID, seed=seed))


def _wrong_schedule() -> Schedule:
    """Valid matchings of GRID that realize some other permutation."""
    return route_schedule(GRID, random_permutation(GRID, seed=999))


def _assert_routes(result, req: RouteRequest) -> None:
    assert result.ok and result.source == "computed"
    result.schedule.verify(req.graph, req.perm)


class _WrongPeer:
    """A shard client whose every ``cache_get`` answers a wrong schedule."""

    def __init__(self) -> None:
        self.gets = 0

    def cache_get(self, digest):
        self.gets += 1
        return _wrong_schedule()

    def cache_put(self, digest, schedule, cost=None):
        return True

    def cache_stats(self):
        return {}

    def close(self):
        pass


class TestPushed:
    def test_planted_cache_put_is_never_served_over_http(self, tmp_path):
        sock = str(tmp_path / "d.sock")
        thread, _svc = start_daemon(sock)
        try:
            digest = _request().key().digest
            frame = base64.b64encode(encode_schedule(_wrong_schedule()))
            put = call(sock, "/v1/cache_put", {
                "digest": digest, "schedule_b64": frame.decode("ascii"),
            })
            assert put["ok"] and put["stored"]
            served = route(sock, {**DOC, "include_schedule": True})
            assert served["ok"] and served["source"] == "computed"
            assert served["key"] == digest
            layers = served["schedule"]["layers"]
            Schedule(16, [map(tuple, layer) for layer in layers]).verify(
                GRID, _request().perm
            )
            again = route(sock, DOC)
            assert again["source"] == "cache"  # the recomputed one, now trusted
            assert stats(sock)["schedule_cache"]["rejected"] == {
                "disk": 0, "remote": 0, "pushed": 1,
            }
        finally:
            shutdown(sock, thread)

    def test_planted_push_through_cluster_cache(self):
        req = _request()
        digest = req.key().digest
        local_a, local_b = ScheduleCache(), ScheduleCache()
        # Node b pushes a wrong schedule for req's digest onto node a.
        node_b = ClusterScheduleCache(
            local_b, {"a": InProcessShardClient(local_a)}, node_id="b"
        )
        node_b.put(digest, _wrong_schedule())
        assert digest in local_a
        node_a = ClusterScheduleCache(
            local_a, {"b": InProcessShardClient(local_b)}, node_id="a"
        )
        try:
            with RoutingService(max_workers=1) as svc:
                svc.cache = node_a
                (result,) = svc.submit_batch([req])
            _assert_routes(result, req)
            # a's pushed copy failed first; b's copy, asked next, too.
            assert local_a.rejected == {"disk": 0, "remote": 1, "pushed": 1}
            assert node_a.dead_nodes() == ["b"]
            assert local_a.get(digest, req.check) == result.schedule
        finally:
            node_a.close()
            node_b.close()

    def test_unverified_entry_checked_once_then_trusted(self):
        req = _request()
        cache = ScheduleCache()
        good = route_schedule(req.graph, req.perm)
        cache.put("d", good, unverified="pushed")
        calls = []

        def check(schedule):
            calls.append(schedule)
            req.check(schedule)

        assert cache.get("d", check) is good
        assert cache.get("d", check) is good
        assert len(calls) == 1
        assert cache.rejected["pushed"] == 0


class TestDisk:
    def test_frame_copied_over_another_digest_is_a_miss(self, tmp_path):
        req_a, req_b = _request(1), _request(2)
        writer = ScheduleCache(disk_dir=tmp_path)
        for req in (req_a, req_b):
            writer.put(req.key().digest, route_schedule(req.graph, req.perm))
        path_b = tmp_path / f"{req_b.key().digest}.rsc"
        shutil.copyfile(tmp_path / f"{req_a.key().digest}.rsc", path_b)

        cache = ScheduleCache(disk_dir=tmp_path)
        assert cache.get(req_b.key().digest, req_b.check) is None
        assert not path_b.exists()
        assert cache.rejected["disk"] == 1
        assert cache.stats.disk_hits == 0 and cache.stats.misses == 1
        # The honest file next to it is still a hit.
        assert cache.get(req_a.key().digest, req_a.check) is not None

    def test_service_recomputes_after_a_rejected_file(self, tmp_path):
        req_a, req_b = _request(1), _request(2)
        with RoutingService(cache_dir=tmp_path) as svc:
            svc.submit_batch([req_a, req_b])
        shutil.copyfile(
            tmp_path / f"{req_a.key().digest}.rsc",
            tmp_path / f"{req_b.key().digest}.rsc",
        )
        with RoutingService(cache_dir=tmp_path) as svc:
            (result,) = svc.submit_batch([req_b])
        _assert_routes(result, req_b)
        assert svc.cache.rejected["disk"] == 1


class TestRemote:
    def test_wrong_cache_get_answer_falls_back_to_local_compute(self):
        req = _request()
        peer = _WrongPeer()
        cache = ClusterScheduleCache(ScheduleCache(), {"p": peer}, node_id="me")
        try:
            assert cache.get(req.key().digest, req.check) is None
            assert peer.gets == 1
            assert cache.dead_nodes() == ["p"]
            assert cache.cluster_stats.remote_errors == 1
            assert cache.cluster_stats.remote_hits == 0
            assert cache.local.rejected["remote"] == 1
            with RoutingService(max_workers=1) as svc:
                svc.cache = cache
                (result,) = svc.submit_batch([req])
            _assert_routes(result, req)
        finally:
            cache.close()

    def test_answer_read_without_check_is_promoted_unverified(self):
        req = _request()
        cache = ClusterScheduleCache(ScheduleCache(), {"p": _WrongPeer()}, node_id="me")
        try:
            digest = req.key().digest
            assert cache.get(digest) is not None  # no check: served as held
            assert cache.local.get(digest, req.check) is None
            assert cache.local.rejected["remote"] == 1
        finally:
            cache.close()


@pytest.fixture
def wrong_router(monkeypatch):
    """``local`` returns an empty schedule: valid, but routes nothing."""
    def route(self, graph, perm):
        return Schedule.empty(graph.n_vertices)

    monkeypatch.setattr(LocalGridRouter, "route", route)


class TestComputed:
    def test_inline_path(self, wrong_router):
        with RoutingService(max_workers=1) as svc:
            (result,) = svc.submit_batch([_request()])
        assert not result.ok and result.source == "error"
        assert "ScheduleError" in result.error and "wrong permutation" in result.error

    def test_pool_path(self, wrong_router):
        with RoutingService(max_workers=2) as svc:
            results = svc.submit_batch([_request(1), _request(2)])
        assert [r.ok for r in results] == [False, False]
        assert all("wrong permutation" in r.error for r in results)

    @pytest.mark.parametrize("workers", [1, 2], ids=["thread", "pool"])
    def test_async_paths_answer_route_error(self, wrong_router, workers):
        async def run():
            async with AsyncRoutingService(cache_size=8, max_workers=workers) as svc:
                return await RequestHandler(svc).dispatch({"op": "route", **DOC})

        resp = asyncio.run(run())
        assert not resp["ok"] and resp["code"] == "route_error"
        assert "wrong permutation" in resp["error"]


class TestSpans:
    def test_disk_hit_trace_holds_decode_and_verify(self, tmp_path):
        sock = str(tmp_path / "d.sock")
        thread, _svc = start_daemon(sock, cache_size=1, cache_dir=str(tmp_path / "c"))
        try:
            other = {**DOC, "seed": 4}
            assert route(sock, DOC)["source"] == "computed"
            assert route(sock, other)["source"] == "computed"  # evicts DOC
            served = route(sock, DOC)
            assert served["source"] == "cache"
            memory_hit = route(sock, DOC)
            client = RemoteShardClient(sock)
            try:
                (disk_trace,) = client.trace_get(trace_id=served["trace_id"])
                (memory_trace,) = client.trace_get(trace_id=memory_hit["trace_id"])
            finally:
                client.close()
            tiers = {
                s["name"]: s["attrs"].get("tier")
                for s in disk_trace["spans"]
                if s["name"] in ("codec.decode", "schedule.verify")
            }
            assert tiers == {"codec.decode": "disk", "schedule.verify": "disk"}
            names = {s["name"] for s in memory_trace["spans"]}
            assert not names & {"codec.decode", "schedule.verify"}
        finally:
            shutdown(sock, thread)
