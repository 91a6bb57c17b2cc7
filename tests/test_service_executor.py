"""Tests for batch execution and the worker pool (repro.service.executor).

The load-bearing property: a batch through ``RoutingService.submit_batch``
— on the compute thread or fanned over the process pool — produces
results *identical* to sequential ``route()`` calls (same schedule
depth, same realized permutation), in input order, with failures
isolated to their own slot.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import ServiceClosedError
from repro.graphs import GridGraph
from repro.graphs.cartesian import cylinder_graph, torus_graph
from repro.perm import Permutation, random_permutation
from repro.routing import route
from repro.service import BatchExecutor, RouteRequest, RoutingService


def _batch(grid, seeds, router="local"):
    return [
        RouteRequest(grid, random_permutation(grid, seed=s), router)
        for s in seeds
    ]


class TestInlineExecution:
    def test_matches_sequential_route(self):
        grid = GridGraph(4, 4)
        requests = _batch(grid, range(5)) + _batch(grid, range(3), "naive")
        with RoutingService(max_workers=1) as svc:
            results = svc.submit_batch(requests)
        assert [r.index for r in results] == list(range(len(requests)))
        for req, res in zip(requests, results):
            assert res.ok and res.source == "computed"
            direct = route(req.graph, req.perm, method=req.router)
            assert res.schedule.depth == direct.depth
            assert res.schedule.size == direct.size
            assert res.schedule.simulate() == req.perm

    def test_empty_batch(self):
        with RoutingService(max_workers=1) as svc:
            assert svc.submit_batch([]) == []

    def test_dedup_within_batch(self):
        grid = GridGraph(3, 3)
        perm = random_permutation(grid, seed=1)
        reqs = [RouteRequest(grid, perm), RouteRequest(grid, perm),
                RouteRequest(grid, perm)]
        with RoutingService(max_workers=1) as svc:
            results = svc.submit_batch(reqs)
        assert [r.source for r in results] == ["computed", "dedup", "dedup"]
        assert results[1].schedule is results[0].schedule
        assert results[2].depth == results[0].depth

    def test_cache_serves_second_batch(self):
        grid = GridGraph(3, 3)
        reqs = _batch(grid, [0, 1])
        with RoutingService(cache_size=8, max_workers=1) as svc:
            first = svc.submit_batch(reqs)
            second = svc.submit_batch(reqs)
        assert [r.source for r in first] == ["computed", "computed"]
        assert [r.source for r in second] == ["cache", "cache"]
        assert second[0].schedule == first[0].schedule

    def test_error_isolation(self):
        grid = GridGraph(3, 3)
        wrong_size = Permutation([1, 0, 2, 3])  # 4 vertices on a 9-vertex grid
        reqs = [
            RouteRequest(grid, random_permutation(grid, seed=0)),
            RouteRequest(grid, wrong_size),
            RouteRequest(grid, random_permutation(grid, seed=2)),
        ]
        with RoutingService(max_workers=1) as svc:
            results = svc.submit_batch(reqs)
        assert results[0].ok and results[2].ok
        bad = results[1]
        assert not bad.ok and bad.source == "error"
        assert bad.schedule is None and bad.depth is None and bad.size is None
        assert "RoutingError" in bad.error

    def test_dedup_of_error_propagates(self):
        grid = GridGraph(3, 3)
        wrong_size = Permutation([1, 0])
        reqs = [RouteRequest(grid, wrong_size), RouteRequest(grid, wrong_size)]
        with RoutingService(max_workers=1) as svc:
            results = svc.submit_batch(reqs)
        assert [r.source for r in results] == ["error", "error"]
        assert results[1].error == results[0].error

    def test_unknown_router_is_isolated(self):
        grid = GridGraph(3, 3)
        reqs = [RouteRequest(grid, random_permutation(grid, seed=0), "bogus")]
        with RoutingService(max_workers=1) as svc:
            res = svc.submit_batch(reqs)[0]
        assert not res.ok and "bogus" in res.error

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            BatchExecutor(max_workers=-1)


class TestPoolExecution:
    """The process-pool path must be observably identical to inline."""

    def test_pool_matches_sequential_route(self):
        grid = GridGraph(4, 4)
        requests = _batch(grid, range(4)) + _batch(grid, [0], "ats")
        with RoutingService(max_workers=2) as svc:
            assert svc.executor.parallel
            results = svc.submit_batch(requests)
        for req, res in zip(requests, results):
            assert res.ok and res.source == "computed"
            direct = route(req.graph, req.perm, method=req.router)
            assert res.schedule.depth == direct.depth
            assert res.schedule.simulate() == req.perm

    def test_pool_error_isolation_and_order(self):
        grid = GridGraph(3, 3)
        reqs = [
            RouteRequest(grid, random_permutation(grid, seed=0)),
            RouteRequest(grid, Permutation([1, 0])),  # size mismatch
            RouteRequest(grid, random_permutation(grid, seed=1), "bogus"),
            RouteRequest(grid, random_permutation(grid, seed=2)),
        ]
        with RoutingService(max_workers=2) as svc:
            results = svc.submit_batch(reqs)
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.ok for r in results] == [True, False, False, True]
        assert results[0].schedule.simulate() == reqs[0].perm
        assert results[3].schedule.simulate() == reqs[3].perm

    def test_pool_populates_cache(self):
        grid = GridGraph(3, 3)
        reqs = _batch(grid, [0, 1])
        with RoutingService(cache_size=8, max_workers=2) as svc:
            svc.submit_batch(reqs)
            second = svc.submit_batch(reqs)
        assert [r.source for r in second] == ["cache", "cache"]


class TestProductGraphs:
    """Compute ships a graph spec; the ``cartesian`` router needs the
    rebuilt graph to still be a ``CartesianProduct`` with its factors."""

    GRAPHS = [torus_graph(6, 6), cylinder_graph(5, 8)]

    @pytest.mark.parametrize("graph", GRAPHS, ids=["torus", "cylinder"])
    def test_submit_on_compute_thread(self, graph):
        perm = random_permutation(graph, seed=1)
        with RoutingService(max_workers=1) as svc:
            res = svc.submit(graph, perm, router="cartesian")
        assert res.ok, res.error
        assert res.source == "computed"
        assert res.schedule.simulate() == perm

    @pytest.mark.parametrize("graph", GRAPHS, ids=["torus", "cylinder"])
    def test_submit_batch_on_pool(self, graph):
        reqs = _batch(graph, range(3), "cartesian")
        with RoutingService(max_workers=2) as svc:
            assert svc.executor.parallel
            results = svc.submit_batch(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res.error
            assert res.schedule.simulate() == req.perm
            direct = route(req.graph, req.perm, method="cartesian")
            assert res.schedule.depth == direct.depth


class TestLifecycle:
    """close() is terminal, idempotent, and safe under concurrent callers."""

    def test_close_is_idempotent(self):
        ex = BatchExecutor(max_workers=2)
        ex.close()
        ex.close()
        assert ex.closed

    def test_submit_after_close_raises(self):
        ex = BatchExecutor(max_workers=1)
        assert ex.submit_job(len, "ab").result(timeout=30) == 2
        ex.close()
        with pytest.raises(ServiceClosedError):
            ex.submit_job(len, "ab")

    def test_concurrent_close_and_submit(self):
        grid = GridGraph(3, 3)
        svc = RoutingService(max_workers=2)
        svc.submit_batch(_batch(grid, [0, 1]))
        errors: list[BaseException] = []

        def _close():
            try:
                svc.close()
            except BaseException as exc:  # noqa: BLE001 - collecting for assert
                errors.append(exc)

        threads = [threading.Thread(target=_close) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors  # every closer returns cleanly, exactly one shuts down
        assert svc.closed
        with pytest.raises(ServiceClosedError):
            svc.submit_batch(_batch(grid, [2]))

    def test_concurrent_sync_callers(self):
        # Each sync call runs its own event loop; callers on several
        # threads share the compute thread, caches and telemetry.
        grid = GridGraph(3, 3)
        reqs = _batch(grid, range(6))
        results: list = []
        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RoutingService(max_workers=1) as svc:

                def _call():
                    try:
                        results.append(svc.submit_batch(reqs))
                    except BaseException as exc:  # noqa: BLE001 - collected
                        errors.append(exc)

                threads = [threading.Thread(target=_call) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                counters = svc.stats()["telemetry"]["counters"]
        finally:
            sys.setswitchinterval(interval)
        assert not errors and len(results) == 6
        for batch in results:
            for req, res in zip(reqs, batch):
                assert res.ok and res.schedule.simulate() == req.perm
        assert counters["aio_requests"] == 36  # no lost update
        assert counters["aio_inflight"] == 0

    def test_service_close_is_terminal(self):
        svc = RoutingService(cache_size=4, max_workers=1)
        grid = GridGraph(3, 3)
        assert svc.submit(grid, random_permutation(grid, seed=0)).ok
        assert not svc.closed
        svc.close()
        svc.close()
        assert svc.closed
        with pytest.raises(ServiceClosedError):
            svc.submit(grid, random_permutation(grid, seed=1))
        with pytest.raises(ServiceClosedError):  # even though it is cached
            svc.submit(grid, random_permutation(grid, seed=0))

    def test_submit_job_returns_future(self):
        with BatchExecutor(max_workers=1) as ex:
            fut = ex.submit_job(len, "abcd")
            assert fut.result(timeout=30) == 4
