"""Tests for the asyncio request lifecycle (repro.service.aio).

The load-bearing properties: batches match direct ``route()`` /
``transpile()`` calls (order, dedup, caching, error isolation);
timeouts become error results instead of exceptions; cancellation
releases the concurrency slot; and the scheduler genuinely bounds
in-flight work.

The tests drive coroutines with ``asyncio.run`` directly so they run
with or without the pytest-asyncio plugin.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.errors import ServiceClosedError
from repro.graphs import GridGraph
from repro.perm import Permutation, random_permutation
from repro.routing import route
from repro.service import AsyncRoutingService, RouteRequest, RoutingService
from repro.service.service import TranspileRequest, transpile_metrics
from repro.transpile import transpile


def _batch(grid, seeds, router="local"):
    return [
        RouteRequest(grid, random_permutation(grid, seed=s), router)
        for s in seeds
    ]


class TestSubmitAsync:
    def test_roundtrip_and_cache(self):
        async def run():
            async with AsyncRoutingService(cache_size=8) as svc:
                grid = GridGraph(4, 4)
                perm = random_permutation(grid, seed=1)
                r1 = await svc.submit_async(grid, perm)
                r2 = await svc.submit_async(grid, perm)
                return r1, r2, perm

        r1, r2, perm = asyncio.run(run())
        assert r1.ok and r1.source == "computed"
        assert r2.source == "cache"
        assert r1.schedule.simulate() == perm
        assert r2.schedule == r1.schedule

    def test_router_and_options_respected(self):
        async def run():
            async with AsyncRoutingService(cache_size=8) as svc:
                grid = GridGraph(3, 3)
                perm = random_permutation(grid, seed=0)
                return await svc.submit_async(grid, perm, router="naive")

        res = asyncio.run(run())
        assert res.ok and res.router == "naive"

    def test_matches_direct_route(self):
        grid = GridGraph(4, 4)
        requests = _batch(grid, range(4)) + _batch(grid, range(2), "naive")

        async def run():
            async with AsyncRoutingService(cache_size=32) as asvc:
                return await asvc.submit_batch_async(requests)

        async_results = asyncio.run(run())
        assert [a.index for a in async_results] == list(range(len(requests)))
        for req, a in zip(requests, async_results):
            assert a.ok and a.key.digest == req.key().digest
            direct = route(req.graph, req.perm, method=req.router)
            assert a.depth == direct.depth and a.size == direct.size

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            AsyncRoutingService(max_concurrency=0)
        svc = RoutingService(cache_size=4)
        with pytest.raises(ValueError):
            AsyncRoutingService(svc, cache_size=8)
        svc.close()


class TestBatchOrderingAndDedup:
    def test_results_index_aligned_with_duplicates(self):
        async def run():
            async with AsyncRoutingService(cache_size=16) as svc:
                grid = GridGraph(3, 3)
                p0 = random_permutation(grid, seed=0)
                p1 = random_permutation(grid, seed=1)
                reqs = [
                    RouteRequest(grid, p0),
                    RouteRequest(grid, p1),
                    RouteRequest(grid, p0),  # duplicate of slot 0
                    RouteRequest(grid, p1),  # duplicate of slot 1
                ]
                return await svc.submit_batch_async(reqs)

        results = asyncio.run(run())
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.source for r in results] == [
            "computed", "computed", "dedup", "dedup",
        ]
        assert results[2].schedule is results[0].schedule
        assert results[3].depth == results[1].depth

    def test_coercion_forms(self):
        async def run():
            async with AsyncRoutingService(cache_size=16) as svc:
                grid = GridGraph(3, 3)
                p0 = random_permutation(grid, seed=0)
                return await svc.submit_batch_async([
                    (grid, p0),
                    (grid, p0, "naive"),
                    {"graph": grid, "perm": p0, "router": "naive"},
                ])

        results = asyncio.run(run())
        assert all(r.ok for r in results)
        assert results[1].router == "naive"
        assert results[2].source == "dedup"  # same key as slot 1

    def test_error_isolation(self):
        async def run():
            async with AsyncRoutingService(cache_size=16) as svc:
                grid = GridGraph(3, 3)
                reqs = [
                    RouteRequest(grid, random_permutation(grid, seed=0)),
                    RouteRequest(grid, Permutation([1, 0])),  # wrong size
                    RouteRequest(grid, random_permutation(grid, seed=2)),
                ]
                return await svc.submit_batch_async(reqs)

        results = asyncio.run(run())
        assert [r.ok for r in results] == [True, False, True]
        bad = results[1]
        assert bad.source == "error" and bad.error
        assert bad.schedule is None

    def test_dedup_of_error_propagates(self):
        async def run():
            async with AsyncRoutingService(cache_size=16) as svc:
                grid = GridGraph(3, 3)
                wrong = Permutation([1, 0])
                reqs = [RouteRequest(grid, wrong), RouteRequest(grid, wrong)]
                return await svc.submit_batch_async(reqs)

        results = asyncio.run(run())
        assert [r.source for r in results] == ["error", "error"]
        assert results[1].error == results[0].error

    def test_second_batch_hits_cache(self):
        async def run():
            async with AsyncRoutingService(cache_size=16) as svc:
                grid = GridGraph(3, 3)
                reqs = _batch(grid, [0, 1])
                first = await svc.submit_batch_async(reqs)
                second = await svc.submit_batch_async(reqs)
                return first, second

        first, second = asyncio.run(run())
        assert all(r.source == "computed" for r in first)
        assert all(r.source == "cache" for r in second)


class TestTimeout:
    def test_timeout_becomes_error_result(self):
        async def run():
            async with AsyncRoutingService(cache_size=8) as svc:
                grid = GridGraph(8, 8)
                perm = random_permutation(grid, seed=0)
                res = await svc.submit_async(grid, perm, timeout=1e-9)
                # The service stays usable after a timeout.
                ok = await svc.submit_async(
                    GridGraph(3, 3), random_permutation(GridGraph(3, 3), seed=1)
                )
                return res, ok, svc.telemetry.snapshot()

        res, ok, snap = asyncio.run(run())
        assert not res.ok and res.source == "error"
        assert "TimeoutError" in res.error
        assert ok.ok
        assert snap["counters"]["aio_timeouts"] >= 1

    def test_timeout_fires_even_when_job_already_started(self):
        # A started pool task cannot be cancelled; the await must still
        # return promptly with a timeout error — and the abandoned
        # job's result is salvaged into the cache once it finishes.
        started = threading.Event()
        finished = threading.Event()

        async def run():
            async with AsyncRoutingService(cache_size=8) as svc:
                ex = svc.service.executor
                real_submit = ex.submit_job

                def slow_submit(fn, payload):
                    def wrapped(p):
                        started.set()
                        time.sleep(0.1)
                        try:
                            return fn(p)
                        finally:
                            finished.set()

                    return real_submit(wrapped, payload)

                ex.submit_job = slow_submit
                grid = GridGraph(4, 4)
                perm = random_permutation(grid, seed=0)
                t0 = time.monotonic()
                res = await svc.submit_async(grid, perm, timeout=0.02)
                waited = time.monotonic() - t0
                assert started.wait(timeout=30)  # the job genuinely ran
                ex.submit_job = real_submit
                assert finished.wait(timeout=30)
                await asyncio.sleep(0.05)  # let the salvage callback land
                hit = await svc.submit_async(grid, perm)
                return res, waited, hit, svc.telemetry.snapshot()["counters"]

        res, waited, hit, counters = asyncio.run(run())
        assert res.source == "error" and "TimeoutError" in res.error
        assert waited < 5.0  # returned at the timeout, not after the sleep
        assert counters.get("aio_salvaged", 0) == 1
        assert hit.source == "cache"  # the abandoned work warmed the cache

    def test_default_timeout_applies(self):
        async def run():
            async with AsyncRoutingService(
                cache_size=8, default_timeout=1e-9
            ) as svc:
                grid = GridGraph(8, 8)
                return await svc.submit_async(
                    grid, random_permutation(grid, seed=0)
                )

        res = asyncio.run(run())
        assert res.source == "error" and "TimeoutError" in res.error


class TestCancellation:
    def test_cancel_releases_slot(self):
        started = threading.Event()

        async def run():
            async with AsyncRoutingService(
                cache_size=8, max_concurrency=1
            ) as svc:
                ex = svc.service.executor
                real_submit = ex.submit_job

                def slow_submit(fn, payload):
                    def wrapped(p):
                        started.set()
                        time.sleep(0.5)  # hold the request in flight
                        return fn(p)

                    return real_submit(wrapped, payload)

                ex.submit_job = slow_submit
                grid = GridGraph(8, 8)
                task = asyncio.ensure_future(
                    svc.submit_async(grid, random_permutation(grid, seed=0))
                )
                while not started.is_set():
                    await asyncio.sleep(0.005)  # request is now in flight
                task.cancel()
                ex.submit_job = real_submit
                with pytest.raises(asyncio.CancelledError):
                    await task
                # The slot must be free again: this would hang forever
                # (max_concurrency=1) if cancellation leaked the permit.
                small = GridGraph(3, 3)
                res = await asyncio.wait_for(
                    svc.submit_async(small, random_permutation(small, seed=1)),
                    timeout=60,
                )
                return res

        res = asyncio.run(run())
        assert res.ok


class TestSemaphoreBounds:
    def test_inflight_never_exceeds_max_concurrency(self):
        # A job counts from its submission to its completion, queued or
        # running: the one compute thread runs one job at a time, so
        # counting only running jobs could never exceed the bound.
        state = {"active": 0, "peak": 0}
        lock = threading.Lock()

        async def run():
            async with AsyncRoutingService(
                cache_size=64, max_concurrency=2
            ) as svc:
                ex = svc.service.executor
                real_submit = ex.submit_job

                def done(_future):
                    with lock:
                        state["active"] -= 1

                def counting_submit(fn, payload):
                    def wrapped(p):
                        time.sleep(0.01)
                        return fn(p)

                    with lock:
                        state["active"] += 1
                        state["peak"] = max(state["peak"], state["active"])
                    # The wrapped closure is unpicklable, which is fine:
                    # the inline executor runs it on its compute thread.
                    future = real_submit(wrapped, payload)
                    future.add_done_callback(done)
                    return future

                ex.submit_job = counting_submit
                grid = GridGraph(4, 4)
                reqs = [
                    (grid, random_permutation(grid, seed=s)) for s in range(8)
                ]
                return await svc.submit_batch_async(reqs)

        results = asyncio.run(run())
        assert all(r.ok for r in results)
        assert state["peak"] == 2, state  # the bound is reached, never passed
        assert state["active"] == 0

    def test_queue_depth_counters_return_to_zero(self):
        async def run():
            async with AsyncRoutingService(
                cache_size=32, max_concurrency=2
            ) as svc:
                grid = GridGraph(3, 3)
                reqs = _batch(grid, range(6))
                await svc.submit_batch_async(reqs)
                return svc.telemetry.snapshot()["counters"]

        counters = asyncio.run(run())
        assert counters["aio_queue_depth"] == 0
        assert counters["aio_inflight"] == 0
        assert counters["aio_requests"] == 6


class TestSingleFlightCoalescing:
    def test_concurrent_identical_requests_compute_once(self):
        computes = {"n": 0}
        lock = threading.Lock()

        async def run():
            async with AsyncRoutingService(
                cache_size=16, max_concurrency=8
            ) as svc:
                ex = svc.service.executor
                real_submit = ex.submit_job

                def counting_submit(fn, payload):
                    def wrapped(p):
                        with lock:
                            computes["n"] += 1
                        time.sleep(0.05)  # hold the leader in flight
                        return fn(p)

                    return real_submit(wrapped, payload)

                ex.submit_job = counting_submit
                grid = GridGraph(4, 4)
                perm = random_permutation(grid, seed=0)
                results = await asyncio.gather(*[
                    svc.submit_async(grid, perm) for _ in range(5)
                ])
                return results, svc.telemetry.snapshot()["counters"]

        results, counters = asyncio.run(run())
        assert all(r.ok for r in results)
        sources = sorted(r.source for r in results)
        assert sources == ["computed"] + ["dedup"] * 4
        assert computes["n"] == 1  # one pool job for five callers
        assert counters["aio_coalesced"] == 4
        depths = {r.depth for r in results}
        assert len(depths) == 1  # everyone shares the leader's schedule

    def test_concurrent_identical_transpiles_compute_once(self):
        from repro.circuit import ghz
        from repro.circuit.qasm import dumps

        computes = {"n": 0}
        lock = threading.Lock()

        async def run():
            async with AsyncRoutingService(cache_size=16, max_concurrency=8) as svc:
                ex = svc.service.executor
                real_submit = ex.submit_job

                def counting_submit(fn, payload):
                    def wrapped(p):
                        with lock:
                            computes["n"] += 1
                        time.sleep(0.05)  # hold the leader in flight
                        return fn(p)

                    return real_submit(wrapped, payload)

                ex.submit_job = counting_submit
                req = TranspileRequest(qasm=dumps(ghz(6)), graph=GridGraph(2, 3))
                batches = await asyncio.gather(
                    svc.transpile_batch_async([req]), svc.transpile_batch_async([req])
                )
                return [outcome for (outcome,) in batches]

        outcomes = asyncio.run(run())
        assert sorted(o.source for o in outcomes) == ["computed", "dedup"]
        assert computes["n"] == 1
        assert outcomes[0].metrics == outcomes[1].metrics

    def test_leader_timeout_does_not_poison_patient_followers(self):
        # The leader's short budget expires mid-compute; a follower
        # with no timeout must get a real schedule, not the leader's
        # TimeoutError clone.
        async def run():
            async with AsyncRoutingService(
                cache_size=16, max_concurrency=8
            ) as svc:
                ex = svc.service.executor
                real_submit = ex.submit_job

                def slow_submit(fn, payload):
                    def wrapped(p):
                        time.sleep(0.15)
                        return fn(p)

                    return real_submit(wrapped, payload)

                ex.submit_job = slow_submit
                grid = GridGraph(4, 4)
                perm = random_permutation(grid, seed=0)
                leader = asyncio.ensure_future(
                    svc.submit_async(grid, perm, timeout=0.03)
                )
                await asyncio.sleep(0.005)  # leader registers in-flight
                follower = asyncio.ensure_future(svc.submit_async(grid, perm))
                return await asyncio.gather(leader, follower)

        leader, follower = asyncio.run(run())
        assert leader.source == "error" and "TimeoutError" in leader.error
        assert follower.ok  # computed for itself (or via salvage cache)


class TestPoolFailureRecovery:
    def test_await_time_pool_failure_retries_once(self):
        # A future that fails at await time (the shape of a worker
        # OOM-kill surfacing as BrokenProcessPool) must be retried, not
        # converted into an error result.
        from concurrent.futures import Future

        calls = {"n": 0}

        async def run():
            async with AsyncRoutingService(cache_size=8) as svc:
                ex = svc.service.executor
                real_submit = ex.submit_job

                def flaky_submit(fn, payload):
                    calls["n"] += 1
                    if calls["n"] == 1:
                        doomed: Future = Future()
                        doomed.set_exception(RuntimeError("pool died"))
                        return doomed
                    return real_submit(fn, payload)

                ex.submit_job = flaky_submit
                grid = GridGraph(3, 3)
                res = await svc.submit_async(
                    grid, random_permutation(grid, seed=0)
                )
                return res, svc.telemetry.snapshot()["counters"]

        res, counters = asyncio.run(run())
        assert res.ok and res.source == "computed"
        assert calls["n"] == 2
        assert counters["pool_failures"] == 1

    def test_retry_respects_remaining_timeout_budget(self):
        # Pool failure at await time must not restart the clock: with
        # the budget already spent, the retry times out instead of
        # granting the request a second full window.
        from concurrent.futures import Future

        calls = {"n": 0}

        async def run():
            async with AsyncRoutingService(cache_size=8) as svc:
                ex = svc.service.executor
                real_submit = ex.submit_job

                def flaky_then_slow(fn, payload):
                    calls["n"] += 1
                    if calls["n"] == 1:
                        doomed: Future = Future()
                        doomed.set_exception(RuntimeError("pool died"))
                        return doomed

                    def slow(p):
                        time.sleep(5.0)
                        return fn(p)

                    return real_submit(slow, payload)

                ex.submit_job = flaky_then_slow
                grid = GridGraph(3, 3)
                t0 = time.monotonic()
                res = await svc.submit_async(
                    grid, random_permutation(grid, seed=0), timeout=0.2
                )
                return res, time.monotonic() - t0

        res, waited = asyncio.run(run())
        assert res.source == "error" and "TimeoutError" in res.error
        assert waited < 4.0  # well under the 5s sleep: deadline held


class TestDiskTierOffload:
    def test_disk_cache_roundtrip_through_async_path(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        grid = GridGraph(4, 4)
        perm = random_permutation(grid, seed=3)

        async def compute():
            async with AsyncRoutingService(
                cache_size=8, cache_dir=cache_dir
            ) as svc:
                return await svc.submit_async(grid, perm)

        async def reload():
            async with AsyncRoutingService(
                cache_size=8, cache_dir=cache_dir
            ) as svc:
                res = await svc.submit_async(grid, perm)
                return res, svc.stats()["schedule_cache"]

        first = asyncio.run(compute())
        assert first.source == "computed"
        second, cache_stats = asyncio.run(reload())
        assert second.source == "cache"  # served via the disk tier
        assert cache_stats["disk_hits"] == 1
        assert second.depth == first.depth


class TestTranspileAsync:
    def test_matches_direct_transpile(self):
        from repro.circuit import ghz, qft
        from repro.circuit.qasm import dumps

        grid = GridGraph(2, 3)
        circuits = [ghz(6), qft(6), ghz(6)]  # the third duplicates the first
        reqs = [TranspileRequest(qasm=dumps(c), graph=grid) for c in circuits]
        reqs.append(TranspileRequest(qasm="not qasm", graph=grid))  # error

        async def run():
            async with AsyncRoutingService(cache_size=8) as asvc:
                return await asvc.transpile_batch_async(reqs)

        async_outs = asyncio.run(run())
        assert [o.source for o in async_outs] == [
            "computed", "computed", "dedup", "error",
        ]
        for circuit, a in zip(circuits, async_outs):
            direct = transpile_metrics(transpile(circuit, grid, router="local"))
            assert a.metrics["physical_depth"] == direct["physical_depth"]
            assert a.metrics["n_swaps"] == direct["n_swaps"]
        assert not async_outs[3].ok and async_outs[3].error

    def test_transpile_cache_hit_on_second_batch(self):
        from repro.circuit import ghz
        from repro.circuit.qasm import dumps

        grid = GridGraph(2, 3)
        req = TranspileRequest(qasm=dumps(ghz(6)), graph=grid)

        async def run():
            async with AsyncRoutingService(cache_size=8) as svc:
                first = await svc.transpile_batch_async([req])
                second = await svc.transpile_batch_async([req])
                return first[0], second[0]

        first, second = asyncio.run(run())
        assert first.source == "computed"
        assert second.source == "cache"
        assert second.metrics == first.metrics


class TestLifecycle:
    def test_survives_successive_event_loops(self):
        svc = AsyncRoutingService(cache_size=8)
        grid = GridGraph(3, 3)
        perm = random_permutation(grid, seed=0)
        r1 = asyncio.run(svc.submit_async(grid, perm))
        r2 = asyncio.run(svc.submit_async(grid, perm))  # new loop, same svc
        assert r1.source == "computed" and r2.source == "cache"
        asyncio.run(svc.aclose())
        assert svc.closed

    def test_submit_after_close_raises(self):
        svc = AsyncRoutingService(cache_size=8)
        asyncio.run(svc.aclose())

        async def run():
            grid = GridGraph(3, 3)
            await svc.submit_async(grid, random_permutation(grid, seed=0))

        with pytest.raises(ServiceClosedError):
            asyncio.run(run())

    def test_borrowed_service_left_open(self):
        inner = RoutingService(cache_size=8)

        async def run():
            async with AsyncRoutingService(inner) as svc:
                grid = GridGraph(3, 3)
                return await svc.submit_async(
                    grid, random_permutation(grid, seed=0)
                )

        res = asyncio.run(run())
        assert res.ok
        assert not inner.closed  # aclose must not close a borrowed service
        inner.close()

    def test_stats_carries_aio_section(self):
        async def run():
            async with AsyncRoutingService(
                cache_size=8, max_concurrency=7, default_timeout=2.5
            ) as svc:
                grid = GridGraph(3, 3)
                await svc.submit_async(grid, random_permutation(grid, seed=0))
                return svc.stats()

        stats = asyncio.run(run())
        assert stats["aio"]["max_concurrency"] == 7
        assert stats["aio"]["default_timeout"] == 2.5
        assert stats["telemetry"]["counters"]["aio_requests"] == 1
