"""Tests for the transport-agnostic dispatch layer (repro.service.handler)."""

from __future__ import annotations

import asyncio

import pytest

from repro import GridGraph, random_permutation
from repro.errors import ReproError
from repro.service import (
    ERROR_CODES,
    AsyncRoutingService,
    RequestHandler,
    render_prometheus,
    transpile_request_from_doc,
)

QASM = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\ncx q[0],q[3];\n'


class TestTranspileRequestFromDoc:
    def test_full_doc(self):
        req = transpile_request_from_doc({
            "qasm": QASM, "rows": 2, "cols": 2, "router": "naive",
            "mapping": "random", "seed": 3, "completion": "full",
            "options": {},
        })
        assert req.graph.n_vertices == 4
        assert req.router == "naive" and req.mapping == "random"
        assert req.seed == 3 and req.completion == "full"

    def test_defaults(self):
        req = transpile_request_from_doc({"qasm": QASM, "rows": 2, "cols": 2})
        assert req.router == "local" and req.mapping == "identity"
        assert req.seed == 0

    @pytest.mark.parametrize("doc", [
        [1],
        {"rows": 2, "cols": 2},
        {"qasm": "", "rows": 2, "cols": 2},
        {"qasm": QASM, "rows": 2},
        {"qasm": QASM, "rows": "x", "cols": 2},
        {"qasm": QASM, "rows": 2, "cols": 2, "seed": "nope"},
        {"qasm": QASM, "rows": 2, "cols": 2, "options": "nope"},
    ])
    def test_malformed_docs_raise(self, doc):
        with pytest.raises(ReproError):
            transpile_request_from_doc(doc)


class TestDispatch:
    def test_ops_and_error_codes(self):
        async def run():
            async with AsyncRoutingService(cache_size=16, max_workers=1) as svc:
                handler = RequestHandler(svc)
                pipeline = handler._get_pipeline()
                bad = await pipeline.process_http(
                    "POST", "/v1/route", "", {}, b"{definitely not json"
                )
                assert bad.status == 400
                assert not bad.payload["ok"] and bad.payload["code"] == "bad_json"
                unknown = await handler.dispatch({"op": "frobnicate"})
                assert unknown["code"] == "unknown_op"
                for op in ("ping", "stats", "metrics", "shutdown"):
                    gone = await handler.dispatch({"op": op})
                    assert gone["code"] == "unknown_op", op  # HTTP endpoints
                invalid = await handler.dispatch({"op": "route", "rows": 3})
                assert invalid["code"] == "bad_request" and invalid["op"] == "route"
                cache_stats = await handler.dispatch({"op": "cache_stats", "id": 5})
                assert cache_stats["ok"] and cache_stats["id"] == 5
                health = await pipeline.process_http("GET", "/healthz", "", {}, b"")
                assert health.status == 200 and health.payload["version"]
                route = await handler.dispatch(
                    {"rows": 3, "cols": 3, "workload": "random", "seed": 0}
                )
                assert route["ok"] and route["source"] == "computed"
                assert "code" not in route
                transpiled = await handler.dispatch(
                    {"op": "transpile", "qasm": QASM, "rows": 2, "cols": 2}
                )
                assert transpiled["ok"] and transpiled["op"] == "transpile"
                stats = await pipeline.process_http("GET", "/stats", "", {}, b"")
                assert stats.payload["ok"] and "telemetry" in stats.payload["stats"]
                metrics = await pipeline.process_http("GET", "/metrics", "", {}, b"")
                assert "repro_counter_total" in metrics.payload
                # An option named like a call parameter reaches the router
                # factory, which refuses it: a routing error, not internal.
                collision = await handler.dispatch({
                    "op": "route", "rows": 3, "cols": 3,
                    "workload": "random", "options": {"router": "naive"},
                })
                assert not collision["ok"] and collision["code"] == "route_error"

        asyncio.run(run())

    def test_single_ops_run_without_a_batch(self):
        async def run():
            async with AsyncRoutingService(cache_size=16, max_workers=1) as svc:
                handler = RequestHandler(svc)
                route = await handler.dispatch(
                    {"rows": 3, "cols": 3, "workload": "random", "seed": 0}
                )
                transpiled = await handler.dispatch(
                    {"op": "transpile", "qasm": QASM, "rows": 2, "cols": 2}
                )
                assert route["ok"] and transpiled["ok"]
                singles = svc.telemetry.snapshot()["counters"]
                await handler.dispatch({"op": "route_batch", "requests": [
                    {"rows": 3, "cols": 3, "workload": "random", "seed": 1},
                ]})
                await handler.dispatch({"op": "transpile_batch", "requests": [
                    {"qasm": QASM, "rows": 2, "cols": 2, "seed": 1},
                ]})
                return singles, svc.telemetry.snapshot()["counters"]

        singles, batches = asyncio.run(run())
        assert singles["aio_requests"] == 2
        assert "aio_batches" not in singles
        assert "aio_transpile_batches" not in singles
        assert batches["aio_batches"] == 1
        assert batches["aio_transpile_batches"] == 1

    def test_unexpected_failure_is_internal(self, monkeypatch):
        async def boom(self, doc):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(RequestHandler, "route_doc", boom)

        async def run():
            async with AsyncRoutingService(cache_size=16, max_workers=1) as svc:
                return await RequestHandler(svc).dispatch({
                    "op": "route", "rows": 3, "cols": 3, "workload": "random",
                })

        resp = asyncio.run(run())
        assert not resp["ok"] and resp["code"] == "internal"
        assert resp["error"] == "RuntimeError: kaboom"

    def test_timeout_results_carry_timeout_code(self):
        async def run():
            async with AsyncRoutingService(cache_size=16, max_workers=1) as svc:
                import time as time_mod

                ex = svc.service.executor
                real_submit = ex.submit_job

                def slow_submit(fn, payload):
                    def wrapped(p):
                        time_mod.sleep(0.5)
                        return fn(p)

                    return real_submit(wrapped, payload)

                ex.submit_job = slow_submit
                handler = RequestHandler(svc)
                resp = await handler.dispatch({
                    "rows": 4, "cols": 4, "workload": "random", "seed": 9,
                    "timeout": 0.01,
                })
                assert not resp["ok"] and resp["code"] == "timeout"
                assert resp["error"].startswith("TimeoutError")

        asyncio.run(run())

    def test_backend_option_is_a_stable_error(self):
        # There is no kernel selection: the option reaches the router
        # factory as an unknown argument and fails as a routing error.
        async def run():
            async with AsyncRoutingService(cache_size=16, max_workers=1) as svc:
                return await RequestHandler(svc).dispatch({
                    "rows": 3, "cols": 3, "workload": "random", "seed": 0,
                    "options": {"backend": "numpy"},
                })

        resp = asyncio.run(run())
        assert not resp["ok"] and resp["code"] == "route_error"
        assert "'backend'" in resp["error"]

    def test_every_emitted_code_is_documented(self):
        # The stable-code table is the public contract; any code the
        # handler can emit must appear in it.
        for code in (
            "bad_json", "bad_request", "unknown_op", "timeout",
            "route_error", "transpile_error", "internal",
        ):
            assert code in ERROR_CODES


class TestRenderPrometheus:
    def test_real_stats_document(self):
        async def run():
            async with AsyncRoutingService(cache_size=16, max_workers=1) as svc:
                handler = RequestHandler(svc)
                await handler.dispatch(
                    {"rows": 3, "cols": 3, "workload": "random", "seed": 0}
                )
                return handler.prometheus_metrics()

        text = asyncio.run(run())
        assert text.endswith("\n")
        assert '# TYPE repro_counter_total counter' in text
        assert 'repro_counter_total{name="aio_requests"} 1' in text
        assert '# TYPE repro_latency_seconds summary' in text
        assert 'repro_latency_seconds{op="aio_route",quantile="0.5"}' in text
        assert 'repro_latency_seconds_count{op="aio_route"} 1' in text
        assert "# TYPE repro_schedule_cache_puts_total counter" in text
        assert "repro_schedule_cache_puts_total 1" in text
        assert "# TYPE repro_schedule_cache_entries gauge" in text
        assert "repro_max_workers 1" in text

    def test_stage_summaries_carry_router_and_stage_labels(self):
        from repro.service import RoutingService

        with RoutingService(cache_size=16, max_workers=1) as svc:
            grid = GridGraph(4, 4)
            assert svc.submit(grid, random_permutation(grid, seed=4)).ok
            stats = svc.stats()
        assert "kernel_backend" not in stats
        text = render_prometheus(stats)
        assert "# TYPE repro_stage_seconds summary" in text
        assert 'repro_stage_seconds_count{router="local",stage="matching"}' in text
        assert "backend=" not in text

    def test_label_escaping_and_missing_sections(self):
        text = render_prometheus({
            "telemetry": {
                "counters": {'odd"name\\x': 2},
                "latency": {},
            },
        })
        assert 'repro_counter_total{name="odd\\"name\\\\x"} 2' in text
        # No cache sections, no max_workers: still well-formed output.
        assert "repro_schedule_cache" not in text

    def test_cache_admission_fields_export(self):
        from repro.service import RoutingService

        with RoutingService(
            cache_size=32, cache_min_cost=1.0, max_workers=1
        ) as svc:
            text = render_prometheus(svc.stats())
        assert "repro_schedule_cache_rejected_puts_total 0" in text
        assert "repro_schedule_cache_maxsize 32" in text
        assert "shard" not in text


class TestCacheOps:
    """The remote-shard cache protocol (cache_get/cache_put/cache_stats)."""

    def test_roundtrip_and_validation(self):
        import base64
        import json as json_mod

        from repro.graphs import GridGraph
        from repro.perm import random_permutation
        from repro.routing import route
        from repro.routing.codec import (
            CODEC_VERSION,
            decode_schedule,
            encode_schedule,
        )
        from repro.routing.serialize import schedule_to_json

        grid = GridGraph(3, 3)
        schedule = route(grid, random_permutation(grid, seed=0))
        digest = "ab" * 32
        frame_b64 = base64.b64encode(encode_schedule(schedule)).decode("ascii")
        payload = json_mod.loads(schedule_to_json(schedule))

        async def run():
            async with AsyncRoutingService(cache_size=16, max_workers=1) as svc:
                handler = RequestHandler(svc)
                miss = await handler.dispatch({"op": "cache_get", "digest": digest})
                assert miss["ok"] and miss["found"] is False
                assert "schedule_b64" not in miss

                stored = await handler.dispatch({
                    "op": "cache_put", "digest": digest,
                    "schedule_b64": frame_b64, "cost": 0.5, "id": 9,
                })
                assert stored["ok"] and stored["stored"] and stored["id"] == 9

                hit = await handler.dispatch({"op": "cache_get", "digest": digest})
                assert hit["ok"] and hit["found"] is True
                assert hit["codec"] == CODEC_VERSION and "schedule" not in hit
                got = decode_schedule(base64.b64decode(hit["schedule_b64"]))
                assert got == schedule

                stats = await handler.dispatch({"op": "cache_stats"})
                assert stats["ok"] and stats["stats"]["entries"] == 1

                # Validation failures are bad_request, never internal.
                for doc in (
                    {"op": "cache_get"},
                    {"op": "cache_get", "digest": 7},
                    {"op": "cache_put", "digest": digest},
                    {"op": "cache_put", "digest": digest, "schedule_b64": 7},
                    {"op": "cache_put", "digest": digest, "schedule_b64": "!!"},
                    # The JSON schedule document is no longer accepted.
                    {"op": "cache_put", "digest": digest, "schedule": payload},
                    {"op": "cache_put", "digest": digest,
                     "schedule_b64": frame_b64, "cost": "slow"},
                ):
                    resp = await handler.dispatch(doc)
                    assert not resp["ok"] and resp["code"] == "bad_request", doc

        asyncio.run(run())

    def test_cache_ops_serve_local_tier_of_cluster_cache(self):
        """Peer probes never re-enter the ring (no recursion)."""
        from repro.service import (
            ClusterScheduleCache,
            InProcessShardClient,
            ScheduleCache,
        )

        async def run():
            async with AsyncRoutingService(cache_size=16, max_workers=1) as svc:
                remote_tier = ScheduleCache(maxsize=8)
                svc.service.cache = ClusterScheduleCache(
                    svc.service.cache,
                    {"peer": InProcessShardClient(remote_tier)},
                    node_id="self",
                    replication=2,
                )
                handler = RequestHandler(svc)
                assert handler._local_cache() is svc.service.cache.local
                resp = await handler.dispatch(
                    {"op": "cache_get", "digest": "cd" * 32}
                )
                assert resp["ok"] and resp["found"] is False
                # The miss did not fan out to the peer tier.
                assert remote_tier.stats.lookups == 0

        asyncio.run(run())

    def test_cluster_fields_export_to_prometheus(self):
        from repro.service import (
            ClusterScheduleCache,
            InProcessShardClient,
            RoutingService,
            ScheduleCache,
        )

        with RoutingService(cache_size=32, max_workers=1) as svc:
            svc.cache = ClusterScheduleCache(
                svc.cache,
                {"peer-a": InProcessShardClient(ScheduleCache(maxsize=8))},
                node_id="self",
            )
            text = render_prometheus(svc.stats())
        assert "repro_cluster_remote_hits_total 0" in text
        assert "repro_cluster_ring_nodes 2" in text
        assert "repro_cluster_dead_nodes 0" in text
        assert 'repro_cluster_node_up{node="peer-a"} 1' in text
