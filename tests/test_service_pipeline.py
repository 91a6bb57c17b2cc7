"""Tests for the request-lifecycle pipeline (repro.service.pipeline).

Exercises the pipeline directly (no sockets): authentication outcomes,
admission control (throttle and shed), the HTTP endpoint table with its
status / ``Retry-After`` mapping, per-stage spans and metrics, and the
per-tenant telemetry that tenancy threads through the stack.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    AsyncRoutingService,
    RequestPipeline,
    Tenant,
    TenantRegistry,
    render_prometheus,
    status_for,
)
from repro.service.pipeline import WORK_OPS, framing_error

ROUTE = {"op": "route", "rows": 3, "cols": 3, "workload": "random", "seed": 0}


def _pipeline(**kwargs):
    kwargs.setdefault("max_workers", 0)
    kwargs.setdefault("cache_size", 16)
    svc = AsyncRoutingService(**kwargs)
    return RequestPipeline(svc), svc


def _run(pipeline, svc, *docs, api_key=None):
    async def go():
        out = [await pipeline.process(dict(d), api_key=api_key) for d in docs]
        await svc.aclose()
        return out

    return asyncio.run(go())


def _enforced_registry(**tenant_kwargs):
    return TenantRegistry([Tenant("acme", key="ak_1", **tenant_kwargs)])


class TestStatusFor:
    @pytest.mark.parametrize(
        ("code", "status"),
        [
            ("bad_json", 400),
            ("bad_request", 400),
            ("unknown_op", 400),
            ("unauthorized", 401),
            ("stale_epoch", 409),
            ("rate_limited", 429),
            ("internal", 500),
            ("timeout", 200),  # a processed result, not a refusal
            ("route_error", 200),
        ],
    )
    def test_code_mapping(self, code, status):
        assert status_for({"ok": False, "code": code}) == status

    def test_ok_is_200(self):
        assert status_for({"ok": True}) == 200

    def test_framing_error_shape(self):
        doc = framing_error("bad_http", "nope")
        assert doc == {"ok": False, "code": "bad_http", "error": "nope"}


class TestAuthentication:
    def test_open_registry_needs_no_key(self):
        pipeline, svc = _pipeline()
        (resp,) = _run(pipeline, svc, ROUTE)
        assert resp["ok"]

    def test_enforced_registry_refuses_keyless_work(self):
        pipeline, svc = _pipeline(tenants=_enforced_registry())
        resp, peer = _run(pipeline, svc, ROUTE, {"op": "cache_stats"})
        assert not resp["ok"] and resp["code"] == "unauthorized"
        assert peer["ok"]  # non-work ops stay keyless (system tenant)

    def test_transport_key_and_doc_key(self):
        pipeline, svc = _pipeline(tenants=_enforced_registry())
        ok_transport, ignored_wrong = _run(
            pipeline, svc, ROUTE, {**ROUTE, "api_key": "wrong"}, api_key="ak_1"
        )
        assert ok_transport["ok"]
        # The key comes from the transport's headers only: an
        # ``api_key`` field in the document changes nothing.
        assert ignored_wrong["ok"]
        pipeline, svc = _pipeline(tenants=_enforced_registry())
        (keyless,) = _run(pipeline, svc, {**ROUTE, "api_key": "ak_1"})
        assert not keyless["ok"] and keyless["code"] == "unauthorized"

    def test_unauthorized_echoes_id(self):
        pipeline, svc = _pipeline(tenants=_enforced_registry())
        (resp,) = _run(pipeline, svc, {**ROUTE, "id": "req-7"})
        assert resp["code"] == "unauthorized" and resp["id"] == "req-7"


class TestAdmission:
    def test_token_bucket_throttles_with_retry_after(self):
        # burst 1.0: the first 4x4 route (cost 1.0) drains the bucket.
        registry = _enforced_registry(rate=0.5, burst=1.0)
        pipeline, svc = _pipeline(tenants=registry)
        first, second = _run(
            pipeline,
            svc,
            {**ROUTE, "rows": 4, "cols": 4},
            {**ROUTE, "rows": 4, "cols": 4, "seed": 1},
            api_key="ak_1",
        )
        assert first["ok"]
        assert not second["ok"] and second["code"] == "rate_limited"
        assert second["retry_after"] > 0
        outcomes = registry.stats()["tenants"]["acme"]
        assert outcomes["admitted"] == 1 and outcomes["throttled"] == 1

    def test_global_queue_bound_sheds(self):
        pipeline, svc = _pipeline(max_queue_depth=0)
        (resp,) = _run(pipeline, svc, ROUTE)
        assert not resp["ok"] and resp["code"] == "rate_limited"
        assert "shedding load" in resp["error"]
        assert resp["retry_after"] == 1.0

    def test_tenant_max_queued_sheds(self):
        registry = _enforced_registry(max_queued=0)
        pipeline, svc = _pipeline(tenants=registry)
        (resp,) = _run(pipeline, svc, ROUTE, api_key="ak_1")
        assert not resp["ok"] and resp["code"] == "rate_limited"
        assert "quota" in resp["error"]
        assert registry.stats()["tenants"]["acme"]["shed"] == 1

    def test_batch_admitted_all_or_nothing(self):
        # Two 4x4 entries cost 2.0 against a burst of 1.5: the whole
        # batch is refused, nothing partially admitted.
        registry = _enforced_registry(rate=0.1, burst=1.5)
        pipeline, svc = _pipeline(tenants=registry)
        entry = {"rows": 4, "cols": 4, "workload": "random", "seed": 0}
        batch = {"op": "route_batch", "requests": [entry, dict(entry, seed=1)]}
        resp, single = _run(
            pipeline, svc, batch, {**ROUTE, "rows": 4, "cols": 4},
            api_key="ak_1",
        )
        assert not resp["ok"] and resp["code"] == "rate_limited"
        assert single["ok"]  # cost 1.0 still fits the untouched bucket

    def test_exempt_ops_never_admitted(self):
        pipeline, svc = _pipeline(max_queue_depth=0)
        docs = [{"op": op} for op in ("cache_stats", "trace_get")]
        responses = _run(pipeline, svc, *docs)
        assert all(r["ok"] for r in responses)


class TestBatchOps:
    def test_route_batch_op_isolates_bad_entries(self):
        pipeline, svc = _pipeline()
        entry = {"rows": 3, "cols": 3, "workload": "random", "seed": 0}
        (resp,) = _run(
            pipeline,
            svc,
            {"op": "route_batch", "requests": [entry, {"rows": -1}]},
        )
        assert resp["ok"] and resp["op"] == "route_batch"
        assert resp["count"] == 2
        assert resp["results"][0]["ok"]
        assert not resp["results"][1]["ok"]  # isolated, not fatal

    def test_batch_envelope_validation(self):
        pipeline, svc = _pipeline()
        bad_requests, bad_timeout = _run(
            pipeline,
            svc,
            {"op": "route_batch", "requests": "nope"},
            {"op": "route_batch", "requests": [], "timeout": "soon"},
        )
        assert bad_requests["code"] == "bad_request"
        assert "'requests' must be a JSON array" in bad_requests["error"]
        assert bad_timeout["code"] == "bad_request"
        assert "'timeout' must be a number" in bad_timeout["error"]


class TestStageObservability:
    STAGES = ("decode", "authenticate", "admit", "enqueue", "execute", "encode")

    def test_every_stage_has_a_span_and_a_histogram(self):
        pipeline, svc = _pipeline(trace_buffer=8)

        async def go():
            resp = await pipeline.process(dict(ROUTE))
            got = await pipeline.process(
                {"op": "trace_get", "trace_id": resp["trace_id"]}
            )
            snap = pipeline.telemetry.snapshot()
            await svc.aclose()
            return got, snap

        got, snap = asyncio.run(go())
        names = {s["name"] for s in got["traces"][0]["spans"]}
        for stage in self.STAGES:
            assert f"pipeline.{stage}" in names, stage
            assert snap["latency"][f"pipeline.{stage}"]["count"] >= 1, stage

    def test_root_span_keeps_handler_name_and_tenant_attr(self):
        pipeline, svc = _pipeline(
            tenants=_enforced_registry(), trace_buffer=8
        )

        async def go():
            resp = await pipeline.process(dict(ROUTE), api_key="ak_1")
            got = await pipeline.process(
                {"op": "trace_get", "trace_id": resp["trace_id"]}
            )
            await svc.aclose()
            return got

        got = asyncio.run(go())
        spans = got["traces"][0]["spans"]
        root = next(s for s in spans if s["name"] == "handler.route")
        assert root["attrs"]["tenant"] == "acme"

    def test_tenant_outcome_counter_and_prometheus(self):
        pipeline, svc = _pipeline(tenants=_enforced_registry())

        async def go():
            await pipeline.process(dict(ROUTE), api_key="ak_1")
            await pipeline.process(dict(ROUTE), api_key="bad")
            await svc.aclose()

        asyncio.run(go())
        snap = pipeline.telemetry.snapshot()
        series = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snap["labeled_counters"]["tenant_requests"]
        }
        assert series[(("outcome", "admitted"), ("tenant", "acme"))] == 1
        assert series[(("outcome", "unauthorized"), ("tenant", "system"))] == 1
        text = render_prometheus({"telemetry": snap})
        assert (
            'repro_tenant_requests_total{outcome="admitted",tenant="acme"} 1'
            in text
        )

    def test_stats_exposes_tenancy_and_scheduler(self):
        pipeline, svc = _pipeline(tenants=_enforced_registry(), max_queue_depth=64)
        _run(pipeline, svc, ROUTE, api_key="ak_1")
        doc = svc.stats()
        assert doc["aio"]["max_queue_depth"] == 64
        tenancy = doc["tenancy"]
        assert tenancy["enforced"] is True
        assert tenancy["tenants"]["acme"]["admitted"] == 1
        sched = tenancy["scheduler"]
        assert sched["max_queue_depth"] == 64 and sched["inflight"] == 0
        assert sched["tenants"]["acme"]["granted"] == 1

    def test_work_ops_constant_matches_handler_contract(self):
        assert WORK_OPS == {
            "route",
            "transpile",
            "route_batch",
            "transpile_batch",
        }


class TestProcessHttp:
    def _call(self, pipeline, svc, calls):
        async def go():
            out = [
                await pipeline.process_http(
                    method, path, query, headers or {}, body
                )
                for method, path, query, headers, body in calls
            ]
            await svc.aclose()
            return out

        return asyncio.run(go())

    def test_trace_context_comes_from_the_header(self):
        pipeline, svc = _pipeline(trace_buffer=8)
        header_trace, body_trace = "ab" * 16, "cd" * 16
        body = (
            b'{"rows":3,"cols":3,"workload":"random",'
            b'"trace":"00-' + body_trace.encode() + b'-00f067aa0ba902b7-01"}'
        )
        headers = {"traceparent": f"00-{header_trace}-00f067aa0ba902b7-01"}
        joined, fresh = self._call(
            pipeline,
            svc,
            [
                ("POST", "/v1/route", "", headers, body),
                ("POST", "/v1/route", "", None, body),
            ],
        )
        assert joined.payload["trace_id"] == header_trace
        # A ``trace`` field in the body is not trace context.
        assert fresh.payload["trace_id"] not in (header_trace, body_trace)

    def test_keyless_work_is_401(self):
        pipeline, svc = _pipeline(tenants=_enforced_registry())
        (resp,) = self._call(
            pipeline,
            svc,
            [("POST", "/v1/route", "", None, b'{"rows":3,"cols":3,"workload":"random"}')],
        )
        assert resp.status == 401
        assert resp.payload["code"] == "unauthorized"

    def test_bearer_and_x_api_key_headers(self):
        pipeline, svc = _pipeline(tenants=_enforced_registry())
        body = b'{"rows":3,"cols":3,"workload":"random"}'
        bearer, x_key = self._call(
            pipeline,
            svc,
            [
                ("POST", "/v1/route", "", {"authorization": "Bearer ak_1"}, body),
                ("POST", "/v1/route", "", {"x-api-key": "ak_1"}, body),
            ],
        )
        assert bearer.status == 200 and bearer.payload["ok"]
        assert x_key.status == 200 and x_key.payload["ok"]

    def test_429_carries_retry_after_header(self):
        pipeline, svc = _pipeline(
            tenants=_enforced_registry(rate=0.5, burst=1.0)
        )
        body = b'{"rows":4,"cols":4,"workload":"random"}'
        headers = {"authorization": "Bearer ak_1"}
        first, second = self._call(
            pipeline,
            svc,
            [
                ("POST", "/v1/route", "", headers, body),
                ("POST", "/v1/route", "", headers, body),
            ],
        )
        assert first.status == 200
        assert second.status == 429
        assert second.payload["code"] == "rate_limited"
        retry = dict(second.headers)["Retry-After"]
        assert retry.isdigit() and int(retry) >= 1

    def test_health_stats_metrics_and_404(self):
        pipeline, svc = _pipeline()
        health, draining, stats, metrics, missing, wrong = self._call(
            pipeline,
            svc,
            [
                ("GET", "/healthz", "", None, b""),
                ("GET", "/healthz", "", None, b""),
                ("GET", "/stats", "", None, b""),
                ("GET", "/metrics", "", None, b""),
                ("GET", "/nope", "", None, b""),
                ("DELETE", "/v1/route", "", None, b""),
            ],
        )
        assert health.status == 200 and health.payload["status"] == "serving"
        assert draining.status == 200
        assert stats.payload["stats"]["aio"]["max_concurrency"] > 0
        assert metrics.content_type.startswith("text/plain")
        assert "repro_counter_total" in metrics.payload
        assert missing.status == 404
        assert wrong.status == 405
        assert wrong.payload["code"] == "method_not_allowed"

    def test_draining_healthz(self):
        pipeline, svc = _pipeline()

        async def go():
            resp = await pipeline.process_http(
                "GET", "/healthz", "", {}, b"", draining=True
            )
            await svc.aclose()
            return resp

        resp = asyncio.run(go())
        assert resp.payload["status"] == "draining"

    def test_route_batch_endpoint_gains_op(self):
        pipeline, svc = _pipeline()
        body = (
            b'{"requests": [{"rows":3,"cols":3,"workload":"random"}]}'
        )
        (resp,) = self._call(
            pipeline, svc, [("POST", "/v1/route_batch", "", None, body)]
        )
        assert resp.status == 200
        assert resp.payload["ok"] and resp.payload["count"] == 1
        assert resp.payload["op"] == "route_batch"

    def test_stale_epoch_update_is_409(self):
        from repro.service import ClusterTopology

        topology = ClusterTopology(["node-a"])
        pipeline, svc = _pipeline(
            cluster_node_id="node-a", cluster_topology=topology
        )
        body = (
            b'{"action": "join", "node": "node-b", "expected_epoch": 99}'
        )
        (resp,) = self._call(
            pipeline, svc, [("POST", "/v1/topology", "", None, body)]
        )
        assert resp.status == 409
        assert resp.payload["code"] == "stale_epoch"
