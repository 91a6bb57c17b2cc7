"""Tests for request tracing: spans, propagation, the ring, the CLI.

Covers the tracing primitives (:mod:`repro.service.tracing`), the
structured JSON logger (:mod:`repro.service.logging`), the stage
profiler threaded through the routers, handler/transport integration
(``trace_get`` op, ``GET /v1/traces``, ``traceparent`` headers), and a
live two-daemon ring where a remote cache hit yields one trace whose
span tree contains both nodes' spans.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging as stdlib_logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from socket_daemon import route as route_doc
from socket_daemon import shutdown, start_daemon

from repro import GridGraph, route
from repro.cli import main
from repro.perm import make_workload
from repro.routing.base import StageProfiler, profile, stage
from repro.service import (
    AsyncRoutingService,
    JsonFormatter,
    RemoteShardClient,
    RequestHandler,
    Trace,
    TraceBuffer,
    configure_logging,
    current_traceparent,
    format_traceparent,
    get_logger,
    parse_traceparent,
    record_stage_spans,
    span,
    start_trace,
)

TIMEOUT = 30.0


# ----------------------------------------------------------------------
# traceparent round trip
# ----------------------------------------------------------------------
class TestTraceparent:
    def test_roundtrip(self):
        value = format_traceparent("ab" * 16, "cd" * 8)
        assert parse_traceparent(value) == ("ab" * 16, "cd" * 8)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "garbage",
            "00-xyz-abc-01",
            "00-" + "0" * 32 + "-" + "ab" * 8 + "-01",  # all-zero trace id
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero span id
            "00-" + "ab" * 16 + "-" + "cd" * 8,  # missing flags
            "00-" + "gg" * 16 + "-" + "cd" * 8 + "-01",  # non-hex
        ],
    )
    def test_malformed_returns_none(self, bad):
        assert parse_traceparent(bad) is None


# ----------------------------------------------------------------------
# span nesting / contextvar API
# ----------------------------------------------------------------------
class TestSpans:
    def test_noop_outside_trace(self):
        assert current_traceparent() is None
        with span("anything") as sp:
            sp.set("k", "v")  # inert
            sp.status = "error"  # writable, ignored
        assert current_traceparent() is None

    def test_nesting_and_parentage(self):
        buf = TraceBuffer(capacity=4)
        with start_trace("handler.route", buf, node_id="n1") as root:
            with span("cache.get", hit=False) as c:
                with span("cache.remote_get", node="n2"):
                    pass
            assert c.attrs == {"hit": False}
        trace = buf.list()[0]
        names = [s.name for s in trace.spans]
        # Completion order: innermost first, root last.
        assert names == ["cache.remote_get", "cache.get", "handler.route"]
        by_name = {s.name: s for s in trace.spans}
        assert by_name["cache.get"].parent_id == root.span_id
        assert (
            by_name["cache.remote_get"].parent_id
            == by_name["cache.get"].span_id
        )
        assert trace.node_id == "n1"
        assert all(s.trace_id == trace.trace_id for s in trace.spans)

    def test_error_status_propagates(self):
        buf = TraceBuffer(capacity=4)
        with pytest.raises(RuntimeError):
            with start_trace("handler.route", buf):
                with span("compute"):
                    raise RuntimeError("boom")
        trace = buf.list()[0]
        assert all(s.status == "error" for s in trace.spans)

    def test_traceparent_continuation(self):
        buf = TraceBuffer(capacity=4)
        with start_trace("caller", buf) as caller_root:
            tp = current_traceparent()
        assert tp == format_traceparent(
            caller_root.trace_id, caller_root.span_id
        )
        with start_trace("callee", buf, traceparent=tp) as callee_root:
            pass
        assert callee_root.trace_id == caller_root.trace_id
        assert callee_root.parent_id == caller_root.span_id

    def test_bad_traceparent_mints_fresh_trace(self):
        buf = TraceBuffer(capacity=4)
        with start_trace("callee", buf, traceparent="not-a-traceparent") as r:
            pass
        assert r.parent_id is None and len(r.trace_id) == 32

    def test_none_buffer_is_noop(self):
        with start_trace("handler.route", None) as root:
            root.set("k", "v")
            assert current_traceparent() is None

    def test_record_stage_spans(self):
        buf = TraceBuffer(capacity=4)
        stages = {
            "matching": {"seconds": 0.25, "count": 3},
            "decomposition": {"seconds": 0.5, "count": 1},
        }
        with start_trace("handler.route", buf):
            with span("compute") as c:
                record_stage_spans(stages)
        trace = buf.list()[0]
        stage_spans = [s for s in trace.spans if s.name.startswith("stage.")]
        assert {s.name for s in stage_spans} == {
            "stage.matching",
            "stage.decomposition",
        }
        assert all(s.parent_id == c.span_id for s in stage_spans)
        by_name = {s.name: s for s in stage_spans}
        assert by_name["stage.matching"].duration == pytest.approx(0.25)
        assert by_name["stage.matching"].attrs["count"] == 3

    def test_span_doc_roundtrip(self):
        buf = TraceBuffer(capacity=4)
        with start_trace("handler.route", buf, node_id="n1", op="route"):
            with span("compute", router="local"):
                pass
        trace = buf.list()[0]
        rebuilt = Trace.from_doc(trace.to_doc())
        assert rebuilt.trace_id == trace.trace_id
        assert [s.name for s in rebuilt.spans] == [s.name for s in trace.spans]
        assert rebuilt.spans[0].duration == pytest.approx(
            trace.spans[0].duration
        )


# ----------------------------------------------------------------------
# property-based: nesting well-formedness + ring bound
# ----------------------------------------------------------------------
@st.composite
def _span_trees(draw):
    """A random nesting program: a sequence of push/pop operations."""
    ops = draw(
        st.lists(st.sampled_from(["push", "pop"]), min_size=0, max_size=40)
    )
    return ops


class TestSpanProperties:
    @settings(max_examples=60, deadline=None)
    @given(_span_trees())
    def test_nesting_is_well_formed(self, ops):
        """Any push/pop interleaving yields a well-nested span forest.

        Children lie within their parent's ``[t0, t1]`` bounds and every
        non-root parent id resolves to a recorded span (no orphans).
        """
        buf = TraceBuffer(capacity=4)
        with start_trace("root", buf):
            stack = []
            for op in ops:
                if op == "push" and len(stack) < 12:
                    cm = span(f"s{len(stack)}")
                    cm.__enter__()
                    stack.append(cm)
                elif op == "pop" and stack:
                    stack.pop().__exit__(None, None, None)
            while stack:
                stack.pop().__exit__(None, None, None)
        trace = buf.list()[0]
        by_id = {s.span_id: s for s in trace.spans}
        root = trace.root
        for s in trace.spans:
            assert s.t1 is not None  # every span closed
            assert s.t1 >= s.t0
            if s is root:
                assert s.parent_id is None
                continue
            assert s.parent_id in by_id, "orphan parent"
            parent = by_id[s.parent_id]
            assert parent.t0 <= s.t0 and s.t1 <= parent.t1

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        n=st.integers(min_value=0, max_value=64),
    )
    def test_ring_never_exceeds_capacity(self, capacity, n):
        buf = TraceBuffer(capacity=capacity)
        for i in range(n):
            with start_trace(f"t{i}", buf):
                pass
        assert len(buf) == min(n, capacity)
        assert buf.dropped == max(0, n - capacity)
        stats = buf.stats()
        assert stats["size"] == len(buf)
        assert stats["capacity"] == capacity
        # Newest-first listing holds the most recent traces.
        names = [t.name for t in buf.list()]
        assert names == [f"t{i}" for i in reversed(range(n))][: len(buf)]


# ----------------------------------------------------------------------
# trace buffer behaviour
# ----------------------------------------------------------------------
class TestTraceBuffer:
    def test_get_by_id_and_limit(self):
        buf = TraceBuffer(capacity=8)
        ids = []
        for i in range(3):
            with start_trace(f"t{i}", buf) as root:
                ids.append(root.trace_id)
        assert buf.get(ids[1]).name == "t1"
        assert buf.get("f" * 32) is None
        assert [t.name for t in buf.list(limit=2)] == ["t2", "t1"]

    def test_slow_trace_counted_and_logged(self):
        buf = TraceBuffer(capacity=8, slow_threshold=1e-9)
        records: list[stdlib_logging.LogRecord] = []
        handler = stdlib_logging.Handler()
        handler.emit = records.append  # type: ignore[method-assign]
        # Capture on the emitting logger itself: other tests configure
        # the "repro" hierarchy with propagate=False, so root-level
        # capture (caplog) would miss the record depending on ordering.
        logger = stdlib_logging.getLogger("repro.service.tracing")
        logger.addHandler(handler)
        old_level, old_prop = logger.level, logger.propagate
        logger.setLevel(stdlib_logging.WARNING)
        logger.propagate = False
        try:
            with start_trace("slowpoke", buf):
                pass
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
            logger.propagate = old_prop
        assert buf.stats()["slow"] == 1
        assert any("slow trace" in r.getMessage() for r in records)
        assert records[0].trace_id  # type: ignore[attr-defined]

    def test_telemetry_hookup(self):
        from repro.service import Telemetry

        tel = Telemetry()
        buf = TraceBuffer(capacity=1, telemetry=tel)
        for i in range(3):
            with start_trace(f"t{i}", buf):
                pass
        snap = tel.snapshot()
        assert snap["gauges"]["trace_buffer_size"] == 1.0
        assert snap["counters"]["traces_recorded"] == 3
        assert snap["counters"]["traces_dropped"] == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


# ----------------------------------------------------------------------
# stage profiler
# ----------------------------------------------------------------------
class TestStageProfiler:
    def test_exclusive_time_partition(self):
        prof = StageProfiler()
        with profile(prof):
            with stage("outer"):
                with stage("inner"):
                    pass
        stages = prof.as_dict()
        assert set(stages) == {"outer", "inner"}
        assert stages["outer"]["count"] == 1
        # Exclusive accounting: outer's seconds exclude inner's.
        assert stages["outer"]["seconds"] >= 0.0

    def test_stage_is_noop_without_profiler(self):
        with stage("anything"):
            pass  # no profiler installed: must not raise

    def test_router_emits_stage_profile(self):
        grid = GridGraph(4, 4)
        perm = make_workload("random", grid, seed=0)
        prof = StageProfiler()
        with profile(prof):
            route(grid, perm, method="local")
        stages = prof.as_dict()
        assert "decomposition" in stages
        assert "matching" in stages
        assert "swap_scheduling" in stages


# ----------------------------------------------------------------------
# structured JSON logging
# ----------------------------------------------------------------------
class TestJsonLogging:
    def test_formatter_includes_trace_correlation(self):
        stream = io.StringIO()
        handler = stdlib_logging.StreamHandler(stream)
        handler.setFormatter(JsonFormatter())
        logger = stdlib_logging.getLogger("repro.test.json")
        logger.addHandler(handler)
        logger.setLevel(stdlib_logging.INFO)
        try:
            buf = TraceBuffer(capacity=2)
            with start_trace("handler.route", buf) as root:
                logger.info("inside", extra={"custom": 7})
            logger.info("outside")
        finally:
            logger.removeHandler(handler)
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert lines[0]["message"] == "inside"
        assert lines[0]["trace_id"] == root.trace_id
        assert lines[0]["span_id"] == root.span_id
        assert lines[0]["custom"] == 7
        assert "trace_id" not in lines[1]

    def test_configure_logging_idempotent(self):
        root = configure_logging("info", json_output=True)
        n = len(root.handlers)
        root2 = configure_logging("debug", json_output=False)
        assert root2 is root and len(root.handlers) == n
        assert get_logger("daemon").name == "repro.daemon"
        assert get_logger("repro.service").name == "repro.service"

    def test_configure_logging_rejects_bad_level(self):
        with pytest.raises(ValueError):
            configure_logging("loud")


# ----------------------------------------------------------------------
# handler integration
# ----------------------------------------------------------------------
class TestHandlerTracing:
    def _handler(self, **kwargs):
        kwargs.setdefault("max_workers", 0)
        kwargs.setdefault("cache_size", 16)
        svc = AsyncRoutingService(**kwargs)
        return RequestHandler(svc), svc

    def test_route_records_full_span_tree(self):
        handler, svc = self._handler()

        async def run():
            resp = await handler.dispatch(
                {"op": "route", "rows": 3, "cols": 3, "workload": "random"}
            )
            assert resp["ok"] and resp["trace_id"]
            got = await handler.dispatch(
                {"op": "trace_get", "trace_id": resp["trace_id"]}
            )
            await svc.aclose()
            return got

        got = asyncio.run(run())
        assert got["ok"] and got["count"] == 1
        names = {s["name"] for s in got["traces"][0]["spans"]}
        # pipeline stages -> cache -> queue -> compute, plus routing phases.
        assert {
            "handler.route",
            "pipeline.decode",
            "pipeline.authenticate",
            "pipeline.admit",
            "pipeline.execute",
            "pipeline.enqueue",
            "pipeline.encode",
            "cache.get",
            "compute",
        } <= names
        assert any(n.startswith("stage.") for n in names)

    def test_introspection_ops_not_traced(self):
        handler, svc = self._handler()

        async def run():
            for op in ("cache_stats", "trace_get"):
                resp = await handler.dispatch({"op": op})
                assert resp["ok"]
            pipeline = handler._get_pipeline()
            for path in ("/healthz", "/stats", "/metrics"):
                answer = await pipeline.process_http("GET", path, "", {}, b"")
                assert answer.status == 200, path
            got = await handler.dispatch({"op": "trace_get"})
            await svc.aclose()
            return got

        got = asyncio.run(run())
        assert got["count"] == 0  # nothing polluted the ring

    def test_trace_get_disabled_is_bad_request(self):
        handler, svc = self._handler(trace_buffer=0)

        async def run():
            resp = await handler.dispatch({"op": "trace_get"})
            await svc.aclose()
            return resp

        resp = asyncio.run(run())
        assert not resp["ok"] and resp["code"] == "bad_request"

    def test_trace_get_validation(self):
        handler, svc = self._handler()

        async def run():
            bad_limit = await handler.dispatch(
                {"op": "trace_get", "limit": "many"}
            )
            bad_min = await handler.dispatch(
                {"op": "trace_get", "min_seconds": "soon"}
            )
            await svc.aclose()
            return bad_limit, bad_min

        bad_limit, bad_min = asyncio.run(run())
        assert bad_limit["code"] == "bad_request"
        assert bad_min["code"] == "bad_request"

    def test_failed_route_marks_root_error(self):
        handler, svc = self._handler()

        async def run():
            resp = await handler.dispatch(
                {"op": "route", "rows": 3}  # missing cols -> bad_request
            )
            got = await handler.dispatch({"op": "trace_get"})
            await svc.aclose()
            return resp, got

        resp, got = asyncio.run(run())
        assert not resp["ok"] and resp["trace_id"]
        assert got["traces"][0]["status"] == "error"

    def test_ping_reports_identity(self):
        handler, svc = self._handler()

        async def run():
            pipeline = handler._get_pipeline()
            resp = await pipeline.process_http("GET", "/healthz", "", {}, b"")
            await svc.aclose()
            return resp.payload

        resp = asyncio.run(run())
        assert resp["ok"] and resp["version"]


# ----------------------------------------------------------------------
# live two-daemon ring: one trace spanning both nodes
# ----------------------------------------------------------------------
def _start_ring_daemon(sock, peers):
    thread, _svc = start_daemon(
        sock,
        cluster_peers=peers,
        cluster_node_id=sock,
        cluster_replication=2,
    )
    return thread


class TestCrossDaemonTracing:
    def test_remote_hit_spans_both_nodes(self, tmp_path):
        """A remote cache hit yields one trace with spans on both nodes,
        linked by parentage across the hop."""
        sock_a = str(tmp_path / "a.sock")
        sock_b = str(tmp_path / "b.sock")
        thread_a = _start_ring_daemon(sock_a, ())
        thread_b = _start_ring_daemon(sock_b, (sock_a,))
        try:
            doc = {"rows": 4, "cols": 4, "workload": "random", "seed": 7}
            warm = route_doc(sock_a, doc)
            assert warm["ok"] and warm["source"] == "computed"
            served = route_doc(sock_b, doc)
            assert served["ok"] and served["source"] == "cache"
            trace_id = served["trace_id"]

            client_a = RemoteShardClient(sock_a, timeout=TIMEOUT)
            client_b = RemoteShardClient(sock_b, timeout=TIMEOUT)
            try:
                docs_a = client_a.trace_get(trace_id=trace_id)
                docs_b = client_b.trace_get(trace_id=trace_id)
            finally:
                client_a.close()
                client_b.close()
            # Each node buffered its own part of the trace.
            assert len(docs_a) == 1 and len(docs_b) == 1
            spans = docs_a[0]["spans"] + docs_b[0]["spans"]
            by_id = {s["span_id"]: s for s in spans}
            names = {s["name"] for s in spans}
            assert "handler.route" in names  # node B's root
            assert "cache.remote_get" in names  # node B probing node A
            assert "handler.cache_get" in names  # node A serving the probe
            # The hop is stitched by parentage: node A's root span is the
            # child of node B's remote_get client span.
            a_root = next(
                s for s in docs_a[0]["spans"] if s["name"] == "handler.cache_get"
            )
            assert a_root["parent_id"] in by_id
            assert by_id[a_root["parent_id"]]["name"] == "cache.remote_get"
            # And everything shares one trace id.
            assert {s["trace_id"] for s in spans} == {trace_id}
        finally:
            shutdown(sock_b, thread_b)
            shutdown(sock_a, thread_a)

    def test_trace_cli_merges_nodes(self, tmp_path, capsys):
        sock_a = str(tmp_path / "a.sock")
        sock_b = str(tmp_path / "b.sock")
        thread_a = _start_ring_daemon(sock_a, ())
        thread_b = _start_ring_daemon(sock_b, (sock_a,))
        try:
            doc = {"rows": 4, "cols": 4, "workload": "random", "seed": 9}
            assert route_doc(sock_a, doc)["ok"]
            served = route_doc(sock_b, doc)
            trace_id = served["trace_id"]
            rc = main(["trace", sock_a, sock_b, "--id", trace_id])
            out = capsys.readouterr().out
            assert rc == 0
            assert f"trace {trace_id}" in out
            assert "handler.route" in out
            assert "handler.cache_get" in out  # the other node's span
            # JSON mode emits machine-readable merged traces.
            rc = main(["trace", sock_a, sock_b, "--id", trace_id, "--json"])
            merged = json.loads(capsys.readouterr().out)
            assert rc == 0 and merged[0]["trace_id"] == trace_id
            assert len(merged[0]["nodes"]) == 2
        finally:
            shutdown(sock_b, thread_b)
            shutdown(sock_a, thread_a)

    def test_trace_cli_no_daemon_fails(self, tmp_path, capsys):
        rc = main(["trace", str(tmp_path / "ghost.sock")])
        assert rc != 0
        assert "no daemon answered" in capsys.readouterr().err
