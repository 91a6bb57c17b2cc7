"""Tests for the RoutingService facade, telemetry, and the service CLI."""

from __future__ import annotations

import json

import pytest

from repro.circuit import ghz, qft
from repro.circuit.qasm import dumps
from repro.cli import main
from repro.errors import ReproError
from repro.graphs import GridGraph
from repro.perm import Permutation, random_permutation
from repro.routing import Schedule
from repro.routing.serialize import schedule_to_json
from repro.service import (
    RouteRequest,
    RouteResult,
    RoutingService,
    TranspileRequest,
    request_key,
    route_result_to_dict,
    transpile_metrics,
)
from repro.service.telemetry import LatencyHistogram, Telemetry
from repro.transpile import transpile


class TestRoutingService:
    def test_submit_roundtrip_and_cache(self):
        svc = RoutingService(cache_size=8)
        grid = GridGraph(4, 4)
        perm = random_permutation(grid, seed=1)
        r1 = svc.submit(grid, perm)
        r2 = svc.submit(grid, perm)
        assert r1.source == "computed" and r2.source == "cache"
        assert r1.schedule.simulate() == perm
        assert r2.schedule == r1.schedule

    def test_submit_batch_coercion(self):
        svc = RoutingService(cache_size=8)
        grid = GridGraph(3, 3)
        p0 = random_permutation(grid, seed=0)
        p1 = random_permutation(grid, seed=1)
        results = svc.submit_batch([
            (grid, p0),
            (grid, p1, "naive"),
            {"graph": grid, "perm": p0, "router": "naive"},
            RouteRequest(grid, p1),
        ])
        assert all(r.ok for r in results)
        assert results[1].router == "naive"

    def test_submit_batch_rejects_malformed_entries(self):
        svc = RoutingService(cache_size=8)
        with pytest.raises(ReproError):
            svc.submit_batch([42])
        with pytest.raises(ReproError):
            svc.submit_batch([{"graph": GridGraph(2, 2)}])

    def test_warm_cache_then_hits(self):
        # Grid > 4x4 so block_local actually tiles (on tiny grids its
        # single block degenerates to the same permutation as random).
        svc = RoutingService(cache_size=64)
        n = svc.warm_cache(sizes=(6,), workloads=("random", "block_local"),
                           seeds=(0, 1))
        assert n == 4  # 1 size x 2 workloads x 2 seeds x 1 router
        assert svc.warm_cache(sizes=(6,), workloads=("random", "block_local"),
                              seeds=(0, 1)) == 0
        grid = GridGraph(6, 6)
        from repro.perm import make_workload

        res = svc.submit(grid, make_workload("random", grid, seed=0))
        assert res.source == "cache"

    def test_warm_cache_rectangular_sizes(self):
        svc = RoutingService(cache_size=16)
        n = svc.warm_cache(sizes=((2, 3),), workloads=("random",), seeds=(0,))
        assert n == 1

    def test_stats_shape(self):
        svc = RoutingService(cache_size=8)
        svc.submit(GridGraph(3, 3), random_permutation(GridGraph(3, 3), seed=0))
        stats = svc.stats()
        assert stats["schedule_cache"]["entries"] == 1
        assert stats["schedule_cache"]["maxsize"] == 8
        assert stats["telemetry"]["counters"]["aio_requests"] == 1
        assert stats["telemetry"]["counters"]["aio_source_computed"] == 1
        assert "aio_route" in stats["telemetry"]["latency"]
        assert stats["max_workers"] == 1
        json.dumps(stats)  # must be JSON-ready

    def test_context_manager(self):
        with RoutingService(cache_size=4, max_workers=2) as svc:
            grid = GridGraph(3, 3)
            results = svc.submit_batch([
                (grid, random_permutation(grid, seed=s)) for s in range(3)
            ])
            assert all(r.ok for r in results)


class TestTranspileBatch:
    def test_matches_direct_transpile(self):
        grid = GridGraph(2, 3)
        circuit = ghz(6)
        direct = transpile(circuit, grid, router="local")
        svc = RoutingService(cache_size=8)
        out = svc.transpile_batch([
            TranspileRequest(qasm=dumps(circuit), graph=grid, router="local")
        ])[0]
        assert out.ok and out.source == "computed"
        expected = transpile_metrics(direct)
        assert out.metrics["physical_depth"] == expected["physical_depth"]
        assert out.metrics["n_swaps"] == expected["n_swaps"]
        assert out.metrics["final_mapping"] == expected["final_mapping"]

    def test_dedup_cache_and_error_isolation(self):
        grid = GridGraph(2, 3)
        good = TranspileRequest(qasm=dumps(ghz(6)), graph=grid)
        bad = TranspileRequest(qasm="not qasm at all", graph=grid)
        svc = RoutingService(cache_size=8)
        outs = svc.transpile_batch([good, bad, good])
        assert [o.source for o in outs] == ["computed", "error", "dedup"]
        assert outs[1].error and not outs[1].ok
        assert outs[2].metrics == outs[0].metrics
        again = svc.transpile_batch([good])[0]
        assert again.source == "cache"

    def test_include_qasm_roundtrips(self):
        from repro.circuit.qasm import loads

        grid = GridGraph(2, 2)
        svc = RoutingService(cache_size=8)
        out = svc.transpile_batch(
            [TranspileRequest(qasm=dumps(qft(4)), graph=grid)],
            include_qasm=True,
        )[0]
        assert out.ok
        physical = loads(out.physical_qasm)
        assert physical.n_qubits == 4

    def test_pool_path(self):
        grid = GridGraph(2, 3)
        reqs = [
            TranspileRequest(qasm=dumps(ghz(6)), graph=grid),
            TranspileRequest(qasm=dumps(qft(6)), graph=grid),
        ]
        with RoutingService(cache_size=8, max_workers=2) as svc:
            outs = svc.transpile_batch(reqs)
        assert all(o.ok for o in outs)
        direct = transpile_metrics(transpile(qft(6), grid, router="local"))
        assert outs[1].metrics["physical_depth"] == direct["physical_depth"]


class TestTelemetry:
    def test_counters_and_histograms(self):
        t = Telemetry()
        t.incr("x")
        t.incr("x", 2)
        t.observe("lat", 0.5)
        with t.timer("lat"):
            pass
        snap = t.snapshot()
        assert snap["counters"]["x"] == 3
        assert snap["latency"]["lat"]["count"] == 2
        assert snap["latency"]["lat"]["max_seconds"] >= 0.5

    def test_histogram_quantiles(self):
        h = LatencyHistogram()
        for _ in range(99):
            h.observe(0.001)
        h.observe(10.0)
        assert h.count == 100
        assert h.quantile(0.5) <= 0.002
        assert h.quantile(1.0) >= 5.0
        assert h.mean == pytest.approx((99 * 0.001 + 10.0) / 100)
        d = h.as_dict()
        assert d["count"] == 100 and d["p50_seconds"] <= 0.002

    def test_quantile_never_exceeds_observed_max(self):
        h = LatencyHistogram()
        h.observe(0.824)  # lands in a bucket whose bound is ~1.31
        assert h.quantile(0.5) == 0.824
        assert h.as_dict()["p95_seconds"] <= h.max

    def test_histogram_edges(self):
        h = LatencyHistogram()
        assert h.quantile(0.5) == 0.0
        h.observe(-1.0)  # clamps to zero
        assert h.max == 0.0
        h.observe(1e9)  # overflow bucket
        assert h.quantile(1.0) == 1e9
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            LatencyHistogram(base=0)


class TestRouteResultEncoding:
    def test_dict_shape_and_extras(self):
        svc = RoutingService(cache_size=4)
        grid = GridGraph(3, 3)
        res = svc.submit(grid, random_permutation(grid, seed=0))
        doc = route_result_to_dict(res, rows=3, cols=3)
        assert doc["ok"] and doc["depth"] == res.depth
        assert doc["rows"] == 3
        assert "schedule" not in doc
        with_sched = route_result_to_dict(res, include_schedule=True)
        assert with_sched["schedule"]["format"] == "repro.schedule"
        assert with_sched["schedule"] == json.loads(schedule_to_json(res.schedule))

    def test_schedule_document_matches_schedule_to_json(self):
        # Metadata and empty layers, rendered without a JSON round trip.
        sched = Schedule(5, [[], [(3, 1), (0, 2)], [], [(1, 4)]], metadata={"a": [1]})
        key = request_key(GridGraph(1, 5), Permutation.identity(5), "local")
        res = RouteResult(0, key, "local", sched, 0.0, "computed")
        doc = route_result_to_dict(res, include_schedule=True)
        assert doc["schedule"] == json.loads(schedule_to_json(sched))
        assert doc["schedule"]["layers"] == [[], [[0, 2], [1, 3]], [], [[1, 4]]]
        assert json.dumps(doc["schedule"]) == schedule_to_json(sched)


class TestBatchCli:
    def _write_requests(self, tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_batch_roundtrip(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 0}),
            "# a comment line",
            json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 0,
                        "router": "naive"}),
            json.dumps({"rows": 2, "cols": 2, "perm": [1, 0, 3, 2]}),
        ])
        out = tmp_path / "results.jsonl"
        rc = main(["batch", reqs, "--out", str(out), "--workers", "1"])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 3
        assert all(l["ok"] for l in lines)
        assert lines[1]["router"] == "naive"
        assert "req/s" in capsys.readouterr().err

    def test_batch_stdout_and_stats(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            json.dumps({"rows": 2, "cols": 2, "workload": "random", "seed": 0}),
        ])
        rc = main(["batch", reqs, "--workers", "1", "--stats",
                   "--include-schedule"])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out.splitlines()[0])
        assert doc["ok"] and doc["schedule"]["format"] == "repro.schedule"
        assert "schedule_cache" in captured.err

    def test_batch_error_exit_code(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 0}),
            json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 1,
                        "router": "bogus"}),
        ])
        rc = main(["batch", reqs, "--workers", "1"])
        assert rc == 3
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [l["ok"] for l in lines] == [True, False]

    def test_batch_rejects_malformed_lines(self, tmp_path, capsys):
        for payload in ("{invalid", json.dumps({"rows": 3}),
                        json.dumps({"rows": 3, "cols": 3}), json.dumps([1, 2])):
            reqs = self._write_requests(tmp_path, [payload])
            assert main(["batch", reqs]) == 2
            assert "error:" in capsys.readouterr().err

    def test_batch_missing_file(self, capsys):
        assert main(["batch", "/nonexistent/requests.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_rejects_bad_sizes(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            json.dumps({"rows": 2, "cols": 2, "workload": "random", "seed": 0}),
        ])
        assert main(["batch", reqs, "--cache-size", "0"]) == 2
        assert "--cache-size" in capsys.readouterr().err
        assert main(["batch", reqs, "--workers", "-2"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_batch_bad_out_path_fails_fast(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            json.dumps({"rows": 2, "cols": 2, "workload": "random", "seed": 0}),
        ])
        rc = main(["batch", reqs, "--out", str(tmp_path / "no" / "dir" / "o.jsonl")])
        assert rc == 2
        assert "cannot open output file" in capsys.readouterr().err

    def test_batch_warm_flag(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            json.dumps({"rows": 4, "cols": 4, "workload": "random", "seed": 0}),
        ])
        rc = main(["batch", reqs, "--workers", "1", "--warm",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "warmed cache" in err
        assert (tmp_path / "cache").is_dir()

    def test_batch_cache_dir_persists(self, tmp_path, capsys):
        reqs = self._write_requests(tmp_path, [
            json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 5}),
        ])
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", reqs, "--cache-dir", cache_dir, "--workers", "1"]) == 0
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert first["source"] == "computed"
        assert main(["batch", reqs, "--cache-dir", cache_dir, "--workers", "1"]) == 0
        second = json.loads(capsys.readouterr().out.splitlines()[0])
        assert second["source"] == "cache"
        assert second["depth"] == first["depth"]


class TestJsonFlags:
    def test_route_json(self, capsys):
        rc = main(["route", "--rows", "3", "--cols", "3", "--seed", "1",
                   "--router", "local", "--router", "naive", "--json",
                   "--fidelity"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "route" and doc["rows"] == 3
        assert [r["router"] for r in doc["results"]] == ["local", "naive"]
        for r in doc["results"]:
            assert r["ok"] and r["depth"] >= 1
            assert 0.0 < r["est_success"] <= 1.0

    def test_transpile_json(self, tmp_path, capsys):
        from repro.circuit import dump_file

        src = tmp_path / "in.qasm"
        out = tmp_path / "out.qasm"
        dump_file(ghz(6), str(src))
        rc = main(["transpile", str(src), "--rows", "2", "--cols", "3",
                   "--json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "transpile"
        assert doc["metrics"]["n_qubits"] == 6
        assert doc["metrics"]["physical_depth"] >= doc["metrics"]["logical_depth"]
        assert doc["out"] == str(out)
        assert out.exists()
