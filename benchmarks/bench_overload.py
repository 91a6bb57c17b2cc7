"""Overload-behaviour benchmark: tenancy, fair queueing, load shedding.

Three measurements back the request-lifecycle pipeline's acceptance
criteria:

* ``uncontended`` — a well-behaved tenant alone on a warm service:
  the latency floor (p50/p99) every overload comparison is against.

* ``overload`` — the same well-behaved stream racing an abusive
  tenant that submits 10x the request volume on cold, heavier grids.
  The token bucket and weighted-fair scheduler must (a) keep the
  well-behaved tenant's p99 within 3x of its uncontended p99, (b)
  throttle the bulk of the abusive stream, and (c) fail *only* with
  the stable ``rate_limited`` code (429) — never with timeouts,
  internal errors or dropped connections.

* ``warm_throughput`` — the same fully-cached request pumped through
  an open (tenancy-off) and an enforced (tenancy-on) pipeline. The
  admission stages must cost <= 5% warm throughput.

Run standalone (``python benchmarks/bench_overload.py``) for a report
and the three assertions; ``--ci`` shrinks the workload and fails only
on crash or structural violations (the only-429 and abusive-throttled
invariants are deterministic; shared-runner timing is reported, not
asserted); ``--out BENCH_overload.json`` writes the numbers for
artifact upload. Under pytest, smoke-sized variants run with the
structural assertions only.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _common import gate, make_parser, poisson_arrivals, report, write_json
from repro.service import (
    AsyncRoutingService,
    RequestPipeline,
    Tenant,
    TenantRegistry,
)

#: The abusive tenant submits this many requests per well-behaved one.
OVERLOAD_FACTOR = 10

STEADY_KEY = "bk_steady"
BULLY_KEY = "bk_bully"


def _registry() -> TenantRegistry:
    """Two tenants: a favoured steady client and a rate-capped bully."""
    return TenantRegistry([
        # Generous rate: the steady tenant must never be throttled.
        Tenant("steady", key=STEADY_KEY, weight=2.0, rate=10_000.0,
               burst=10_000.0),
        # The bully's bucket admits only a couple of heavy requests
        # (one 6x6 costs ~3.4); the rest of its flood bounces with 429.
        Tenant("bully", key=BULLY_KEY, weight=1.0, rate=0.05, burst=4.0),
    ])


def _steady_doc(i: int, n_unique: int) -> dict:
    return {"op": "route", "rows": 4, "cols": 4, "workload": "random",
            "seed": i % n_unique}


def _bully_doc(i: int) -> dict:
    # Distinct seeds: every abusive request is a cold, heavier compute.
    return {"op": "route", "rows": 6, "cols": 6, "workload": "random",
            "seed": 10_000 + i}


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


async def _timed(pipeline: RequestPipeline, doc: dict, api_key: str):
    t0 = time.perf_counter()
    resp = await pipeline.process(dict(doc), api_key=api_key)
    return time.perf_counter() - t0, resp


# ----------------------------------------------------------------------
# uncontended baseline + 10x overload
# ----------------------------------------------------------------------
def bench_overload(n_steady: int = 80, n_unique: int = 8) -> dict:
    """The well-behaved stream alone, then racing a 10x abusive flood."""
    n_bully = n_steady * OVERLOAD_FACTOR

    async def _run() -> dict:
        async with AsyncRoutingService(
            cache_size=256, max_workers=1, max_concurrency=4,
            tenants=_registry(), max_queue_depth=64,
        ) as svc:
            pipeline = RequestPipeline(svc)

            # Warm the steady tenant's working set so both phases
            # measure cache-hit latency; the overload delta is then
            # pure queueing/admission overhead, which is the point.
            for i in range(n_unique):
                resp = await pipeline.process(
                    _steady_doc(i, n_unique), api_key=STEADY_KEY
                )
                assert resp["ok"], resp

            # Phase 1: the steady tenant alone.
            base_lat: list[float] = []
            for i in range(n_steady):
                dt, resp = await _timed(
                    pipeline, _steady_doc(i, n_unique), STEADY_KEY
                )
                assert resp["ok"], resp
                base_lat.append(dt)

            # Phase 2: the same stream against a 10x abusive flood.
            steady_tasks = [
                asyncio.ensure_future(
                    _timed(pipeline, _steady_doc(i, n_unique), STEADY_KEY)
                )
                for i in range(n_steady)
            ]
            bully_tasks = [
                asyncio.ensure_future(
                    _timed(pipeline, _bully_doc(i), BULLY_KEY)
                )
                for i in range(n_bully)
            ]
            steady = await asyncio.gather(*steady_tasks)
            bully = await asyncio.gather(*bully_tasks)
            return {"base_lat": base_lat, "steady": steady, "bully": bully}

    data = asyncio.run(_run())

    base = sorted(data["base_lat"])
    over = sorted(dt for dt, _ in data["steady"])
    steady_codes = {
        r.get("code") for _, r in data["steady"] if not r.get("ok")
    }
    bully_ok = sum(1 for _, r in data["bully"] if r.get("ok"))
    bully_429 = sum(
        1 for _, r in data["bully"] if r.get("code") == "rate_limited"
    )
    bully_other = len(data["bully"]) - bully_ok - bully_429

    # Structural invariants — deterministic, asserted even in CI: the
    # abusive tenant is throttled (not merely slowed), and overload
    # never surfaces as anything but the stable 429 code.
    assert not steady_codes, f"steady tenant saw errors: {steady_codes}"
    assert bully_other == 0, "abusive errors beyond rate_limited"
    assert bully_429 > bully_ok, (
        f"abusive tenant admitted {bully_ok} vs throttled {bully_429}"
    )

    p99_base = _percentile(base, 0.99)
    p99_over = _percentile(over, 0.99)
    return {
        "n_steady": len(over),
        "n_bully": len(data["bully"]),
        "overload_factor": OVERLOAD_FACTOR,
        "uncontended_p50_ms": _percentile(base, 0.5) * 1e3,
        "uncontended_p99_ms": p99_base * 1e3,
        "overload_p50_ms": _percentile(over, 0.5) * 1e3,
        "overload_p99_ms": p99_over * 1e3,
        "p99_ratio": p99_over / p99_base if p99_base > 0 else float("inf"),
        "bully_admitted": bully_ok,
        "bully_throttled": bully_429,
        "bully_throttle_fraction": bully_429 / len(data["bully"]),
    }


# ----------------------------------------------------------------------
# warm-path throughput: tenancy off vs on
# ----------------------------------------------------------------------
def bench_warm_overhead(n: int = 600, rounds: int = 3) -> dict:
    """One cached request pumped through open vs enforced pipelines.

    The two pipelines share one event loop and the rounds alternate
    (open, enforced, open, ...) with best-of scoring, so machine drift
    between the measurements cancels instead of masquerading as
    admission overhead.
    """
    doc = {"op": "route", "rows": 4, "cols": 4, "workload": "random",
           "seed": 0}

    async def _round(pipeline: RequestPipeline, api_key: str | None) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            resp = await pipeline.process(dict(doc), api_key=api_key)
            assert resp["ok"], resp
        assert resp["source"] == "cache"
        return time.perf_counter() - t0

    async def _run() -> tuple[float, float]:
        async with AsyncRoutingService(
            cache_size=64, max_workers=1
        ) as open_svc, AsyncRoutingService(
            cache_size=64, max_workers=1, tenants=_registry()
        ) as enf_svc:
            open_pipe = RequestPipeline(open_svc)
            enf_pipe = RequestPipeline(enf_svc)
            for pipe, key in ((open_pipe, None), (enf_pipe, STEADY_KEY)):
                resp = await pipe.process(dict(doc), api_key=key)
                assert resp["ok"] and resp["source"] == "computed"
            best_open = best_enf = float("inf")
            for _ in range(rounds):
                best_open = min(best_open, await _round(open_pipe, None))
                best_enf = min(best_enf, await _round(enf_pipe, STEADY_KEY))
            return best_open, best_enf

    open_seconds, enforced_seconds = asyncio.run(_run())
    open_rps = n / open_seconds
    enforced_rps = n / enforced_seconds
    return {
        "n_requests": n,
        "rounds": rounds,
        "open_req_per_s": open_rps,
        "enforced_req_per_s": enforced_rps,
        "throughput_ratio": enforced_rps / open_rps,
    }


# ----------------------------------------------------------------------
# open-loop arrivals: fixed-rate Poisson stream, server can't push back
# ----------------------------------------------------------------------
def bench_open_loop(
    n: int = 200, rate_hz: float = 400.0, n_unique: int = 8
) -> dict:
    """A warm steady stream arriving at fixed Poisson times.

    Unlike the closed-loop phases above, arrivals do not wait for
    responses: the schedule comes from
    :func:`_common.poisson_arrivals` and each request fires at its
    appointed offset regardless of how far behind the server is. Sojourn
    time (arrival to response) therefore includes queueing delay, and a
    service that cannot sustain ``rate_hz`` shows unbounded latency
    growth instead of the silently throttled arrival rate a closed loop
    would report.
    """
    arrivals = poisson_arrivals(rate_hz, n, seed=7)

    async def _run() -> list:
        async with AsyncRoutingService(
            cache_size=256, max_workers=1, max_concurrency=4,
            tenants=_registry(), max_queue_depth=64,
        ) as svc:
            pipeline = RequestPipeline(svc)
            for i in range(n_unique):
                resp = await pipeline.process(
                    _steady_doc(i, n_unique), api_key=STEADY_KEY
                )
                assert resp["ok"], resp

            t0 = time.perf_counter()

            async def fire(i: int, at: float):
                delay = at - (time.perf_counter() - t0)
                if delay > 0:
                    await asyncio.sleep(delay)
                resp = await pipeline.process(
                    _steady_doc(i, n_unique), api_key=STEADY_KEY
                )
                # Sojourn = queueing + service, measured from the
                # *scheduled* arrival so generator lag counts against
                # the server, as it would for a real late client.
                return (time.perf_counter() - t0) - at, resp

            return await asyncio.gather(
                *[fire(i, at) for i, at in enumerate(arrivals)]
            )

    results = asyncio.run(_run())
    codes = {r.get("code") for _, r in results if not r.get("ok")}
    assert not codes, f"open-loop steady stream saw errors: {codes}"
    sojourn = sorted(dt for dt, _ in results)
    return {
        "n_requests": n,
        "rate_hz": rate_hz,
        "offered_duration_s": arrivals[-1],
        "sojourn_p50_ms": _percentile(sojourn, 0.5) * 1e3,
        "sojourn_p99_ms": _percentile(sojourn, 0.99) * 1e3,
        "sojourn_max_ms": sojourn[-1] * 1e3,
    }


# ----------------------------------------------------------------------
# pytest entry points (smoke-sized, structural assertions only)
# ----------------------------------------------------------------------
def test_overload_sheds_only_with_429():
    stats = bench_overload(n_steady=12, n_unique=4)
    assert stats["bully_throttled"] > stats["bully_admitted"]


def test_warm_overhead_is_reported():
    stats = bench_warm_overhead(n=60, rounds=1)
    assert stats["throughput_ratio"] > 0


def test_open_loop_stream_completes_cleanly():
    stats = bench_open_loop(n=40, rate_hz=200.0)
    assert stats["n_requests"] == 40
    assert stats["sojourn_p99_ms"] >= stats["sojourn_p50_ms"] >= 0


# ----------------------------------------------------------------------
# standalone report
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = make_parser(__doc__.splitlines()[0])
    parser.add_argument(
        "--open-loop",
        action="store_true",
        help="also drive a fixed-rate Poisson arrival stream (open loop: "
        "arrivals never wait for responses, so queueing delay is visible)",
    )
    args = parser.parse_args(argv)

    n_steady, n_warm, rounds = (16, 120, 2) if args.ci else (80, 600, 3)
    doc: dict = {"ci": args.ci}

    ov = bench_overload(n_steady=n_steady)
    report(f"{OVERLOAD_FACTOR}x overload (steady vs abusive tenant)", ov)
    doc["overload"] = ov

    warm = bench_warm_overhead(n=n_warm, rounds=rounds)
    report("warm-path throughput (tenancy off vs on)", warm)
    doc["warm_overhead"] = warm

    if args.open_loop:
        n_open, rate = (60, 200.0) if args.ci else (400, 400.0)
        ol = bench_open_loop(n=n_open, rate_hz=rate)
        report(f"open-loop Poisson arrivals @ {rate:.0f}/s", ol)
        doc["open_loop"] = ol

    write_json(doc, args.out)

    p99_ok = ov["p99_ratio"] <= 3.0
    warm_ok = warm["throughput_ratio"] >= 0.95
    print(
        f"\nwell-behaved p99 under overload {ov['p99_ratio']:.2f}x "
        f"uncontended {gate('<=3x', p99_ok, args.ci)}"
    )
    print(
        f"enforced warm throughput {warm['throughput_ratio']:.3f}x open "
        f"{gate('>=0.95x', warm_ok, args.ci)}"
    )
    if args.ci:
        # The CI gate is "the benchmark runs and the structural
        # invariants hold"; shared-runner timing is reported only.
        return 0
    return 0 if (p99_ok and warm_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
