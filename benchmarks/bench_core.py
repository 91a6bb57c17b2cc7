"""Core benchmark: the numpy kernels vs the python oracle, and a hit vs a route.

The kernels' acceptance criterion: on cold (uncached) routes over grids
of at least 20x20, the numpy kernels must beat the pure-python oracle
(``tests/kernel_oracle.py``) by >= 5x at the largest benchmarked size —
while producing **byte-identical schedules** (same layers, same order).
Equality is asserted on every measured pair, never sampled: a
fast-but-different kernel is a bug, not a win.

The cache's acceptance criterion: what a disk or peer hit does with a
schedule before serving it — ``decode_schedule`` of its frame plus
``Schedule.verify`` against the request — must cost at most a tenth of
a cold ``local`` route of the same instance at 128x128 (ratio route ÷
(decode + verify) >= 10), so a hit is always cheaper than a recompute.

Timing notes:

* Every measurement is a cold route — fresh router per call, no service
  cache in the path.
* Both arms return a ``Schedule``, which holds only its arrays: no
  work is deferred past the clock, so nothing is forced inside it
  (the tuple view, ``schedule.layers``, is built outside the clock for
  the equality check).
* Garbage collection is off inside the clock, as in ``timeit``: a
  collection of the oracle arm's tuples otherwise lands in whichever
  arm allocation history picks, which swung the 20x20 ratio between 9x
  and 14x with unchanged kernels.

Run standalone (``python benchmarks/bench_core.py``) for the report and
the gates, or under pytest for the assertions. ``--ci`` shrinks the
grids (the hit row runs at 64x64), prints the ratios without a PASS/FAIL
verdict and fails only on crash (shared-runner timing is reported, not
asserted; ``tools/check_bench.py`` compares the ratios with the committed
baseline); ``--out PATH`` writes the numbers as JSON for artifact upload.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import time

_HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, os.path.join(_HERE, "..", "tests"))
sys.path.insert(0, _HERE)

from _common import make_parser, report, write_json
from kernel_oracle import oracle_kernels

from repro import GridGraph, make_router, random_permutation
from repro.routing.codec import decode_schedule, encode_schedule

SPEEDUP_GATE = 5.0
HIT_GATE = 10.0


@contextlib.contextmanager
def _gc_paused():
    """Garbage collection off for the block, back on after if it was on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def bench_cold_route(
    router: str, size: int, seeds: int = 3, repeats: int = 1
) -> dict:
    """Cold-route on the oracle and on the numpy kernels; assert equality.

    Returns per-arm total seconds and the oracle/numpy speedup. The best
    of ``repeats`` passes is kept per arm to damp scheduler noise on
    shared runners.
    """
    grid = GridGraph(size, size)
    perms = [random_permutation(grid, seed=s) for s in range(seeds)]

    def run(on_oracle: bool) -> tuple[float, list]:
        best = float("inf")
        schedules: list = []
        for _ in range(repeats):
            r = make_router(router)
            kernels = oracle_kernels() if on_oracle else contextlib.nullcontext()
            with kernels, _gc_paused():
                t0 = time.perf_counter()
                out = [r.route(grid, perm) for perm in perms]
                dt = time.perf_counter() - t0
            if dt < best:
                best, schedules = dt, out
        return best, schedules

    py_seconds, py_schedules = run(on_oracle=True)
    np_seconds, np_schedules = run(on_oracle=False)

    for a, b in zip(py_schedules, np_schedules):
        assert a == b and a.layers == b.layers, (
            f"kernel divergence: {router} {size}x{size}"
        )

    return {
        "router": router,
        "size": size,
        "seeds": seeds,
        "depth": py_schedules[0].depth,
        "python_seconds": py_seconds,
        "numpy_seconds": np_seconds,
        "speedup": py_seconds / np_seconds if np_seconds > 0 else float("inf"),
    }


def bench_hit_vs_route(size: int, seed: int = 1, repeats: int = 3) -> dict:
    """A cold route against a hit's decode + verify of the same schedule.

    Best of ``repeats`` per arm, with garbage collection paused. The
    route arm builds a fresh router per call; the hit arm decodes the
    route's frame and verifies the result against the request.
    """
    grid = GridGraph(size, size)
    perm = random_permutation(grid, seed=seed)
    make_router("local").route(GridGraph(2, 2), random_permutation(GridGraph(2, 2)))

    def best(fn) -> tuple[float, object]:
        times, out = [], None
        for _ in range(repeats):
            with _gc_paused():
                t0 = time.perf_counter()
                out = fn()
                times.append(time.perf_counter() - t0)
        return min(times), out

    route_s, schedule = best(lambda: make_router("local").route(grid, perm))
    frame = encode_schedule(schedule)
    decode_s, decoded = best(lambda: decode_schedule(frame))
    verify_s, _ = best(lambda: decoded.verify(grid, perm))
    return {
        "size": size,
        "frame_bytes": len(frame),
        "route_seconds": route_s,
        "decode_seconds": decode_s,
        "verify_seconds": verify_s,
        "ratio": route_s / (decode_s + verify_s),
    }


# ----------------------------------------------------------------------
# pytest entry points (acceptance assertions)
# ----------------------------------------------------------------------
def test_kernels_agree_with_oracle_cold():
    """Identical schedules on a >= 20x20 grid (the correctness half)."""
    for router in ("local", "naive"):
        bench_cold_route(router, size=20, seeds=2)


def test_numpy_speedup_gate():
    """>= 5x cold-route speedup at the largest benchmarked size.

    One re-measure is allowed before failing: the margin is ~6x on an
    idle machine, so a single sub-gate reading means scheduler noise,
    and two in a row mean a real regression.
    """
    stats = bench_cold_route("local", size=96, seeds=1, repeats=3)
    if stats["speedup"] < SPEEDUP_GATE:
        stats = bench_cold_route("local", size=96, seeds=1, repeats=3)
    assert stats["speedup"] >= SPEEDUP_GATE, stats


def test_hit_vs_route_gate():
    """decode + verify <= 10% of a cold route at 128x128."""
    stats = bench_hit_vs_route(128)
    assert stats["ratio"] >= HIT_GATE, stats


# ----------------------------------------------------------------------
# standalone report
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = make_parser("kernel benchmark (numpy kernels vs python oracle)")
    args = parser.parse_args(argv)

    if args.ci:
        cases = [("local", 20, 2, 1), ("local", 32, 2, 1), ("naive", 32, 2, 1)]
    else:
        cases = [
            ("local", 32, 3, 2),
            ("local", 64, 3, 2),
            ("local", 96, 2, 2),
            ("naive", 64, 3, 2),
        ]

    runs = []
    for router, size, seeds, repeats in cases:
        stats = bench_cold_route(router, size, seeds=seeds, repeats=repeats)
        report(f"{router} {size}x{size} cold route", stats)
        runs.append(stats)

    hit = bench_hit_vs_route(64 if args.ci else 128)
    report(f"hit (decode + verify) vs cold route, {hit['size']}x{hit['size']}", hit)

    write_json(
        {
            "ci": args.ci,
            "gate": SPEEDUP_GATE,
            "runs": runs,
            "hit_gate": HIT_GATE,
            "hit_vs_route": [hit],
        },
        args.out,
    )

    # The gate measures the largest "local" grid in the sweep: that is
    # the paper's featured router and the regime the >= 5x claim covers.
    gated = max(
        (r for r in runs if r["router"] == "local"), key=lambda r: r["size"]
    )
    if args.ci:
        # CI gates on the benchmark running (and schedules agreeing).
        # SPEEDUP_GATE and HIT_GATE are sized for the standalone grids,
        # so the shrunk run prints its ratios without a verdict, for
        # tools/check_bench.py to compare with the committed baseline.
        print(
            f"\nlocal {gated['size']}x{gated['size']} speedup "
            f"{gated['speedup']:.2f}x; {hit['size']}x{hit['size']} route / "
            f"(decode + verify) {hit['ratio']:.1f}x "
            "(gated by tools/check_bench.py against the baseline)"
        )
        return 0
    ok = gated["speedup"] >= SPEEDUP_GATE
    print(
        f"\nlocal {gated['size']}x{gated['size']} speedup "
        f"{gated['speedup']:.2f}x (>={SPEEDUP_GATE:.0f}x required): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    hit_ok = hit["ratio"] >= HIT_GATE
    print(
        f"{hit['size']}x{hit['size']} route / (decode + verify) "
        f"{hit['ratio']:.1f}x (>={HIT_GATE:.0f}x required): "
        f"{'PASS' if hit_ok else 'FAIL'}"
    )
    return 0 if ok and hit_ok else 1

if __name__ == "__main__":
    raise SystemExit(main())
