"""Traced replay: the daemon's request path, one public call at a time.

The end-to-end run sees a request only from outside. This module
replays the same generated requests in-process, through the same public
functions the daemon calls for them, and times each call, so each
end-to-end number can be split into layers:

* ``handler.resolve`` — ``handler.request_from_doc`` (builds the grid and
  the permutation); ``graphs.grid_build`` — ``GridGraph(r, c)`` alone;
* ``keys.fingerprint`` — ``keys.request_key``;
* ``cache.get`` / ``cache.put`` — ``ScheduleCache`` with a disk tier,
  sized as the daemon's, so the tier hit is the one the workload meant;
* on a miss, what a pool worker and the parent do: ``GridGraph`` again
  (the worker rebuilds the graph from its spec), ``routing.route`` under
  a ``StageProfiler`` (the ``routing.stage.*`` self times and
  ``routing.unstaged``, the route time outside every stage), then
  ``codec.encode`` in the worker and ``codec.decode`` in the parent;
* ``codec.decode`` also times the decode a disk hit does inside
  ``cache.get``;
* ``service.result_doc`` — ``route_result_to_dict`` plus ``json.dumps``;
* ``schedule.verify`` — ``Schedule.verify``, not on the serve path; it
  is run on the first few replayed requests only.

Calls are marked *on the path* when they block the request and are not
inside another timed call. Their per-request sum is what the layers
explain of the end-to-end median; the rest is ``unattributed``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

__all__ = ["LAYERS", "STAGES", "replay"]

STAGES = ("decomposition", "matching", "bottleneck_assignment", "swap_scheduling")

LAYERS = (
    "handler.resolve",
    "graphs.grid_build",
    "keys.fingerprint",
    "cache.get",
    "cache.put",
    "codec.decode",
    "codec.encode",
    "routing.route",
    *(f"routing.stage.{s}" for s in STAGES),
    "routing.unstaged",
    "service.result_doc",
    "schedule.verify",
)

VERIFY_SAMPLES = 3


class _Timings:
    def __init__(self) -> None:
        self.seconds: dict[str, list[float]] = defaultdict(list)
        self.calls: dict[str, int] = defaultdict(int)
        self.path_calls: dict[str, int] = defaultdict(int)

    def add(
        self, name: str, seconds: float, calls: int = 1, on_path: bool = True
    ) -> None:
        self.seconds[name].append(seconds)
        self.calls[name] += calls
        if on_path:
            self.path_calls[name] += 1

    def time(self, name: str, fn, *args, on_path: bool = True):
        t0 = time.perf_counter()
        out = fn(*args)
        self.add(name, time.perf_counter() - t0, on_path=on_path)
        return out


def replay(
    root: Path,
    prefill_docs: list[dict],
    timed_docs: list[dict],
    *,
    cache_size: int,
    cache_dir: Path,
    budget_s: float,
) -> tuple[dict[str, dict], int, list[tuple[int, int]]]:
    """Replay ``timed_docs`` after serving ``prefill_docs`` untimed.

    Returns per-layer ``{"p50_ms", "samples", "calls", "path_calls"}``,
    the number of requests replayed, and each replayed request's
    ``(depth, size)``. A stage has one sample per route, its self time
    in that route, and counts every invocation as a call.
    Stops starting new requests after ``budget_s`` seconds, having
    replayed at least one.
    """
    sys.path.insert(0, str(root / "src"))
    from repro.graphs.grid import GridGraph
    from repro.perm.permutation import Permutation
    from repro.profiling import StageProfiler, profile
    from repro.routing.base import make_router
    from repro.routing.codec import decode_schedule, encode_schedule
    from repro.service.cache import ScheduleCache
    from repro.service.executor import RouteResult
    from repro.service.handler import request_from_doc
    from repro.service.keys import request_key
    from repro.service.service import route_result_to_dict

    router = make_router("local")
    cache = ScheduleCache(maxsize=cache_size, disk_dir=cache_dir)
    frames: dict[str, bytes] = {}
    # The first route pays the lazy scipy import, as a pool worker's
    # initializer does before its first request.
    router.route(GridGraph(2, 2), Permutation([1, 0, 2, 3]))

    def serve(doc: dict, t: _Timings):
        req = t.time("handler.resolve", request_from_doc, doc)
        # Already inside handler.resolve; timed alone to show its share.
        t.time("graphs.grid_build", GridGraph, doc["rows"], doc["cols"], on_path=False)
        key = t.time(
            "keys.fingerprint",
            request_key,
            req.graph,
            req.perm,
            req.router,
            req.options,
        )
        disk_hits = cache.stats.disk_hits
        schedule = t.time("cache.get", cache.get, key.digest)
        source = "cache"
        if schedule is None:
            source = "computed"
            graph = t.time("graphs.grid_build", GridGraph, doc["rows"], doc["cols"])
            prof = StageProfiler()
            t0 = time.perf_counter()
            with profile(prof):
                routed = router.route(graph, req.perm)
            route_s = time.perf_counter() - t0
            t.add("routing.route", route_s)
            for name in STAGES:
                t.add(
                    f"routing.stage.{name}",
                    prof.totals.get(name, 0.0),
                    calls=prof.counts.get(name, 0),
                    on_path=False,
                )
            unstaged = route_s - sum(prof.totals.values())
            t.add("routing.unstaged", unstaged, on_path=False)
            frame = t.time("codec.encode", encode_schedule, routed)
            schedule = t.time("codec.decode", decode_schedule, frame)
            t.time("cache.put", cache.put, key.digest, schedule)
            frames[key.digest] = frame
        elif cache.stats.disk_hits > disk_hits:
            # The decode cache.get just did; timed alone on the same frame.
            t.time("codec.decode", decode_schedule, frames[key.digest], on_path=False)
        result = RouteResult(
            index=0,
            key=key,
            router=req.router,
            schedule=schedule,
            seconds=0.0,
            source=source,
        )
        include = bool(doc.get("include_schedule"))
        t.time(
            "service.result_doc",
            lambda: json.dumps(route_result_to_dict(result, include_schedule=include)),
        )
        return req, schedule

    for doc in prefill_docs:
        serve(doc, _Timings())

    timings = _Timings()
    shapes: list[tuple[int, int]] = []
    deadline = time.perf_counter() + budget_s
    for i, doc in enumerate(timed_docs):
        if i and time.perf_counter() >= deadline:
            break
        req, schedule = serve(doc, timings)
        shapes.append((schedule.depth, schedule.size))
        if i < VERIFY_SAMPLES:
            timings.time(
                "schedule.verify", schedule.verify, req.graph, req.perm, on_path=False
            )

    layers = {
        name: {
            "p50_ms": median(timings.seconds[name] or [0.0]) * 1e3,
            "samples": len(timings.seconds[name]),
            "calls": timings.calls[name],
            "path_calls": timings.path_calls[name],
        }
        for name in LAYERS
    }
    return layers, len(shapes), shapes
