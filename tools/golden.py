#!/usr/bin/env python
"""Golden corpus: pin every router's output on ~200 fixed instances.

The schedule cache rests on one promise: routing is deterministic, so a
schedule computed anywhere can be served everywhere. This tool pins
that promise across changes. ``tests/golden/corpus.tsv`` holds one row
per instance (router, graph, workload, seed, options) with the
schedule's depth, size and the sha256 of its canonical arrays. The
tier-1 test ``tests/test_golden.py`` recomputes every row.

The hash covers the little-endian ``int64`` concatenation of
``[n_vertices]``, the per-layer swap counts, and the ``lo`` and ``hi``
endpoints of every swap in ``(layer, lo, hi)`` order. It is computed
from the public ``Schedule.layers`` view, never from a codec frame, so
a change of wire or disk format leaves the corpus unchanged.

Graph specs name the coupling graph and, for families without grid
coordinates, the grid frame the workload generator draws on:

* ``grid:RxC`` — the ``R x C`` grid;
* ``torus:RxC`` / ``cylinder:RxC`` — Cartesian products;
* ``complete:RxC``, ``cycle:RxC``, ``path:RxC``, ``binary_tree:RxC`` —
  that family on ``R*C`` vertices, workloads drawn on an ``R x C`` grid;
* ``random_tree:RxC:S`` — a random tree on ``R*C`` vertices with seed S.

Usage::

    python tools/golden.py            # recompute; exit 1 on any drift
    python tools/golden.py --update   # rewrite tests/golden/corpus.tsv
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Any, Iterator, NamedTuple

import numpy as np

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import GridGraph, make_router  # noqa: E402
from repro.graphs import (  # noqa: E402
    binary_tree,
    complete_graph,
    cycle_graph,
    path_graph,
    random_tree,
)
from repro.graphs.cartesian import cylinder_graph, torus_graph  # noqa: E402
from repro.perm import WORKLOADS, make_workload  # noqa: E402

CORPUS_PATH = os.path.join(REPO_ROOT, "tests", "golden", "corpus.tsv")

COLUMNS = ("router", "graph", "workload", "seed", "options", "depth", "size", "sha256")

_LE_I64 = np.dtype("<i8")


class Instance(NamedTuple):
    """One routing instance of the corpus."""

    router: str
    graph: str
    workload: str
    seed: int
    options: str  # canonical JSON object


def _opts(**kwargs: Any) -> str:
    return json.dumps(kwargs, sort_keys=True, separators=(",", ":"))


#: (router, graph specs, seeds, options) — every registered router on
#: at least one graph family it supports, every workload on each.
_GRIDS = ("grid:4x4", "grid:5x7", "grid:8x8", "grid:16x16", "grid:24x24")

PLAN: tuple[tuple[str, tuple[str, ...], tuple[int, ...], str], ...] = (
    ("local", (*_GRIDS[:3], "grid:12x12", *_GRIDS[3:]), (0, 1), _opts()),
    ("local", ("grid:8x8", "grid:9x6"), (2,), _opts(transpose_strategy=False)),
    ("local", ("grid:10x10",), (3,), _opts(window_growth="paper")),
    ("local", ("grid:10x10",), (4,), _opts(assignment="order")),
    ("naive", _GRIDS, (0, 1), _opts()),
    ("hybrid", ("grid:6x6", "grid:12x12", "grid:20x20"), (0,), _opts()),
    ("cartesian", ("grid:8x8", "grid:12x10"), (0,), _opts()),
    ("cartesian", ("torus:6x6", "cylinder:5x8"), (1,), _opts()),
    ("cartesian", ("grid:8x8",), (2,), _opts(locality=False)),
    ("ats", ("grid:4x4", "grid:5x7", "grid:6x6", "grid:8x8"), (0, 1), _opts()),
    ("ats", ("cycle:3x4",), (2,), _opts()),
    ("complete", ("complete:4x4", "complete:6x6"), (0,), _opts()),
    ("cycle", ("cycle:4x4", "cycle:5x6"), (0,), _opts()),
    ("tree", ("path:4x4", "binary_tree:4x5", "random_tree:5x5:3"), (0,), _opts()),
)


def instances() -> Iterator[Instance]:
    """Every corpus instance, in file order."""
    for router, graphs, seeds, options in PLAN:
        for graph in graphs:
            for workload in sorted(WORKLOADS):
                for seed in seeds:
                    yield Instance(router, graph, workload, seed, options)


def build(spec: str) -> tuple[Any, Any]:
    """``(coupling graph, workload frame)`` for a graph spec."""
    family, _, rest = spec.partition(":")
    dims, _, extra = rest.partition(":")
    r, c = (int(x) for x in dims.split("x"))
    if family == "grid":
        g = GridGraph(r, c)
        return g, g
    if family in ("torus", "cylinder"):
        g = (torus_graph if family == "torus" else cylinder_graph)(r, c)
        return g, g
    n = r * c
    makers = {
        "complete": complete_graph,
        "cycle": cycle_graph,
        "path": path_graph,
        "binary_tree": binary_tree,
    }
    if family == "random_tree":
        g = random_tree(n, seed=int(extra))
    else:
        g = makers[family](n)
    return g, GridGraph(r, c)


def schedule_digest(schedule: Any) -> str:
    """sha256 of the schedule's canonical int64 ``(n, counts, lo, hi)``."""
    layers = schedule.layers
    counts = np.asarray([len(layer) for layer in layers], dtype=_LE_I64)
    pairs = np.asarray(
        [swap for layer in layers for swap in layer], dtype=_LE_I64
    ).reshape(-1, 2)
    h = hashlib.sha256()
    h.update(np.asarray([schedule.n_vertices], dtype=_LE_I64).tobytes())
    h.update(counts.tobytes())
    h.update(np.ascontiguousarray(pairs[:, 0]).tobytes())
    h.update(np.ascontiguousarray(pairs[:, 1]).tobytes())
    return h.hexdigest()


def compute(inst: Instance) -> dict[str, str]:
    """Route one instance and return its corpus row."""
    graph, frame = build(inst.graph)
    perm = make_workload(inst.workload, frame, seed=inst.seed)
    schedule = make_router(inst.router, **json.loads(inst.options)).route(graph, perm)
    return {
        "router": inst.router,
        "graph": inst.graph,
        "workload": inst.workload,
        "seed": str(inst.seed),
        "options": inst.options,
        "depth": str(schedule.depth),
        "size": str(schedule.size),
        "sha256": schedule_digest(schedule),
    }


def load(path: str = CORPUS_PATH) -> list[dict[str, str]]:
    """The committed corpus rows."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != COLUMNS:
            raise ValueError(f"{path}: unexpected header {header}")
        return [dict(zip(COLUMNS, line.rstrip("\n").split("\t"))) for line in fh]


def row_instance(row: dict[str, str]) -> Instance:
    """The instance a corpus row was computed from."""
    return Instance(
        row["router"], row["graph"], row["workload"], int(row["seed"]), row["options"]
    )


def write(rows: list[dict[str, str]], path: str = CORPUS_PATH) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(COLUMNS) + "\n")
        for row in rows:
            fh.write("\t".join(row[c] for c in COLUMNS) + "\n")


def drift(rows: list[dict[str, str]]) -> list[str]:
    """One message per row whose recomputation differs from the corpus."""
    out = []
    for row in rows:
        got = compute(row_instance(row))
        if got != row:
            out.append(
                f"{row['router']} {row['graph']} {row['workload']} "
                f"seed={row['seed']} {row['options']}: depth {row['depth']}->"
                f"{got['depth']}, size {row['size']}->{got['size']}, "
                f"sha256 {row['sha256'][:12]}->{got['sha256'][:12]}"
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the corpus from the current code instead of checking it",
    )
    args = parser.parse_args(argv)
    if args.update:
        rows = [compute(inst) for inst in instances()]
        write(rows)
        print(f"wrote {len(rows)} rows to {os.path.relpath(CORPUS_PATH, REPO_ROOT)}")
        return 0
    rows = load()
    if [row_instance(row) for row in rows] != list(instances()):
        print("corpus instances differ from PLAN; run with --update", file=sys.stderr)
        return 1
    bad = drift(rows)
    for msg in bad:
        print(msg, file=sys.stderr)
    print(f"{len(rows) - len(bad)}/{len(rows)} rows match")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
