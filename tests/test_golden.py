"""The golden corpus: every router's output is pinned byte for byte.

``tests/golden/corpus.tsv`` was produced by ``tools/golden.py --update``.
Each row pins one instance's depth, size and the sha256 of its
canonical ``(n, counts, lo, hi)`` arrays. A change to any router's
output — a tie-break, a kernel, a matching choice — fails here until
the corpus is deliberately rewritten.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.perm import WORKLOADS
from repro.routing.base import describe_routers

_TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "golden.py")
_spec = importlib.util.spec_from_file_location("golden_tool", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

ROWS = golden.load()


def test_corpus_lists_the_plan_in_order():
    assert [golden.row_instance(r) for r in ROWS] == list(golden.instances())


def test_corpus_covers_every_router_and_workload():
    routers = {r["router"] for r in ROWS}
    assert routers == {info.name for info in describe_routers()}
    for router in routers:
        assert {r["workload"] for r in ROWS if r["router"] == router} == set(WORKLOADS)
    assert len(ROWS) >= 150


@pytest.mark.parametrize("router", sorted({r["router"] for r in ROWS}))
def test_router_output_matches_corpus(router):
    assert golden.drift([r for r in ROWS if r["router"] == router]) == []


def test_digest_ignores_representation():
    from repro import GridGraph, Schedule, make_router, random_permutation

    g = GridGraph(5, 5)
    s = make_router("local").route(g, random_permutation(g, seed=0))
    as_tuples = Schedule(s.n_vertices, s.layers)
    assert golden.schedule_digest(as_tuples) == golden.schedule_digest(s)
