"""Tests for the service-layer request fingerprints (repro.service.keys)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import Graph, GridGraph, cycle_graph
from repro.graphs.cartesian import CartesianProduct, cylinder_graph, torus_graph
from repro.perm import Permutation
from repro.service import (
    graph_fingerprint,
    graph_from_spec,
    graph_spec,
    permutation_fingerprint,
    request_key,
    text_fingerprint,
)
from repro.service.keys import canonical_options

#: Digest of (GridGraph(2, 2), Permutation([1, 0, 3, 2]), "local", {})
#: computed by an independent process. Pinning it proves keys are stable
#: across process restarts (no id()/PYTHONHASHSEED dependence) and that
#: the encoding never drifts silently — bump _KEY_VERSION if it must.
GOLDEN_DIGEST = "69b6b53ac5cc0f66b18f025e32634541e51cf2d5fc7f2ac8e4925ea81845f159"


class TestRequestKey:
    def test_deterministic_within_process(self):
        g = GridGraph(3, 3)
        p = Permutation.random(9, seed=4)
        k1 = request_key(g, p, "local")
        k2 = request_key(GridGraph(3, 3), Permutation(p.targets), "local")
        assert k1 == k2
        assert k1.digest == k2.digest

    def test_golden_digest(self):
        key = request_key(GridGraph(2, 2), Permutation([1, 0, 3, 2]), "local")
        assert key.digest == GOLDEN_DIGEST
        assert key.short == GOLDEN_DIGEST[:12]

    def test_stable_across_process_restart(self):
        """A fresh interpreter with a different hash seed agrees."""
        code = (
            "from repro.graphs import GridGraph\n"
            "from repro.perm import Permutation\n"
            "from repro.service import request_key\n"
            "print(request_key(GridGraph(2,2), Permutation([1,0,3,2]), 'local').digest)\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="271828")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert out.stdout.strip() == GOLDEN_DIGEST

    def test_router_and_options_change_digest(self):
        g = GridGraph(3, 3)
        p = Permutation.random(9, seed=0)
        base = request_key(g, p, "local")
        assert request_key(g, p, "naive").digest != base.digest
        assert request_key(g, p, "local", {"trials": 2}).digest != base.digest

    def test_option_order_does_not_change_digest(self):
        g = GridGraph(3, 3)
        p = Permutation.random(9, seed=0)
        k1 = request_key(g, p, "ats", {"trials": 2, "seed": 7})
        k2 = request_key(g, p, "ats", {"seed": 7, "trials": 2})
        assert k1.digest == k2.digest

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.permutations(list(range(9))),
        b=st.permutations(list(range(9))),
    )
    def test_injective_on_permutations(self, a, b):
        """Distinct permutations never collide (the property the cache needs)."""
        g = GridGraph(3, 3)
        ka = request_key(g, Permutation(a), "local")
        kb = request_key(g, Permutation(b), "local")
        assert (ka.digest == kb.digest) == (list(a) == list(b))

    def test_grid_and_structural_twin_share_fingerprint(self):
        """Fingerprints are structural, matching Graph.__eq__ semantics."""
        grid = GridGraph(2, 3)
        twin = Graph(grid.n_vertices, grid.edges, name="something else")
        assert grid == twin
        assert graph_fingerprint(grid) == graph_fingerprint(twin)

    def test_different_graphs_differ(self):
        assert graph_fingerprint(GridGraph(2, 3)) != graph_fingerprint(GridGraph(3, 2))
        assert graph_fingerprint(GridGraph(3, 3)) != graph_fingerprint(cycle_graph(9))


class TestFingerprintHelpers:
    def test_permutation_fingerprint_differs(self):
        assert permutation_fingerprint(Permutation([0, 1, 2])) != \
            permutation_fingerprint(Permutation([1, 0, 2]))

    def test_text_fingerprint(self):
        assert text_fingerprint("abc") == text_fingerprint("abc")
        assert text_fingerprint("abc") != text_fingerprint("abd")

    def test_canonical_options(self):
        assert canonical_options(None) == "{}"
        assert canonical_options({}) == "{}"
        assert canonical_options({"b": 1, "a": 2}) == canonical_options({"a": 2, "b": 1})
        with pytest.raises(TypeError):
            canonical_options({"x": object()})


class TestGraphSpec:
    def test_grid_roundtrip(self):
        g = GridGraph(3, 5)
        spec = graph_spec(g)
        assert spec["kind"] == "grid"
        rebuilt = graph_from_spec(spec)
        assert isinstance(rebuilt, GridGraph)
        assert rebuilt == g and rebuilt.shape == g.shape

    def test_generic_roundtrip(self):
        g = cycle_graph(7)
        spec = graph_spec(g)
        assert spec["kind"] == "generic"
        rebuilt = graph_from_spec(spec)
        assert rebuilt == g

    def test_product_roundtrip_keeps_factors(self):
        for g in (torus_graph(3, 4), cylinder_graph(2, 5)):
            spec = graph_spec(g)
            assert spec["kind"] == "product"
            rebuilt = graph_from_spec(spec)
            assert isinstance(rebuilt, CartesianProduct)
            assert rebuilt == g
            assert rebuilt.g1 == g.g1 and rebuilt.g2 == g.g2
            assert graph_fingerprint(rebuilt) == graph_fingerprint(g)

    def test_spec_is_jsonable(self):
        import json

        for g in (GridGraph(2, 4), cycle_graph(5), torus_graph(3, 3)):
            rebuilt = graph_from_spec(json.loads(json.dumps(graph_spec(g))))
            assert rebuilt == g

    def test_malformed_specs_raise(self):
        with pytest.raises(GraphError):
            graph_from_spec({"kind": "nope"})
        with pytest.raises(GraphError):
            graph_from_spec({"kind": "grid", "rows": "x", "cols": 2})
        with pytest.raises(GraphError):
            graph_from_spec({"kind": "generic", "edges": [[0, 1]]})
        with pytest.raises(GraphError):
            graph_from_spec({"kind": "product", "g1": {"kind": "nope"}})
