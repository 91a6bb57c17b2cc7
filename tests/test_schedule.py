"""Unit tests for repro.routing.schedule."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.graphs import GridGraph, path_graph
from repro.perm import Permutation
from repro.routing import Schedule


class TestConstruction:
    def test_empty(self):
        s = Schedule.empty(4)
        assert s.depth == 0 and s.size == 0
        assert s.simulate().is_identity()

    def test_canonicalizes_swaps(self):
        s = Schedule(4, [[(3, 2)]])
        assert s.layers == (((2, 3),),)

    def test_rejects_self_swap(self):
        with pytest.raises(ScheduleError):
            Schedule(4, [[(1, 1)]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ScheduleError):
            Schedule(3, [[(0, 3)]])

    def test_rejects_vertex_reuse_in_layer(self):
        with pytest.raises(ScheduleError):
            Schedule(4, [[(0, 1), (1, 2)]])

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ScheduleError):
            Schedule(0, [])

    @pytest.mark.parametrize("n", [0.5, 2.9, 3.0, True, "3", None])
    def test_rejects_non_integral_size(self, n):
        with pytest.raises(ScheduleError, match="must be an integer"):
            Schedule(n)

    @pytest.mark.parametrize(
        "swap", [(0, 1.7), (0.0, 1.0), (True, False), ("0", "1")]
    )
    def test_rejects_non_integral_ids(self, swap):
        with pytest.raises(ScheduleError, match="integers"):
            Schedule(3, [[swap]])

    def test_accepts_numpy_integers(self):
        s = Schedule(np.int32(3), [[(np.int64(2), np.uint8(0))]])
        assert s.n_vertices == 3 and s.layers == (((0, 2),),)

    def test_from_serial_swaps(self):
        s = Schedule.from_serial_swaps(3, [(0, 1), (1, 2)])
        assert s.n_layers == 2 and s.size == 2


class TestSemantics:
    def test_single_swap(self):
        s = Schedule(3, [[(0, 1)]])
        assert s.simulate() == Permutation([1, 0, 2])

    def test_three_cycle_via_two_swaps(self):
        # swaps (1,2) then (0,1): token0 -> 1, token1 -> 2, token2 -> 0
        s = Schedule.from_serial_swaps(3, [(1, 2), (0, 1)])
        assert s.simulate() == Permutation.from_cycles(3, [(0, 1, 2)])

    def test_apply_to_occupancy(self):
        s = Schedule(3, [[(0, 2)]])
        occ = np.arange(3)
        s.apply_to_occupancy(occ)
        assert occ.tolist() == [2, 1, 0]
        with pytest.raises(ScheduleError):
            s.apply_to_occupancy(np.arange(4))

    def test_verify_pass_and_fail(self):
        g = path_graph(3)
        s = Schedule(3, [[(0, 1)]])
        s.verify(g, Permutation([1, 0, 2]))
        with pytest.raises(ScheduleError):
            s.verify(g, Permutation([0, 1, 2]))

    def test_verify_rejects_non_edges(self):
        g = path_graph(3)
        s = Schedule(3, [[(0, 2)]])
        with pytest.raises(ScheduleError):
            s.verify(g, s.simulate())

    def test_verify_size_mismatch(self):
        with pytest.raises(ScheduleError):
            Schedule(3, []).check_against(path_graph(4))

    def test_verify_permutation_size_mismatch(self):
        s = Schedule(3, [[(0, 1)]])
        with pytest.raises(ScheduleError, match="permutation on 4"):
            s.verify(path_graph(3), Permutation([1, 0, 2, 3]))
        # A claimed vertex count is compared before anything is allocated.
        with pytest.raises(ScheduleError, match="1000000000000 vertices vs"):
            Schedule(10**12).verify(path_graph(3), Permutation([0, 1, 2]))

    def test_verify_names_first_bad_swap(self):
        g = GridGraph(3, 3)
        s = Schedule(9, [[(0, 1)], [(3, 4), (1, 2)], [(2, 3), (5, 8)], [(0, 4)]])
        with pytest.raises(ScheduleError, match=r"layer 2: swap \(2, 3\) is not"):
            s.verify(g, s.simulate())

    @pytest.mark.parametrize("graph", [GridGraph(3, 4), path_graph(12)])
    def test_vectorized_edge_test_matches_has_edge(self, graph):
        rng = np.random.default_rng(5)
        for _ in range(30):
            verts = rng.permutation(12)[: 2 * int(rng.integers(1, 7))]
            layer = list(zip(verts[0::2].tolist(), verts[1::2].tolist()))
            s = Schedule(12, [layer])
            expected = all(graph.has_edge(u, v) for u, v in layer)
            try:
                s.check_against(graph)
                ok = True
            except ScheduleError:
                ok = False
            assert ok == expected


class TestTransformations:
    def test_keys_wider_than_int64(self):
        # n_layers * n * n overflows int64: keys fall back to a dense
        # renumbering of the touched ids, and nothing is sized by n.
        n = 10**12
        s = Schedule(n, [[(n - 1, 5), (0, 1)], [(1, 3)], [(0, 2)]])
        assert s.layers == (((0, 1), (5, n - 1)), ((1, 3),), ((0, 2),))
        assert s.compact().layers == (((0, 1), (5, n - 1)), ((0, 2), (1, 3)))
        with pytest.raises(ScheduleError, match="vertex reuse"):
            Schedule(n, [[(n - 1, 5), (5, 1)]])

    def test_sparse_serial_schedule_builds_quickly(self):
        # One swap per layer on 2**21 vertices: the (layer, vertex) flags
        # outnumber the swaps 2**21 to 1, so the reuse check sorts the
        # endpoints instead of walking 10**11 flags.
        n, k = 1 << 21, 50_000
        swaps = [(2 * i, 2 * i + 1) for i in range(k)]
        t0 = time.perf_counter()
        s = Schedule.from_serial_swaps(n, swaps)
        assert time.perf_counter() - t0 < 2.0
        assert s.depth == k and s.layers[-1] == ((2 * k - 2, 2 * k - 1),)

    def test_trimmed(self):
        s = Schedule(3, [[], [(0, 1)], []])
        assert s.n_layers == 3 and s.trimmed().n_layers == 1
        assert s.depth == 1

    def test_compact_preserves_semantics(self):
        rng = np.random.default_rng(0)
        g = GridGraph(3, 3)
        for _ in range(10):
            # random serial swaps along edges
            edges = list(g.edges)
            swaps = [edges[i] for i in rng.integers(0, len(edges), size=15)]
            s = Schedule.from_serial_swaps(9, swaps)
            c = s.compact()
            assert c.simulate() == s.simulate()
            c.check_against(g)

    def test_compact_never_deepens(self):
        s = Schedule.from_serial_swaps(6, [(0, 1), (2, 3), (4, 5), (1, 2)])
        c = s.compact()
        assert c.depth <= s.depth
        # the three disjoint swaps share a layer
        assert c.depth == 2

    def test_compact_respects_dependencies(self):
        s = Schedule.from_serial_swaps(3, [(0, 1), (1, 2)])
        c = s.compact()
        assert c.depth == 2  # cannot merge: share vertex 1

    def test_inverse(self):
        s = Schedule.from_serial_swaps(4, [(0, 1), (1, 2), (2, 3)])
        p = s.simulate()
        assert s.inverse().simulate() == p.inverse()

    def test_concat(self):
        a = Schedule(3, [[(0, 1)]])
        b = Schedule(3, [[(1, 2)]])
        ab = a + b
        assert ab.simulate() == b.simulate().compose(a.simulate())
        with pytest.raises(ScheduleError):
            a.concat(Schedule(4, []))

    def test_relabel(self):
        s = Schedule(3, [[(0, 1)]])
        r = s.relabel([2, 1, 0])
        assert r.layers == (((1, 2),),)
        with pytest.raises(ScheduleError):
            s.relabel([0, 0, 1])
        with pytest.raises(ScheduleError):
            s.relabel([0, 1])
        # Mappings that are injective but leave range(n) are refused, even
        # where no swap touches the offending entry.
        with pytest.raises(ScheduleError, match="permutation"):
            Schedule(3, [[(0, 2)]]).relabel([0, 7, 2])
        with pytest.raises(ScheduleError, match="permutation"):
            Schedule(3, []).relabel([5, 6, 7])

    def test_serial_swaps_roundtrip(self):
        s = Schedule(4, [[(0, 1), (2, 3)], [(1, 2)]])
        swaps = s.serial_swaps()
        s2 = Schedule.from_serial_swaps(4, swaps)
        assert s2.simulate() == s.simulate()


class TestDunder:
    def test_equality_and_hash(self):
        a = Schedule(3, [[(0, 1)]])
        b = Schedule(3, [[(1, 0)]])
        assert a == b and hash(a) == hash(b)
        assert a != Schedule(3, [[(1, 2)]])

    def test_iteration(self):
        s = Schedule(3, [[(0, 1)], [(1, 2)]])
        assert len(s) == 2
        assert s[0] == ((0, 1),)
        assert [layer for layer in s] == [((0, 1),), ((1, 2),)]
