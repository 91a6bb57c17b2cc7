"""Unit tests for the grid routers (naive ACG and locality-aware)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.graphs import CartesianProduct, GridGraph, cycle_graph, path_graph
from repro.perm import (
    Permutation,
    block_local_permutation,
    depth_lower_bound,
    mirror_permutation,
    random_permutation,
)
from repro.routing import (
    LocalGridRouter,
    NaiveGridRouter,
    Schedule,
    make_router,
    delta_weights,
    grid_route_with_sigmas,
    route_both_orientations,
    sigmas_from_decomposition,
)

SHAPES = [(2, 2), (3, 3), (3, 5), (5, 3), (4, 4), (1, 6), (6, 1), (7, 4)]


class TestGridRouteSubroutine:
    def test_identity_sigma_identity_perm(self):
        g = GridGraph(3, 3)
        sig = np.tile(np.arange(3)[:, None], (1, 3))
        s = grid_route_with_sigmas(g.shape, Permutation.identity(9), sig)
        assert s.depth == 0

    def test_rejects_bad_sigma_shape(self):
        g = GridGraph(2, 3)
        with pytest.raises(RoutingError):
            grid_route_with_sigmas(
                g.shape, Permutation.identity(6), np.zeros((3, 2), int)
            )

    def test_rejects_non_permutation_sigma_columns(self):
        g = GridGraph(2, 2)
        with pytest.raises(RoutingError):
            grid_route_with_sigmas(
                g.shape, Permutation.identity(4), np.zeros((2, 2), int)
            )

    def test_rejects_invalid_decomposition_sigma(self):
        # sigma columns are permutations, but do not come from a valid
        # matching decomposition: phase-2 precondition must fire.
        g = GridGraph(2, 2)
        # row-internal swaps: identity sigma is a valid decomposition here
        perm = Permutation([1, 0, 3, 2])
        ok = np.array([[0, 0], [1, 1]])
        grid_route_with_sigmas(g.shape, perm, ok).verify(g, perm)
        # perm2: tokens t0 (0,0)->(0,0) and t1 (0,1)->(1,0) share the
        # destination column 0; an identity sigma parks both in row 0,
        # violating the phase-2 precondition.
        perm2 = Permutation([0, 2, 1, 3])
        bad = np.array([[0, 0], [1, 1]])
        with pytest.raises(RoutingError):
            grid_route_with_sigmas(g.shape, perm2, bad)


class TestSigmasFromDecomposition:
    def test_rejects_wrong_assignment(self):
        from repro.matching import ColumnMultigraph, naive_decomposition

        g = GridGraph(3, 3)
        dec = naive_decomposition(
            ColumnMultigraph(g.shape, random_permutation(g, seed=0))
        )
        with pytest.raises(RoutingError):
            sigmas_from_decomposition(dec, np.array([0, 0, 1]), g.shape)

    def test_valid(self):
        from repro.matching import ColumnMultigraph, naive_decomposition

        g = GridGraph(3, 4)
        dec = naive_decomposition(
            ColumnMultigraph(g.shape, random_permutation(g, seed=1))
        )
        sig = sigmas_from_decomposition(dec, np.arange(3), g.shape)
        assert (np.sort(sig, axis=0) == np.arange(3)[:, None]).all()


@pytest.mark.parametrize("router_cls", [NaiveGridRouter, LocalGridRouter])
class TestRouterCorrectness:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_random_permutations(self, router_cls, shape):
        g = GridGraph(*shape)
        router = router_cls()
        for seed in range(3):
            perm = random_permutation(g, seed=seed)
            sched = router.route(g, perm)
            sched.verify(g, perm)

    def test_identity(self, router_cls):
        g = GridGraph(4, 4)
        sched = router_cls().route(g, Permutation.identity(16))
        assert sched.depth == 0

    def test_depth_lower_bound_respected(self, router_cls):
        g = GridGraph(5, 5)
        perm = mirror_permutation(g)
        sched = router_cls().route(g, perm)
        assert sched.depth >= depth_lower_bound(g, perm)

    def test_depth_upper_bound_3n(self, router_cls):
        """3 phases of <= max(m, n) rounds each (plus compaction slack)."""
        for shape in [(4, 4), (3, 6)]:
            g = GridGraph(*shape)
            for seed in range(3):
                perm = random_permutation(g, seed=seed)
                sched = router_cls().route(g, perm)
                assert sched.depth <= 2 * max(shape) + min(shape)

    def test_rejects_non_grid(self, router_cls):
        with pytest.raises(RoutingError):
            router_cls().route(path_graph(4), Permutation.identity(4))

    def test_rejects_size_mismatch(self, router_cls):
        with pytest.raises(RoutingError):
            router_cls().route(GridGraph(2, 2), Permutation.identity(5))

    def test_validate_flag(self, router_cls):
        g = GridGraph(3, 3)
        router = router_cls(validate=True)
        sched = router.route(g, random_permutation(g, seed=5))
        assert sched.size > 0


class TestTransposeStrategy:
    def test_route_both_orientations_returns_min(self):
        g = GridGraph(3, 5)
        perm = random_permutation(g, seed=1)
        router = NaiveGridRouter()
        sched, orient = route_both_orientations(
            lambda t, p: router._route_oriented((5, 3) if t else (3, 5), p),
            g.shape,
            perm,
        )
        sched.verify(g, perm)
        assert orient in ("primary", "transposed")
        # must not be worse than the primary orientation alone
        assert sched.depth <= router._route_oriented(g.shape, perm).depth

    def test_tie_keeps_primary_schedule(self):
        # Transposing the grid maps the rotation by 180 degrees to itself,
        # so both orientations route the same instance to equal depths:
        # the driver must return the primary schedule, not a relabelled
        # transposed one.
        g = GridGraph(5, 5)
        perm = Permutation(np.arange(25)[::-1].copy())
        to_t = np.arange(25).reshape(5, 5).T.ravel()
        assert perm.relabel(to_t) == perm
        router = LocalGridRouter()
        primary, *_ = router._route_oriented(g.shape, perm)
        calls = []

        def oriented(transposed, p):
            calls.append(transposed)
            return router._route_oriented(g.shape, p)[0]

        sched, orient = route_both_orientations(oriented, g.shape, perm)
        assert calls == [False, True]
        assert orient == "primary"
        assert sched == primary and sched.depth > 0
        assert sched.relabel(to_t) != primary
        _, info = router.route_with_info(g, perm)
        assert info.orientation == "primary"
        assert info.depth_primary == info.depth_transposed == sched.depth

    @pytest.mark.parametrize(
        "router, graph",
        [
            (LocalGridRouter(), GridGraph(6, 4)),
            (NaiveGridRouter(transpose_strategy=True), GridGraph(6, 4)),
            (make_router("cartesian"), GridGraph(6, 4)),
            (make_router("cartesian"), CartesianProduct(path_graph(4), cycle_graph(5))),
        ],
        ids=["local", "naive-transposed", "cartesian-grid", "cartesian-product"],
    )
    def test_routes_build_no_graph(self, monkeypatch, router, graph):
        # Algorithm 1 transposes by a closed-form vertex map; no router
        # builds a transposed (or any other) grid or product graph.
        perm = random_permutation(graph, seed=4)
        built = []
        for cls in (GridGraph, CartesianProduct):
            init = cls.__init__

            def counting(self, *args, _init=init, _cls=cls, **kwargs):
                built.append(_cls.__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        sched = router.route(graph, perm)
        monkeypatch.undo()
        assert built == []
        sched.verify(graph, perm)

    def test_local_router_uses_transpose_when_better(self):
        # A permutation that only permutes within columns: the transposed
        # orientation handles it in one row phase.
        g = GridGraph(6, 6)
        from repro.perm import column_rotation_permutation

        perm = column_rotation_permutation(g, shift=3)
        with_t = LocalGridRouter(transpose_strategy=True).route(g, perm)
        without = LocalGridRouter(transpose_strategy=False).route(g, perm)
        assert with_t.depth <= without.depth
        with_t.verify(g, perm)


class TestLocalRouterSpecifics:
    def test_route_with_info(self):
        g = GridGraph(4, 4)
        perm = random_permutation(g, seed=3)
        sched, info = LocalGridRouter().route_with_info(g, perm)
        assert info.depth == sched.depth
        assert info.orientation in ("primary", "transposed")
        assert info.depth_primary >= 0
        assert info.depth_transposed >= 0
        assert len(info.window_widths) == 4
        assert info.bottleneck >= 0

    def test_fallback_naive_never_worse(self):
        g = GridGraph(6, 6)
        for seed in range(3):
            perm = random_permutation(g, seed=seed)
            plain = LocalGridRouter().route(g, perm)
            fb = LocalGridRouter(fallback_naive=True).route(g, perm)
            naive = NaiveGridRouter(transpose_strategy=True).route(g, perm)
            assert fb.depth <= plain.depth
            assert fb.depth <= naive.depth
            fb.verify(g, perm)

    def test_block_local_beats_naive(self):
        """The headline locality win (paper Fig. 3 motivation)."""
        g = GridGraph(8, 8)
        local_wins = 0
        for seed in range(5):
            perm = block_local_permutation(g, seed=seed)
            dl = LocalGridRouter().route(g, perm).depth
            dn = NaiveGridRouter().route(g, perm).depth
            assert dl <= dn + 2  # never meaningfully worse
            if dl < dn:
                local_wins += 1
        assert local_wins >= 3  # wins most seeds

    def test_paper_window_growth_also_correct(self):
        g = GridGraph(5, 5)
        router = LocalGridRouter(window_growth="paper")
        for seed in range(3):
            perm = random_permutation(g, seed=seed)
            router.route(g, perm).verify(g, perm)

    def test_unrefined_assignment_also_correct(self):
        g = GridGraph(5, 5)
        router = LocalGridRouter(refine_assignment=False)
        perm = random_permutation(g, seed=2)
        router.route(g, perm).verify(g, perm)

    def test_compact_off_gives_phase_structure(self):
        g = GridGraph(4, 4)
        perm = random_permutation(g, seed=1)
        raw = LocalGridRouter(compact=False).route(g, perm)
        compacted = LocalGridRouter(compact=True).route(g, perm)
        assert compacted.depth <= raw.depth
        raw.verify(g, perm)


class TestDeltaWeights:
    def test_shape_and_values(self):
        rows = [np.array([0, 0, 1, 1]), np.array([2, 2, 2, 2])]
        w = delta_weights(rows, 3)
        assert w.shape == (2, 3)
        assert w[0, 0] == 2  # |0-0|*2 + |1-0|*2
        assert w[1, 2] == 0
        assert w[1, 0] == 8
