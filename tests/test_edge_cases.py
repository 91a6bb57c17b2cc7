"""Edge cases and failure-mode coverage across the library."""

from __future__ import annotations

import numpy as np
import pytest

from repro import errors
from repro.graphs import Graph, GridGraph, path_graph
from repro.perm import (
    Permutation,
    block_local_permutation,
    random_permutation,
    skinny_cycle_permutation,
)
from repro.routing import (
    LocalGridRouter,
    NaiveGridRouter,
    Schedule,
    make_router,
)
from repro.token_swap import TokenSwapRouter


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)

    def test_qasm_error_is_circuit_error(self):
        assert issubclass(errors.QasmError, errors.CircuitError)

    def test_single_catch_all(self):
        with pytest.raises(errors.ReproError):
            GridGraph(0, 0)
        with pytest.raises(errors.ReproError):
            Permutation([0, 0])


class TestDegenerateGrids:
    def test_1x1_grid(self):
        g = GridGraph(1, 1)
        p = Permutation.identity(1)
        for router in (LocalGridRouter(), NaiveGridRouter(), TokenSwapRouter()):
            sched = router.route(g, p)
            assert sched.depth == 0

    @pytest.mark.parametrize("shape", [(1, 8), (8, 1), (2, 2)])
    def test_thin_grids_all_routers(self, shape):
        g = GridGraph(*shape)
        for seed in range(3):
            perm = random_permutation(g, seed=seed)
            for router in (LocalGridRouter(), NaiveGridRouter(), TokenSwapRouter()):
                router.route(g, perm).verify(g, perm)

    def test_1xn_matches_path_oet_bound(self):
        g = GridGraph(1, 10)
        perm = random_permutation(g, seed=4)
        sched = LocalGridRouter().route(g, perm)
        assert sched.depth <= 10
        sched.verify(g, perm)

    def test_workload_generators_on_thin_grids(self):
        g = GridGraph(1, 9)
        assert block_local_permutation(g, seed=0).size == 9
        assert skinny_cycle_permutation(g, n_row_cycles=0, n_col_cycles=2,
                                        seed=0).size == 9


class TestScheduleEdges:
    def test_single_vertex_schedule(self):
        s = Schedule.empty(1)
        assert s.simulate().is_identity()
        assert s.compact().depth == 0

    def test_all_empty_layers(self):
        s = Schedule(4, [[], [], []])
        assert s.depth == 0 and s.n_layers == 3
        assert s.trimmed().n_layers == 0
        assert s.compact().n_layers == 0

    def test_compact_idempotent(self):
        g = GridGraph(3, 3)
        perm = random_permutation(g, seed=6)
        s = LocalGridRouter().route(g, perm)
        assert s.compact() == s.compact().compact()

    def test_double_inverse_identity(self):
        s = Schedule(4, [[(0, 1)], [(1, 2), (0, 3)]])
        assert s.inverse().inverse() == s


class TestRouterRegistryEdges:
    def test_duplicate_registration_rejected(self):
        from repro.routing.base import register_router

        with pytest.raises(errors.RoutingError):
            register_router("local")(LocalGridRouter)

    def test_router_kwargs_forwarded(self):
        r = make_router("local", transpose_strategy=False, compact=False)
        assert r.transpose_strategy is False and r.compact is False

    def test_bad_assignment_strategy(self):
        with pytest.raises(errors.RoutingError):
            LocalGridRouter(assignment="bogus")


def _transpose_maps(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex ``a*n + b`` of an ``m x n`` grid <-> ``b*m + a`` of ``n x m``.

    The closed-form maps
    :func:`repro.routing.grid_naive.route_both_orientations` uses.
    """
    ids = np.arange(m * n)
    return ids.reshape(n, m).T.ravel(), ids.reshape(m, n).T.ravel()


class TestPermutationRelabelGrid:
    def test_transpose_relabel_roundtrip(self):
        g = GridGraph(3, 5)
        perm = random_permutation(g, seed=2)
        mapping, back = _transpose_maps(3, 5)
        assert perm.relabel(mapping).relabel(back) == perm

    def test_displacement_invariant_under_transpose(self):
        from repro.perm import total_displacement

        g = GridGraph(4, 6)
        perm = random_permutation(g, seed=9)
        mapping, _ = _transpose_maps(4, 6)
        assert total_displacement(g, perm) == total_displacement(
            GridGraph(6, 4), perm.relabel(mapping)
        )


class TestDisconnectedAndIrregularGraphs:
    def test_ats_on_dense_irregular_graph(self):
        # grid plus chords: still correct, possibly shallower
        g0 = GridGraph(3, 3)
        extra = [(0, 8), (2, 6)]
        g = Graph(9, list(g0.edges) + extra, name="grid+chords")
        perm = Permutation.random(9, seed=3)
        sched = TokenSwapRouter().route(g, perm)
        sched.verify(g, perm)

    def test_grid_router_requires_actual_grid_instance(self):
        # structurally a grid, but a plain Graph: routers demand GridGraph
        g0 = GridGraph(2, 3)
        plain = Graph(6, g0.edges)
        with pytest.raises(errors.RoutingError):
            LocalGridRouter().route(plain, Permutation.identity(6))


class TestNumericalStability:
    def test_large_thin_grid_routing(self):
        g = GridGraph(2, 24)
        perm = random_permutation(g, seed=11)
        for router in (LocalGridRouter(), NaiveGridRouter()):
            router.route(g, perm).verify(g, perm)

    def test_many_seeds_no_flakes(self):
        g = GridGraph(5, 5)
        router = LocalGridRouter()
        for seed in range(20):
            perm = random_permutation(g, seed=seed)
            router.route(g, perm).verify(g, perm)
