"""Unit tests for repro.graphs.cartesian."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import (
    CartesianProduct,
    GridGraph,
    complete_graph,
    cycle_graph,
    cylinder_graph,
    path_graph,
    torus_graph,
)


class TestStructure:
    def test_grid_is_product_of_paths(self):
        prod = CartesianProduct(path_graph(3), path_graph(4))
        grid = GridGraph(3, 4)
        assert prod == grid  # same vertex count and edge set

    def test_vertex_count(self):
        prod = CartesianProduct(cycle_graph(3), path_graph(5))
        assert prod.n_vertices == 15

    def test_edge_count_formula(self):
        g1, g2 = cycle_graph(4), path_graph(3)
        prod = CartesianProduct(g1, g2)
        expected = g1.n_vertices * g2.n_edges + g2.n_vertices * g1.n_edges
        assert prod.n_edges == expected

    def test_coordinates_roundtrip(self):
        prod = CartesianProduct(path_graph(3), cycle_graph(4))
        for a in range(3):
            for b in range(4):
                assert prod.coord(prod.index(a, b)) == (a, b)

    def test_index_out_of_range(self):
        prod = CartesianProduct(path_graph(2), path_graph(2))
        with pytest.raises(GraphError):
            prod.index(2, 0)


class TestDistances:
    def test_product_metric(self):
        g1, g2 = cycle_graph(5), path_graph(4)
        prod = CartesianProduct(g1, g2)
        d = prod.distance_matrix()
        d1, d2 = g1.distance_matrix(), g2.distance_matrix()
        for a in range(5):
            for b in range(4):
                for a2 in range(5):
                    for b2 in range(4):
                        assert (
                            d[prod.index(a, b), prod.index(a2, b2)]
                            == d1[a, a2] + d2[b, b2]
                        )

    def test_matches_bfs(self):
        prod = torus_graph(3, 4)
        from repro.graphs.base import Graph

        generic = Graph(prod.n_vertices, prod.edges)
        assert (prod.distance_matrix() == generic.distance_matrix()).all()


class TestNamedProducts:
    def test_torus(self):
        t = torus_graph(3, 3)
        assert t.n_vertices == 9
        assert all(t.degree(v) == 4 for v in range(9))

    def test_cylinder(self):
        c = cylinder_graph(2, 4)
        assert c.n_vertices == 8
        # path endpoints have degree 3 (2 cycle + 1 path)
        assert c.degree(c.index(0, 0)) == 3

    def test_product_with_complete_factor(self):
        p = CartesianProduct(complete_graph(3), path_graph(2))
        assert p.n_vertices == 6
        assert p.n_edges == 3 * 1 + 2 * 3
