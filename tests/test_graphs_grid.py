"""Unit tests for repro.graphs.grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import GridGraph


class TestConstruction:
    def test_vertex_and_edge_counts(self):
        g = GridGraph(3, 4)
        assert g.n_vertices == 12
        # (m-1)*n vertical + m*(n-1) horizontal
        assert g.n_edges == 2 * 4 + 3 * 3

    def test_shape(self):
        g = GridGraph(2, 5)
        assert g.shape == (2, 5)
        assert g.n_rows == 2 and g.n_cols == 5

    def test_rejects_bad_dims(self):
        with pytest.raises(GraphError):
            GridGraph(0, 3)
        with pytest.raises(GraphError):
            GridGraph(3, -1)

    def test_one_by_one(self):
        g = GridGraph(1, 1)
        assert g.n_vertices == 1 and g.n_edges == 0

    def test_degenerate_is_path(self):
        g = GridGraph(1, 5)
        assert g.n_edges == 4
        assert g.degree(0) == 1 and g.degree(2) == 2


class TestCoordinates:
    def test_index_coord_roundtrip(self):
        g = GridGraph(3, 4)
        for i in range(3):
            for j in range(4):
                assert g.coord(g.index(i, j)) == (i, j)

    def test_row_major(self):
        g = GridGraph(3, 4)
        assert g.index(1, 2) == 6

    def test_out_of_range(self):
        g = GridGraph(2, 2)
        with pytest.raises(GraphError):
            g.index(2, 0)
        with pytest.raises(GraphError):
            g.index(0, -1)

    def test_rows_cols_of_vectorized(self):
        g = GridGraph(3, 4)
        v = np.arange(12)
        assert (g.rows_of(v) == v // 4).all()
        assert (g.cols_of(v) == v % 4).all()

    def test_row_column_vertices(self):
        g = GridGraph(3, 4)
        assert g.column_vertices(1).tolist() == [1, 5, 9]
        assert g.row_vertices(2).tolist() == [8, 9, 10, 11]
        with pytest.raises(GraphError):
            g.column_vertices(4)
        with pytest.raises(GraphError):
            g.row_vertices(3)


class TestAdjacency:
    def test_horizontal_and_vertical_edges(self):
        g = GridGraph(2, 3)
        assert g.has_edge(g.index(0, 0), g.index(0, 1))
        assert g.has_edge(g.index(0, 0), g.index(1, 0))
        assert not g.has_edge(g.index(0, 0), g.index(1, 1))

    def test_corner_degree(self):
        g = GridGraph(3, 3)
        assert g.degree(g.index(0, 0)) == 2
        assert g.degree(g.index(1, 1)) == 4
        assert g.degree(g.index(0, 1)) == 3


class TestDistances:
    def test_manhattan_closed_form_matches_bfs(self):
        g = GridGraph(3, 4)
        from repro.graphs.base import Graph

        generic = Graph(g.n_vertices, g.edges)
        assert (g.distance_matrix() == generic.distance_matrix()).all()

    def test_distance_o1(self):
        g = GridGraph(5, 7)
        assert g.distance(g.index(0, 0), g.index(4, 6)) == 10
        assert g.diameter() == 10
