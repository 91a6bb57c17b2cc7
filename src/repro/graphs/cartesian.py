"""Cartesian products of graphs (the paper's "grid-like" architectures).

The Cartesian product ``G1 □ G2`` has vertex set ``V(G1) x V(G2)`` and an
edge between ``(a, b)`` and ``(a', b')`` iff either ``a == a'`` and
``(b, b')`` is an edge of ``G2``, or ``b == b'`` and ``(a, a')`` is an edge
of ``G1``. The ``m x n`` grid is ``P_m □ P_n``.

Following the grid convention, we call the copies of ``G1`` the *columns*
(one copy per vertex of ``G2``) and the copies of ``G2`` the *rows* (one
copy per vertex of ``G1``). Vertex ``(a, b)`` flattens to ``a * |G2| + b``,
which coincides with :class:`repro.graphs.grid.GridGraph` numbering when
both factors are paths.

Distances in a Cartesian product factor exactly:
``d((a,b), (a',b')) = d_G1(a, a') + d_G2(b, b')``, which we exploit for a
vectorized distance matrix.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .base import Graph

__all__ = ["CartesianProduct", "torus_graph", "cylinder_graph"]


class CartesianProduct(Graph):
    """The Cartesian product ``G1 □ G2`` with factor bookkeeping.

    Parameters
    ----------
    g1:
        The *column* factor; copies of ``g1`` are the columns.
    g2:
        The *row* factor; copies of ``g2`` are the rows.

    Examples
    --------
    >>> from repro.graphs import path_graph
    >>> from repro.graphs.grid import GridGraph
    >>> CartesianProduct(path_graph(3), path_graph(4)) == GridGraph(3, 4)
    True
    """

    __slots__ = ("_g1", "_g2")

    def __init__(self, g1: Graph, g2: Graph) -> None:
        if g1.n_vertices == 0 or g2.n_vertices == 0:
            raise GraphError("product factors must be non-empty")
        m, n = g1.n_vertices, g2.n_vertices
        edges: list[tuple[int, int]] = []
        # G2 edges inside each row (copy of G2 at fixed a).
        for a in range(m):
            base = a * n
            for (b, b2) in g2.edges:
                edges.append((base + b, base + b2))
        # G1 edges inside each column (copy of G1 at fixed b).
        for (a, a2) in g1.edges:
            for b in range(n):
                edges.append((a * n + b, a2 * n + b))
        super().__init__(m * n, edges, name=f"({g1.name} x {g2.name})")
        self._g1 = g1
        self._g2 = g2

    @property
    def g1(self) -> Graph:
        """The column factor (``a`` coordinate)."""
        return self._g1

    @property
    def g2(self) -> Graph:
        """The row factor (``b`` coordinate)."""
        return self._g2

    @property
    def shape(self) -> tuple[int, int]:
        """``(|G1|, |G2|)`` — rows x cols in the grid analogy."""
        return (self._g1.n_vertices, self._g2.n_vertices)

    def index(self, a: int, b: int) -> int:
        """Flatten factor coordinates ``(a, b)`` to a product vertex id."""
        n = self._g2.n_vertices
        if not (0 <= a < self._g1.n_vertices and 0 <= b < n):
            raise GraphError(f"coordinate ({a}, {b}) out of range")
        return a * n + b

    def coord(self, v: int) -> tuple[int, int]:
        """Unflatten a product vertex id to factor coordinates ``(a, b)``."""
        self._check_vertex(v)
        return divmod(v, self._g2.n_vertices)

    def distance_matrix(self) -> np.ndarray:
        """Product metric ``d1 ⊕ d2`` built from the factor matrices."""
        if self._dist is None:
            d1 = self._g1.distance_matrix()
            d2 = self._g2.distance_matrix()
            if (d1 < 0).any() or (d2 < 0).any():
                # Fall back to BFS semantics for disconnected factors.
                return super().distance_matrix()
            # d[(a,b),(a2,b2)] = d1[a,a2] + d2[b,b2]; build via broadcasting
            # then reshape to (m*n, m*n).
            out = (
                d1[:, None, :, None] + d2[None, :, None, :]
            ).reshape(self.n_vertices, self.n_vertices)
            out = np.ascontiguousarray(out)
            out.setflags(write=False)
            self._dist = out
        return self._dist


def torus_graph(m: int, n: int) -> CartesianProduct:
    """The ``m x n`` torus ``C_m □ C_n`` (requires ``m, n >= 3``)."""
    from .families import cycle_graph

    return CartesianProduct(cycle_graph(m), cycle_graph(n))


def cylinder_graph(m: int, n: int) -> CartesianProduct:
    """The cylinder ``P_m □ C_n`` (paths stacked around a cycle)."""
    from .families import cycle_graph, path_graph

    return CartesianProduct(path_graph(m), cycle_graph(n))
