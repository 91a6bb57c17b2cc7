"""The ``m x n`` grid coupling graph.

The paper's target architecture. Vertices are grid points ``(i, j)`` with
row index ``i in [0, m)`` and column index ``j in [0, n)`` (the paper uses
1-based indices; we use 0-based throughout the code). A vertex is flattened
to the integer ``i * n + j``, so vertices of one row are contiguous — the
layout that makes the row-phase of grid routing operate on contiguous numpy
slices (cache-friendly, per the optimization guide).

The grid is the Cartesian product ``P_m x P_n`` of two paths; distances are
the Manhattan metric, which we build in closed form instead of running BFS.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .base import Graph

__all__ = ["GridGraph"]


class GridGraph(Graph):
    """An ``m x n`` grid graph with row-major vertex numbering.

    Parameters
    ----------
    n_rows:
        Number of rows ``m`` (size of each column path).
    n_cols:
        Number of columns ``n`` (size of each row path).

    Examples
    --------
    >>> g = GridGraph(2, 3)
    >>> g.index(1, 2)
    5
    >>> g.coord(5)
    (1, 2)
    >>> g.distance(g.index(0, 0), g.index(1, 2))
    3
    """

    __slots__ = ("_m", "_ncols")

    def __init__(self, n_rows: int, n_cols: int) -> None:
        if n_rows <= 0 or n_cols <= 0:
            raise GraphError(
                f"grid dimensions must be positive, got {n_rows} x {n_cols}"
            )
        m, n = int(n_rows), int(n_cols)
        edges: list[tuple[int, int]] = []
        for i in range(m):
            base = i * n
            for j in range(n):
                v = base + j
                if j + 1 < n:  # horizontal edge within row i
                    edges.append((v, v + 1))
                if i + 1 < m:  # vertical edge within column j
                    edges.append((v, v + n))
        super().__init__(m * n, edges, name=f"grid{m}x{n}")
        self._m = m
        self._ncols = n

    # ------------------------------------------------------------------
    # coordinates
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of rows ``m``."""
        return self._m

    @property
    def n_cols(self) -> int:
        """Number of columns ``n``."""
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self._m, self._ncols)

    def index(self, row: int, col: int) -> int:
        """Flatten grid coordinates to a vertex id (row-major)."""
        if not (0 <= row < self._m and 0 <= col < self._ncols):
            raise GraphError(
                f"coordinate ({row}, {col}) out of range for {self._m}x{self._ncols} grid"
            )
        return row * self._ncols + col

    def coord(self, v: int) -> tuple[int, int]:
        """Unflatten a vertex id to ``(row, col)``."""
        self._check_vertex(v)
        return divmod(v, self._ncols)

    def has_edges(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized edge test in closed form (no edge list needed).

        Same contract as :meth:`Graph.has_edges`: ``{lo, hi}`` with
        ``lo < hi`` is an edge exactly when it is a horizontal step
        inside one row (``hi - lo == 1`` and ``lo`` not in the last
        column) or a vertical step (``hi - lo == n_cols``).
        """
        lo = np.asarray(lo)
        step = np.asarray(hi) - lo
        cols = self._ncols
        return ((step == 1) & (lo % cols != cols - 1)) | (step == cols)

    def rows_of(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized row indices of an array of vertex ids."""
        return np.asarray(vertices) // self._ncols

    def cols_of(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized column indices of an array of vertex ids."""
        return np.asarray(vertices) % self._ncols

    # ------------------------------------------------------------------
    # distances (closed form)
    # ------------------------------------------------------------------
    def distance_matrix(self) -> np.ndarray:
        """Manhattan distance matrix, built vectorized (no BFS)."""
        if self._dist is None:
            v = np.arange(self.n_vertices)
            rows, cols = np.divmod(v, self._ncols)
            out = np.abs(rows[:, None] - rows[None, :]) + np.abs(
                cols[:, None] - cols[None, :]
            )
            out = out.astype(np.int64)
            out.setflags(write=False)
            self._dist = out
        return self._dist

    def distance(self, u: int, v: int) -> int:
        """Manhattan distance between two vertices, O(1), no matrix needed."""
        self._check_vertex(u)
        self._check_vertex(v)
        iu, ju = divmod(u, self._ncols)
        iv, jv = divmod(v, self._ncols)
        return abs(iu - iv) + abs(ju - jv)

    def column_vertices(self, col: int) -> np.ndarray:
        """Vertex ids of column ``col``, top row first."""
        if not (0 <= col < self._ncols):
            raise GraphError(f"column {col} out of range")
        return np.arange(self._m) * self._ncols + col

    def row_vertices(self, row: int) -> np.ndarray:
        """Vertex ids of row ``row``, left column first."""
        if not (0 <= row < self._m):
            raise GraphError(f"row {row} out of range")
        return np.arange(self._ncols) + row * self._ncols
