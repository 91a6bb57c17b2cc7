"""Immutable undirected simple graphs used as coupling graphs.

The routing literature (and this reproduction) models a quantum device's
two-qubit connectivity as an undirected simple graph, the *coupling graph*.
Vertices are physical qubits, identified with the integers ``0 .. n-1``;
an edge ``(u, v)`` means a two-qubit gate (in particular a SWAP) may act on
the pair.

:class:`Graph` is deliberately minimal and immutable: routers never mutate
the architecture, and immutability lets us cache the all-pairs distance
matrix, which is the single most frequently consulted piece of data in both
the token-swapping baseline and the grid routers.

Performance notes
-----------------
The all-pairs distance matrix is computed once via repeated BFS
(``O(V * E)``) and cached; subclasses with closed-form metrics (e.g.
:class:`repro.graphs.grid.GridGraph`) override :meth:`Graph.distance_matrix`
with a vectorized numpy construction, following the "compute less, then
vectorize" guidance of the optimization guides.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from ..errors import GraphError

__all__ = ["Graph", "Edge", "canonical_edge"]

#: An undirected edge, stored with endpoints sorted ascending.
Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` form of an undirected edge.

    Raises
    ------
    GraphError
        If ``u == v`` (self-loops are never valid coupling edges).
    """
    if u == v:
        raise GraphError(f"self-loop edge ({u}, {v}) is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """An immutable, undirected, simple graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n_vertices:
        Number of vertices. Must be positive.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n_vertices`` and
        ``u != v``. Duplicates (in either orientation) are collapsed.
    name:
        Human-readable label used in ``repr`` and error messages.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)], name="P3")
    >>> g.has_edge(1, 0)
    True
    >>> g.distance(0, 2)
    2
    """

    __slots__ = ("_n", "_adj", "_edges", "_edge_set", "_edge_keys", "_dist", "name")

    def __init__(
        self,
        n_vertices: int,
        edges: Iterable[tuple[int, int]],
        name: str = "graph",
    ) -> None:
        if n_vertices <= 0:
            raise GraphError(f"graph must have at least one vertex, got {n_vertices}")
        self._n = int(n_vertices)
        self.name = name

        edge_set: set[Edge] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise GraphError(
                    f"edge ({u}, {v}) out of range for {self._n} vertices"
                )
            edge_set.add(canonical_edge(u, v))

        adj: list[list[int]] = [[] for _ in range(self._n)]
        for u, v in edge_set:
            adj[u].append(v)
            adj[v].append(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adj
        )
        self._edges: tuple[Edge, ...] = tuple(sorted(edge_set))
        self._edge_set: frozenset[Edge] = frozenset(edge_set)
        self._edge_keys: np.ndarray | None = None
        self._dist: np.ndarray | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of (undirected) edges."""
        return len(self._edges)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges in canonical ``(min, max)`` form, sorted."""
        return self._edges

    def vertices(self) -> range:
        """The vertex set as a ``range`` object."""
        return range(self._n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (orientation-insensitive)."""
        if u == v:
            return False
        return canonical_edge(u, v) in self._edge_set

    def has_edges(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`has_edge` over canonical vertex pairs.

        ``lo`` and ``hi`` are equal-length integer arrays with
        ``0 <= lo[i] < hi[i] < n_vertices`` (the invariants of a
        :class:`~repro.routing.schedule.Schedule`'s swaps). Returns a
        boolean mask: one ``searchsorted`` of the ``lo * n + hi`` keys
        into the sorted keys of the edge list, built on first use.
        """
        keys = self._edge_keys
        if keys is None:
            ends = np.asarray(self._edges, dtype=np.int64).reshape(-1, 2)
            # Edges are sorted (u, v) pairs with v < n, so the keys are too.
            keys = self._edge_keys = ends[:, 0] * self._n + ends[:, 1]
        query = np.asarray(lo, dtype=np.int64) * self._n + np.asarray(hi)
        if keys.size == 0:
            return np.zeros(query.shape, dtype=bool)
        at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        return keys[at] == query

    def max_degree(self) -> int:
        """Maximum vertex degree (0 for edgeless graphs)."""
        return max((len(a) for a in self._adj), default=0)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise GraphError(f"vertex {v} out of range for {self._n} vertices")

    # ------------------------------------------------------------------
    # connectivity and distances
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int) -> np.ndarray:
        """Distances from ``source`` to every vertex (``-1`` if unreachable)."""
        self._check_vertex(source)
        dist = np.full(self._n, -1, dtype=np.int64)
        dist[source] = 0
        queue: deque[int] = deque([source])
        adj = self._adj
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    queue.append(w)
        return dist

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path matrix, cached after first computation.

        Entry ``[u, v]`` is the hop distance, or ``-1`` when ``v`` is
        unreachable from ``u``. The returned array is the cache itself;
        callers must treat it as read-only.
        """
        if self._dist is None:
            out = np.empty((self._n, self._n), dtype=np.int64)
            for v in range(self._n):
                out[v] = self.bfs_distances(v)
            out.setflags(write=False)
            self._dist = out
        return self._dist

    def distance(self, u: int, v: int) -> int:
        """Shortest-path distance between ``u`` and ``v`` (-1 if disconnected)."""
        return int(self.distance_matrix()[u, v])

    def is_connected(self) -> bool:
        """Whether the graph is connected (single vertex counts as connected)."""
        return bool((self.bfs_distances(0) >= 0).all())

    def diameter(self) -> int:
        """Largest finite pairwise distance.

        Raises
        ------
        GraphError
            If the graph is disconnected.
        """
        d = self.distance_matrix()
        if (d < 0).any():
            raise GraphError("diameter undefined for disconnected graph")
        return int(d.max())

    # ------------------------------------------------------------------
    # matchings
    # ------------------------------------------------------------------
    def is_matching(self, pairs: Sequence[tuple[int, int]]) -> bool:
        """Whether ``pairs`` is a matching of this graph.

        A matching is a set of existing edges that are pairwise
        vertex-disjoint. The empty sequence is a (trivial) matching.
        """
        seen: set[int] = set()
        for u, v in pairs:
            if not self.has_edge(u, v):
                return False
            if u in seen or v in seen:
                return False
            seen.add(u)
            seen.add(v)
        return True

    def check_matching(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Like :meth:`is_matching` but raises :class:`GraphError` with detail."""
        seen: set[int] = set()
        for u, v in pairs:
            if not self.has_edge(u, v):
                raise GraphError(f"({u}, {v}) is not an edge of {self.name}")
            if u in seen or v in seen:
                raise GraphError(
                    f"vertex reuse in matching at edge ({u}, {v})"
                )
            seen.add(u)
            seen.add(v)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"n_vertices={self._n}, n_edges={self.n_edges})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count and edge set."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edge_set == other._edge_set

    def __hash__(self) -> int:
        return hash((self._n, self._edge_set))
