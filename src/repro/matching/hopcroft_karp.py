"""Hopcroft–Karp maximum bipartite matching.

Used in three places:

* peeling perfect matchings out of the column multigraph ``G[a,b]``
  (Algorithm 2, line 8 of the paper);
* feasibility tests inside the bottleneck-matching threshold search
  (the MCBBM step, Algorithm 2, line 20);
* assorted test oracles.

The implementation is the standard ``O(E * sqrt(V))`` BFS-layering /
DFS-augmenting version, written iteratively (no recursion limits) over
plain adjacency lists. For the instance sizes the routers produce
(``V = n`` columns, ``E <= m*n`` token edges collapsed to at most ``n^2``
support edges) this is far from being a bottleneck, matching the
"algorithmic optimization first" guidance.

Distance labels are plain ints with ``n_left + 1`` as the
unreached/dead sentinel: a finite BFS level never exceeds
``n_left - 1``, so every comparison behaves exactly as it did with the
old ``float('inf')`` labels while staying on the fast int path (and the
numpy kernels share the same convention, keeping the two
implementations diff-friendly).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from ..profiling import stage

__all__ = ["hopcroft_karp", "is_perfect_matching_possible"]


def hopcroft_karp(
    n_left: int, n_right: int, adj: Sequence[Sequence[int]]
) -> tuple[list[int], list[int], int]:
    """Maximum matching in a bipartite graph.

    Parameters
    ----------
    n_left, n_right:
        Sizes of the two vertex classes.
    adj:
        ``adj[u]`` lists the right-vertices adjacent to left-vertex ``u``.

    Returns
    -------
    (match_left, match_right, size):
        ``match_left[u]`` is the right partner of ``u`` or ``-1``;
        ``match_right[v]`` the left partner of ``v`` or ``-1``; ``size``
        the matching cardinality.

    Examples
    --------
    >>> ml, mr, k = hopcroft_karp(2, 2, [[0, 1], [0]])
    >>> k
    2
    """
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    unreached = n_left + 1
    dist = [0] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        push = queue.append
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                push(u)
            else:
                dist[u] = unreached
        found = False
        # Hoist the hot lookups out of the inner loop: `mr`/`d` skip the
        # repeated closure-cell loads, `du1` the per-edge re-add.
        mr = match_r
        d = dist
        while queue:
            u = queue.popleft()
            du1 = d[u] + 1
            for v in adj[u]:
                w = mr[v]
                if w == -1:
                    found = True
                elif d[w] == unreached:
                    d[w] = du1
                    push(w)
        return found

    def dfs(root: int) -> bool:
        # Iterative DFS along the BFS layering; stack holds (vertex,
        # iterator index into adj[vertex]). `path` carries the tentative
        # (left, right) pairs of the current stack: exactly one entry is
        # appended before each child push, and exactly one is removed when
        # a child frame fails, so on a root failure `path` is empty again.
        stack: list[tuple[int, int]] = [(root, 0)]
        path: list[tuple[int, int]] = []  # (left vertex, right vertex) tentative
        while stack:
            u, idx = stack[-1]
            if idx >= len(adj[u]):
                dist[u] = unreached
                stack.pop()
                if path:
                    path.pop()  # drop the edge that led into the failed frame
                continue
            stack[-1] = (u, idx + 1)
            v = adj[u][idx]
            w = match_r[v]
            if w == -1:
                # Augmenting path found: flip matched status along `path`.
                path.append((u, v))
                for pu, pv in path:
                    match_l[pu] = pv
                    match_r[pv] = pu
                return True
            if dist[w] == dist[u] + 1:
                path.append((u, v))
                stack.append((w, 0))
        return False

    size = 0
    with stage("matching"):
        while bfs():
            for u in range(n_left):
                if match_l[u] == -1 and dfs(u):
                    size += 1
    return match_l, match_r, size


def is_perfect_matching_possible(
    n: int, adj: Sequence[Sequence[int]]
) -> bool:
    """Whether a balanced bipartite graph on ``n + n`` vertices has a PM."""
    _, _, size = hopcroft_karp(n, n, adj)
    return size == n
