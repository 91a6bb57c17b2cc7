"""Partial permutations and don't-care completion.

A transpiler's routing phase usually has destinations only for the qubits
that participate in upcoming gates; the rest are *don't-care*. Formally the
input is a bijection ``f : S -> R`` between subsets of the vertex set, which
must be extended to a full permutation before calling a routing-via-matchings
router. The paper assumes this extension "has already been determined by the
transpiler"; this module provides the standard extension strategies so the
end-to-end pipeline is self-contained.

Completion strategies
---------------------
``"optimal"``
    Minimum total-distance assignment of free sources to free destinations
    (Hungarian method via :func:`scipy.optimize.linear_sum_assignment`).
``"greedy"``
    Repeatedly match the closest (source, destination) pair. ``O(k^2 log k)``
    for ``k`` don't-cares.
``"arbitrary"``
    Pair free sources and destinations in index order. Fast, worst quality.
``"minimal"``
    Keep every don't-care qubit in place when its position is also a free
    destination; assign only the (small) remainder optimally. This is the
    transpiler's workhorse: when routing a layer of ``k`` gates on an
    ``N``-vertex device, all but ``O(k)`` qubits stay put, and the
    assignment subproblem has size ``O(k)`` instead of ``O(N)``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import PermutationError
from ..graphs.base import Graph
from .permutation import Permutation

__all__ = ["PartialPermutation", "complete_partial"]

_STRATEGIES = ("optimal", "greedy", "arbitrary", "minimal")


class PartialPermutation:
    """A bijection between two equal-size subsets of ``{0, ..., n-1}``.

    Parameters
    ----------
    n:
        Size of the ambient vertex set.
    mapping:
        ``{source: destination}`` pairs. Sources and destinations must each
        be distinct (a partial bijection).

    Examples
    --------
    >>> pp = PartialPermutation(4, {0: 2, 3: 1})
    >>> sorted(pp.sources())
    [0, 3]
    >>> pp.is_total()
    False
    """

    __slots__ = ("_n", "_map")

    def __init__(self, n: int, mapping: Mapping[int, int]) -> None:
        if n <= 0:
            raise PermutationError(f"ambient size must be positive, got {n}")
        self._n = int(n)
        srcs = list(mapping.keys())
        dsts = list(mapping.values())
        for x in srcs + dsts:
            if not (0 <= x < n):
                raise PermutationError(f"element {x} out of range for n={n}")
        if len(set(srcs)) != len(srcs):
            raise PermutationError("duplicate sources in partial permutation")
        if len(set(dsts)) != len(dsts):
            raise PermutationError("duplicate destinations in partial permutation")
        self._map = dict(mapping)

    @property
    def n(self) -> int:
        """Ambient vertex-set size."""
        return self._n

    def __len__(self) -> int:
        return len(self._map)

    def sources(self) -> list[int]:
        """Constrained source vertices."""
        return list(self._map.keys())

    def destinations(self) -> list[int]:
        """Constrained destination vertices."""
        return list(self._map.values())

    def mapping(self) -> dict[int, int]:
        """A copy of the ``{source: destination}`` dictionary."""
        return dict(self._map)

    def __getitem__(self, source: int) -> int:
        return self._map[source]

    def __contains__(self, source: int) -> bool:
        return source in self._map

    def is_total(self) -> bool:
        """Whether every vertex is constrained."""
        return len(self._map) == self._n

    def complete(self, graph: Graph, strategy: str = "optimal") -> Permutation:
        """Extend to a full :class:`Permutation`; see module docstring."""
        return complete_partial(self, graph, strategy=strategy)


def _greedy_assign(
    free_src: np.ndarray, free_dst: np.ndarray, dist: np.ndarray
) -> dict[int, int]:
    """Pair each free source to a free destination, closest pairs first."""
    pairs = [
        (int(dist[s, d]), int(s), int(d)) for s in free_src for d in free_dst
    ]
    pairs.sort()
    used_s: set[int] = set()
    used_d: set[int] = set()
    out: dict[int, int] = {}
    for _, s, d in pairs:
        if s in used_s or d in used_d:
            continue
        out[s] = d
        used_s.add(s)
        used_d.add(d)
    return out


def complete_partial(
    partial: PartialPermutation, graph: Graph, strategy: str = "optimal"
) -> Permutation:
    """Extend a partial permutation to a total one over ``graph``'s vertices.

    Free sources are assigned to free destinations so as to (approximately)
    minimize the extra movement; see the module docstring for strategies.

    Raises
    ------
    PermutationError
        On unknown strategy or if sizes disagree with the graph.
    """
    if strategy not in _STRATEGIES:
        raise PermutationError(
            f"unknown completion strategy {strategy!r}; choose from {_STRATEGIES}"
        )
    n = graph.n_vertices
    if partial.n != n:
        raise PermutationError(
            f"partial permutation ambient size {partial.n} != graph size {n}"
        )
    mapping = partial.mapping()
    constrained_src = set(mapping.keys())
    constrained_dst = set(mapping.values())
    free_src = np.array(
        [v for v in range(n) if v not in constrained_src], dtype=np.int64
    )
    free_dst = np.array(
        [v for v in range(n) if v not in constrained_dst], dtype=np.int64
    )
    if free_src.size == 0:
        return Permutation.from_mapping(n, mapping)

    if strategy == "arbitrary":
        for s, d in zip(free_src, free_dst):
            mapping[int(s)] = int(d)
        return Permutation.from_mapping(n, mapping)

    if strategy == "minimal":
        stay = set(free_src.tolist()) & set(free_dst.tolist())
        for v in stay:
            mapping[v] = v
        rem_src = np.array(
            [v for v in free_src.tolist() if v not in stay], dtype=np.int64
        )
        rem_dst = np.array(
            [v for v in free_dst.tolist() if v not in stay], dtype=np.int64
        )
        if rem_src.size:
            from scipy.optimize import linear_sum_assignment

            dist = graph.distance_matrix()
            cost = dist[np.ix_(rem_src, rem_dst)]
            rows, cols = linear_sum_assignment(cost)
            for r, c in zip(rows, cols):
                mapping[int(rem_src[r])] = int(rem_dst[c])
        return Permutation.from_mapping(n, mapping)

    dist = graph.distance_matrix()
    if strategy == "optimal":
        from scipy.optimize import linear_sum_assignment

        cost = dist[np.ix_(free_src, free_dst)]
        rows, cols = linear_sum_assignment(cost)
        for r, c in zip(rows, cols):
            mapping[int(free_src[r])] = int(free_dst[c])
        return Permutation.from_mapping(n, mapping)

    # greedy
    mapping.update(_greedy_assign(free_src, free_dst, dist))
    return Permutation.from_mapping(n, mapping)
