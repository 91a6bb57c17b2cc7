"""Bottleneck bipartite matching (the MCBBM step of Algorithm 2).

The paper assigns each peeled perfect matching ``M`` to an intermediate
grid row ``r`` by solving a *maximum cardinality bottleneck bipartite
matching* (MCBBM) problem on the complete bipartite graph
``H(P, rows)`` with edge weight ``Delta(M, r)``: among all perfect
matchings of ``H``, pick one minimizing the **maximum** edge weight, so no
single matching is assigned a catastrophically distant row.

Since ``H`` is complete and balanced, MCBBM reduces to the *bottleneck
assignment problem*, solved here by binary search over the sorted distinct
weights with a Hopcroft–Karp feasibility test per probe —
``O(E sqrt(V) log E)``, comfortably inside the paper's
``~O(m^{2.5})`` budget (they cite Punnen–Nair; the threshold method has the
same practical complexity profile at our sizes and is simpler to verify).

A general (possibly unbalanced / incomplete) MCBBM solver is also provided
for completeness and testing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import kernels
from ..errors import MatchingError
from .hopcroft_karp import hopcroft_karp

__all__ = ["bottleneck_assignment", "max_cardinality_bottleneck_matching"]


def bottleneck_assignment(
    weights: np.ndarray,
    refine: bool = True,
) -> tuple[np.ndarray, float]:
    """Perfect matching of a complete balanced bipartite graph minimizing
    the maximum edge weight.

    Parameters
    ----------
    weights:
        ``(k, k)`` cost matrix; ``weights[i, j]`` is the cost of assigning
        left vertex ``i`` to right vertex ``j``.
    refine:
        When True (default), among all assignments achieving the optimal
        bottleneck, return one minimizing the **total** weight
        (lexicographic bottleneck-then-sum, via scipy's Hungarian
        method). Pure MCBBM fixes only the worst edge; once a
        few unavoidably global matchings pin the bottleneck high, every
        other assignment would otherwise be unconstrained — refinement
        keeps the well-localized majority near their preferred rows. The
        effect is measured by the ``mcbbm`` ablation benchmark.

    Returns
    -------
    (assignment, bottleneck):
        ``assignment[i]`` is the right vertex matched to left vertex ``i``;
        ``bottleneck`` is the (optimal) maximum assigned weight.

    Examples
    --------
    >>> import numpy as np
    >>> a, b = bottleneck_assignment(np.array([[1, 9], [9, 1]]))
    >>> a.tolist(), b
    ([0, 1], 1.0)
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise MatchingError(f"weights must be square, got shape {w.shape}")
    k = w.shape[0]
    values = np.unique(w)
    kb = kernels.ACTIVE

    def feasible(threshold: float) -> list[int] | None:
        return kb.bottleneck_feasible(w, float(threshold))

    lo, hi = 0, len(values) - 1
    best: list[int] | None = feasible(values[hi])
    if best is None:
        raise MatchingError("complete bipartite graph has no perfect matching?")
    while lo < hi:
        mid = (lo + hi) // 2
        cand = feasible(values[mid])
        if cand is not None:
            best = cand
            hi = mid
        else:
            lo = mid + 1
    bottleneck = float(values[hi])

    if refine and k > 1:
        # Imported here: scipy costs ~0.5 s to import, paid on first use.
        from scipy.optimize import linear_sum_assignment

        # Forbid edges above the bottleneck with a finite big-M: any
        # feasible assignment costs <= bottleneck * k < big, so the
        # optimum never uses a forbidden edge.
        big = bottleneck * k + 1.0
        masked = np.where(w <= bottleneck, w, big)
        _, cols = linear_sum_assignment(masked)
        return cols.astype(np.int64), bottleneck

    return np.asarray(best, dtype=np.int64), bottleneck


def max_cardinality_bottleneck_matching(
    n_left: int,
    n_right: int,
    edges: Sequence[tuple[int, int, float]],
) -> tuple[list[tuple[int, int]], float, int]:
    """General MCBBM: maximize cardinality, then minimize the max weight.

    Parameters
    ----------
    n_left, n_right:
        Bipartition sizes.
    edges:
        ``(left, right, weight)`` triples.

    Returns
    -------
    (matching, bottleneck, cardinality):
        ``matching`` as (left, right) pairs; ``bottleneck`` is the largest
        weight used (``-inf`` for an empty matching).

    Raises
    ------
    MatchingError
        On out-of-range endpoints.
    """
    for u, v, _ in edges:
        if not (0 <= u < n_left and 0 <= v < n_right):
            raise MatchingError(f"edge ({u}, {v}) out of range")

    if not edges:
        return [], float("-inf"), 0

    weights = sorted(set(w for _, _, w in edges))

    def matching_at(threshold: float) -> tuple[list[int], int]:
        adj: list[list[int]] = [[] for _ in range(n_left)]
        for u, v, w in edges:
            if w <= threshold:
                adj[u].append(v)
        match_l, _, size = hopcroft_karp(n_left, n_right, adj)
        return match_l, size

    full_match, max_card = matching_at(weights[-1])
    if max_card == 0:
        return [], float("-inf"), 0

    lo, hi = 0, len(weights) - 1
    best = full_match
    while lo < hi:
        mid = (lo + hi) // 2
        cand, size = matching_at(weights[mid])
        if size == max_card:
            best = cand
            hi = mid
        else:
            lo = mid + 1

    pairs = [(u, v) for u, v in enumerate(best) if v != -1]
    # Recover the realized bottleneck among chosen pairs.
    weight_of: dict[tuple[int, int], float] = {}
    for u, v, w in edges:
        key = (u, v)
        if key not in weight_of or w < weight_of[key]:
            weight_of[key] = w
    bottleneck = max(weight_of[p] for p in pairs)
    return pairs, float(bottleneck), max_card
