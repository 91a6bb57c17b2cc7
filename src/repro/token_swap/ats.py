"""Approximate token swapping (ATS) — the paper's baseline (Miltzow et al.).

The serial token swapping problem asks for the fewest swaps realizing a
permutation on a graph. Miltzow, Narins, Okamoto, Rote, Thomas and Uno gave
a 4-approximation that the paper benchmarks against (it is "used as a
primitive in many state-of-the-art quantum transpilers", e.g. the Childs,
Schoute, Unsal transpiler and Qiskit's ``ApproximateTokenSwapper``).

Algorithm (cycle/chain formulation, as implemented in those transpilers):
maintain the *improvement digraph* with an arc ``u -> v`` whenever ``v`` is
a neighbour of ``u`` lying on a shortest path from ``u`` to the destination
of the token currently on ``u``.

* If the digraph contains a directed **cycle** ``c_0 -> c_1 -> ... -> c_{k-1}
  -> c_0``, apply the ``k - 1`` swaps ``(c_{k-2}, c_{k-1}), ..., (c_0, c_1)``;
  every token on the cycle advances one step along its own shortest path
  ("happy swap chain": total displacement drops by ``k`` using ``k - 1``
  swaps).
* Otherwise take any vertex with a misplaced token, follow arcs to a
  maximal path and apply its **last** arc as a single "unhappy" swap (the
  resting endpoint has no out-arc, i.e. its token is already home; total
  displacement is unchanged but the configuration provably progresses).

Termination is guaranteed for permutation inputs; a defensive swap-count
cap (4x the total displacement plus slack, the 4-approximation budget)
turns any regression into a loud :class:`~repro.errors.RoutingError`
instead of an infinite loop.

Implementation notes
--------------------
* Distances come from the coupling graph's cached all-pairs matrix,
  converted once to nested lists: in this pointer-chasing inner loop,
  plain-list indexing beats numpy scalar indexing by a large constant
  (profiling-first guidance — this *is* the hot loop of the baseline).
* ``trials > 1`` reruns the routine with randomized tie-breaking among
  shortest-path neighbours and keeps the fewest-swap run, mirroring
  Qiskit's ``trials`` parameter.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import RoutingError
from ..graphs.base import Graph
from ..perm.permutation import Permutation

__all__ = ["approximate_token_swapping"]

_WHITE, _GRAY, _BLACK = 0, 1, 2


def _serial_route(
    nbrs: list[list[int]],
    dist: list[list[int]],
    dest: list[int],
    rng: np.random.Generator | None,
    swap_cap: int,
) -> list[tuple[int, int]]:
    """One ATS run; see module docstring. Mutates nothing external."""
    n = len(nbrs)
    tok_at = list(range(n))  # tok_at[vertex] = token currently there
    active: set[int] = {u for u in range(n) if dest[u] != u}
    swaps: list[tuple[int, int]] = []

    if rng is not None:
        nbrs = [list(ns) for ns in nbrs]
        for ns in nbrs:
            rng.shuffle(ns)

    def out_arcs(u: int) -> list[int]:
        t = tok_at[u]
        d = dest[t]
        if d == u:
            return []
        du = dist[u][d]
        drow = dist[d]
        return [v for v in nbrs[u] if drow[v] < du]

    def do_swap(u: int, v: int) -> None:
        tok_at[u], tok_at[v] = tok_at[v], tok_at[u]
        swaps.append((u, v))
        for w in (u, v):
            if dest[tok_at[w]] != w:
                active.add(w)
            else:
                active.discard(w)

    color = [0] * n
    stamp = [0] * n  # visitation version, avoids clearing `color`
    version = 0

    def find_cycle() -> list[int] | None:
        """Any directed cycle of the improvement digraph, or None."""
        nonlocal version
        version += 1

        def col(x: int) -> int:
            return color[x] if stamp[x] == version else _WHITE

        for s in sorted(active):
            if col(s) != _WHITE:
                continue
            stack: list[tuple[int, list[int], int]] = [(s, out_arcs(s), 0)]
            stamp[s], color[s] = version, _GRAY
            while stack:
                u, arcs, idx = stack[-1]
                if idx >= len(arcs):
                    color[u] = _BLACK
                    stack.pop()
                    continue
                stack[-1] = (u, arcs, idx + 1)
                v = arcs[idx]
                cv = col(v)
                if cv == _GRAY:
                    # cycle: v -> ... -> u -> v along the current stack
                    verts = [frame[0] for frame in stack]
                    return verts[verts.index(v):]
                if cv == _WHITE:
                    stamp[v], color[v] = version, _GRAY
                    stack.append((v, out_arcs(v), 0))
        return None

    while active:
        cycle = find_cycle()
        if cycle is not None:
            for i in range(len(cycle) - 2, -1, -1):
                do_swap(cycle[i], cycle[i + 1])
        else:
            # Digraph is acyclic: walk a maximal path from a misplaced
            # vertex, perform the unhappy swap on its last arc.
            u = min(active)
            path = [u]
            while True:
                arcs = out_arcs(path[-1])
                if not arcs:
                    break
                path.append(arcs[0])
            if len(path) < 2:  # pragma: no cover - impossible on connected graphs
                raise RoutingError(
                    "token swapping stuck: misplaced token with no "
                    "improving neighbour (is the graph connected?)"
                )
            do_swap(path[-2], path[-1])
        if len(swaps) > swap_cap:  # pragma: no cover - defensive
            raise RoutingError(
                f"token swapping exceeded its swap budget ({swap_cap}); "
                "algorithm failed to converge"
            )
    return swaps


def approximate_token_swapping(
    graph: Graph,
    perm: Permutation,
    trials: int = 1,
    seed: int | None = None,
) -> list[tuple[int, int]]:
    """Serial swap sequence realizing ``perm`` on ``graph`` (4-approx ATS).

    Parameters
    ----------
    graph:
        Connected coupling graph.
    perm:
        Permutation to realize (token starting at ``v`` must reach
        ``perm(v)``).
    trials:
        Number of randomized runs; the best (fewest swaps) is returned.
        ``trials=1`` is fully deterministic.
    seed:
        Seed for the randomized tie-breaking when ``trials > 1``.

    Returns
    -------
    List of swaps ``(u, v)``; applying them in order moves every token
    from ``v`` to ``perm(v)``.

    Raises
    ------
    RoutingError
        If sizes mismatch, the graph is disconnected, or the algorithm
        fails to converge within its approximation budget.
    """
    n = graph.n_vertices
    if perm.size != n:
        raise RoutingError(f"permutation size {perm.size} != graph size {n}")
    if trials < 1:
        raise RoutingError(f"trials must be >= 1, got {trials}")
    dist_mat = graph.distance_matrix()
    if (dist_mat < 0).any():
        raise RoutingError("token swapping requires a connected graph")

    dest = perm.targets.tolist()
    if all(dest[v] == v for v in range(n)):
        return []
    dist = dist_mat.tolist()
    nbrs = [list(graph.neighbors(v)) for v in range(n)]
    total_disp = kernels.ACTIVE.total_displacement(dist_mat, dest)
    swap_cap = 4 * total_disp + 4 * n + 16

    best: list[tuple[int, int]] | None = None
    rng = np.random.default_rng(seed)
    for t in range(trials):
        trial_rng = rng if t > 0 else None  # first trial deterministic
        swaps = _serial_route(nbrs, dist, dest, trial_rng, swap_cap)
        if best is None or len(swaps) < len(best):
            best = swaps
    assert best is not None
    return best
