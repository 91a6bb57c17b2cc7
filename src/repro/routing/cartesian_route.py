"""3-phase routing on Cartesian products ``G1 □ G2`` (paper Section IV-C).

The grid algorithm generalizes verbatim: think of ``G = G1 □ G2`` as a
grid-like graph whose *columns* are copies of ``G1`` (one per vertex of
``G2``) and whose *rows* are copies of ``G2``. The Hall/König argument
behind the 3-phase scheme only concerns the bipartite multigraph over the
columns, so it is untouched; the per-phase path routing is replaced by a
routing algorithm for the relevant factor ("replacing the odd-even
transposition with routing algorithms for G1 and G2").

Locality extension: the ``Delta`` metric generalizes by replacing the row
metric ``|i - r|`` with the factor-graph distance ``d_{G1}(i, r)``; the
row-window banding of Algorithm 2 uses vertex-id order of ``G1``, which
coincides with the paper's row bands when ``G1`` is a path and remains a
useful (if weaker) band structure on "path-like" factors — the exact
regime the paper says the locality optimization is designed for.

Factor routers are selected by structure: paths get odd–even
transposition, cycles the best-cut reduction, complete graphs the 2-round
involution router, and anything else connected falls back to token
swapping (always correct).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .. import kernels
from ..errors import RoutingError
from ..graphs.base import Graph
from ..graphs.cartesian import CartesianProduct
from ..graphs.families import path_graph
from ..graphs.grid import GridGraph
from ..matching.bottleneck import bottleneck_assignment
from ..matching.decompose import naive_decomposition, windowed_decomposition
from ..matching.multigraph import ColumnMultigraph
from ..perm.permutation import Permutation
from .base import Router, register_router
from .complete_route import CompleteRouter
from .cycle_route import CycleRouter, cycle_order
from .grid_naive import route_both_orientations, sigmas_from_decomposition
from .path_oet import oet_rounds
from .schedule import Schedule

__all__ = [
    "FactorRouter",
    "PathFactorRouter",
    "CycleFactorRouter",
    "CompleteFactorRouter",
    "GenericFactorRouter",
    "factor_router_for",
    "path_order",
    "CartesianRouter",
]


def path_order(graph: Graph) -> list[int] | None:
    """Vertices of a path graph in endpoint-to-endpoint order, or ``None``.

    Deterministic: starts from the smallest-labelled endpoint.
    """
    n = graph.n_vertices
    if n == 1:
        return [0]
    if graph.n_edges != n - 1:
        return None
    degrees = [graph.degree(v) for v in range(n)]
    endpoints = [v for v in range(n) if degrees[v] == 1]
    if len(endpoints) != 2 or any(d > 2 for d in degrees):
        return None
    order = [min(endpoints)]
    prev = -1
    for _ in range(n - 1):
        cur = order[-1]
        nxt = [w for w in graph.neighbors(cur) if w != prev]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
        prev = cur
    return order if len(set(order)) == n else None


class FactorRouter(ABC):
    """Routing primitive for one factor graph of a Cartesian product.

    A factor router answers a single question: given that the token at
    factor-vertex ``x`` must reach factor-vertex ``dest[x]``, which rounds
    of factor-edge swaps realize it?
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    @abstractmethod
    def route_destinations(self, dest: np.ndarray) -> list[list[tuple[int, int]]]:
        """Rounds of disjoint factor-edge swaps realizing ``dest``."""


class PathFactorRouter(FactorRouter):
    """Odd–even transposition over the path's natural order."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        order = path_order(graph)
        if order is None:
            raise RoutingError(f"{graph.name} is not a path")
        self._order = order
        self._pos = {v: p for p, v in enumerate(order)}

    def route_destinations(self, dest: np.ndarray) -> list[list[tuple[int, int]]]:
        pdest = [self._pos[int(dest[v])] for v in self._order]
        rounds = oet_rounds(pdest, optimize_parity=True)
        order = self._order
        return [[(order[i], order[i + 1]) for i in rnd] for rnd in rounds]


class CycleFactorRouter(FactorRouter):
    """Best-cut cycle routing (see :class:`~repro.routing.cycle_route.CycleRouter`)."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        if cycle_order(graph) is None:
            raise RoutingError(f"{graph.name} is not a cycle")
        self._router = CycleRouter()

    def route_destinations(self, dest: np.ndarray) -> list[list[tuple[int, int]]]:
        sched = self._router.route(self.graph, Permutation(dest))
        return [list(layer) for layer in sched.layers if layer]


class CompleteFactorRouter(FactorRouter):
    """2-round involution routing on complete factors."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        n = graph.n_vertices
        if graph.n_edges != n * (n - 1) // 2:
            raise RoutingError(f"{graph.name} is not complete")
        self._router = CompleteRouter()

    def route_destinations(self, dest: np.ndarray) -> list[list[tuple[int, int]]]:
        sched = self._router.route(self.graph, Permutation(dest))
        return [list(layer) for layer in sched.layers if layer]


class GenericFactorRouter(FactorRouter):
    """Token-swapping fallback, correct on any connected factor."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        if not graph.is_connected():
            raise RoutingError(f"factor {graph.name} is disconnected")

    def route_destinations(self, dest: np.ndarray) -> list[list[tuple[int, int]]]:
        from ..token_swap.ats import approximate_token_swapping
        from ..token_swap.parallel import parallelize_swaps

        swaps = approximate_token_swapping(self.graph, Permutation(dest))
        sched = parallelize_swaps(self.graph.n_vertices, swaps)
        return [list(layer) for layer in sched.layers if layer]


def factor_router_for(graph: Graph) -> FactorRouter:
    """Select a factor router by structural inspection (see module doc)."""
    if path_order(graph) is not None:
        return PathFactorRouter(graph)
    if cycle_order(graph) is not None:
        return CycleFactorRouter(graph)
    n = graph.n_vertices
    if graph.n_edges == n * (n - 1) // 2 and n >= 2:
        return CompleteFactorRouter(graph)
    return GenericFactorRouter(graph)


def _merge_rounds(
    per_copy_rounds: list[list[list[tuple[int, int]]]],
    to_product,
) -> list[list[tuple[int, int]]]:
    """Merge per-copy factor rounds into product layers by round index.

    Copies live on disjoint vertex sets, so round ``r`` of every copy can
    execute simultaneously. ``to_product(copy_index, a, b)`` maps a factor
    edge to a product edge.
    """
    depth = max((len(r) for r in per_copy_rounds), default=0)
    layers: list[list[tuple[int, int]]] = []
    for r in range(depth):
        layer: list[tuple[int, int]] = []
        for copy, rounds in enumerate(per_copy_rounds):
            if r < len(rounds):
                for a, b in rounds[r]:
                    layer.append(to_product(copy, a, b))
        if layer:
            layers.append(layer)
    return layers


@register_router("cartesian", families=("grid", "cartesian_product"))
class CartesianRouter(Router):
    """Locality-aware (or naive) 3-phase routing on ``G1 □ G2``.

    Parameters
    ----------
    locality:
        Use the windowed decomposition + bottleneck assignment (the
        paper's extension); otherwise the naive ACG decomposition.
    both_orientations:
        Also route on ``G2 □ G1`` (Algorithm 1's transpose trick,
        generalized to factor exchange) and keep the shallower schedule.
    compact:
        ASAP-compact the concatenated phases.
    validate:
        Verify every produced schedule.
    """

    name = "cartesian"

    def __init__(
        self,
        locality: bool = True,
        both_orientations: bool = True,
        compact: bool = True,
        window_growth: str = "nested",
        validate: bool = False,
    ) -> None:
        self.locality = locality
        self.both_orientations = both_orientations
        self.compact = compact
        self.window_growth = window_growth
        self.validate = validate

    # ------------------------------------------------------------------
    def _factors(self, graph: Graph) -> tuple[Graph, Graph]:
        """The column and row factors ``(G1, G2)`` of ``graph``."""
        if isinstance(graph, CartesianProduct):
            return graph.g1, graph.g2
        if isinstance(graph, GridGraph):
            return path_graph(graph.n_rows), path_graph(graph.n_cols)
        raise RoutingError(
            f"{self.name} router requires a CartesianProduct (or GridGraph), "
            f"got {type(graph).__name__}"
        )

    def _route_oriented(
        self, factors: tuple[Graph, Graph], perm: Permutation
    ) -> Schedule:
        g1, g2 = factors
        m, n = g1.n_vertices, g2.n_vertices
        N = m * n

        kb = kernels.ACTIVE
        mg = ColumnMultigraph((m, n), perm)
        if self.locality:
            dec = windowed_decomposition(mg, growth=self.window_growth)
            d1 = g1.distance_matrix()
            if (d1 < 0).any():
                raise RoutingError("factor G1 must be connected")
            weights = np.asarray(
                kb.factor_delta_weights(d1, dec.rows_used), dtype=float
            )
            assignment, _ = bottleneck_assignment(weights)
        else:
            dec = naive_decomposition(mg)
            assignment = np.arange(m)
        sig = sigmas_from_decomposition(dec, assignment, (m, n))

        r1 = factor_router_for(g1)
        r2 = factor_router_for(g2)

        dst = perm.targets
        dst_row = dst // n
        dst_col = dst % n
        occ2d = np.arange(N).reshape(m, n)
        layers: list[list[tuple[int, int]]] = []

        # Phase 1: within columns (copies of G1), token at (a, b) -> (sig[a,b], b).
        col_rounds = [r1.route_destinations(sig[:, b]) for b in range(n)]
        layers.extend(
            _merge_rounds(col_rounds, lambda b, a, a2: (a * n + b, a2 * n + b))
        )
        new = np.empty_like(occ2d)
        new[sig, np.broadcast_to(np.arange(n), (m, n))] = occ2d
        occ2d = new

        # Phase 2: within rows (copies of G2), token -> destination column.
        dest_cols = dst_col[occ2d]
        if not (np.sort(dest_cols, axis=1) == np.arange(n)[None, :]).all():
            raise RoutingError(
                "phase-2 precondition violated on product routing"
            )
        row_rounds = [r2.route_destinations(dest_cols[a]) for a in range(m)]
        layers.extend(
            _merge_rounds(row_rounds, lambda a, b, b2: (a * n + b, a * n + b2))
        )
        new = np.empty_like(occ2d)
        new[np.broadcast_to(np.arange(m)[:, None], (m, n)), dest_cols] = occ2d
        occ2d = new

        # Phase 3: within columns, token -> destination row.
        dest_rows = dst_row[occ2d]
        if not (np.sort(dest_rows, axis=0) == np.arange(m)[:, None]).all():
            raise RoutingError(
                "phase-3 precondition violated on product routing"
            )
        col_rounds = [r1.route_destinations(dest_rows[:, b]) for b in range(n)]
        layers.extend(
            _merge_rounds(col_rounds, lambda b, a, a2: (a * n + b, a2 * n + b))
        )
        new = np.empty_like(occ2d)
        new[dest_rows, np.broadcast_to(np.arange(n), (m, n))] = occ2d
        occ2d = new

        if not np.array_equal(dst[occ2d.ravel()], np.arange(N)):
            raise RoutingError("product routing realized the wrong permutation")

        # Layers from _merge_rounds are never empty, so the (u_seq, v_seq)
        # form assemble_layers expects loses nothing.
        swap_layers = [tuple(zip(*layer)) for layer in layers]
        return kb.assemble_layers(N, swap_layers, compact=self.compact)

    def route(self, graph: Graph, perm: Permutation) -> Schedule:
        self._check_sizes(graph, perm)
        g1, g2 = self._factors(graph)
        if self.both_orientations:
            sched, _ = route_both_orientations(
                lambda t, p: self._route_oriented((g2, g1) if t else (g1, g2), p),
                (g1.n_vertices, g2.n_vertices),
                perm,
            )
        else:
            sched = self._route_oriented((g1, g2), perm)
        if self.validate:
            sched.verify(graph, perm)
        return sched
