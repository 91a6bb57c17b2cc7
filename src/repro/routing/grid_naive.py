"""The Alon–Chung–Graham 3-phase grid routing (``GridRoute``) and the naive
baseline router built on it.

``GridRoute(G, pi; sigma_1, ..., sigma_n)`` (paper Section IV) routes in
three rounds:

1. **Column phase** — inside every column ``j`` in parallel, move the token
   at row ``i`` to the intermediate row ``sigma_j(i)``.
2. **Row phase** — inside every row in parallel, move every token to its
   destination column. This is well-defined precisely because the
   ``sigma_j`` were derived from a perfect-matching decomposition of the
   column multigraph: after phase 1, each row holds exactly one token per
   destination column.
3. **Column phase** — inside every column in parallel, move every token to
   its destination row.

Each phase routes paths with odd–even transposition, so every round of the
schedule is a matching of the grid. The *naive* router instantiates the
decomposition arbitrarily (the original [ACG94] choice) and assigns the
``k``-th peeled matching to row ``k`` — exactly the baseline the paper's
locality-aware algorithm improves on.

This module also hosts :func:`route_both_orientations`, the paper's
Algorithm 1 driver of every grid-like router: route column–row–column,
again on the transposed instance (row–column–row, a closed-form vertex
map, no second graph), and keep the shallower schedule.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import kernels
from ..errors import RoutingError
from ..graphs.base import Graph
from ..graphs.grid import GridGraph
from ..matching.decompose import Decomposition, naive_decomposition
from ..matching.multigraph import ColumnMultigraph
from ..perm.permutation import Permutation
from .base import Router, register_router, stage
from .schedule import Schedule

__all__ = [
    "grid_route_with_sigmas",
    "sigmas_from_decomposition",
    "route_both_orientations",
    "NaiveGridRouter",
]


def sigmas_from_decomposition(
    dec: Decomposition, assignment: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Build the intermediate-row matrix from a decomposition + row assignment.

    Parameters
    ----------
    dec:
        Perfect-matching decomposition of the column multigraph.
    assignment:
        ``assignment[k]`` = intermediate row assigned to matching ``k``.
    shape:
        ``(m, n)`` grid shape.

    Returns
    -------
    ``(m, n)`` array ``sig`` with ``sig[i, j]`` = the intermediate row of
    the token that starts at ``(i, j)``; every column is a permutation of
    ``0..m-1`` (validated).

    Raises
    ------
    RoutingError
        If the decomposition/assignment do not cover every token exactly
        once per (column, row) slot.
    """
    m, n = shape
    if len(dec.matchings) != m:
        raise RoutingError(
            f"expected {m} matchings, got {len(dec.matchings)}"
        )
    assignment = np.asarray(assignment, dtype=np.int64)
    if sorted(assignment.tolist()) != list(range(m)):
        raise RoutingError("assignment must be a bijection onto the rows")
    sig = np.full((m, n), -1, dtype=np.int64)
    for k, tokens in enumerate(dec.matchings):
        sig[tokens // n, tokens % n] = assignment[k]
    if not (np.sort(sig, axis=0) == np.arange(m)[:, None]).all():
        raise RoutingError(
            "decomposition does not induce a per-column permutation of rows"
        )
    return sig


def grid_route_with_sigmas(
    shape: tuple[int, int],
    perm: Permutation,
    sigmas: np.ndarray,
    *,
    optimize_parity: bool = True,
    compact: bool = True,
    validate: bool = False,
) -> Schedule:
    """The ``GridRoute`` subroutine: 3-phase routing given the ``sigma_j``.

    Parameters
    ----------
    shape:
        ``(m, n)`` grid shape (vertices numbered row-major).
    perm:
        Permutation to route (token at ``v`` must reach ``perm(v)``).
    sigmas:
        ``(m, n)`` intermediate-row matrix (see
        :func:`sigmas_from_decomposition`).
    optimize_parity:
        Try both OET starting parities per phase, keep the shallower.
    compact:
        ASAP-compact the concatenated phases (lets phase boundaries
        overlap; never increases depth).
    validate:
        Additionally re-simulate and check the realized permutation
        (silent O(size) cost; routers expose it for tests).

    Raises
    ------
    RoutingError
        On malformed ``sigmas`` or (with ``validate``) a semantic failure.
    """
    kb = kernels.ACTIVE
    m, n = shape
    N = m * n
    if perm.size != N:
        raise RoutingError(f"permutation size {perm.size} != grid size {N}")
    sigmas = np.asarray(sigmas, dtype=np.int64)
    if sigmas.shape != (m, n):
        raise RoutingError(f"sigmas shape {sigmas.shape} != grid shape {(m, n)}")
    if not (np.sort(sigmas, axis=0) == np.arange(m)[:, None]).all():
        raise RoutingError("each sigmas column must be a permutation of rows")

    dst = perm.targets
    dst_row = dst // n
    dst_col = dst % n
    swap_layers: list[tuple[list[int], list[int]]] = []

    # ------------------------------------------------------------------
    # Phase 1: within columns, token at (i, j) -> row sigmas[i, j].
    # Paths are the n columns (length m); position p on column c is
    # vertex p*n + c, its downward neighbour p*n + c + n.
    # ------------------------------------------------------------------
    occ2d = np.arange(N).reshape(m, n)  # occ2d[i, j] = token at (i, j)
    swap_layers += kb.oet_swap_layers(
        sigmas, n, 1, n, optimize_parity=optimize_parity
    )
    new = np.empty_like(occ2d)
    new[sigmas, np.broadcast_to(np.arange(n), (m, n))] = occ2d
    occ2d = new

    # ------------------------------------------------------------------
    # Phase 2: within rows, token at (r, j) -> its destination column.
    # Paths are the m rows (length n); OET input is (n, m); position p on
    # row r is vertex r*n + p, its rightward neighbour r*n + p + 1.
    # ------------------------------------------------------------------
    dest_cols = dst_col[occ2d]  # (m, n): destination column per position
    if not (np.sort(dest_cols, axis=1) == np.arange(n)[None, :]).all():
        raise RoutingError(
            "phase-2 precondition violated: a row holds duplicate "
            "destination columns (invalid sigma decomposition)"
        )
    swap_layers += kb.oet_swap_layers(
        dest_cols.T, 1, n, 1, optimize_parity=optimize_parity
    )
    new = np.empty_like(occ2d)
    new[np.broadcast_to(np.arange(m)[:, None], (m, n)), dest_cols] = occ2d
    occ2d = new

    # ------------------------------------------------------------------
    # Phase 3: within columns, token at (i, j) -> its destination row.
    # ------------------------------------------------------------------
    dest_rows = dst_row[occ2d]
    if not (np.sort(dest_rows, axis=0) == np.arange(m)[:, None]).all():
        raise RoutingError(
            "phase-3 precondition violated: a column holds duplicate "
            "destination rows"
        )
    swap_layers += kb.oet_swap_layers(
        dest_rows, n, 1, n, optimize_parity=optimize_parity
    )
    new = np.empty_like(occ2d)
    new[dest_rows, np.broadcast_to(np.arange(n), (m, n))] = occ2d
    occ2d = new

    if validate and not np.array_equal(dst[occ2d.ravel()], np.arange(N)):
        raise RoutingError("grid routing realized the wrong permutation")

    return kb.assemble_layers(N, swap_layers, compact=compact)


def route_both_orientations(
    oriented_route: Callable[[bool, Permutation], Schedule],
    shape: tuple[int, int],
    perm: Permutation,
) -> tuple[Schedule, str]:
    """Algorithm 1: run both orientations, return the shallower schedule.

    ``oriented_route(transposed, perm)`` routes column–row–column on the
    ``m x n`` instance of ``shape`` or on its ``n x m`` transpose, whose
    vertex ``b*m + a`` is the original's ``a*n + b`` (row–column–row on
    the original). Only a transposed schedule strictly shallower than the
    primary one is relabelled back, so ties keep the primary.

    Returns
    -------
    (schedule, orientation):
        ``orientation`` is ``"primary"`` or ``"transposed"``.
    """
    m, n = shape
    ids = np.arange(m * n, dtype=np.int64)
    primary = oriented_route(False, perm)
    transposed = oriented_route(True, perm.relabel(ids.reshape(n, m).T.ravel()))
    if transposed.depth < primary.depth:
        return transposed.relabel(ids.reshape(m, n).T.ravel()), "transposed"
    return primary, "primary"


@register_router("naive", families=("grid",))
class NaiveGridRouter(Router):
    """ACG 3-phase grid routing with arbitrary matching decomposition.

    Parameters
    ----------
    transpose_strategy:
        Also try the transposed orientation and keep the shallower
        schedule (off by default: the historical baseline routes one way).
    optimize_parity, compact, validate:
        Forwarded to :func:`grid_route_with_sigmas`.
    """

    name = "naive"

    def __init__(
        self,
        transpose_strategy: bool = False,
        optimize_parity: bool = True,
        compact: bool = True,
        validate: bool = False,
    ) -> None:
        self.transpose_strategy = transpose_strategy
        self.optimize_parity = optimize_parity
        self.compact = compact
        self.validate = validate

    def _route_oriented(self, shape: tuple[int, int], perm: Permutation) -> Schedule:
        mg = ColumnMultigraph(shape, perm)
        with stage("decomposition"):
            dec = naive_decomposition(mg)
        with stage("swap_scheduling"):
            sig = sigmas_from_decomposition(dec, np.arange(shape[0]), shape)
            return grid_route_with_sigmas(
                shape,
                perm,
                sig,
                optimize_parity=self.optimize_parity,
                compact=self.compact,
                validate=self.validate,
            )

    def route(self, graph: Graph, perm: Permutation) -> Schedule:
        if not isinstance(graph, GridGraph):
            raise RoutingError(
                f"{self.name} router requires a GridGraph, got {type(graph).__name__}"
            )
        self._check_sizes(graph, perm)
        m, n = graph.shape
        if self.transpose_strategy:
            sched, _ = route_both_orientations(
                lambda t, p: self._route_oriented((n, m) if t else (m, n), p),
                (m, n),
                perm,
            )
            return sched
        return self._route_oriented((m, n), perm)
