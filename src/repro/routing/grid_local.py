"""``LocalGridRoute`` — the paper's locality-aware grid routing algorithm.

This is the primary contribution of the reproduced paper (Algorithms 1
and 2). It differs from the naive ACG router in exactly two places, both
in how the column-phase intermediates are chosen:

1. **Windowed matching search** (Algorithm 2, lines 3–18): perfect
   matchings of the column multigraph are peeled from row windows of
   doubling width, so each matching consists of tokens whose source rows
   are close together (see
   :func:`repro.matching.decompose.windowed_decomposition`).
2. **Bottleneck row assignment** (lines 19–23): each matching ``M`` is
   assigned the intermediate row ``r`` by a bottleneck-optimal perfect
   matching on the complete bipartite graph weighted by
   ``Delta(M, r) = sum_t |row(t) - r| + |row(pi(t)) - r|`` — tokens are
   parked in rows near both their sources and destinations, so phase 1
   and phase 3 stay shallow on local permutations.

The routing itself is the shared 3-phase ``GridRoute``; Algorithm 1 runs
it in both grid orientations and keeps the shallower schedule.

The router optionally falls back to the naive decomposition when that
happens to be shallower (``fallback_naive=True``), implementing the
paper's remark that the locality-aware router "can always be made to
produce a routing scheme with a smaller or equal depth as opposed to the
naive grid routing algorithm ... with virtually no computational
overhead".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..errors import RoutingError
from ..graphs.base import Graph
from ..graphs.grid import GridGraph
from ..matching.bottleneck import bottleneck_assignment
from ..matching.decompose import windowed_decomposition
from ..matching.multigraph import ColumnMultigraph
from ..perm.permutation import Permutation
from .base import Router, register_router, stage
from .grid_naive import (
    NaiveGridRouter,
    grid_route_with_sigmas,
    route_both_orientations,
    sigmas_from_decomposition,
)
from .schedule import Schedule

__all__ = ["LocalGridRouter", "LocalRouteInfo", "delta_weights"]


def delta_weights(rows_used: list[np.ndarray], n_rows: int) -> np.ndarray:
    """The ``Delta(M, r)`` weight matrix of Algorithm 2.

    Parameters
    ----------
    rows_used:
        Per matching, the ``2n`` source/destination rows of its tokens
        (as produced by
        :meth:`repro.matching.multigraph.ColumnMultigraph.matching_rows`).
    n_rows:
        Number of grid rows ``m``.

    Returns
    -------
    ``(len(rows_used), n_rows)`` float array;
    ``W[k, r] = sum |rows_k - r|``.
    """
    return np.asarray(kernels.ACTIVE.delta_weights(rows_used, n_rows), dtype=float)


@dataclass
class LocalRouteInfo:
    """Diagnostics from a :class:`LocalGridRouter` run (for ablations).

    Attributes
    ----------
    orientation:
        ``"primary"`` (column–row–column) or ``"transposed"``.
    depth:
        Depth of the returned schedule.
    depth_primary, depth_transposed:
        Depths of the two orientation candidates (``-1`` when an
        orientation was not attempted).
    window_widths:
        Window width at which each perfect matching was discovered, for
        the chosen orientation.
    bottleneck:
        The optimal MCBBM bottleneck value ``max_k Delta(M_k, r_k)``.
    used_naive_fallback:
        Whether the naive decomposition produced the returned schedule.
    """

    orientation: str
    depth: int
    depth_primary: int
    depth_transposed: int
    window_widths: list[int]
    bottleneck: float
    used_naive_fallback: bool = False


@register_router("local", families=("grid",))
class LocalGridRouter(Router):
    """The paper's locality-aware router (Algorithms 1 + 2).

    Parameters
    ----------
    transpose_strategy:
        Run both orientations and keep the shallower result (Algorithm 1).
        Default True, as in the paper.
    optimize_parity:
        Try both OET starting parities per phase.
    compact:
        ASAP-compact the 3-phase schedule.
    fallback_naive:
        Also compute the naive-decomposition schedule and return it when
        shallower (the paper's free fallback).
    window_growth:
        ``"nested"`` (default) or ``"paper"`` — see
        :func:`repro.matching.decompose.windowed_decomposition`.
    assignment:
        How matchings are assigned to intermediate rows:

        * ``"mcbbm"`` (default) — the paper's bottleneck matching on the
          ``Delta`` weights (Algorithm 2, line 20);
        * ``"order"`` — matching ``k`` goes to row ``k`` (isolates the
          value of the MCBBM step for the ablation benchmark: windowed
          peeling alone vs peeling + bottleneck assignment).
    refine_assignment:
        Refine the bottleneck-optimal row assignment by total weight
        (see :func:`repro.matching.bottleneck.bottleneck_assignment`).
    validate:
        Re-simulate every produced schedule (for tests).
    """

    name = "local"

    def __init__(
        self,
        transpose_strategy: bool = True,
        optimize_parity: bool = True,
        compact: bool = True,
        fallback_naive: bool = False,
        window_growth: str = "nested",
        assignment: str = "mcbbm",
        refine_assignment: bool = True,
        validate: bool = False,
    ) -> None:
        if assignment not in ("mcbbm", "order"):
            raise RoutingError(f"unknown assignment strategy {assignment!r}")
        self.transpose_strategy = transpose_strategy
        self.optimize_parity = optimize_parity
        self.compact = compact
        self.fallback_naive = fallback_naive
        self.window_growth = window_growth
        self.assignment = assignment
        self.refine_assignment = refine_assignment
        self.validate = validate

    # ------------------------------------------------------------------
    def _route_oriented(
        self, shape: tuple[int, int], perm: Permutation
    ) -> tuple[Schedule, list[int], float]:
        """LocalGridRoute on a fixed orientation of an ``m x n`` grid.

        Returns (schedule, window widths, MCBBM bottleneck).
        """
        m, _ = shape
        mg = ColumnMultigraph(shape, perm)
        with stage("decomposition"):
            dec = windowed_decomposition(mg, growth=self.window_growth)
        with stage("bottleneck_assignment"):
            if self.assignment == "order":
                assignment = np.arange(m)
                bottleneck = float(
                    max(np.abs(ru - r).sum() for r, ru in enumerate(dec.rows_used))
                )
            else:
                weights = delta_weights(dec.rows_used, m)
                assignment, bottleneck = bottleneck_assignment(
                    weights, refine=self.refine_assignment
                )
        with stage("swap_scheduling"):
            sig = sigmas_from_decomposition(dec, assignment, shape)
            sched = grid_route_with_sigmas(
                shape,
                perm,
                sig,
                optimize_parity=self.optimize_parity,
                compact=self.compact,
                validate=self.validate,
            )
        return sched, dec.window_widths, bottleneck

    def route_with_info(
        self, grid: Graph, perm: Permutation
    ) -> tuple[Schedule, LocalRouteInfo]:
        """Route and return diagnostics (see :class:`LocalRouteInfo`)."""
        if not isinstance(grid, GridGraph):
            raise RoutingError(
                f"{self.name} router requires a GridGraph, got {type(grid).__name__}"
            )
        self._check_sizes(grid, perm)
        m, n = grid.shape
        # Per orientation (keyed by ``transposed``): depth, widths, bottleneck.
        runs: dict[bool, tuple[int, list[int], float]] = {}

        def oriented(transposed: bool, p: Permutation) -> Schedule:
            sched, widths, bottleneck = self._route_oriented(
                (n, m) if transposed else (m, n), p
            )
            runs[transposed] = (sched.depth, widths, bottleneck)
            return sched

        if self.transpose_strategy:
            sched, orientation = route_both_orientations(oriented, (m, n), perm)
        else:
            sched, orientation = oriented(False, perm), "primary"
        _, widths, bottleneck = runs[orientation == "transposed"]
        info = LocalRouteInfo(
            orientation=orientation,
            depth=sched.depth,
            depth_primary=runs[False][0],
            depth_transposed=runs[True][0] if True in runs else -1,
            window_widths=widths,
            bottleneck=bottleneck,
        )

        if self.fallback_naive:
            naive = NaiveGridRouter(
                transpose_strategy=self.transpose_strategy,
                optimize_parity=self.optimize_parity,
                compact=self.compact,
                validate=self.validate,
            )
            naive_sched = naive.route(grid, perm)
            if naive_sched.depth < sched.depth:
                sched = naive_sched
                info.depth = naive_sched.depth
                info.used_naive_fallback = True
        return sched, info

    def route(self, graph: Graph, perm: Permutation) -> Schedule:
        sched, _ = self.route_with_info(graph, perm)
        return sched
