"""Routing on trees (and other irregular factors) via token swapping.

The paper's Cartesian-product extension replaces odd–even transposition
with "routing algorithms for G1 and G2". For factor graphs without a
special-purpose router (trees, stars, arbitrary connected graphs) we use
the approximate token swapping primitive followed by ASAP
parallelization — correct on any connected graph, and on trees the ATS
approximation analysis is strongest (the problem remains NP-hard even on
trees, but happy-swap chains along tree paths behave exactly as in the
Miltzow et al. analysis).

A dedicated ``TreeRouter`` name is kept (rather than aliasing ``"ats"``)
so transpilers selecting per-factor routers by structure read naturally;
it also validates that its input really is a tree, catching wiring bugs
in product-router composition early.
"""

from __future__ import annotations

from ..errors import RoutingError
from ..graphs.base import Graph
from ..perm.permutation import Permutation
from ..token_swap.ats import approximate_token_swapping
from ..token_swap.parallel import parallelize_swaps
from .base import Router, register_router
from .schedule import Schedule

__all__ = ["TreeRouter"]


@register_router("tree", families=("tree",))
class TreeRouter(Router):
    """Token-swapping-based routing restricted to tree coupling graphs.

    Parameters
    ----------
    trials:
        Randomized ATS restarts (best kept).
    seed:
        Restart seed.
    validate:
        Verify the final schedule.
    """

    name = "tree"

    def __init__(
        self, trials: int = 1, seed: int | None = 0, validate: bool = False
    ) -> None:
        self.trials = trials
        self.seed = seed
        self.validate = validate

    def route(self, graph: Graph, perm: Permutation) -> Schedule:
        self._check_sizes(graph, perm)
        n = graph.n_vertices
        if graph.n_edges != n - 1 or not graph.is_connected():
            raise RoutingError(
                f"{self.name} router requires a tree, got {graph.name} "
                f"({n} vertices, {graph.n_edges} edges)"
            )
        swaps = approximate_token_swapping(
            graph, perm, trials=self.trials, seed=self.seed
        )
        sched = parallelize_swaps(n, swaps)
        if self.validate:
            sched.verify(graph, perm)
        return sched
