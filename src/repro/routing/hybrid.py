"""Best-of routers.

Section V of the paper: "Our locality-aware algorithm can always be made
to produce a routing scheme with a smaller or equal depth as opposed to
the naive grid routing algorithm. Otherwise, we can replace the output of
the locality aware algorithm by that of the naive algorithm. This has
virtually no computational overhead."

:class:`BestOfRouter` generalizes that observation: run any set of
routers, keep the shallowest valid schedule. The registered ``"hybrid"``
router combines the locality-aware and naive grid routers (optionally
also ATS, which is *not* free — it dominates the running time — but
provides the depth floor of all implemented methods).
"""

from __future__ import annotations

from typing import Sequence

from ..errors import RoutingError
from ..graphs.base import Graph
from ..perm.permutation import Permutation
from .base import Router, register_router
from .schedule import Schedule

__all__ = ["BestOfRouter", "make_hybrid_router"]


class BestOfRouter(Router):
    """Run several routers; return the schedule with the smallest depth.

    Ties are broken by smaller size (swap count), then by the order the
    routers were supplied in.

    Parameters
    ----------
    routers:
        Non-empty sequence of routers to race.
    name:
        Registry/reporting name.
    """

    def __init__(self, routers: Sequence[Router], name: str = "best-of") -> None:
        if not routers:
            raise RoutingError("BestOfRouter needs at least one router")
        self.routers = list(routers)
        self.name = name

    def route(self, graph: Graph, perm: Permutation) -> Schedule:
        self._check_sizes(graph, perm)
        best: Schedule | None = None
        for router in self.routers:
            sched = router.route(graph, perm)
            if best is None or (sched.depth, sched.size) < (best.depth, best.size):
                best = sched
        assert best is not None
        return best


@register_router("hybrid", families=("grid",))
def make_hybrid_router(include_ats: bool = False, validate: bool = False) -> BestOfRouter:
    """The paper's free fallback: best of locality-aware and naive grid
    routing (optionally also ATS — no longer free, but the depth floor)."""
    from ..token_swap.parallel import TokenSwapRouter
    from .grid_local import LocalGridRouter
    from .grid_naive import NaiveGridRouter

    routers: list[Router] = [
        LocalGridRouter(validate=validate),
        NaiveGridRouter(transpose_strategy=True, validate=validate),
    ]
    if include_ats:
        routers.append(TokenSwapRouter(validate=validate))
    return BestOfRouter(routers, name="hybrid")
