"""Serial swap sequences -> parallel swap schedules.

The paper observes that "the swaps discovered by the token swapping
algorithm produce a routing schedule with depth comparable to our parallel
routing algorithm": a serial swap list parallelizes by ASAP re-timing —
each swap is scheduled in the earliest layer after the previous use of
either endpoint, which preserves the per-qubit swap order (hence the
realized permutation) and groups independent swaps into common layers.

This module packages that conversion and the ATS-backed
:class:`TokenSwapRouter`, the baseline measured in Figures 4 and 5.
"""

from __future__ import annotations

from typing import Sequence

from .. import kernels
from ..errors import RoutingError
from ..graphs.base import Graph
from ..perm.permutation import Permutation
from ..routing.base import Router, register_router
from ..routing.schedule import Schedule
from .ats import approximate_token_swapping

__all__ = ["parallelize_swaps", "TokenSwapRouter"]


def parallelize_swaps(n_vertices: int, swaps: Sequence[tuple[int, int]]) -> Schedule:
    """ASAP-parallelize a serial swap list into a matching schedule."""
    return kernels.ACTIVE.compact_serial_swaps(n_vertices, swaps)


@register_router("ats", families=("any_connected",))
class TokenSwapRouter(Router):
    """Routing-via-matchings adapter around approximate token swapping.

    Parameters
    ----------
    trials:
        Randomized ATS restarts (best kept). ``1`` = deterministic.
    seed:
        Seed for restarts beyond the first.
    compact:
        Parallelize the serial swaps via ASAP re-timing (on by default;
        turning it off yields the one-swap-per-layer serial schedule,
        useful when measuring the serial size objective only).
    validate:
        Verify the produced schedule against the request (for tests).
    """

    name = "ats"

    def __init__(
        self,
        trials: int = 1,
        seed: int | None = 0,
        compact: bool = True,
        validate: bool = False,
    ) -> None:
        if trials < 1:
            raise RoutingError(f"trials must be >= 1, got {trials}")
        self.trials = trials
        self.seed = seed
        self.compact = compact
        self.validate = validate

    def route(self, graph: Graph, perm: Permutation) -> Schedule:
        self._check_sizes(graph, perm)
        swaps = approximate_token_swapping(
            graph, perm, trials=self.trials, seed=self.seed
        )
        if self.compact:
            sched = parallelize_swaps(graph.n_vertices, swaps)
        else:
            sched = Schedule.from_serial_swaps(graph.n_vertices, swaps)
        if self.validate:
            sched.verify(graph, perm)
        return sched
