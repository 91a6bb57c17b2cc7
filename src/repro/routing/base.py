"""Router protocol and registry.

Every routing algorithm in this package — the paper's locality-aware grid
router, the ACG baseline, the token-swapping baseline, the Cartesian
product generalization — implements the same tiny interface: consume a
coupling graph and a permutation, produce a :class:`~repro.routing.schedule.Schedule`.
This is the "drop-in primitive" property the paper emphasizes ("our routing
algorithm can be used in any transpiler that uses the above framework").

The registry maps short names (``"local"``, ``"naive"``, ``"ats"``,
``"hybrid"``, ...) to router factories so benchmarks and the transpiler can
select routers from configuration strings; :func:`describe_routers` exposes
the structured metadata behind those names (supported graph families).

Routers dispatch their hot primitives to the kernels in
:mod:`repro.kernels`.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..errors import RoutingError
from ..graphs.base import Graph
from ..perm.permutation import Permutation

# Re-exported so service-layer code can install a per-request profiler
# around any Router call without importing the top-level module itself.
# The implementation lives in ``repro.profiling`` (stdlib only) because
# ``repro.matching`` instruments its own phases and must not import the
# routing package back.
from ..profiling import StageProfiler, profile, stage
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..perm.partial import PartialPermutation

__all__ = [
    "Router",
    "RouterInfo",
    "register_router",
    "make_router",
    "available_routers",
    "describe_routers",
    "route",
    "StageProfiler",
    "profile",
    "stage",
]


class Router(ABC):
    """Abstract routing algorithm: permutation in, swap schedule out."""

    #: Short human-readable identifier (used in benchmark tables).
    name: str = "router"

    @abstractmethod
    def route(self, graph: Graph, perm: Permutation) -> Schedule:
        """Compute a swap schedule realizing ``perm`` on ``graph``.

        Implementations must return a schedule such that
        ``schedule.verify(graph, perm)`` passes.

        Raises
        ------
        RoutingError
            If the router does not support the given graph or fails to
            produce a valid schedule.
        """

    def __call__(self, graph: Graph, perm: Permutation) -> Schedule:
        return self.route(graph, perm)

    def route_partial(
        self,
        graph: Graph,
        partial: "PartialPermutation",
        completion: str = "minimal",
        profiler: StageProfiler | None = None,
    ) -> Schedule:
        """Route a partial permutation (the paper's ``f : S -> R``).

        The transpiler setting: only some qubits have destinations; the
        rest are don't-cares. The partial map is completed to a full
        permutation (strategy per
        :func:`repro.perm.partial.complete_partial`) and routed. The
        returned schedule moves every constrained token from its source
        to its destination; don't-care tokens end wherever the
        completion put them.

        Parameters
        ----------
        profiler:
            Optional :class:`StageProfiler` installed for the duration of
            the call. Relying solely on the ambient
            :func:`~repro.profiling.profile` context manager is
            deprecated in favour of this explicit kwarg; the ambient form
            keeps working.
        """
        from ..perm.partial import complete_partial

        if profiler is not None:
            with profile(profiler):
                return self.route_partial(graph, partial, completion)
        perm = complete_partial(partial, graph, strategy=completion)
        return self.route(graph, perm)

    def _check_sizes(self, graph: Graph, perm: Permutation) -> None:
        if graph.n_vertices != perm.size:
            raise RoutingError(
                f"{self.name}: permutation size {perm.size} does not match "
                f"graph size {graph.n_vertices}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(frozen=True)
class RouterInfo:
    """Structured registry metadata for one router.

    Attributes
    ----------
    name:
        Registry name (what :func:`make_router` accepts).
    summary:
        One-line description (first docstring line of the factory).
    families:
        Graph families the router supports (``"grid"``,
        ``"cartesian_product"``, ``"tree"``, ``"cycle"``, ``"complete"``,
        ``"any_connected"``).
    """

    name: str
    summary: str
    families: tuple[str, ...]


@dataclass(frozen=True)
class _Registration:
    factory: Callable[..., Router]
    families: tuple[str, ...]


_REGISTRY: dict[str, _Registration] = {}


def register_router(
    name: str,
    *,
    families: tuple[str, ...] = (),
) -> Callable[[Callable[..., Router]], Callable[..., Router]]:
    """Class/factory decorator adding a router under ``name``.

    ``families`` feeds :func:`describe_routers` (see :class:`RouterInfo`).
    """

    def deco(factory: Callable[..., Router]) -> Callable[..., Router]:
        if name in _REGISTRY:
            raise RoutingError(f"router {name!r} already registered")
        _REGISTRY[name] = _Registration(factory=factory, families=tuple(families))
        return factory

    return deco


_BAD_KWARG = re.compile(r"unexpected keyword argument '([^']+)'")


def make_router(name: str, **kwargs) -> Router:
    """Instantiate a registered router by name.

    Parameters
    ----------
    name:
        Registry name (see :func:`available_routers`).
    **kwargs:
        Forwarded to the router factory.

    Raises
    ------
    RoutingError
        On an unknown name, or when the factory rejects an argument (the
        raw ``TypeError`` is wrapped, naming the router and the bad
        argument).
    """
    try:
        registration = _REGISTRY[name]
    except KeyError:
        raise RoutingError(
            f"unknown router {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    try:
        return registration.factory(**kwargs)
    except TypeError as exc:
        match = _BAD_KWARG.search(str(exc))
        detail = (
            f"unknown argument {match.group(1)!r}" if match else str(exc)
        )
        raise RoutingError(f"router {name!r}: {detail}") from exc


def available_routers() -> list[str]:
    """Registered router names, sorted."""
    return sorted(_REGISTRY)


def describe_routers() -> list[RouterInfo]:
    """Structured metadata for every registered router, sorted by name.

    The structured companion to :func:`available_routers` — use it to
    discover which graph families a router accepts.
    """
    out: list[RouterInfo] = []
    for name in sorted(_REGISTRY):
        registration = _REGISTRY[name]
        doc = registration.factory.__doc__ or ""
        summary = doc.strip().splitlines()[0].strip() if doc.strip() else ""
        out.append(
            RouterInfo(
                name=name,
                summary=summary,
                families=registration.families,
            )
        )
    return out


def route(
    graph: Graph,
    perm: Permutation,
    method: str = "local",
    *,
    profiler: StageProfiler | None = None,
    **kwargs,
) -> Schedule:
    """One-shot convenience: route ``perm`` on ``graph`` with router ``method``.

    Parameters
    ----------
    profiler:
        Optional :class:`StageProfiler` installed for the duration of the
        call. Relying solely on the ambient
        :func:`~repro.profiling.profile` context manager is deprecated in
        favour of this explicit kwarg; the ambient form keeps working.
    """
    router = make_router(method, **kwargs)
    if profiler is not None:
        with profile(profiler):
            return router.route(graph, perm)
    return router.route(graph, perm)
