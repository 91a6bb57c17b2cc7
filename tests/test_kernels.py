"""Kernel installation and router-API surface tests.

Covers the one product kernel instance (``repro.kernels.ACTIVE``) and
the oracle swap the equivalence suite stands on, :func:`make_router`
argument validation, :func:`repro.describe_routers` structured metadata
and the explicit ``profiler=`` kwarg. Kernel *equivalence* lives in
``test_kernels_equiv.py``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from kernel_oracle import PythonKernelBackend, oracle_kernels

import repro.kernels
from repro import (
    CartesianProduct,
    GridGraph,
    available_routers,
    describe_routers,
    make_router,
    random_permutation,
    route,
)
from repro.errors import RoutingError
from repro.graphs import path_graph
from repro.kernels import KernelBackend, NumpyKernelBackend
from repro.profiling import StageProfiler


class _CountingOracle(PythonKernelBackend):
    """The oracle, counting which kernels the routers call."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()

    def __getattribute__(self, name: str):
        if name in KernelBackend.__abstractmethods__:
            object.__getattribute__(self, "calls")[name] += 1
        return object.__getattribute__(self, name)


def _route_on_oracle(router, graph, perm) -> Counter:
    """Route ``perm`` with the counting oracle installed; its call counts."""
    with oracle_kernels(_CountingOracle()) as oracle:
        router.route(graph, perm).verify(graph, perm)
    return oracle.calls


# ----------------------------------------------------------------------
# the installed kernels
# ----------------------------------------------------------------------
class TestResolution:
    def test_ambient_prefers_numpy(self):
        assert type(repro.kernels.ACTIVE) is NumpyKernelBackend

    def test_python_always_available(self):
        with oracle_kernels() as oracle:
            assert repro.kernels.ACTIVE is oracle
            grid = GridGraph(3, 3)
            perm = random_permutation(grid, seed=1)
            route(grid, perm, method="local").verify(grid, perm)
        assert type(repro.kernels.ACTIVE) is NumpyKernelBackend

    def test_instance_passthrough(self):
        # A router built before the swap still runs on the swapped-in
        # instance: routers read the kernels when they run.
        router = make_router("local")
        grid = GridGraph(4, 4)
        calls = _route_on_oracle(router, grid, random_permutation(grid, seed=2))
        assert calls["peel_matching"] and calls["assemble_layers"]

    def test_protocol_is_abstract(self):
        with pytest.raises(TypeError):
            KernelBackend()  # type: ignore[abstract]


class TestBackendMetadata:
    def test_set_backend_unknown(self):
        # Routers take no kernel selection: the argument is unknown.
        with pytest.raises(RoutingError, match="unknown argument 'backend'"):
            make_router("local", backend="fortran")


# ----------------------------------------------------------------------
# make_router argument validation (satellite: wrapped TypeError)
# ----------------------------------------------------------------------
class TestMakeRouterValidation:
    def test_unknown_router(self):
        with pytest.raises(RoutingError, match="unknown router"):
            make_router("teleport")

    def test_unknown_kwarg_wrapped(self):
        with pytest.raises(RoutingError) as exc:
            make_router("local", turbo=True)
        assert "local" in str(exc.value)
        assert "turbo" in str(exc.value)
        assert isinstance(exc.value.__cause__, TypeError)

    def test_known_kwargs_still_pass(self):
        router = make_router("local", transpose_strategy=False)
        grid = GridGraph(3, 3)
        perm = random_permutation(grid, seed=2)
        router.route(grid, perm).verify(grid, perm)


# ----------------------------------------------------------------------
# describe_routers (satellite: structured metadata)
# ----------------------------------------------------------------------
class TestDescribeRouters:
    def test_covers_registry(self):
        infos = describe_routers()
        assert [i.name for i in infos] == available_routers()

    def test_grid_routers_have_kernels(self):
        by_name = {i.name: i for i in describe_routers()}
        grid = GridGraph(4, 4)
        perm = random_permutation(grid, seed=3)
        for name in ("local", "naive", "hybrid"):
            assert "grid" in by_name[name].families
            assert _route_on_oracle(make_router(name), grid, perm), name
        prod = CartesianProduct(path_graph(3), path_graph(4))
        calls = _route_on_oracle(
            make_router("cartesian"), prod, random_permutation(prod, seed=3)
        )
        assert calls["factor_delta_weights"] and calls["assemble_layers"]

    def test_summaries_nonempty(self):
        for info in describe_routers():
            assert info.summary, info.name


# ----------------------------------------------------------------------
# explicit profiler kwarg (satellite: API redesign)
# ----------------------------------------------------------------------
class TestProfilerKwarg:
    def test_route_profiler(self):
        prof = StageProfiler()
        grid = GridGraph(4, 4)
        perm = random_permutation(grid, seed=7)
        route(grid, perm, method="local", profiler=prof)
        stages = prof.as_dict()
        assert stages, "profiler saw no stages"
        assert any("matching" in k or "phase" in k for k in stages)

    def test_route_partial_profiler(self):
        from repro.perm import PartialPermutation

        prof = StageProfiler()
        grid = GridGraph(3, 3)
        partial = PartialPermutation(9, {0: 8, 8: 0})
        router = make_router("local")
        sched = router.route_partial(grid, partial, profiler=prof)
        assert prof.as_dict()
        assert sched.n_vertices == 9
