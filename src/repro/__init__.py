"""repro — Locality-aware qubit routing for grid architectures.

A full reproduction of Banerjee, Liang and Tohid, *Locality-aware Qubit
Routing for the Grid Architecture* (IPPS 2022, arXiv:2203.11333): the
locality-aware grid router (Algorithms 1–2), the Alon–Chung–Graham
baseline, the approximate token swapping comparator, the Cartesian-product
extension, and a self-contained quantum-circuit/transpiler/simulator stack
to exercise them end to end.

Quickstart
----------
>>> from repro import GridGraph, random_permutation, route
>>> grid = GridGraph(6, 6)
>>> perm = random_permutation(grid, seed=7)
>>> schedule = route(grid, perm, method="local")
>>> schedule.verify(grid, perm)   # raises if anything is wrong
>>> schedule.depth <= 3 * 6       # 3 phases of <= n rounds each
True
"""

# Defined before the subpackage imports so service modules can report
# the version (``/healthz``) without a circular import.
__version__ = "1.0.0"

from .errors import (
    CircuitError,
    GraphError,
    MatchingError,
    PermutationError,
    QasmError,
    ReproError,
    RoutingError,
    ScheduleError,
    SimulationError,
    TranspileError,
)
from .graphs import (
    CartesianProduct,
    Graph,
    GridGraph,
    binary_tree,
    complete_graph,
    cycle_graph,
    cylinder_graph,
    ladder_graph,
    path_graph,
    random_tree,
    star_graph,
    torus_graph,
)
from .perm import (
    WORKLOADS,
    PartialPermutation,
    Permutation,
    block_local_permutation,
    complete_partial,
    depth_lower_bound,
    locality_radius,
    make_workload,
    max_displacement,
    mirror_permutation,
    overlapping_block_permutation,
    random_permutation,
    skinny_cycle_permutation,
    swap_count_lower_bound,
    total_displacement,
)
from .routing import (
    BestOfRouter,
    CartesianRouter,
    CompleteRouter,
    CycleRouter,
    LocalGridRouter,
    NaiveGridRouter,
    Router,
    Schedule,
    TreeRouter,
    available_routers,
    describe_routers,
    make_router,
    route,
)
from .token_swap import (
    TokenSwapRouter,
    approximate_token_swapping,
    partial_token_swapping,
)
from .noise import NoiseModel
from .circuit import (
    Gate,
    QuantumCircuit,
    circuit_layers,
    cuccaro_adder,
    ghz,
    lattice_trotter,
    permutation_circuit,
    qft,
    random_circuit,
)
from .sim import circuit_unitary, simulate
from .transpile import TranspileResult, transpile, verify_transpilation
from .bench import check_claims, run_sweep, series_table
from .service import (
    BatchExecutor,
    RouteRequest,
    RouteResult,
    RoutingService,
    ScheduleCache,
    TranspileRequest,
    request_key,
)

__all__ = [
    # errors
    "ReproError",
    "GraphError",
    "PermutationError",
    "MatchingError",
    "RoutingError",
    "ScheduleError",
    "CircuitError",
    "QasmError",
    "TranspileError",
    "SimulationError",
    # graphs
    "Graph",
    "GridGraph",
    "CartesianProduct",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "binary_tree",
    "random_tree",
    "ladder_graph",
    "torus_graph",
    "cylinder_graph",
    # permutations
    "Permutation",
    "PartialPermutation",
    "complete_partial",
    "random_permutation",
    "block_local_permutation",
    "overlapping_block_permutation",
    "skinny_cycle_permutation",
    "mirror_permutation",
    "make_workload",
    "WORKLOADS",
    "total_displacement",
    "max_displacement",
    "depth_lower_bound",
    "swap_count_lower_bound",
    "locality_radius",
    # routing
    "Schedule",
    "Router",
    "route",
    "make_router",
    "available_routers",
    "describe_routers",
    "LocalGridRouter",
    "NaiveGridRouter",
    "CartesianRouter",
    "CycleRouter",
    "CompleteRouter",
    "TreeRouter",
    "BestOfRouter",
    "TokenSwapRouter",
    "approximate_token_swapping",
    "partial_token_swapping",
    "NoiseModel",
    # circuits / simulation / transpilation
    "Gate",
    "QuantumCircuit",
    "circuit_layers",
    "qft",
    "ghz",
    "lattice_trotter",
    "cuccaro_adder",
    "random_circuit",
    "permutation_circuit",
    "simulate",
    "circuit_unitary",
    "transpile",
    "TranspileResult",
    "verify_transpilation",
    # bench harness
    "run_sweep",
    "series_table",
    "check_claims",
    # service layer
    "RoutingService",
    "RouteRequest",
    "RouteResult",
    "TranspileRequest",
    "BatchExecutor",
    "ScheduleCache",
    "request_key",
    "__version__",
]
