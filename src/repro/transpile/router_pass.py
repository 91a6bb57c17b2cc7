"""The routing pass: make every two-qubit gate act on coupled qubits.

This is the "alternating sequence of mapping and routing problems" frame
of the paper's Section II, instantiated with any
:class:`~repro.routing.base.Router` as the routing primitive — the
drop-in property the paper advertises ("our routing algorithm can be used
in any transpiler that uses the above framework").

Loop structure:

1. Execute everything executable: single-qubit gates always; two-qubit
   gates whose logical qubits currently sit on coupled physical qubits.
2. If unexecuted gates remain, take the DAG front layer (all blocked
   two-qubit gates), choose for a maximal subset of them *meeting edges*
   (a free coupled pair minimizing the combined travel distance), state
   the movement as a partial permutation of physical vertices, complete
   it with the ``"minimal"`` don't-care strategy, and hand the resulting
   full permutation to the router. Its schedule becomes SWAP gates; the
   placement is updated; go to 1.

Every iteration makes at least one blocked gate adjacent, so the pass
terminates after at most one routing call per two-qubit gate (far fewer
in practice: a routing call typically unblocks a whole layer).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import TranspileError
from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import CircuitDag
from ..graphs.base import Graph
from ..perm.partial import PartialPermutation, complete_partial
from ..perm.permutation import Permutation
from ..routing.base import Router
from ..routing.schedule import Schedule

__all__ = ["RoutingPassResult", "route_circuit"]


@dataclass
class RoutingPassResult:
    """Outcome of :func:`route_circuit`.

    Attributes
    ----------
    circuit:
        The physical circuit (gates on physical qubit indices, SWAPs
        inserted). Width equals the device size.
    initial_mapping, final_mapping:
        Logical-to-physical placement before and after execution.
    physical_permutation:
        Composition of all routing permutations: the token that started
        on physical wire ``w`` ends on ``physical_permutation(w)``
        (identity when no routing happened). Used by the verifier to
        track don't-care wires.
    n_swaps:
        Total SWAP gates inserted.
    swap_depth:
        Sum of the routed schedules' depths (layers of parallel SWAPs).
    routing_invocations:
        Number of router calls.
    routing_time:
        Wall-clock seconds spent inside the router.
    """

    circuit: QuantumCircuit
    initial_mapping: np.ndarray
    final_mapping: np.ndarray
    physical_permutation: Permutation
    n_swaps: int = 0
    swap_depth: int = 0
    routing_invocations: int = 0
    routing_time: float = 0.0
    schedules: list[Schedule] = field(default_factory=list)


def _choose_meeting_edges(
    blocked: list[tuple[int, int]],
    graph: Graph,
) -> dict[int, int]:
    """Pick vertex-disjoint coupled pairs for blocked gates.

    ``blocked`` holds current physical positions ``(pa, pb)`` per gate.
    Returns a movement map ``{source physical -> target physical}`` for a
    maximal subset of gates (greedy, closest-assignment-first). Positions
    already adjacent are never passed in here.
    """
    dist = graph.distance_matrix()
    used: set[int] = set()
    move: dict[int, int] = {}
    # Sort gates by how far apart they currently are (closest first) so
    # cheap fixes are not blocked by expensive ones grabbing their edges.
    order = sorted(range(len(blocked)), key=lambda i: dist[blocked[i][0], blocked[i][1]])
    for i in order:
        pa, pb = blocked[i]
        if pa in used or pb in used:
            continue
        best: tuple[int, int, int] | None = None
        for (u, v) in graph.edges:
            if u in used or v in used or u in move or v in move:
                continue
            # Orient the edge both ways.
            c1 = dist[pa, u] + dist[pb, v]
            c2 = dist[pa, v] + dist[pb, u]
            cost, tu, tv = (c1, u, v) if c1 <= c2 else (c2, v, u)
            if best is None or cost < best[0]:
                best = (int(cost), tu, tv)
        if best is None:
            continue
        _, tu, tv = best
        # A source that is also someone's chosen target is fine — the
        # permutation completion handles it — but targets must be unique
        # and each source moves once.
        move[pa] = tu
        move[pb] = tv
        used.update((pa, pb, tu, tv))
    return move


def route_circuit(
    circuit: QuantumCircuit,
    graph: Graph,
    router: Router,
    initial_mapping: np.ndarray,
    completion: str = "minimal",
) -> RoutingPassResult:
    """Insert SWAPs so every 2-qubit gate acts on coupled qubits.

    Parameters
    ----------
    circuit:
        Logical circuit (1- and 2-qubit gates, barriers, measures).
    graph:
        Coupling graph (connected).
    router:
        Any :class:`~repro.routing.base.Router`.
    initial_mapping:
        Array: logical qubit -> starting physical vertex (injective).
    completion:
        Don't-care completion strategy for partial permutations, or
        ``"partial-ats"`` to skip completion entirely and route each
        movement map with don't-care-aware partial token swapping
        (:func:`repro.token_swap.partial_ats.partial_token_swapping`) —
        typically fewer SWAPs, uncontrolled don't-care placement.

    Raises
    ------
    TranspileError
        On gates of arity > 2, a disconnected graph, or sizing errors.
    """
    if circuit.max_gate_arity() > 2:
        raise TranspileError(
            "routing requires a 1q/2q-gate circuit; decompose "
            f"{circuit.max_gate_arity()}-qubit gates first"
        )
    n_phys = graph.n_vertices
    if circuit.n_qubits > n_phys:
        raise TranspileError(
            f"circuit needs {circuit.n_qubits} qubits but device has {n_phys}"
        )
    if not graph.is_connected():
        raise TranspileError("coupling graph must be connected")

    pos = np.asarray(initial_mapping, dtype=np.int64).copy()
    dag = CircuitDag.from_circuit(circuit)
    executed: set[int] = set()
    phys = QuantumCircuit(n_phys, name=f"{circuit.name}@{graph.name}")
    result = RoutingPassResult(
        circuit=phys,
        initial_mapping=pos.copy(),
        final_mapping=pos,  # updated at the end
        physical_permutation=Permutation.identity(n_phys),
    )
    total_perm = np.arange(n_phys)

    n_gates = len(circuit)
    guard = 0
    while len(executed) < n_gates:
        guard += 1
        if guard > 4 * n_gates + 16:  # pragma: no cover - defensive
            raise TranspileError("routing pass failed to make progress")

        # 1. Drain everything executable.
        progressed = True
        while progressed:
            progressed = False
            for i in dag.front_layer(executed):
                g = circuit[i]
                if g.name == "barrier":
                    phys.append("barrier", tuple(int(pos[q]) for q in g.qubits))
                    executed.add(i)
                    progressed = True
                elif g.n_qubits == 1:
                    phys.append(g.name, (int(pos[g.qubits[0]]),), g.params)
                    executed.add(i)
                    progressed = True
                else:
                    pa, pb = int(pos[g.qubits[0]]), int(pos[g.qubits[1]])
                    if graph.has_edge(pa, pb):
                        phys.append(g.name, (pa, pb), g.params)
                        executed.add(i)
                        progressed = True
        if len(executed) == n_gates:
            break

        # 2. Route the blocked front layer.
        front = dag.front_layer(executed)
        blocked = [
            (int(pos[circuit[i].qubits[0]]), int(pos[circuit[i].qubits[1]]))
            for i in front
        ]
        move = _choose_meeting_edges(blocked, graph)
        if not move:  # pragma: no cover - defensive
            raise TranspileError("no meeting edge found for blocked gates")
        partial = PartialPermutation(n_phys, move)
        t0 = time.perf_counter()
        if completion == "partial-ats":
            from ..token_swap.parallel import parallelize_swaps
            from ..token_swap.partial_ats import partial_token_swapping

            swaps, final = partial_token_swapping(graph, partial)
            sched = parallelize_swaps(n_phys, swaps)
            perm = Permutation(final)
        else:
            perm = complete_partial(partial, graph, strategy=completion)
            sched = router.route(graph, perm)
        result.routing_time += time.perf_counter() - t0
        result.routing_invocations += 1
        result.schedules.append(sched)
        result.n_swaps += sched.size
        result.swap_depth += sched.depth
        for layer in sched:
            for u, v in layer:
                phys.swap(int(u), int(v))

        # Update placements: a token at physical w moves to perm(w).
        pos = perm.targets[pos]
        total_perm = perm.targets[total_perm]

    result.final_mapping = pos
    result.physical_permutation = Permutation(total_perm)
    return result
