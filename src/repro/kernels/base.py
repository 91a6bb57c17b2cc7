"""The kernel contract.

A :class:`KernelBackend` bundles the *hot primitives* of the routing core
— frontier/distance scoring, bipartite matching, odd–even transposition,
token displacement accounting and swap-schedule assembly — behind one
interface. The product implementation is the vectorized numpy kernels
(:mod:`repro.kernels._numpy`: batched BFS layering, frontier-batched
Hopcroft–Karp augmentation that advances every augmenting path one level
per array pass, array reductions, schedule assembly through the
validating builder in :mod:`repro.routing.schedule`).

**Equivalence contract.** The kernels must produce *identical* outputs
to the pure-python reference oracle kept in the test suite
(``tests/kernel_oracle.py``) — not merely valid ones. Routers interleave
kernel calls with shared orchestration, so any divergence (a different
matching, a different tie-break) would change the emitted schedule.
``tests/test_kernels_equiv.py`` enforces byte-identical schedules for
every router with a vectorized path, and per-primitive agreement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from ..routing.schedule import Schedule

__all__ = ["KernelBackend"]


class KernelBackend(ABC):
    """Hot routing primitives behind one interface.

    Array-typed parameters are numpy arrays (the shared orchestration in
    ``repro.routing`` / ``repro.matching`` is array-based); a pure-Python
    implementation converts at the boundary. Return values may be lists
    or arrays — callers normalize with ``np.asarray`` where needed — but
    their *values* are fixed by the equivalence contract (see the module
    docstring).
    """

    # ------------------------------------------------------------------
    # frontier / distance scoring
    # ------------------------------------------------------------------
    @abstractmethod
    def delta_weights(
        self, rows_used: Sequence[Any], n_rows: int
    ) -> Any:
        """The ``Delta(M, r)`` matrix: ``W[k, r] = sum |rows_k - r|``.

        ``rows_used[k]`` holds the ``2n`` source/destination rows of
        matching ``k``; the result is a ``(len(rows_used), n_rows)``
        float matrix.
        """

    @abstractmethod
    def factor_delta_weights(self, dist: Any, rows_used: Sequence[Any]) -> Any:
        """Generalized ``Delta`` for Cartesian products.

        ``dist`` is the ``(m, m)`` factor-graph distance matrix; the
        result is ``W[k, r] = sum_t dist[rows_k[t], r]``.
        """

    # ------------------------------------------------------------------
    # bipartite matching
    # ------------------------------------------------------------------
    @abstractmethod
    def hopcroft_karp(
        self, n_left: int, n_right: int, adj: Sequence[Sequence[int]]
    ) -> tuple[list[int], list[int], int]:
        """Maximum bipartite matching (``match_left, match_right, size``).

        Must be augmenting-order-equivalent to the reference
        implementation in :mod:`repro.matching.hopcroft_karp`: the BFS
        distance labels are canonical, and the DFS must consume ``adj``
        in the given order, so the returned matching is identical to the
        reference's for identical adjacency.
        """

    @abstractmethod
    def bottleneck_feasible(self, weights: Any, threshold: float) -> list[int] | None:
        """One feasibility probe of the bottleneck threshold search.

        Considers the square ``weights`` matrix restricted to entries
        ``<= threshold`` (adjacency in ascending column order per row)
        and returns the left-to-right assignment when a perfect matching
        exists, else ``None``.
        """

    @abstractmethod
    def peel_matching(
        self,
        tokens: Any,
        src_col: Any,
        dst_col: Any,
        cost: Any,
        n_cols: int,
    ) -> Sequence[int] | None:
        """One perfect-matching peel of the column multigraph window.

        For each (source column, destination column) pair, the cheapest
        token by ``(cost, token id)`` represents the pair; support-edge
        adjacency is ordered by first occurrence of the pair in ascending
        token order (the reference dict-insertion order). Returns the
        ``n_cols`` chosen token ids (index = source column) or ``None``
        when the support graph has no perfect matching.
        """

    # ------------------------------------------------------------------
    # path routing (odd–even transposition)
    # ------------------------------------------------------------------
    @abstractmethod
    def oet_swap_layers(
        self,
        dest: Any,
        pos_stride: int,
        path_stride: int,
        swap_offset: int,
        optimize_parity: bool = True,
        start_parity: int = 0,
    ) -> list[tuple[Any, Any]]:
        """Batched OET over parallel paths, mapped to graph vertex ids.

        ``dest`` is the ``(L, k)`` destination-index matrix (each column
        a permutation of ``0..L-1``). A compare-exchange at position
        ``p`` on path ``c`` becomes the vertex swap
        ``(u, u + swap_offset)`` with ``u = p * pos_stride +
        c * path_stride``. Returns one ``(u_seq, v_seq)`` pair per
        non-empty round; with ``optimize_parity`` both starting parities
        are tried and the shallower result returned (ties favour
        ``start_parity``).
        """

    # ------------------------------------------------------------------
    # token position/target tracking
    # ------------------------------------------------------------------
    @abstractmethod
    def total_displacement(self, dist: Any, dest: Sequence[int]) -> int:
        """``sum_v dist[v, dest[v]]`` — the token-swapping lower-bound mass."""

    # ------------------------------------------------------------------
    # schedule assembly
    # ------------------------------------------------------------------
    @abstractmethod
    def assemble_layers(
        self,
        n_vertices: int,
        swap_layers: Sequence[tuple[Any, Any]],
        compact: bool = True,
    ) -> "Schedule":
        """Validate + canonicalize swap layers, optionally ASAP-compacted.

        ``swap_layers`` holds ``(u_seq, v_seq)`` pairs as produced by
        :meth:`oet_swap_layers` (concatenated across routing phases).
        Returns the :class:`~repro.routing.schedule.Schedule` equal to
        ``Schedule(n, layers)`` (plus ``.compact()`` when requested).

        Raises
        ------
        ScheduleError
            On out-of-range endpoints, self-swaps, or vertex reuse
            within a layer.
        """

    @abstractmethod
    def compact_serial_swaps(
        self, n_vertices: int, swaps: Sequence[tuple[int, int]]
    ) -> "Schedule":
        """ASAP-parallelize a serial swap list into a schedule.

        Returns the :class:`~repro.routing.schedule.Schedule` that
        :meth:`~repro.routing.schedule.Schedule.compact` makes of the
        one-swap-per-layer ``Schedule.from_serial_swaps(n, swaps)``.
        """
