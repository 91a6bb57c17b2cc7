"""The pure-python kernel oracle and the context manager that installs it.

Semantic ground truth for :mod:`repro.kernels`: these kernels either
delegate to the original reference module (Hopcroft–Karp) or are direct
loop transcriptions of the routers' original code paths. Schedule
assembly validates, canonicalizes and ASAP-compacts nested tuples
swap by swap (:func:`canonical_layers`, :func:`asap_layers`), never
through :class:`~repro.routing.schedule.Schedule`'s array code, which
``test_kernels_equiv.py`` also checks against these tuple functions.
The numpy kernels are pinned to this oracle by ``test_kernels_equiv.py``
and by ``benchmarks/bench_core.py``, so a behavioural change here is a
semantic change of the contract.

Array arguments are converted to plain lists at the boundary; all inner
loops are numpy-free. :func:`oracle_kernels` swaps the oracle in for the
product instance (``repro.kernels.ACTIVE``) for the duration of a block,
in this process only.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterable, Iterator, Sequence

import repro.kernels
from repro.errors import ScheduleError
from repro.kernels import KernelBackend
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.routing.schedule import Schedule

__all__ = [
    "PythonKernelBackend",
    "asap_layers",
    "canonical_layers",
    "oracle_kernels",
]


def _as_int_list(seq: Any) -> list[int]:
    """Materialize an array-like of integers as a plain list of ints."""
    if hasattr(seq, "tolist"):
        return seq.tolist()
    return [int(x) for x in seq]


def _oet_rounds(dest_rows: list[list[int]], start_parity: int) -> list[list[tuple[int, int]]]:
    """Pure-Python batched OET; mirrors ``oet_rounds_batched`` exactly.

    ``dest_rows`` is the ``(L, k)`` destination matrix as nested lists.
    Returns non-empty rounds of ``(position, path)`` swaps, in the same
    order the vectorized version emits them (position-major, then path).
    """
    L = len(dest_rows)
    k = len(dest_rows[0]) if L else 0
    if L <= 1 or k == 0:
        return []

    def is_sorted(D: list[list[int]]) -> bool:
        return all(D[i][c] == i for i in range(L) for c in range(k))

    if is_sorted(dest_rows):
        return []
    D = [row[:] for row in dest_rows]
    even_idx = range(0, L - 1, 2)
    odd_idx = range(1, L - 1, 2)
    rounds: list[list[tuple[int, int]]] = []
    for r in range(L + 1):
        idx = even_idx if (r + start_parity) % 2 == 0 else odd_idx
        swaps: list[tuple[int, int]] = []
        for i in idx:
            row, nxt = D[i], D[i + 1]
            for c in range(k):
                if row[c] > nxt[c]:
                    swaps.append((i, c))
        if swaps:
            for i, c in swaps:
                D[i][c], D[i + 1][c] = D[i + 1][c], D[i][c]
            rounds.append(swaps)
            if is_sorted(D):
                return rounds
    if not is_sorted(D):  # pragma: no cover - defensive
        raise RuntimeError("odd-even transposition failed to converge")
    return rounds


class PythonKernelBackend(KernelBackend):
    """Reference kernels in pure Python."""

    # ------------------------------------------------------------------
    # frontier / distance scoring
    # ------------------------------------------------------------------
    def delta_weights(self, rows_used: Sequence[Any], n_rows: int) -> list[list[float]]:
        out: list[list[float]] = []
        for ru in rows_used:
            rows = _as_int_list(ru)
            out.append(
                [float(sum(abs(i - r) for i in rows)) for r in range(n_rows)]
            )
        return out

    def factor_delta_weights(
        self, dist: Any, rows_used: Sequence[Any]
    ) -> list[list[float]]:
        d = [_as_int_list(row) for row in dist]
        m = len(d)
        out: list[list[float]] = []
        for ru in rows_used:
            rows = _as_int_list(ru)
            out.append(
                [float(sum(d[i][r] for i in rows)) for r in range(m)]
            )
        return out

    # ------------------------------------------------------------------
    # bipartite matching
    # ------------------------------------------------------------------
    def hopcroft_karp(
        self, n_left: int, n_right: int, adj: Sequence[Sequence[int]]
    ) -> tuple[list[int], list[int], int]:
        # The reference implementation *is* the pure-Python one.
        return hopcroft_karp(n_left, n_right, adj)

    def bottleneck_feasible(self, weights: Any, threshold: float) -> list[int] | None:
        rows = [
            [float(x) for x in row] if not hasattr(row, "tolist") else row.tolist()
            for row in weights
        ]
        k = len(rows)
        adj = [
            [j for j in range(k) if rows[i][j] <= threshold] for i in range(k)
        ]
        match_l, _, size = self.hopcroft_karp(k, k, adj)
        return match_l if size == k else None

    def peel_matching(
        self,
        tokens: Any,
        src_col: Any,
        dst_col: Any,
        cost: Any,
        n_cols: int,
    ) -> list[int] | None:
        toks = _as_int_list(tokens)
        sc = _as_int_list(src_col)
        dc = _as_int_list(dst_col)
        cs = cost.tolist() if hasattr(cost, "tolist") else [float(x) for x in cost]
        best: dict[tuple[int, int], tuple[float, int]] = {}
        for c, j, jp, t in zip(cs, sc, dc, toks):
            key = (j, jp)
            cand = (float(c), t)
            prev = best.get(key)
            if prev is None or cand < prev:
                best[key] = cand
        adj: list[list[int]] = [[] for _ in range(n_cols)]
        for (j, jp) in best:
            adj[j].append(jp)
        match_l, _, size = self.hopcroft_karp(n_cols, n_cols, adj)
        if size < n_cols:
            return None
        return [best[(j, match_l[j])][1] for j in range(n_cols)]

    # ------------------------------------------------------------------
    # path routing
    # ------------------------------------------------------------------
    def oet_swap_layers(
        self,
        dest: Any,
        pos_stride: int,
        path_stride: int,
        swap_offset: int,
        optimize_parity: bool = True,
        start_parity: int = 0,
    ) -> list[tuple[list[int], list[int]]]:
        D = [_as_int_list(row) for row in dest]
        parities = (
            (start_parity, 1 - start_parity) if optimize_parity else (start_parity,)
        )
        best: list[list[tuple[int, int]]] | None = None
        for p in parities:
            rounds = _oet_rounds(D, p)
            if best is None or len(rounds) < len(best):
                best = rounds
        assert best is not None
        layers: list[tuple[list[int], list[int]]] = []
        for swaps in best:
            u = [pos * pos_stride + c * path_stride for pos, c in swaps]
            layers.append((u, [x + swap_offset for x in u]))
        return layers

    # ------------------------------------------------------------------
    # token position/target tracking
    # ------------------------------------------------------------------
    def total_displacement(self, dist: Any, dest: Sequence[int]) -> int:
        rows = [_as_int_list(row) for row in dist]
        return int(sum(rows[v][d] for v, d in enumerate(_as_int_list(dest))))

    # ------------------------------------------------------------------
    # schedule assembly
    # ------------------------------------------------------------------
    def assemble_layers(
        self,
        n_vertices: int,
        swap_layers: Sequence[tuple[Any, Any]],
        compact: bool = True,
    ) -> Schedule:
        layers = canonical_layers(
            n_vertices,
            (zip(_as_int_list(u), _as_int_list(v)) for u, v in swap_layers),
        )
        if compact:
            layers = asap_layers(layers)
        return Schedule(n_vertices, layers)

    def compact_serial_swaps(
        self, n_vertices: int, swaps: Sequence[tuple[int, int]]
    ) -> Schedule:
        serial = canonical_layers(n_vertices, ([s] for s in swaps))
        return Schedule(n_vertices, asap_layers(serial))


# ----------------------------------------------------------------------
# schedules as nested tuples (the reference for Schedule's array code)
# ----------------------------------------------------------------------
Layers = tuple[tuple[tuple[int, int], ...], ...]


def canonical_layers(n: int, layers: Iterable[Iterable[tuple[int, int]]]) -> Layers:
    """Validate and canonicalize layers swap by swap.

    Each swap becomes ``(min, max)`` and each layer a sorted tuple;
    raises :class:`ScheduleError` on a self-swap, an endpoint outside
    ``range(n)`` or a vertex used twice in one layer.
    """
    built: list[tuple[tuple[int, int], ...]] = []
    for li, layer in enumerate(layers):
        seen: set[int] = set()
        canon: list[tuple[int, int]] = []
        for u, v in layer:
            u, v = int(u), int(v)
            if u == v:
                raise ScheduleError(f"layer {li}: self-swap on vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ScheduleError(f"layer {li}: swap ({u}, {v}) out of range")
            if u in seen or v in seen:
                raise ScheduleError(f"layer {li}: vertex reuse in swap ({u}, {v})")
            seen.update((u, v))
            canon.append((min(u, v), max(u, v)))
        built.append(tuple(sorted(canon)))
    return tuple(built)


def asap_layers(layers: Layers) -> Layers:
    """ASAP re-timing: each swap one layer after the last use of either
    endpoint, taking the layers in order."""
    avail: dict[int, int] = {}
    out: list[list[tuple[int, int]]] = []
    for layer in layers:
        for u, v in layer:
            t = max(avail.get(u, 0), avail.get(v, 0))
            if t == len(out):
                out.append([])
            out[t].append((u, v))
            avail[u] = avail[v] = t + 1
    return tuple(tuple(sorted(layer)) for layer in out)


@contextlib.contextmanager
def oracle_kernels(
    oracle: PythonKernelBackend | None = None,
) -> Iterator[PythonKernelBackend]:
    """Route through the oracle inside the block, then restore the product.

    Installs ``oracle`` (a fresh :class:`PythonKernelBackend` by
    default). Only this process is affected: a service's pool workers
    keep the numpy kernels.
    """
    oracle = oracle or PythonKernelBackend()
    saved = repro.kernels.ACTIVE
    repro.kernels.ACTIVE = oracle
    try:
        yield oracle
    finally:
        repro.kernels.ACTIVE = saved
