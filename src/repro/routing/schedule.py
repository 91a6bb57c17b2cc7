"""Swap schedules: sequences of matchings (the routing-via-matchings output).

In the routing-via-matchings model a routing schedule is an ordered list of
*layers*; each layer is a matching of the coupling graph, executed as a set
of parallel SWAP gates. The **depth** of the schedule (its number of
non-empty layers) is the quantity the paper's Figure 4 plots; the **size**
(total number of swaps) is the serial token-swapping objective.

:class:`Schedule` is the common output type of every router in this
package, so the benchmark harness and the transpiler treat the paper's
algorithm, the ACG baseline and the ATS baseline uniformly.

A schedule stores three ``int64`` arrays and nothing else: ``lo``/``hi``
hold the ``(min, max)`` endpoints of every swap sorted by ``(layer, lo,
hi)``, and ``counts[t]`` is the number of swaps in layer ``t``. Every
invariant is checked in this module, by :func:`build_schedule` (swap
arrays in any order) or :func:`check_canonical` (arrays that claim
canonical form, such as a decoded codec frame).

Key operations
--------------
* :meth:`Schedule.simulate` — the permutation a schedule actually realizes.
* :meth:`Schedule.verify` — assert validity (each layer a matching of the
  graph) *and* semantic correctness against a target permutation.
* :meth:`Schedule.compact` — ASAP re-timing: every swap moves to the
  earliest layer after the last use of either of its endpoints. This
  preserves the per-vertex order of swaps (hence the realized permutation)
  and never increases depth. It is how the three phases of grid routing
  are allowed to overlap at their boundaries; a serial swap list is
  parallelized the same way by
  :func:`~repro.token_swap.parallel.parallelize_swaps`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ScheduleError
from ..graphs.base import Graph
from ..perm.permutation import Permutation

__all__ = ["Schedule", "build_schedule", "check_canonical"]

#: The vertex-reuse check marks ``(layer, vertex)`` flags, a block of whole
#: layers (at most ``_MARK_MAX`` flags) at a time, while they number at most
#: ``_MARK_MAX`` or ``_MARKS_PER_SWAP`` per swap; sparser ones sort instead.
_MARK_MAX = 1 << 22
_MARKS_PER_SWAP = 64


class Schedule:
    """An ordered sequence of swap layers over ``n_vertices`` vertices.

    Parameters
    ----------
    n_vertices:
        Size of the vertex set the schedule acts on (a positive integer).
    layers:
        Iterable of layers; each layer is an iterable of ``(u, v)`` swaps
        with integer endpoints. Swaps are canonicalized to ``(min, max)``.
        Layers are validated to be vertex-disjoint within themselves (edge
        membership in a graph is checked separately by
        :meth:`check_against`/:meth:`verify`).
    metadata:
        Optional provenance annotations (JSON-ready entries). Excluded
        from equality and hashing; preserved by the transformation
        methods.

    Raises
    ------
    ScheduleError
        If ``n_vertices`` or an endpoint is not an integer, a layer reuses
        a vertex, or a swap is out of range / a self-loop.
    """

    __slots__ = ("_n", "_counts", "_lo", "_hi", "_meta")

    def __init__(
        self,
        n_vertices: int,
        layers: Iterable[Iterable[tuple[int, int]]] = (),
        metadata: Mapping[str, Any] | None = None,
    ) -> None:
        n = _vertex_count(n_vertices)
        ends: list[Any] = []
        counts: list[int] = []
        for layer in layers:
            start = len(ends)
            for u, v in layer:
                ends.append(u)
                ends.append(v)
            counts.append((len(ends) - start) // 2)
        pairs = _id_array(ends).reshape(-1, 2)
        self._n = n
        self._counts, self._lo, self._hi = _canonical_arrays(
            n, pairs[:, 0], pairs[:, 1], counts, compact=False
        )
        self._meta: dict[str, Any] = dict(metadata) if metadata else {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n_vertices: int) -> "Schedule":
        """A schedule with no layers (realizes the identity)."""
        return cls(n_vertices, ())

    @classmethod
    def _from_canonical(
        cls,
        n_vertices: int,
        counts: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        metadata: Mapping[str, Any] | None = None,
    ) -> "Schedule":
        """Trusted constructor: the arrays already satisfy every invariant.

        Only this module calls it: :func:`build_schedule` and
        :func:`check_canonical` after their checks, and the transforms
        whose output is canonical by construction.
        """
        sched = object.__new__(cls)
        sched._n = int(n_vertices)
        sched._counts = counts
        sched._lo = lo
        sched._hi = hi
        sched._meta = dict(metadata) if metadata else {}
        return sched

    @classmethod
    def from_serial_swaps(
        cls, n_vertices: int, swaps: Sequence[tuple[int, int]]
    ) -> "Schedule":
        """One swap per layer, in order.

        To parallelize a serial list use
        :func:`~repro.token_swap.parallel.parallelize_swaps`, which equals
        ``compact()`` of this schedule in one pass over the swaps.
        """
        return cls(n_vertices, ([s] for s in swaps))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Vertex-set size."""
        return self._n

    @property
    def layers(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The layers, each a sorted tuple of canonical swaps.

        Built from the arrays on every access; nothing keeps them.
        """
        pairs = list(zip(self._lo.tolist(), self._hi.tolist()))
        out: list[tuple[tuple[int, int], ...]] = []
        pos = 0
        for c in self._counts.tolist():
            out.append(tuple(pairs[pos : pos + c]))
            pos += c
        return tuple(out)

    @property
    def metadata(self) -> dict[str, Any]:
        """Provenance annotations (JSON-ready entries set by the caller).

        Excluded from :meth:`__eq__`/:meth:`__hash__` — two schedules
        with identical layers are equal regardless of provenance.
        """
        return self._meta

    def with_metadata(self, **entries: Any) -> "Schedule":
        """Copy (sharing layers) with ``entries`` merged into the metadata."""
        merged = dict(self._meta)
        merged.update(entries)
        return Schedule._from_canonical(
            self._n, self._counts, self._lo, self._hi, merged
        )

    @property
    def depth(self) -> int:
        """Number of non-empty layers (the paper's depth objective)."""
        return int(np.count_nonzero(self._counts))

    @property
    def n_layers(self) -> int:
        """Total number of layers including empty ones."""
        return int(self._counts.size)

    @property
    def size(self) -> int:
        """Total number of swaps (the serial token-swapping objective)."""
        return int(self._lo.size)

    def serial_swaps(self) -> list[tuple[int, int]]:
        """All swaps flattened in layer order (within-layer order arbitrary
        but fixed; within-layer swaps commute since they are disjoint)."""
        return list(zip(self._lo.tolist(), self._hi.tolist()))

    def __len__(self) -> int:
        return self.n_layers

    def __iter__(self) -> Iterator[tuple[tuple[int, int], ...]]:
        return iter(self.layers)

    def __getitem__(self, i: int) -> tuple[tuple[int, int], ...]:
        t = range(self._counts.size)[i]  # negative indices, IndexError
        start = int(self._counts[:t].sum())
        stop = start + int(self._counts[t])
        return tuple(
            zip(self._lo[start:stop].tolist(), self._hi[start:stop].tolist())
        )

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def _sweep_occupancy(self, occ: np.ndarray) -> None:
        """Apply every layer to ``occ`` in place (layers are matchings, so
        each layer's swaps are disjoint and apply in one vectorized step)."""
        pos = 0
        for c in self._counts.tolist():
            if c:
                los = self._lo[pos : pos + c]
                his = self._hi[pos : pos + c]
                tmp = occ[los]
                occ[los] = occ[his]
                occ[his] = tmp
            pos += c

    def _final_positions(self) -> np.ndarray:
        """``out[v]`` = the vertex where the token starting at ``v`` ends."""
        occ = np.arange(self._n, dtype=np.int64)  # occ[position] = token there
        self._sweep_occupancy(occ)
        realized = np.empty(self._n, dtype=np.int64)
        realized[occ] = np.arange(self._n, dtype=np.int64)
        return realized

    def simulate(self) -> Permutation:
        """The permutation realized by the schedule.

        Returns the map *start vertex of a token* → *its final vertex*.
        """
        return Permutation(self._final_positions())

    def apply_to_occupancy(self, occ: np.ndarray) -> None:
        """In-place update of an occupancy array (position → token)."""
        if occ.shape != (self._n,):
            raise ScheduleError("occupancy array has wrong shape")
        self._sweep_occupancy(occ)

    def check_against(self, graph: Graph) -> None:
        """Raise unless every layer is a matching of ``graph``.

        One vectorized edge-membership test over all swaps
        (:meth:`Graph.has_edges`); the error names the first bad swap in
        layer order. Vertex-disjointness inside a layer is a
        construction invariant of every schedule, so it is not re-tested.
        """
        if graph.n_vertices != self._n:
            raise ScheduleError(
                f"schedule on {self._n} vertices vs graph on {graph.n_vertices}"
            )
        ok = graph.has_edges(self._lo, self._hi)
        if not ok.all():
            k = int(np.argmin(ok))
            raise ScheduleError(
                f"layer {_layer_of(self._counts, k)}: swap "
                f"({int(self._lo[k])}, {int(self._hi[k])}) "
                f"is not an edge of {graph.name}"
            )

    def verify(self, graph: Graph, perm: Permutation) -> None:
        """Full validity check: matchings of ``graph`` realizing ``perm``.

        The sizes of the graph, the schedule and the permutation are
        compared before anything is allocated.

        Raises
        ------
        ScheduleError
            On any structural or semantic violation.
        """
        if perm.size != self._n:
            raise ScheduleError(
                f"schedule on {self._n} vertices vs permutation on {perm.size}"
            )
        self.check_against(graph)
        realized = self._final_positions()
        expected = perm.targets
        if not np.array_equal(realized, expected):
            bad = int(np.flatnonzero(realized != expected)[0])
            raise ScheduleError(
                f"schedule realizes the wrong permutation "
                f"(first mismatch at vertex {bad}: token ends at "
                f"{int(realized[bad])}, expected {int(expected[bad])})"
            )

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def trimmed(self) -> "Schedule":
        """Copy with empty layers removed."""
        return Schedule._from_canonical(
            self._n, self._counts[self._counts > 0], self._lo, self._hi, self._meta
        )

    def compact(self) -> "Schedule":
        """ASAP re-timing (see module docstring). Depth never increases."""
        return build_schedule(
            self._n, self._lo, self._hi, self._counts,
            compact=True, metadata=self._meta,
        )

    def inverse(self) -> "Schedule":
        """Layers reversed; realizes the inverse permutation."""
        order = np.argsort(-_layer_ids(self._counts), kind="stable")
        return Schedule._from_canonical(
            self._n, self._counts[::-1], self._lo[order], self._hi[order], self._meta
        )

    def concat(self, other: "Schedule") -> "Schedule":
        """This schedule followed by ``other`` (metadata is not carried:
        the result has no single provenance)."""
        if other._n != self._n:
            raise ScheduleError("cannot concatenate schedules of different sizes")
        return Schedule._from_canonical(
            self._n,
            np.concatenate((self._counts, other._counts)),
            np.concatenate((self._lo, other._lo)),
            np.concatenate((self._hi, other._hi)),
        )

    def __add__(self, other: "Schedule") -> "Schedule":
        return self.concat(other)

    def relabel(self, mapping: Sequence[int] | np.ndarray) -> "Schedule":
        """Rename vertices: swap ``(u, v)`` becomes ``(mapping[u], mapping[v])``.

        ``mapping`` must be a permutation of ``range(n_vertices)``. Used to
        pull a schedule computed on the transposed grid back to the
        original grid's vertex ids.
        """
        m = _id_array(mapping)
        if m.shape != (self._n,):
            raise ScheduleError("relabel mapping has wrong size")
        if not np.array_equal(np.sort(m), np.arange(self._n)):
            raise ScheduleError("relabel mapping is not a permutation of the vertices")
        return build_schedule(
            self._n, m[self._lo], m[self._hi], self._counts, metadata=self._meta
        )

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._counts, other._counts)
            and np.array_equal(self._lo, other._lo)
            and np.array_equal(self._hi, other._hi)
        )

    def __hash__(self) -> int:
        arrays = (self._counts, self._lo, self._hi)
        return hash((self._n, *(a.tobytes() for a in arrays)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(n_vertices={self._n}, depth={self.depth}, "
            f"size={self.size})"
        )


# ----------------------------------------------------------------------
# the builder and the checker
# ----------------------------------------------------------------------
def build_schedule(
    n_vertices: int,
    u: Any,
    v: Any,
    counts: Any,
    *,
    compact: bool = False,
    metadata: Mapping[str, Any] | None = None,
) -> Schedule:
    """The validating constructor over flat swap arrays.

    Swap ``k`` is ``(u[k], v[k])``; the first ``counts[0]`` swaps make
    up layer 0, and so on. The swaps are canonicalized to ``(min, max)``
    and validated (integer ids in range, no self-swap, no vertex twice
    in a layer), ASAP re-timed with ``compact``, and sorted by
    ``(layer, lo, hi)``.

    Raises
    ------
    ScheduleError
        On any violated invariant.
    """
    n = _vertex_count(n_vertices)
    return Schedule._from_canonical(
        n, *_canonical_arrays(n, u, v, counts, compact), metadata
    )


def check_canonical(
    n_vertices: int,
    counts: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    metadata: Mapping[str, Any] | None = None,
) -> Schedule:
    """Wrap ``int64`` arrays that claim canonical form, after checking it.

    The checks are those of :func:`build_schedule` plus the layer counts
    (each in ``[0, n_swaps]``, summing to ``n_swaps``), ``lo < hi`` and
    the ``(layer, lo, hi)`` order, tested in one linear pass: unsorted
    arrays are refused, never re-sorted.

    Raises
    ------
    ScheduleError
        On any violated invariant.
    """
    n = _vertex_count(n_vertices)
    # Bound every count by the swap count before summing, so the sum
    # is exact and ``np.repeat`` never sees a negative count.
    if counts.size and (int(counts.min()) < 0 or int(counts.max()) > lo.size):
        raise ScheduleError("schedule arrays: layer count out of range")
    if int(counts.sum()) != lo.size or hi.size != lo.size:
        raise ScheduleError(
            "schedule arrays: layer counts do not sum to the swap count"
        )
    if lo.size:
        if not bool(np.all(lo < hi)):
            raise ScheduleError("schedule arrays: non-canonical swap order")
        lid, kn, klo, khi = _check_swaps(n, counts, lo, hi)
        key = (lid * kn + klo) * kn + khi
        if not bool(np.all(key[1:] > key[:-1])):
            raise ScheduleError("schedule arrays: layers not sorted canonically")
    return Schedule._from_canonical(n, counts, lo, hi, metadata)


def _canonical_arrays(
    n: int, u: Any, v: Any, counts: Any, compact: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The builder's work: validated, optionally compacted, sorted arrays."""
    u = _id_array(u)
    v = _id_array(v)
    counts = np.asarray(counts, dtype=np.int64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    if lo.size == 0:
        return (counts[:0] if compact else counts), lo, hi
    lid, kn, klo, khi = _check_swaps(n, counts, lo, hi)
    if compact:
        lid = _asap_levels(kn, counts, klo, khi)
        counts = np.bincount(lid)
    # Within a layer swaps are vertex-disjoint, so (layer, lo) is unique
    # and one non-stable argsort of the packed key is deterministic.
    order = np.argsort((lid * kn + klo) * kn + khi)
    return counts, lo[order], hi[order]


def _vertex_count(n: Any) -> int:
    """``n_vertices`` as a positive int; bools, floats and strings are refused."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ScheduleError(f"n_vertices must be an integer, got {n!r}")
    if n <= 0:
        raise ScheduleError(f"n_vertices must be positive, got {n}")
    return int(n)


def _id_array(values: Any) -> np.ndarray:
    """Vertex ids as ``int64``; anything but integers is refused."""
    ids = np.asarray(values)
    if ids.size and ids.dtype.kind not in "iu":
        raise ScheduleError(
            f"vertex ids must be integers in the int64 range, got {ids.dtype}"
        )
    return ids.astype(np.int64, copy=False)


def _layer_ids(counts: np.ndarray) -> np.ndarray:
    """The layer index of every swap."""
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def _layer_of(counts: np.ndarray, k: int) -> int:
    """The layer holding swap ``k``."""
    return int(np.searchsorted(np.cumsum(counts), k, side="right"))


def _check_swaps(
    n: int, counts: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Range, self-swap and per-layer reuse checks on ``lo <= hi`` swaps.

    Returns each swap's layer and the ``(n, lo, hi)`` to pack into keys:
    the arguments themselves whenever ``n_layers * n * n`` fits in int64,
    else an order-preserving renumbering of the touched ids, so no key
    overflows and no per-vertex array is sized by a huge ``n``.
    """
    if int(lo.min()) < 0 or int(hi.max()) >= n or bool(np.any(lo == hi)):
        k = int(np.argmax((lo < 0) | (hi >= n) | (lo == hi)))
        a, b = int(lo[k]), int(hi[k])
        bad = f"self-swap on vertex {a}" if a == b else f"swap ({a}, {b}) out of range"
        raise ScheduleError(f"layer {_layer_of(counts, k)}: {bad}")
    lid = _layer_ids(counts)
    if counts.size * n * n < 2**62:
        kn, klo, khi = n, lo, hi
    else:
        ids, inv = np.unique(np.concatenate((lo, hi)), return_inverse=True)
        kn, klo, khi = int(ids.size), inv[: lo.size], inv[lo.size :]
    _refuse_reuse(kn, counts.size, lid, klo, khi)
    return lid, kn, klo, khi


def _refuse_reuse(
    n: int, n_layers: int, lid: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> None:
    """Raise when a ``(layer, vertex)`` pair occurs twice.

    Marks flags (see :data:`_MARK_MAX`); past that bound, and to name
    the layer of a reuse, sorts the ``2 * n_swaps`` keys (a stable merge).
    """
    per = min(_MARK_MAX // n, n_layers)  # whole layers per block
    if per and n_layers * n <= max(_MARK_MAX, _MARKS_PER_SWAP * lo.size):
        seen = np.zeros(per * n, dtype=bool)
        bounds = np.searchsorted(lid, range(0, n_layers + per, per)).tolist()
        for first, a, b in zip(range(0, n_layers, per), bounds, bounds[1:]):
            base = lid[a:b] * n
            if first:  # a later block: block-relative keys, cleared marks
                base -= first * n
                seen[:] = False
            seen[base + lo[a:b]] = True
            seen[base + hi[a:b]] = True
            if np.count_nonzero(seen) != 2 * (b - a):
                break
        else:
            return
    base = lid * n
    ends = np.concatenate((base + lo, base + hi))
    ends.sort(kind="stable")
    dup = np.flatnonzero(ends[1:] == ends[:-1])
    if dup.size:
        layer = int(ends[dup[0]]) // n
        raise ScheduleError(f"layer {layer}: vertex reuse inside a layer")


def _asap_levels(
    n: int, counts: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """The ASAP layer of every swap, taking layers in order.

    A swap lands one layer after the last use of either endpoint. Swaps
    within an input layer are disjoint, so each layer is one gather and
    one scatter.
    """
    avail = np.zeros(n, dtype=np.int64)  # earliest free layer per vertex
    t = np.empty(lo.size, dtype=np.int64)
    pos = 0
    for c in counts.tolist():
        if c:
            sl = slice(pos, pos + c)
            los, his = lo[sl], hi[sl]
            tt = np.maximum(avail[los], avail[his])
            t[sl] = tt
            avail[los] = tt + 1
            avail[his] = tt + 1
            pos += c
    return t
