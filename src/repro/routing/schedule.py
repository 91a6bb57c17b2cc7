"""Swap schedules: sequences of matchings (the routing-via-matchings output).

In the routing-via-matchings model a routing schedule is an ordered list of
*layers*; each layer is a matching of the coupling graph, executed as a set
of parallel SWAP gates. The **depth** of the schedule (its number of
non-empty layers) is the quantity the paper's Figure 4 plots; the **size**
(total number of swaps) is the serial token-swapping objective.

:class:`Schedule` is the common output type of every router in this
package, so the benchmark harness and the transpiler treat the paper's
algorithm, the ACG baseline and the ATS baseline uniformly.

Key operations
--------------
* :meth:`Schedule.simulate` — the permutation a schedule actually realizes.
* :meth:`Schedule.verify` — assert validity (each layer a matching of the
  graph) *and* semantic correctness against a target permutation.
* :meth:`Schedule.compact` — ASAP re-timing: every swap moves to the
  earliest layer after the last use of either of its endpoints. This
  preserves the per-vertex order of swaps (hence the realized permutation)
  and never increases depth. It is how a serial ATS swap list becomes a
  parallel schedule, and how the three phases of grid routing are allowed
  to overlap at their boundaries.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ScheduleError
from ..graphs.base import Graph, canonical_edge
from ..perm.permutation import Permutation

__all__ = ["Schedule"]


class FlatLayers:
    """Canonical layers as flat arrays (internal, numpy-kernel payload).

    ``lo``/``hi`` hold the canonical ``(min, max)`` endpoints of every swap,
    concatenated across layers and sorted by ``(layer, lo, hi)``;
    ``counts[t]`` is the number of swaps in layer ``t``. Producers (the
    numpy kernels, :meth:`Schedule.relabel`) guarantee the same
    invariants the public :class:`Schedule` constructor enforces; the
    nested-tuple view is materialized lazily on first structural access,
    so schedules that are only compared by depth/size (e.g. the losing
    orientation candidate in a best-of race) never pay for tuple-building.
    """

    __slots__ = ("lo", "hi", "counts")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, counts: np.ndarray) -> None:
        self.lo = lo
        self.hi = hi
        self.counts = counts


class Schedule:
    """An ordered sequence of swap layers over ``n_vertices`` vertices.

    Parameters
    ----------
    n_vertices:
        Size of the vertex set the schedule acts on.
    layers:
        Iterable of layers; each layer is an iterable of ``(u, v)`` swaps.
        Swaps are canonicalized to ``(min, max)``. Layers are validated to
        be vertex-disjoint within themselves (edge membership in a graph
        is checked separately by :meth:`check_against`/:meth:`verify`).
    metadata:
        Optional provenance annotations (JSON-ready entries). Excluded
        from equality and hashing; preserved by the transformation
        methods.

    Raises
    ------
    ScheduleError
        If a layer reuses a vertex or a swap is out of range / a self-loop.
    """

    __slots__ = ("_n", "_layers", "_flat", "_meta")

    def __init__(
        self,
        n_vertices: int,
        layers: Iterable[Iterable[tuple[int, int]]] = (),
        metadata: Mapping[str, Any] | None = None,
    ) -> None:
        if n_vertices <= 0:
            raise ScheduleError(f"n_vertices must be positive, got {n_vertices}")
        self._n = int(n_vertices)
        built: list[tuple[tuple[int, int], ...]] = []
        for li, layer in enumerate(layers):
            seen: set[int] = set()
            canon: list[tuple[int, int]] = []
            for u, v in layer:
                u, v = int(u), int(v)
                if u == v:
                    raise ScheduleError(f"layer {li}: self-swap on vertex {u}")
                if not (0 <= u < self._n and 0 <= v < self._n):
                    raise ScheduleError(
                        f"layer {li}: swap ({u}, {v}) out of range"
                    )
                if u in seen or v in seen:
                    raise ScheduleError(
                        f"layer {li}: vertex reuse in swap ({u}, {v})"
                    )
                seen.add(u)
                seen.add(v)
                canon.append(canonical_edge(u, v))
            built.append(tuple(sorted(canon)))
        self._layers: tuple[tuple[tuple[int, int], ...], ...] | None = tuple(built)
        self._flat: FlatLayers | None = None
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
        layers: tuple[tuple[tuple[int, int], ...], ...] | FlatLayers,
        metadata: Mapping[str, Any] | None = None,
    ) -> "Schedule":
        """Trusted constructor: ``layers`` must already be canonical.

        Callers (the kernels, :meth:`relabel`) guarantee the payload —
        nested tuples or a :class:`FlatLayers` array bundle — is validated,
        ``(min, max)``-canonical and sorted by ``(layer, lo, hi)``: the
        invariants the public constructor would otherwise re-establish.
        """
        sched = object.__new__(cls)
        sched._n = int(n_vertices)
        if isinstance(layers, FlatLayers):
            sched._layers = None
            sched._flat = layers
        else:
            sched._layers = layers
            sched._flat = None
        sched._meta = dict(metadata) if metadata else {}
        return sched

    @classmethod
    def from_serial_swaps(
        cls, n_vertices: int, swaps: Sequence[tuple[int, int]]
    ) -> "Schedule":
        """One swap per layer, in order (use :meth:`compact` to parallelize)."""
        return cls(n_vertices, ([s] for s in swaps))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Vertex-set size."""
        return self._n

    def _flat_view(self) -> FlatLayers:
        """The canonical flat arrays, built once from the tuples if needed.

        The one tuple-to-array conversion: the codec, the simulation
        sweep, :meth:`verify` and :meth:`relabel` all read these arrays.
        """
        flat = self._flat
        if flat is None:
            layers = self._layers
            assert layers is not None
            counts = np.fromiter(map(len, layers), dtype=np.int64, count=len(layers))
            pairs = np.fromiter(
                (x for layer in layers for swap in layer for x in swap),
                dtype=np.int64,
                count=2 * int(counts.sum()),
            ).reshape(-1, 2)
            flat = self._flat = FlatLayers(
                np.ascontiguousarray(pairs[:, 0]),
                np.ascontiguousarray(pairs[:, 1]),
                counts,
            )
        return flat

    def _materialize(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Nested-tuple layers, built (once) from the flat arrays on demand."""
        layers = self._layers
        if layers is None:
            fl = self._flat
            assert fl is not None
            lo = fl.lo.tolist()
            hi = fl.hi.tolist()
            out: list[tuple[tuple[int, int], ...]] = []
            pos = 0
            for c in fl.counts.tolist():
                out.append(tuple(zip(lo[pos : pos + c], hi[pos : pos + c])))
                pos += c
            layers = self._layers = tuple(out)
        return layers

    @property
    def layers(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The layers, each a sorted tuple of canonical swaps."""
        return self._materialize()

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
        sched = object.__new__(Schedule)
        sched._n = self._n
        sched._layers = self._layers
        sched._flat = self._flat
        sched._meta = merged
        return sched

    @property
    def depth(self) -> int:
        """Number of non-empty layers (the paper's depth objective)."""
        if self._layers is None:
            assert self._flat is not None
            return int(np.count_nonzero(self._flat.counts))
        return sum(1 for layer in self._layers if layer)

    @property
    def n_layers(self) -> int:
        """Total number of layers including empty ones."""
        if self._layers is None:
            assert self._flat is not None
            return len(self._flat.counts)
        return len(self._layers)

    @property
    def size(self) -> int:
        """Total number of swaps (the serial token-swapping objective)."""
        if self._layers is None:
            assert self._flat is not None
            return int(self._flat.lo.size)
        return sum(len(layer) for layer in self._layers)

    def serial_swaps(self) -> list[tuple[int, int]]:
        """All swaps flattened in layer order (within-layer order arbitrary
        but fixed; within-layer swaps commute since they are disjoint)."""
        if self._layers is None:
            assert self._flat is not None
            return list(zip(self._flat.lo.tolist(), self._flat.hi.tolist()))
        return [s for layer in self._layers for s in layer]

    def __len__(self) -> int:
        return self.n_layers

    def __iter__(self) -> Iterator[tuple[tuple[int, int], ...]]:
        return iter(self._materialize())

    def __getitem__(self, i: int) -> tuple[tuple[int, int], ...]:
        return self._materialize()[i]

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def _sweep_occupancy(self, occ: np.ndarray) -> None:
        """Apply every layer to ``occ`` in place (layers are matchings, so
        each layer's swaps are disjoint and apply in one vectorized step
        on the flat representation)."""
        fl = self._flat_view()
        pos = 0
        for c in fl.counts.tolist():
            if c:
                los = fl.lo[pos : pos + c]
                his = fl.hi[pos : pos + c]
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
        fl = self._flat_view()
        ok = graph.has_edges(fl.lo, fl.hi)
        if not ok.all():
            k = int(np.argmin(ok))
            layer = int(np.searchsorted(np.cumsum(fl.counts), k, side="right"))
            raise ScheduleError(
                f"layer {layer}: swap ({int(fl.lo[k])}, {int(fl.hi[k])}) "
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
        if self._layers is None:
            assert self._flat is not None
            fl = self._flat
            kept = fl.counts[fl.counts > 0]
            return Schedule._from_canonical(
                self._n, FlatLayers(fl.lo, fl.hi, kept), self._meta
            )
        return Schedule._from_canonical(
            self._n, tuple(l for l in self._layers if l), self._meta
        )

    def compact(self) -> "Schedule":
        """ASAP re-timing (see module docstring). Depth never increases."""
        if self._layers is None:
            assert self._flat is not None
            fl = self._flat
            if fl.lo.size == 0:
                return Schedule(self._n, (), metadata=self._meta)
            avail = np.zeros(self._n, dtype=np.int64)
            t = np.empty(fl.lo.size, dtype=np.int64)
            pos = 0
            for c in fl.counts.tolist():
                if c:
                    sl = slice(pos, pos + c)
                    los, his = fl.lo[sl], fl.hi[sl]
                    tt = np.maximum(avail[los], avail[his])
                    t[sl] = tt
                    avail[los] = tt + 1
                    avail[his] = tt + 1
                pos += c
            order = np.lexsort((fl.hi, fl.lo, t))
            counts = np.bincount(t, minlength=int(t.max()) + 1)
            return Schedule._from_canonical(
                self._n,
                FlatLayers(fl.lo[order], fl.hi[order], counts),
                self._meta,
            )
        avail = np.zeros(self._n, dtype=np.int64)  # earliest free layer per vertex
        new_layers: list[list[tuple[int, int]]] = []
        for layer in self._layers:
            for u, v in layer:
                t2 = int(max(avail[u], avail[v]))
                while len(new_layers) <= t2:
                    new_layers.append([])
                new_layers[t2].append((u, v))
                avail[u] = avail[v] = t2 + 1
        return Schedule(self._n, new_layers, metadata=self._meta)

    def inverse(self) -> "Schedule":
        """Layers reversed; realizes the inverse permutation."""
        return Schedule(self._n, reversed(self._materialize()), metadata=self._meta)

    def concat(self, other: "Schedule") -> "Schedule":
        """This schedule followed by ``other`` (metadata is not carried:
        the result has no single provenance)."""
        if other._n != self._n:
            raise ScheduleError("cannot concatenate schedules of different sizes")
        return Schedule._from_canonical(
            self._n, self._materialize() + other._materialize()
        )

    def __add__(self, other: "Schedule") -> "Schedule":
        return self.concat(other)

    def relabel(self, mapping: Sequence[int] | np.ndarray) -> "Schedule":
        """Rename vertices: swap ``(u, v)`` becomes ``(mapping[u], mapping[v])``.

        Used to pull a schedule computed on the transposed grid back to the
        original grid's vertex ids.
        """
        m = np.asarray(mapping, dtype=np.int64)
        if m.shape != (self._n,):
            raise ScheduleError("relabel mapping has wrong size")
        if np.unique(m).size != self._n:
            raise ScheduleError("relabel mapping is not a bijection")
        fl = self._flat_view()
        counts = fl.counts
        a = m[fl.lo]
        b = m[fl.hi]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        if lo.size == 0:
            return Schedule._from_canonical(
                self._n, FlatLayers(lo, hi, counts), self._meta
            )
        if int(lo.min()) < 0 or int(hi.max()) >= self._n:
            raise ScheduleError("relabel mapping leaves the vertex range")
        # A bijection preserves self-swap-freeness and per-layer vertex
        # disjointness, so only canonical form must be re-established:
        # sort within each layer by (lo, hi). Disjointness makes
        # (layer, lo) unique, so when the packed (layer, lo, hi) key
        # fits in int64 a single non-stable argsort replaces the
        # 3-key lexsort.
        lid = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        if counts.size * self._n * self._n < 2**62:
            order = np.argsort((lid * self._n + lo) * self._n + hi)
        else:  # pragma: no cover - astronomically large schedules
            order = np.lexsort((hi, lo, lid))
        return Schedule._from_canonical(
            self._n, FlatLayers(lo[order], hi[order], counts), self._meta
        )

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        if self._n != other._n:
            return False
        if self._layers is None and other._layers is None:
            a, b = self._flat, other._flat
            assert a is not None and b is not None
            return (
                np.array_equal(a.counts, b.counts)
                and np.array_equal(a.lo, b.lo)
                and np.array_equal(a.hi, b.hi)
            )
        return self._materialize() == other._materialize()

    def __hash__(self) -> int:
        return hash((self._n, self._materialize()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(n_vertices={self._n}, depth={self.depth}, "
            f"size={self.size})"
        )
