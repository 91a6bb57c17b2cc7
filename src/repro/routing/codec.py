"""Zero-copy binary schedule codec (the serving hot-path format).

:func:`schedule_to_json` is the archival/interchange format — text,
self-describing, diffable. It is also what every warm cache hit used to
pay for: a disk-tier read parsed JSON into nested Python lists, and a
cluster ``cache_get`` round-tripped the same text over the wire. For a
large grid that is megabytes of number tokens per schedule.

This module is the binary alternative for the paths where both ends are
``repro``: a fixed little-endian header followed by the raw ``int64``
buffers of the :class:`~repro.routing.schedule.FlatLayers`
representation. Decoding slices the payload with a ``memoryview`` and
wraps the slices with ``np.frombuffer`` — no copy, no per-swap Python
objects — then hands the arrays straight to the lazy ``FlatLayers``
path of :class:`~repro.routing.schedule.Schedule`, so a decoded
schedule never materializes nested tuples unless a caller structurally
iterates it.

Wire layout (all integers little-endian)::

    offset  size  field
    0       8     magic  b"reproSC\\x01"  (version byte is the last byte)
    8       8     n_vertices   (int64, > 0)
    16      8     n_layers     (int64, >= 0)
    24      8     n_swaps      (int64, >= 0)
    32      8     meta_len     (int64, >= 0; UTF-8 JSON bytes, 0 = none)
    40      8*L   counts       (int64[n_layers])
    ..      8*S   lo           (int64[n_swaps])
    ..      8*S   hi           (int64[n_swaps])
    ..      M     metadata     (UTF-8 JSON object)

Decoding re-validates every invariant the public ``Schedule``
constructor enforces (range, canonical ``lo < hi`` order, per-layer
vertex-disjointness, ``(layer, lo, hi)`` sort order) with vectorized
checks, so a peer — or a corrupted disk file — can never plant an
invalid schedule. Any malformation raises
:class:`~repro.errors.ScheduleError`; callers on the cache path turn
that into a miss.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..errors import ScheduleError
from .schedule import FlatLayers, Schedule

__all__ = [
    "CODEC_VERSION",
    "MAGIC",
    "encode_schedule",
    "decode_schedule",
]

#: Binary format version (bumped on any layout change; the version byte
#: is baked into :data:`MAGIC` so old readers reject new frames at the
#: magic check instead of misparsing the header).
CODEC_VERSION = 1

#: Frame magic: ``b"reproSC"`` + the one-byte format version.
MAGIC = b"reproSC" + bytes([CODEC_VERSION])

_HEADER = struct.Struct("<8sqqqq")  # magic, n_vertices, n_layers, n_swaps, meta_len
_I64 = np.dtype("<i8")


def _flat_of(schedule: Schedule) -> FlatLayers:
    """The schedule's canonical flat arrays (built from tuples if needed)."""
    flat = schedule._flat
    if flat is not None:
        return flat
    layers = schedule.layers
    counts = np.asarray([len(layer) for layer in layers], dtype=np.int64)
    total = int(counts.sum())
    pairs = np.fromiter(
        (x for layer in layers for swap in layer for x in swap),
        dtype=np.int64,
        count=2 * total,
    ).reshape(-1, 2)
    return FlatLayers(
        np.ascontiguousarray(pairs[:, 0]),
        np.ascontiguousarray(pairs[:, 1]),
        counts,
    )


def encode_schedule(schedule: Schedule) -> bytes:
    """Serialize a schedule to the binary frame described above.

    Round-trips exactly through :func:`decode_schedule`, including the
    provenance metadata. Encoding from a flat-represented schedule (the
    numpy kernels' native output) is three buffer copies and no
    per-swap Python work.
    """
    flat = _flat_of(schedule)
    counts = np.ascontiguousarray(flat.counts, dtype=_I64)
    lo = np.ascontiguousarray(flat.lo, dtype=_I64)
    hi = np.ascontiguousarray(flat.hi, dtype=_I64)
    meta = (
        json.dumps(schedule.metadata, separators=(",", ":")).encode("utf-8")
        if schedule.metadata
        else b""
    )
    header = _HEADER.pack(
        MAGIC, schedule.n_vertices, counts.size, lo.size, len(meta)
    )
    return b"".join((header, counts.tobytes(), lo.tobytes(), hi.tobytes(), meta))


def decode_schedule(data: bytes | bytearray | memoryview) -> Schedule:
    """Parse a frame produced by :func:`encode_schedule`.

    The three ``int64`` buffers are wrapped zero-copy (read-only views
    over ``data``) and become the schedule's ``FlatLayers`` payload
    directly — ``FlatLayers`` arrays are never mutated after
    construction, so sharing the caller's buffer is safe.

    Raises
    ------
    ScheduleError
        On truncated input, a bad magic/version, inconsistent header
        fields, undecodable metadata, or payload arrays violating any
        schedule invariant — and on nothing else, whatever the bytes.
    """
    mv = memoryview(data)
    if mv.nbytes < _HEADER.size:
        raise ScheduleError(
            f"schedule frame truncated: {mv.nbytes} bytes < "
            f"{_HEADER.size}-byte header"
        )
    magic, n, n_layers, n_swaps, meta_len = _HEADER.unpack_from(mv)
    if magic != MAGIC:
        raise ScheduleError(
            f"not a schedule frame (magic {magic!r}, expected {MAGIC!r})"
        )
    if n <= 0 or n_layers < 0 or n_swaps < 0 or meta_len < 0:
        raise ScheduleError(
            f"corrupt schedule header: n_vertices={n}, n_layers={n_layers}, "
            f"n_swaps={n_swaps}, meta_len={meta_len}"
        )
    expected = _HEADER.size + 8 * (n_layers + 2 * n_swaps) + meta_len
    if mv.nbytes != expected:
        raise ScheduleError(
            f"schedule frame size mismatch: {mv.nbytes} bytes, "
            f"header implies {expected}"
        )
    off = _HEADER.size
    counts = np.frombuffer(mv, dtype=_I64, count=n_layers, offset=off)
    off += 8 * n_layers
    lo = np.frombuffer(mv, dtype=_I64, count=n_swaps, offset=off)
    off += 8 * n_swaps
    hi = np.frombuffer(mv, dtype=_I64, count=n_swaps, offset=off)
    off += 8 * n_swaps
    metadata = None
    if meta_len:
        try:
            metadata = json.loads(bytes(mv[off : off + meta_len]).decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and over-long integer
            # literals; RecursionError deeply nested arrays or objects.
            raise ScheduleError(f"corrupt schedule metadata: {exc}") from exc
        if not isinstance(metadata, dict):
            raise ScheduleError("schedule metadata must be a JSON object")
    _validate_flat(n, counts, lo, hi)
    flat = FlatLayers(counts=counts, lo=lo, hi=hi)
    return Schedule._from_canonical(n, flat, metadata)


def _validate_flat(
    n: int, counts: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> None:
    """Vectorized re-validation of the canonical-layers invariants.

    Mirrors what the public ``Schedule`` constructor checks swap by swap:
    every endpoint in range, no self-swaps (implied by ``lo < hi``),
    per-layer vertex-disjointness, and the canonical sort order the
    trusted ``_from_canonical`` path assumes.
    """
    # Bound every count by the swap count before summing: unbounded int64
    # counts can wrap the sum around to ``lo.size``. Bounded, the sum is
    # at most n_layers * n_swaps, which fits int64 for any frame < 64 GB.
    if counts.size and (int(counts.min()) < 0 or int(counts.max()) > lo.size):
        raise ScheduleError("corrupt schedule frame: layer count out of range")
    if int(counts.sum()) != lo.size:
        raise ScheduleError(
            "corrupt schedule frame: layer counts do not sum to the swap count"
        )
    if lo.size == 0:
        return
    if int(lo.min()) < 0 or int(hi.max()) >= n:
        raise ScheduleError("corrupt schedule frame: swap endpoint out of range")
    if not bool(np.all(lo < hi)):
        raise ScheduleError("corrupt schedule frame: non-canonical swap order")
    lid = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    if counts.size * n * n < 2**62:
        key = (lid * n + lo) * n + hi
        if not bool(np.all(key[1:] > key[:-1])):
            raise ScheduleError(
                "corrupt schedule frame: layers not sorted canonically"
            )
        ends = np.concatenate((lid * n + lo, lid * n + hi))
    else:  # pragma: no cover - astronomically large schedules
        order = np.lexsort((hi, lo, lid))
        if not bool(np.all(order == np.arange(order.size))):
            raise ScheduleError(
                "corrupt schedule frame: layers not sorted canonically"
            )
        ends = np.concatenate((lid * np.int64(n) + lo, lid * np.int64(n) + hi))
    if np.unique(ends).size != ends.size:
        raise ScheduleError("corrupt schedule frame: vertex reuse inside a layer")
