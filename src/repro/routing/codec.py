"""Binary schedule codec (the serving hot-path format).

:func:`schedule_to_json` is the archival/interchange format — text,
self-describing, diffable. This module is the binary alternative for
the paths where both ends are ``repro``: the disk tier of the schedule
cache, the pool boundary, and the cluster ``cache_get``/``cache_put``
ops. A frame is a fixed little-endian header followed by the
schedule's three arrays (layer counts, ``lo`` and ``hi`` endpoints; see
:mod:`repro.routing.schedule`) in the narrowest integer width that
holds every vertex id, so a 64x64 grid schedule takes about a quarter
of the bytes an ``int64`` frame would.

Wire layout, version 2 (all integers little-endian)::

    offset  size  field
    0       8     magic  b"reproSC\\x02"  (version byte is the last byte)
    8       8     n_vertices   (int64, 1 .. 2**31 - 1)
    16      8     n_layers     (int64, >= 0)
    24      8     n_swaps      (int64, >= 0)
    32      8     meta_len     (int64, >= 0; UTF-8 JSON bytes, 0 = none)
    40      w*L   counts       (intW[n_layers])
    ..      w*S   lo           (intW[n_swaps])
    ..      w*S   hi           (intW[n_swaps])
    ..      M     metadata     (UTF-8 JSON object)

The width ``w`` follows from ``n_vertices``, so the header needs no
field for it: ``int16`` (w = 2) when ``n_vertices <= 32767``, else
``int32`` (w = 4). A layer holds at most ``n_vertices / 2`` swaps, so
the counts fit the same width.

Decoding widens the three arrays to ``int64`` (one copy each, so no
later arithmetic can overflow) and hands them to
:func:`~repro.routing.schedule.check_canonical`, which checks every
schedule invariant (range, canonical ``lo < hi`` order, per-layer
vertex-disjointness, ``(layer, lo, hi)`` sort order) with vectorized
checks whose extra memory is bounded, and never re-sorts. Any malformation
— a version-1 frame included — raises
:class:`~repro.errors.ScheduleError`; callers on the cache path turn
that into a miss. Decoding proves a frame is *a* schedule, not that it
routes any particular request: the serving layer checks that with
:meth:`~repro.routing.schedule.Schedule.verify`.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..errors import ScheduleError
from .schedule import Schedule, check_canonical

__all__ = [
    "CODEC_VERSION",
    "MAGIC",
    "MAX_VERTICES",
    "encode_schedule",
    "decode_schedule",
]

#: Binary format version (bumped on any layout change; the version byte
#: is baked into :data:`MAGIC` so a reader of another version rejects a
#: frame at the magic check instead of misparsing the header).
CODEC_VERSION = 2

#: Frame magic: ``b"reproSC"`` + the one-byte format version.
MAGIC = b"reproSC" + bytes([CODEC_VERSION])

#: Largest ``n_vertices`` a frame can carry (ids must fit ``int32``).
MAX_VERTICES = 2**31 - 1

#: Largest ``n_vertices`` whose ids are stored as ``int16``.
_INT16_MAX_VERTICES = 2**15 - 1

_HEADER = struct.Struct("<8sqqqq")  # magic, n_vertices, n_layers, n_swaps, meta_len


def _id_dtype(n: int) -> np.dtype:
    """The little-endian integer width that holds ids and counts for ``n``."""
    return np.dtype("<i2" if n <= _INT16_MAX_VERTICES else "<i4")


def encode_schedule(schedule: Schedule) -> bytes:
    """Serialize a schedule to the binary frame described above.

    Round-trips exactly through :func:`decode_schedule`, including the
    provenance metadata.

    Raises
    ------
    ScheduleError
        If the schedule has more than :data:`MAX_VERTICES` vertices.
    """
    n = schedule.n_vertices
    if n > MAX_VERTICES:
        raise ScheduleError(
            f"cannot encode a schedule on {n} vertices (max {MAX_VERTICES})"
        )
    counts, lo, hi = schedule._counts, schedule._lo, schedule._hi
    width = _id_dtype(n)
    meta = (
        json.dumps(schedule.metadata, separators=(",", ":")).encode("utf-8")
        if schedule.metadata
        else b""
    )
    header = _HEADER.pack(MAGIC, n, counts.size, lo.size, len(meta))
    return b"".join((
        header,
        counts.astype(width).tobytes(),
        lo.astype(width).tobytes(),
        hi.astype(width).tobytes(),
        meta,
    ))


def decode_schedule(data: bytes | bytearray | memoryview) -> Schedule:
    """Parse a frame produced by :func:`encode_schedule`.

    The three arrays are widened to ``int64``, checked, and become the
    schedule's arrays directly.

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
    if not 0 < n <= MAX_VERTICES or n_layers < 0 or n_swaps < 0 or meta_len < 0:
        raise ScheduleError(
            f"corrupt schedule header: n_vertices={n}, n_layers={n_layers}, "
            f"n_swaps={n_swaps}, meta_len={meta_len}"
        )
    width = _id_dtype(n)
    expected = _HEADER.size + width.itemsize * (n_layers + 2 * n_swaps) + meta_len
    if mv.nbytes != expected:
        raise ScheduleError(
            f"schedule frame size mismatch: {mv.nbytes} bytes, "
            f"header implies {expected}"
        )
    off = _HEADER.size
    arrays = []
    for count in (n_layers, n_swaps, n_swaps):
        raw = np.frombuffer(mv, dtype=width, count=count, offset=off)
        arrays.append(raw.astype(np.int64))
        off += width.itemsize * count
    counts, lo, hi = arrays
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
    return check_canonical(n, counts, lo, hi, metadata)
