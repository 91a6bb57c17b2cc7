"""Schedule serialization (JSON) and ASCII visualization.

Serialization lets schedules be cached, shipped to a device control
stack, or diffed between router versions. The visualizer renders a grid
schedule layer by layer as ASCII frames — invaluable when debugging a
router (every example in the paper's figures is effectively one of these
frames).

This is the *interchange* format: text, self-describing, stable. The
serving hot path (disk cache tier, pool-boundary crossings, cluster
``cache_get``/``cache_put``) uses the binary :mod:`repro.routing.codec`
frames instead; both formats round-trip the same schedules exactly.
:func:`schedule_to_dict` renders the document's layers straight from
the schedule's arrays, so a response that embeds a schedule (the
service's ``include_schedule``) is dumped to text once.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from ..errors import ScheduleError
from ..graphs.grid import GridGraph
from .schedule import Schedule

__all__ = [
    "schedule_to_dict",
    "schedule_to_json",
    "schedule_from_json",
    "render_grid_layer",
    "render_grid_schedule",
]

_FORMAT_VERSION = 1


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """The JSON document of a schedule, as plain dicts, lists and ints.

    The document records the format version, vertex count and layers
    (plus the provenance metadata, when present — an optional key, so
    version 1 readers remain compatible). The layers are rendered from
    the schedule's arrays without building the tuple view.
    """
    pairs = np.column_stack((schedule._lo, schedule._hi)).tolist()
    layers = []
    pos = 0
    for count in schedule._counts.tolist():
        layers.append(pairs[pos : pos + count])
        pos += count
    doc: dict[str, Any] = {
        "format": "repro.schedule",
        "version": _FORMAT_VERSION,
        "n_vertices": schedule.n_vertices,
        "layers": layers,
    }
    if schedule.metadata:
        doc["metadata"] = dict(schedule.metadata)
    return doc


def schedule_to_json(schedule: Schedule, indent: int | None = None) -> str:
    """Serialize a schedule to a JSON document (:func:`schedule_to_dict`).

    Round-trips exactly through :func:`schedule_from_json`.
    """
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def schedule_from_json(text: str) -> Schedule:
    """Parse a schedule serialized by :func:`schedule_to_json`.

    Raises
    ------
    ScheduleError
        On malformed documents or unsupported versions. The payload is
        re-validated by the :class:`~repro.routing.schedule.Schedule`
        constructor, so corrupt layers and non-integer vertex counts or
        ids are rejected too.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"invalid schedule JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "repro.schedule":
        raise ScheduleError("not a repro.schedule document")
    if doc.get("version") != _FORMAT_VERSION:
        raise ScheduleError(
            f"unsupported schedule format version {doc.get('version')!r}"
        )
    meta = doc.get("metadata")
    if meta is not None and not isinstance(meta, dict):
        raise ScheduleError("malformed schedule document: metadata must be an object")
    try:
        return Schedule(doc["n_vertices"], doc["layers"], metadata=meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc


def render_grid_layer(grid: GridGraph, layer) -> str:
    """One layer as ASCII art: ``o`` vertices, ``===``/``#`` swapped edges.

    Horizontal swaps render as ``o===o``, vertical swaps as ``#`` between
    the rows; idle couplings are drawn faintly (``---`` / ``|``).
    """
    m, n = grid.shape
    horiz = set()
    vert = set()
    for u, v in layer:
        (iu, ju), (iv, jv) = grid.coord(u), grid.coord(v)
        if iu == iv:
            horiz.add((iu, min(ju, jv)))
        elif ju == jv:
            vert.add((min(iu, iv), ju))
        else:  # pragma: no cover - guarded by Schedule.check_against
            raise ScheduleError(f"swap ({u}, {v}) is not a grid edge")
    lines: list[str] = []
    for i in range(m):
        row = []
        for j in range(n):
            row.append("o")
            if j + 1 < n:
                row.append("===" if (i, j) in horiz else "---")
        lines.append("".join(row))
        if i + 1 < m:
            sep = []
            for j in range(n):
                sep.append("#" if (i, j) in vert else "|")
                if j + 1 < n:
                    sep.append("   ")
            lines.append("".join(sep))
    return "\n".join(lines)


def render_grid_schedule(grid: GridGraph, schedule: Schedule) -> str:
    """All non-empty layers of a schedule as sequential ASCII frames."""
    if schedule.n_vertices != grid.n_vertices:
        raise ScheduleError("schedule size does not match the grid")
    frames = []
    t = 0
    for layer in schedule:
        if not layer:
            continue
        frames.append(f"layer {t} ({len(layer)} swaps):")
        frames.append(render_grid_layer(grid, layer))
        t += 1
    if not frames:
        return "(empty schedule)"
    return "\n".join(frames)
