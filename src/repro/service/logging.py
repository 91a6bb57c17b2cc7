"""Structured logging for the service stack.

One stdlib ``logging`` hierarchy rooted at ``repro`` replaces the
daemon's ad-hoc stderr prints. :func:`configure_logging` (called by
``repro serve`` from ``--log-level`` / ``--log-json``) installs a
single stream handler; with ``--log-json`` every line is one JSON
object whose schema is stable for log shippers::

    {"ts": 1717..., "level": "INFO", "logger": "repro.service.cli",
     "message": "...", "trace_id": "...", "span_id": "...", ...}

The ``trace_id`` / ``span_id`` correlation fields are filled from the
active trace (:mod:`repro.service.tracing`) at emit time — log lines
written inside a traced request link back to its span tree without any
caller cooperation. Extra fields passed via ``logger.info(...,
extra={...})`` are merged into the JSON object.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import IO, Any

__all__ = ["JsonFormatter", "configure_logging", "get_logger"]

#: Logger-record attributes that are stdlib plumbing, not user payload.
_RESERVED = frozenset(
    logging.LogRecord(
        "", 0, "", 0, "", None, None
    ).__dict__
) | {"message", "asctime", "taskName"}


def get_logger(name: str = "repro.service") -> logging.Logger:
    """A logger in the ``repro`` hierarchy (dots make children)."""
    if name != "repro" and not name.startswith("repro."):
        name = f"repro.{name}"
    return logging.getLogger(name)


class JsonFormatter(logging.Formatter):
    """Formats each record as one JSON object per line.

    Adds ``trace_id``/``span_id`` from the active trace context when the
    record does not already carry them, so logs emitted inside a traced
    request correlate with its spans.
    """

    def format(self, record: logging.LogRecord) -> str:
        doc: dict[str, Any] = {
            "ts": record.created,
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key not in _RESERVED and not key.startswith("_"):
                doc[key] = value
        if "trace_id" not in doc:
            # Imported lazily: tracing imports telemetry and this module
            # must stay importable first.
            from .tracing import _CURRENT

            cur = _CURRENT.get()
            if cur is not None:
                state, sp = cur
                doc["trace_id"] = state.trace_id
                doc["span_id"] = sp.span_id
        if record.exc_info and record.exc_info[0] is not None:
            doc["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(doc, default=str, separators=(",", ":"))


def configure_logging(
    level: str = "info",
    json_output: bool = False,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Install the service log handler on the ``repro`` root logger.

    Idempotent: a prior handler installed by this function is replaced,
    so re-invocation (tests, repeated ``serve``) never double-logs.
    Returns the configured root logger.

    Parameters
    ----------
    level:
        Case-insensitive stdlib level name (``"debug"``, ``"info"``,
        ``"warning"``, ``"error"``).
    json_output:
        Emit :class:`JsonFormatter` lines instead of human-readable text.
    stream:
        Destination (default ``sys.stderr``).

    Raises
    ------
    ValueError
        On an unknown level name.
    """
    numeric = logging.getLevelName(level.upper())
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_service_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler._repro_service_handler = True  # type: ignore[attr-defined]
    if json_output:
        handler.setFormatter(JsonFormatter())
    else:
        formatter = logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s: %(message)s"
        )
        formatter.converter = time.gmtime
        handler.setFormatter(formatter)
    root.addHandler(handler)
    root.setLevel(numeric)
    root.propagate = False
    return root
