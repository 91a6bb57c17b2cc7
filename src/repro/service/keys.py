"""Canonical, collision-safe fingerprints for routing requests.

The service layer caches schedules across calls and processes, so cache
keys must be

* **structural** — two graphs with the same vertex set and edge set get
  the same key regardless of how they were built (``GridGraph(2, 3)``
  and ``Graph(6, <grid edges>)`` compare equal, so they must also hash
  equal here);
* **stable across process restarts** — no dependence on ``id()``,
  ``PYTHONHASHSEED`` or dict iteration order, because the disk tier of
  the cache outlives the process;
* **collision-safe** — keys are SHA-256 digests over an unambiguous,
  length-prefixed byte encoding, so distinct requests get distinct keys
  for every practical purpose.

Two related encodings live here:

* :func:`graph_fingerprint` / :func:`request_key` — the hashes;
* :func:`graph_spec` / :func:`graph_from_spec` — a small JSON-able
  description that *reconstructs* the graph in a worker process (the
  batch executor ships specs, not pickled objects, across the pool).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..errors import GraphError
from ..graphs.base import Graph
from ..graphs.cartesian import CartesianProduct
from ..graphs.grid import GridGraph
from ..perm.permutation import Permutation

__all__ = [
    "RequestKey",
    "graph_fingerprint",
    "graph_spec",
    "graph_from_spec",
    "permutation_fingerprint",
    "canonical_options",
    "request_key",
    "text_fingerprint",
]

#: Bump when the byte encoding changes; part of every digest so stale
#: on-disk cache entries from an older encoding can never be returned.
_KEY_VERSION = 1


def _h(*parts: bytes) -> str:
    """SHA-256 hex digest of length-prefixed parts (unambiguous concat)."""
    h = hashlib.sha256()
    h.update(f"repro.service.v{_KEY_VERSION}".encode())
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def graph_fingerprint(graph: Graph) -> str:
    """Structural digest of a coupling graph.

    Depends only on the vertex count and the canonical edge set —
    matching :meth:`repro.graphs.base.Graph.__eq__` — never on the
    concrete subclass, the ``name`` label, or construction order.

    Returns
    -------
    str
        A SHA-256 hex digest; equal graphs (in the structural sense
        above) always hash equal, across processes and restarts.
    """
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    return _h(
        b"graph",
        graph.n_vertices.to_bytes(8, "little"),
        edges.tobytes(),
    )


def permutation_fingerprint(perm: Permutation) -> str:
    """Digest of a permutation's destination array.

    Returns
    -------
    str
        A SHA-256 hex digest over the little-endian int64 encoding of
        ``perm.targets`` — equal permutations hash equal regardless of
        how they were constructed.
    """
    return _h(b"perm", np.ascontiguousarray(perm.targets, dtype=np.int64).tobytes())


def text_fingerprint(text: str) -> str:
    """Digest of an arbitrary text payload (e.g. a QASM document).

    Returns
    -------
    str
        A SHA-256 hex digest of the UTF-8 bytes, domain-separated from
        the other fingerprint kinds so a QASM document can never
        collide with, say, a graph encoding.
    """
    return _h(b"text", text.encode("utf-8"))


def canonical_options(options: Mapping[str, Any] | None) -> str:
    """Options rendered as canonical JSON (sorted keys, no whitespace).

    Raises
    ------
    TypeError
        If an option value is not JSON-serializable — unserializable
        options could not be fingerprinted deterministically.
    """
    if not options:
        return "{}"
    return json.dumps(dict(options), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RequestKey:
    """A routing request's identity: digest plus human-readable parts.

    ``digest`` alone decides cache equality; the remaining fields exist
    for logging and JSONL output.
    """

    digest: str
    graph: str
    perm: str
    router: str
    options: str

    @property
    def short(self) -> str:
        """First 12 hex chars — enough for logs, not for equality."""
        return self.digest[:12]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.short


def request_key(
    graph: Graph,
    perm: Permutation,
    router: str,
    options: Mapping[str, Any] | None = None,
) -> RequestKey:
    """Fingerprint a ``(graph, permutation, router, options)`` request.

    Parameters
    ----------
    graph, perm:
        The routing instance (hashed structurally — see
        :func:`graph_fingerprint` / :func:`permutation_fingerprint`).
    router:
        The router name; different routers cache separately.
    options:
        Router options, canonicalized by :func:`canonical_options` so
        key order cannot split the cache.

    Returns
    -------
    RequestKey
        The digest plus the human-readable component fingerprints.

    Raises
    ------
    TypeError
        If an option value is not JSON-serializable (it could not be
        fingerprinted deterministically).
    """
    g = graph_fingerprint(graph)
    p = permutation_fingerprint(perm)
    opts = canonical_options(options)
    digest = _h(
        b"request",
        g.encode(),
        p.encode(),
        router.encode("utf-8"),
        opts.encode("utf-8"),
    )
    return RequestKey(digest=digest, graph=g, perm=p, router=router, options=opts)


# ----------------------------------------------------------------------
# graph specs: reconstructible descriptions for worker processes
# ----------------------------------------------------------------------
def graph_spec(graph: Graph) -> dict[str, Any]:
    """A JSON-able description sufficient to rebuild ``graph``.

    Grid graphs are described by their shape (compact, and the rebuilt
    object keeps the grid's O(1) Manhattan metric); a Cartesian product
    by the specs of its two factors, so the rebuilt graph is again a
    :class:`~repro.graphs.cartesian.CartesianProduct` (the ``cartesian``
    router needs the factors); anything else falls back to the explicit
    edge list.
    """
    if isinstance(graph, GridGraph):
        return {"kind": "grid", "rows": graph.n_rows, "cols": graph.n_cols}
    if isinstance(graph, CartesianProduct):
        g1, g2 = graph_spec(graph.g1), graph_spec(graph.g2)
        return {"kind": "product", "g1": g1, "g2": g2}
    return {
        "kind": "generic",
        "n_vertices": graph.n_vertices,
        "edges": [[u, v] for u, v in graph.edges],
        "name": graph.name,
    }


def graph_from_spec(spec: Mapping[str, Any]) -> Graph:
    """Rebuild a graph from :func:`graph_spec` output.

    Raises
    ------
    GraphError
        On an unknown or malformed spec.
    """
    try:
        kind = spec["kind"]
        if kind == "grid":
            return GridGraph(int(spec["rows"]), int(spec["cols"]))
        if kind == "product":
            return CartesianProduct(
                graph_from_spec(spec["g1"]), graph_from_spec(spec["g2"])
            )
        if kind == "generic":
            return Graph(
                int(spec["n_vertices"]),
                [(int(u), int(v)) for u, v in spec["edges"]],
                name=str(spec.get("name", "graph")),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph spec: {exc}") from exc
    raise GraphError(f"unknown graph spec kind {kind!r}")
