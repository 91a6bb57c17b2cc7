"""Seeded request inputs, the depth lower bound and the schedule checker.

Everything here uses numpy only and never imports ``repro``: the inputs
the daemon receives, the bound ``depth_ratio`` divides by and the check
that decides whether a served schedule is correct must not depend on the
code under test.

Conventions shared with the ``repro serve`` wire format: grid vertex
``v`` sits at ``divmod(v, cols)``; a ``perm`` array sends the token
starting at vertex ``v`` to vertex ``perm[v]``; a schedule is a list of
layers, each a list of ``[u, v]`` swaps.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_schedule",
    "depth_and_size",
    "max_displacement",
    "random_perms",
]


def random_perms(
    rng: np.random.Generator, n_vertices: int, count: int
) -> list[list[int]]:
    """``count`` uniformly random permutations of ``range(n_vertices)``."""
    return [rng.permutation(n_vertices).tolist() for _ in range(count)]


def max_displacement(perm, cols: int) -> int:
    """The largest Manhattan distance any token must travel.

    Each layer moves a token across at most one edge, so this bounds the
    depth of every valid schedule from below.
    """
    targets = np.asarray(perm, dtype=np.int64)
    r, c = np.divmod(np.arange(targets.size), cols)
    tr, tc = np.divmod(targets, cols)
    return int((np.abs(r - tr) + np.abs(c - tc)).max())


def depth_and_size(layers) -> tuple[int, int]:
    """Non-empty layer count and total swap count of a schedule."""
    return sum(1 for layer in layers if layer), sum(len(layer) for layer in layers)


def check_schedule(layers, perm, rows: int, cols: int) -> str | None:
    """Check a served schedule; ``None`` when valid, else the first fault.

    A valid schedule swaps only along grid edges, touches each vertex at
    most once per layer, and moves every token to its target.
    """
    n = rows * cols
    targets = np.asarray(perm, dtype=np.int64)
    if targets.shape != (n,):
        return f"perm has shape {targets.shape}, expected ({n},)"
    tokens = np.arange(n)
    for depth, layer in enumerate(layers):
        if not layer:
            continue
        swaps = np.asarray(layer, dtype=np.int64)
        if swaps.ndim != 2 or swaps.shape[1] != 2:
            return f"layer {depth} is not a list of vertex pairs"
        if swaps.min() < 0 or swaps.max() >= n:
            return f"layer {depth} names a vertex outside the {rows}x{cols} grid"
        u, v = swaps[:, 0], swaps[:, 1]
        ur, uc = np.divmod(u, cols)
        vr, vc = np.divmod(v, cols)
        if not np.all(np.abs(ur - vr) + np.abs(uc - vc) == 1):
            return f"layer {depth} swaps a pair that is not a grid edge"
        if np.bincount(swaps.ravel(), minlength=n).max() > 1:
            return f"layer {depth} uses a vertex twice"
        tokens[u], tokens[v] = tokens[v], tokens[u].copy()
    # Position p now holds the token that started at tokens[p].
    if not np.array_equal(targets[tokens], np.arange(n)):
        return "schedule does not realize the requested permutation"
    return None
