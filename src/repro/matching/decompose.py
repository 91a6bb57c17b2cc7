"""Perfect-matching decompositions of the column multigraph.

Two strategies, mirroring the paper's comparison:

* :func:`naive_decomposition` — the original Alon–Chung–Graham choice:
  peel ``m`` perfect matchings from the full multigraph "in an arbitrary
  manner" (we use smallest-token-id instantiation, full row window).
* :func:`windowed_decomposition` — the paper's locality-aware doubling
  search (Algorithm 2, lines 3–18): look for perfect matchings inside row
  windows of width ``w + 1`` for ``w = 0, 1, 2, 4, ...``, consuming
  matchings made of row-local tokens before ever considering global ones.

Both return the list of matchings as arrays of token ids. The windowed
variant additionally records, per matching, the window width at which it
was found (useful for diagnostics and tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MatchingError
from .multigraph import ColumnMultigraph

__all__ = ["Decomposition", "naive_decomposition", "windowed_decomposition"]


@dataclass
class Decomposition:
    """Result of decomposing the column multigraph into perfect matchings.

    Attributes
    ----------
    matchings:
        ``m`` arrays of ``n`` token ids each; ``matchings[k][j]`` is the
        token of matching ``k`` whose source column is ``j``.
    window_widths:
        For the windowed strategy, the window width (``w + 1`` rows) at
        which each matching was discovered; ``m`` (full height) for naive.
    rows_used:
        Per matching, the concatenated source/destination rows (``2n``
        values) — the inputs to the ``Delta`` metric.
    """

    matchings: list[np.ndarray]
    window_widths: list[int] = field(default_factory=list)
    rows_used: list[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.matchings)


def naive_decomposition(mg: ColumnMultigraph) -> Decomposition:
    """Peel ``m`` perfect matchings with arbitrary (first-id) instantiation.

    Raises
    ------
    MatchingError
        If the multigraph cannot supply ``m`` perfect matchings — which
        cannot happen for a genuine permutation input (the multigraph is
        ``m``-regular); the error guards corrupted state.
    """
    m = mg.m
    out: list[np.ndarray] = []
    for _ in range(m):
        pm = mg.peel_perfect_matching(0, m - 1, pick="first")
        if pm is None:
            raise MatchingError(
                "regular multigraph failed to yield a perfect matching; "
                "input was not a permutation or state is corrupted"
            )
        out.append(pm)
    return Decomposition(
        matchings=out,
        window_widths=[m] * m,
        rows_used=[mg.matching_rows(pm) for pm in out],
    )


def windowed_decomposition(
    mg: ColumnMultigraph,
    growth: str = "nested",
) -> Decomposition:
    """The paper's doubling-window matching search (Algorithm 2, lines 3–18).

    Starting with window size ``w = 0`` (single rows) and growing each
    round, scan the row windows ``[r, min(r + w, m - 1)]`` for
    ``r = 0, w+1, 2(w+1), ...`` and greedily peel every perfect matching
    found, until ``m`` matchings have been collected. Matchings found at
    small ``w`` consist of tokens whose source rows are close together —
    the locality the router later exploits via the ``Delta`` metric.

    Parameters
    ----------
    growth:
        How the window parameter ``w`` grows between passes.

        * ``"nested"`` (default) — ``w <- 2w + 1``, i.e. window widths
          ``1, 2, 4, 8, ...`` aligned at multiples of the width. Windows
          of successive passes then **nest**, which preserves a key
          invariant: peeling a perfect matching from a sub-window removes
          exactly one token per column, so every ancestor window that was
          regular stays regular and keeps decomposing. On block-local
          permutations this finds *every* matching at the block scale
          (empirically collapsing the column phases from ~20 rounds to
          the block height).
        * ``"paper"`` — the literal Algorithm 2 update ``w <- 2w``
          (widths ``1, 2, 3, 5, 9, ...``). These windows straddle block
          boundaries, and early misaligned peels can destroy the
          regularity of later windows, forcing some matchings global.
          Kept for the faithfulness ablation
          (``benchmarks/bench_ablation_strategies.py``).

    Raises
    ------
    MatchingError
        On an unknown ``growth``, or if matchings are still missing after
        the window has covered all rows twice (impossible for permutation
        inputs; defensive).
    """
    if growth not in ("nested", "paper"):
        raise MatchingError(f"unknown window growth {growth!r}")
    m = mg.m
    out: list[np.ndarray] = []
    widths: list[int] = []
    w = 0
    full_window_passes = 0
    while len(out) < m:
        r = 0
        while r < m:
            hi = min(r + w, m - 1)
            while len(out) < m:
                pm = mg.peel_perfect_matching(r, hi, pick="center")
                if pm is None:
                    break
                out.append(pm)
                widths.append(w + 1)
            r += w + 1
        if w >= m - 1:
            full_window_passes += 1
            if full_window_passes > 1 and len(out) < m:
                raise MatchingError(
                    "windowed decomposition failed to complete; "
                    "input was not a permutation or state is corrupted"
                )
        if growth == "nested":
            w = 2 * w + 1
        else:
            w = 1 if w == 0 else 2 * w
    return Decomposition(
        matchings=out,
        window_widths=widths,
        rows_used=[mg.matching_rows(pm) for pm in out],
    )
