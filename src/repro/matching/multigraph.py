"""The column bipartite multigraph ``G[a, b]`` of the paper (Section IV-A).

For an ``m x n`` grid ``G`` and a permutation ``pi``, the bipartite
multigraph ``G[a, b]`` has the ``n`` columns of the grid on both sides and,
for every token whose source row lies in ``{a, ..., b}``, one edge from its
source column to its destination column, labelled with the (source row,
destination row) pair.

Facts used by the routers (and asserted in the test suite):

* ``G[0, m-1]`` (paper: ``G[1, m]``) is **m-regular**: every column contains
  exactly ``m`` tokens and is the destination of exactly ``m`` tokens.
* By König's edge-coloring theorem an ``r``-regular bipartite multigraph
  decomposes into ``r`` perfect matchings, so peeling perfect matchings one
  at a time always succeeds on the full window.
* Removing any perfect matching of the *full* vertex set keeps the
  multigraph regular (degree drops by one everywhere), so windowed peeling
  (which also removes only full perfect matchings) always leaves a
  decomposable remainder — this is what makes the paper's doubling window
  search (Algorithm 2) terminate.

A *perfect matching* here is a set of ``n`` tokens containing exactly one
token per source column and one per destination column.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import MatchingError
from ..perm.permutation import Permutation

__all__ = ["ColumnMultigraph"]


class ColumnMultigraph:
    """Mutable view of the token multigraph, supporting matching peeling.

    Parameters
    ----------
    shape:
        ``(m, n)`` — number of rows and columns of the grid.
    perm:
        The permutation to route; tokens are identified with their source
        vertex in row-major numbering (token ``t`` starts at
        ``(t // n, t % n)``).

    Notes
    -----
    Construction is fully vectorized; peeling maintains a boolean
    ``remaining`` mask over tokens rather than materializing edge lists.
    """

    __slots__ = (
        "m",
        "n",
        "src_row",
        "src_col",
        "dst_row",
        "dst_col",
        "_remaining",
    )

    def __init__(self, shape: tuple[int, int], perm: Permutation) -> None:
        m, n = shape
        if m <= 0 or n <= 0:
            raise MatchingError(f"invalid grid shape {shape}")
        if perm.size != m * n:
            raise MatchingError(
                f"permutation size {perm.size} != grid size {m * n}"
            )
        self.m = m
        self.n = n
        src = np.arange(m * n)
        dst = perm.targets
        self.src_row = src // n
        self.src_col = src % n
        self.dst_row = dst // n
        self.dst_col = dst % n
        self._remaining = np.ones(m * n, dtype=bool)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_remaining(self) -> int:
        """Number of tokens not yet consumed by a peeled matching."""
        return int(self._remaining.sum())

    def remaining_tokens(self) -> np.ndarray:
        """Ids of tokens not yet consumed."""
        return np.flatnonzero(self._remaining)

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) degree vectors of the remaining multigraph."""
        rem = self.remaining_tokens()
        left = np.bincount(self.src_col[rem], minlength=self.n)
        right = np.bincount(self.dst_col[rem], minlength=self.n)
        return left, right

    def is_regular(self) -> bool:
        """Whether all remaining degrees are equal on both sides."""
        left, right = self.degrees()
        return bool((left == left[0]).all() and (right == left[0]).all())

    # ------------------------------------------------------------------
    # peeling
    # ------------------------------------------------------------------
    def peel_perfect_matching(
        self,
        row_lo: int = 0,
        row_hi: int | None = None,
        pick: str = "center",
    ) -> np.ndarray | None:
        """Extract one perfect matching from the window ``[row_lo, row_hi]``.

        Considers only remaining tokens with **source row** inside the
        window (the paper's ``G[a, b]``). If the window's support graph has
        a perfect matching on the columns, one concrete token per matched
        column pair is chosen, consumed, and returned; otherwise ``None``
        is returned and nothing is consumed.

        Parameters
        ----------
        row_lo, row_hi:
            Inclusive row window (``row_hi`` defaults to the last row).
        pick:
            How to choose among parallel edges (tokens with the same
            source/destination column pair):

            * ``"center"`` — token whose source/destination rows are
              closest to the window center (locality-friendly; used by
              the locality-aware router),
            * ``"first"``  — smallest token id (the "arbitrary" choice of
              the naive ACG decomposition).

        Returns
        -------
        Array of ``n`` token ids (index = source column), or ``None``.
        """
        if row_hi is None:
            row_hi = self.m - 1
        if not (0 <= row_lo <= row_hi <= self.m - 1):
            raise MatchingError(f"bad row window [{row_lo}, {row_hi}]")
        if pick not in ("center", "first"):
            raise MatchingError(f"unknown pick strategy {pick!r}")

        n = self.n
        # Tokens are numbered row-major, so the window is one slice.
        lo = row_lo * n
        tokens = lo + np.flatnonzero(self._remaining[lo : (row_hi + 1) * n])
        if tokens.size < n:
            return None

        # Best representative token per (source column, destination column),
        # by (cost, token id); support-graph matching and instantiation are
        # delegated to the kernels.
        center = 0.5 * (row_lo + row_hi)
        if pick == "center":
            cost = np.abs(self.src_row[tokens] - center) + np.abs(
                self.dst_row[tokens] - center
            )
        else:
            cost = tokens.astype(float)
        sc = self.src_col[tokens]
        dc = self.dst_col[tokens]
        picked = kernels.ACTIVE.peel_matching(tokens, sc, dc, cost, n)
        if picked is None:
            return None

        chosen = np.asarray(picked, dtype=np.int64)
        self._remaining[chosen] = False
        return chosen

    def restore(self, tokens: np.ndarray) -> None:
        """Return previously consumed tokens to the multigraph (for search
        strategies that explore and backtrack)."""
        self._remaining[tokens] = True

    def matching_rows(self, tokens: np.ndarray) -> np.ndarray:
        """Concatenated source and destination rows of a matching's tokens.

        These ``2n`` values are exactly the terms of the paper's
        ``Delta(M, r) = sum |i_j - r| + sum |i'_j - r|`` metric.
        """
        return np.concatenate([self.src_row[tokens], self.dst_row[tokens]])
