"""Odd–even transposition routing on paths.

Both grid routing phases (column phases and the row phase) reduce to
routing many independent paths *in parallel*: each path carries a
permutation of destination indices, and odd–even transposition (OET) sorts
them with compare-exchange rounds that alternate between "even" pairs
``(0,1), (2,3), ...`` and "odd" pairs ``(1,2), (3,4), ...``. OET routes any
permutation of ``P_L`` in at most ``L`` rounds, and since each round is a
set of disjoint adjacent transpositions, every round is a matching of the
path — precisely the primitive the paper's ``GridRoute`` needs.

Two entry points:

* :func:`oet_rounds` — a single path; returns rounds of swap positions.
* :func:`oet_rounds_batched` — ``k`` paths of common length ``L``,
  **vectorized with numpy across the paths** (the guides' "vectorize the
  hot loop" advice: one compare/swap per round touches an ``(L/2, k)``
  block instead of Python-looping over ``k`` paths).

Both support choosing the starting parity; trying both parities and
keeping the shallower result ("parity optimization") costs a second pass
and saves a round roughly half the time.
"""

from __future__ import annotations

import numpy as np

from ..errors import RoutingError

__all__ = ["oet_rounds", "oet_rounds_batched", "oet_depth"]


def _check_permutation_columns(dest: np.ndarray) -> None:
    """Each column of ``dest`` must be a permutation of ``0..L-1``."""
    L = dest.shape[0]
    if not (np.sort(dest, axis=0) == np.arange(L)[:, None]).all():
        raise RoutingError("OET input columns must be permutations of 0..L-1")


def oet_rounds_batched(
    dest: np.ndarray, start_parity: int = 0, validate: bool = True
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sort ``k`` destination-index columns simultaneously.

    Parameters
    ----------
    dest:
        ``(L, k)`` integer array; column ``c`` holds the destination index
        (within its path) of the token currently at each position of path
        ``c``. Each column must be a permutation of ``0..L-1``. The array
        is not modified.
    start_parity:
        0 starts with even pairs ``(0,1), (2,3), ...``; 1 with odd pairs.
    validate:
        Skip the permutation check when the caller guarantees it.

    Returns
    -------
    A list of rounds. Each round is a pair ``(positions, paths)`` of equal
    length arrays: swap ``(positions[i], positions[i]+1)`` happens on path
    ``paths[i]``. Rounds with no swaps are omitted (they contribute no
    layer), but the parity alternation is preserved internally.

    Raises
    ------
    RoutingError
        If a column is not a permutation, or sorting fails to converge in
        ``L + 1`` rounds (impossible for valid input; defensive).
    """
    D = np.asarray(dest)
    if D.ndim != 2:
        raise RoutingError(f"dest must be 2-D (L, k), got shape {D.shape}")
    L, k = D.shape
    if validate:
        _check_permutation_columns(D)
    if L <= 1 or k == 0:
        return []
    D = D.copy()
    buf = np.empty((L // 2, k), dtype=D.dtype)
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    idle = False
    for r in range(L + 1):
        # Compare-exchange the pairs (s + 2i, s + 2i + 1) of every path at
        # once through strided views; record inversions row-major.
        s = (r + start_parity) % 2
        pairs = (L - s) // 2
        lo, hi = D[s : s + 2 * pairs : 2], D[s + 1 : s + 2 * pairs : 2]
        flat = np.flatnonzero(lo > hi)
        if not flat.size:
            if idle:  # no inversion at either parity: sorted
                break
            idle = True
            continue
        idle = False
        i, c = np.divmod(flat, k)
        rounds.append((s + 2 * i, c))
        tmp = np.minimum(lo, hi, out=buf[:pairs])
        np.maximum(lo, hi, out=hi)
        lo[...] = tmp
    if not (D == np.arange(L)[:, None]).all():
        raise RoutingError("odd-even transposition failed to converge")
    return rounds


def oet_rounds(
    dest: np.ndarray | list[int],
    start_parity: int = 0,
    optimize_parity: bool = True,
) -> list[list[int]]:
    """Route one path; returns rounds of swap positions ``i`` (meaning the
    adjacent transposition ``(i, i + 1)``).

    With ``optimize_parity`` both starting parities are tried and the
    shallower schedule returned (ties favour ``start_parity``).
    """
    d = np.asarray(dest).reshape(-1, 1)
    best: list[list[int]] | None = None
    parities = (start_parity, 1 - start_parity) if optimize_parity else (start_parity,)
    for p in parities:
        rounds = oet_rounds_batched(d, start_parity=p)
        as_lists = [sorted(pos.tolist()) for pos, _ in rounds]
        if best is None or len(as_lists) < len(best):
            best = as_lists
    return best if best is not None else []


def oet_depth(dest: np.ndarray | list[int], optimize_parity: bool = True) -> int:
    """Number of OET rounds needed to route one path (convenience)."""
    return len(oet_rounds(dest, optimize_parity=optimize_parity))
