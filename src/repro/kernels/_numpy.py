"""The numpy kernels: the product implementation of the kernel contract.

Vectorization strategy per kernel:

* **Hopcroft–Karp** — the BFS layering runs level-synchronously over a
  CSR adjacency with one gather per level (``indices`` fancy-indexed by
  the frontier's edge ranges) instead of a Python queue. The augmenting
  pass is *frontier-batched*: every still-free root runs its reference
  DFS simultaneously as one array program (explicit per-root stacks,
  one vectorized frame-scan per tick), speculating against the
  phase-start state; a prefix-commit step then keeps the longest run of
  roots (in reference root order) whose reads are disjoint from earlier
  roots' writes, so the committed matching is byte-identical to running
  the reference DFS root by root. Deferred roots re-run against the
  updated state; small phases and collapsed batches fall back to the
  exact sequential DFS.
* **Matching peel** — the best-token-per-column-pair reduction becomes a
  single ``lexsort`` by ``(pair, cost, token)``; the reference dict's
  insertion order (first occurrence of a pair in ascending token order)
  is the minimum array index of each sorted pair group
  (``np.minimum.reduceat``), and one ``argsort`` groups the edges by
  source column in that order, so the Hopcroft–Karp adjacency — and
  hence the peeled matching — is byte-identical.
* **Odd–even transposition** — delegates to the already-vectorized
  :func:`repro.routing.path_oet.oet_rounds_batched` and maps rounds to
  vertex-id swap arrays with array arithmetic.
* **Schedule assembly** — the OET rounds are concatenated into flat
  swap arrays and handed to
  :func:`~repro.routing.schedule.build_schedule`, which validates,
  ASAP-compacts (a gather/scatter per layer) and sorts them; the
  serial-swap compaction is a plain loop feeding the same builder.

Small instances short-circuit to the reference implementation (same
results, less array overhead).

Why the batched augmentation is exact
-------------------------------------

Distance labels use the integer sentinel ``n_left + 1`` for
"unreached"/"dead" (real labels never exceed ``n_left - 1``). Within a
phase the DFS stack always holds one vertex per depth and
``dist[stack[d]] == d``, which yields two load-bearing facts:

1. *Level filtering is lossless.* For any edge ``(u, v)`` whose right
   vertex is matched at phase start, the BFS guarantees
   ``dist[match_r[v]] <= dist[u] + 1``. Augmentations re-match rights
   only to *shallower* lefts and never free a right mid-phase, so an
   edge failing ``dist[match_r[v]] == dist[u] + 1`` at phase start can
   never pass the DFS runtime check later in the phase. Dropping those
   edges changes nothing the reference DFS ever does.
2. *Speculation is safe to validate by read/write sets.* A root's DFS
   reads only ``match_r`` of scanned rights and ``dist`` of their
   partners; it writes only ``dist`` of vertices it exhausts and the
   match arrays along its augmenting path. A speculative run over the
   committed state is therefore identical to the reference run exactly
   when its read set misses every earlier root's write set — the
   prefix-commit rule. The first pending root always commits, so every
   pass makes progress.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from ..errors import ScheduleError
from ..profiling import stage
from .base import KernelBackend

if TYPE_CHECKING:
    from ..routing.schedule import Schedule

__all__ = ["NumpyKernelBackend"]

#: Below this edge count Hopcroft–Karp delegates to the reference code.
_SMALL_E = 64

#: Below this many pending free roots a phase skips the level filter
#: entirely (its O(E) setup would outweigh the dead edges it skips).
_FILTER_MIN_ROOTS = 8

#: Below this many pending free roots a phase augments sequentially.
_MIN_BATCH_ROOTS = 64

#: Minimum mean filtered degree (level-graph edges per reachable left
#: vertex) for the lock-step pass to engage. Wide frames amortize the
#: fixed per-tick array cost over many edges; narrow ones make the
#: sequential DFS strictly cheaper (measured crossover ~2-8, winners
#: sit at 8+).
_MIN_BATCH_DEG = 6

#: Below this many still-running speculative roots the lock-step loop
#: finishes them one by one in Python (array ticks stop paying off).
_MIN_LOCKSTEP = 3

#: Initial speculation window: how many pending roots a pass runs
#: simultaneously. Adapted per pass (doubled on a full commit, shrunk
#: toward the observed conflict horizon otherwise) so contended phases
#: stop wasting speculative work that cannot commit.
_INIT_WINDOW = 128

def _bfs_layers(
    n_left: int,
    indices: np.ndarray,
    src: np.ndarray,
    match_l: np.ndarray,
    match_r: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Level-synchronous BFS layering; returns (left distances, augmentable).

    Reproduces the reference queue BFS exactly: free left vertices are
    level 0, and a matched left vertex gets level ``d + 1`` when first
    reached from level ``d`` through its partner. ``found`` is True iff
    any explored edge ends at a free right vertex. ``src`` is the
    per-edge source vertex (the CSR ``indptr`` expanded once per call,
    shared across phases). Distances are int64 with ``n_left + 1`` as the
    unreached sentinel (comparisons behave exactly like the reference's
    ``inf`` labels because finite labels never exceed ``n_left - 1``).
    """
    unreached = n_left + 1
    dist = np.full(n_left, unreached, dtype=np.int64)
    fmask = match_l == -1
    dist[fmask] = 0
    found = False
    d = 0
    while True:
        ws = match_r[indices[fmask[src]]]
        if not found and bool((ws == -1).any()):
            found = True
        cand = ws[ws >= 0]
        cand = cand[dist[cand] == unreached]
        if cand.size == 0:
            break
        d += 1
        dist[cand] = d
        fmask = np.zeros(n_left, dtype=bool)
        fmask[cand] = True
    return dist, found


def _augment_roots(
    roots: Iterable[int],
    adj: Sequence[Sequence[int]],
    dist: list[int],
    match_l: list[int],
    match_r: list[int],
    unreached: int,
) -> int:
    """Sequential augmenting DFS over ``roots``, identical to the reference.

    Operates on plain lists (the fast representation for a Python inner
    loop); ``dist`` entries are set to ``unreached`` on frame exhaustion
    exactly where the reference writes its infinity label.
    """
    size = 0
    for root in roots:
        if match_l[root] != -1:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        path: list[tuple[int, int]] = []
        augmented = False
        while stack:
            u, idx = stack[-1]
            au = adj[u]
            if idx >= len(au):
                dist[u] = unreached
                stack.pop()
                if path:
                    path.pop()
                continue
            stack[-1] = (u, idx + 1)
            v = au[idx]
            w = match_r[v]
            if w == -1:
                path.append((u, v))
                for pu, pv in path:
                    match_l[pu] = pv
                    match_r[pv] = pu
                augmented = True
                break
            if dist[w] == dist[u] + 1:
                path.append((u, v))
                stack.append((w, 0))
        if augmented:
            size += 1
    return size


def _greedy_phase(
    n_left: int,
    adj: Sequence[Sequence[int]],
    match_l: list[int],
    match_r: list[int],
) -> int:
    """Exact first phase: match each left vertex to its first free right.

    On an empty matching every left vertex is free, so the first BFS
    labels them all level 0. A right vertex matched *during* the phase
    is matched to one of those level-0 lefts, and the DFS descend check
    ``dist[match_r[v]] == dist[u] + 1`` compares 0 to 1 — it can never
    pass. The reference DFS therefore degenerates to first-free-right
    greedy, and this tight loop is byte-identical to it.
    """
    size = 0
    for u in range(n_left):
        for v in adj[u]:
            if match_r[v] == -1:
                match_l[u] = v
                match_r[v] = u
                size += 1
                break
    return size


def _level_filter(
    n_left: int,
    src: np.ndarray,
    indices: np.ndarray,
    dist: np.ndarray,
    match_r: np.ndarray,
    unreached: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-start level-graph filter: CSR in, traversal-equivalent CSR out.

    Keeps edge ``(u, v)`` iff ``dist[u]`` is finite and ``v`` is free or
    its partner sits exactly one BFS level below ``u`` (see the module
    docstring for why dropped edges can never be traversed later in the
    phase). Skipped edges carry no reads that matter: their runtime
    check fails under every mid-phase state, so excluding them leaves
    the committed execution byte-identical.
    """
    du = dist[src]
    mr = match_r[indices]
    matched = mr >= 0
    dmr = np.where(matched, dist[np.where(matched, mr, 0)], 0)
    keep = du != unreached
    keep &= ~matched | (dmr == du + 1)
    f_indices = indices[keep]
    f_counts = np.bincount(src[keep], minlength=n_left)
    f_indptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(f_counts)))
    return f_indptr.astype(np.int64), f_indices


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate int64 coordinate chunks (empty-safe)."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


class _ReadLog:
    """Sparse read/kill footprint of one speculative lock-step pass.

    Coordinate chunks, not dense ``(roots, vertices)`` bitmaps: the
    footprint of a pass is proportional to the edges its DFS frames
    actually examine, so validation cost follows the work done instead
    of ``O(roots * n)`` (which dominated the dense formulation).
    """

    __slots__ = ("rr_r", "rr_v", "lr_r", "lr_w", "pi_r", "pi_u")

    def __init__(self) -> None:
        self.rr_r: list[np.ndarray] = []  # (root, right) reads of match_r
        self.rr_v: list[np.ndarray] = []
        self.lr_r: list[np.ndarray] = []  # (root, left) reads of dist
        self.lr_w: list[np.ndarray] = []
        self.pi_r: list[np.ndarray] = []  # (root, left) private dead labels
        self.pi_u: list[np.ndarray] = []

    def add_rights(self, roots: np.ndarray, vs: np.ndarray) -> None:
        self.rr_r.append(roots)
        self.rr_v.append(vs)

    def add_lefts(self, roots: np.ndarray, ws: np.ndarray) -> None:
        self.lr_r.append(roots)
        self.lr_w.append(ws)

    def add_kills(self, roots: np.ndarray, us: np.ndarray) -> None:
        self.pi_r.append(roots)
        self.pi_u.append(us)

    def add_py(self, r: int, rv: list[int], lw: list[int], pu: list[int]) -> None:
        one = np.int64(r)
        if rv:
            self.add_rights(np.full(len(rv), one), np.asarray(rv, dtype=np.int64))
        if lw:
            self.add_lefts(np.full(len(lw), one), np.asarray(lw, dtype=np.int64))
        if pu:
            self.add_kills(np.full(len(pu), one), np.asarray(pu, dtype=np.int64))


def _finish_root(
    r: int,
    stack_u: np.ndarray,
    stack_idx: np.ndarray,
    chosen_v: np.ndarray,
    top: np.ndarray,
    running: np.ndarray,
    augmented: np.ndarray,
    aug_len: np.ndarray,
    reads: "_ReadLog",
    priv_inf: np.ndarray,
    f_indptr: np.ndarray,
    f_indices: np.ndarray,
    dist: np.ndarray,
    match_r: np.ndarray,
    unreached: int,
) -> None:
    """Finish one speculative root's DFS in Python (lock-step tail case).

    Continues the exact reference walk from the root's current stack,
    still recording reads and private dead labels so the prefix-commit
    validation sees the complete footprint.
    """
    t = int(top[r])
    su, si, cv = stack_u[r], stack_idx[r], chosen_v[r]
    pi = priv_inf[r]
    rv: list[int] = []
    lw: list[int] = []
    pu: list[int] = []
    while t >= 0:
        u = int(su[t])
        p = int(f_indptr[u]) + int(si[t])
        if p >= int(f_indptr[u + 1]):
            pi[u] = True
            pu.append(u)
            t -= 1
            continue
        si[t] += 1
        v = int(f_indices[p])
        rv.append(v)
        w = int(match_r[v])
        if w == -1:
            cv[t] = v
            augmented[r] = True
            aug_len[r] = t + 1
            break
        lw.append(w)
        dw = unreached if pi[w] else int(dist[w])
        if dw == t + 1:
            cv[t] = v
            t += 1
            su[t] = w
            si[t] = 0
    top[r] = t
    running[r] = False
    reads.add_py(r, rv, lw, pu)


def _augment_pass(
    active: np.ndarray,
    f_indptr: np.ndarray,
    f_indices: np.ndarray,
    dist: np.ndarray,
    match_l: np.ndarray,
    match_r: np.ndarray,
    width: int,
    unreached: int,
) -> tuple[int, int]:
    """One speculative lock-step pass over the pending free roots.

    Every root advances one DFS *frame scan* per tick: the remaining
    filtered adjacency of its stack top is examined in one vectorized
    sweep (reads recorded), the first admissible edge chosen, and the
    stack pushed/popped accordingly — so a tick costs a fixed number of
    array ops for all roots together instead of a Python iteration per
    edge. Admissibility evaluated at scan time equals admissibility at
    reference exam time because within a pass the committed state is
    frozen and a frame's candidate partners cannot be killed from
    deeper frames (one vertex per depth; see module docstring).

    Commits the longest valid prefix (reference root order) and returns
    ``(committed_roots, committed_augmentations)``; ``dist``/``match_l``
    /``match_r`` are mutated in place. Always commits at least one root.
    """
    n_roots = int(active.size)
    n_left = int(dist.size)
    n_right = int(match_r.size)
    stack_u = np.zeros((n_roots, width), dtype=np.int64)
    stack_idx = np.zeros((n_roots, width), dtype=np.int64)
    chosen_v = np.zeros((n_roots, width), dtype=np.int64)
    top = np.zeros(n_roots, dtype=np.int64)
    stack_u[:, 0] = active
    running = np.ones(n_roots, dtype=bool)
    augmented = np.zeros(n_roots, dtype=bool)
    aug_len = np.zeros(n_roots, dtype=np.int64)
    # Dense only where the hot path needs random access (the per-root
    # dead-label overlay); the validation footprint is sparse.
    priv_inf = np.zeros((n_roots, n_left), dtype=bool)
    reads = _ReadLog()

    rows = np.arange(n_roots)
    while rows.size:
        if rows.size < _MIN_LOCKSTEP:
            for r in rows.tolist():
                _finish_root(
                    r, stack_u, stack_idx, chosen_v, top, running,
                    augmented, aug_len, reads, priv_inf,
                    f_indptr, f_indices, dist, match_r, unreached,
                )
            break
        t = top[rows]
        u = stack_u[rows, t]
        start = f_indptr[u] + stack_idx[rows, t]
        cnt = f_indptr[u + 1] - start
        has = cnt > 0
        empty = rows[~has]
        if empty.size:
            # Frame already exhausted: the root's private dead label.
            priv_inf[empty, u[~has]] = True
            reads.add_kills(empty, u[~has])
            top[empty] -= 1
            running[empty[top[empty] < 0]] = False
        sr = rows[has]
        if sr.size:
            scnt = cnt[has]
            st = t[has]
            total = int(scnt.sum())
            ends = np.cumsum(scnt)
            seg = ends - scnt
            flat = np.arange(total) + np.repeat(start[has] - seg, scnt)
            v = f_indices[flat]
            local = np.repeat(np.arange(sr.size), scnt)
            rows_e = sr[local]
            w = match_r[v]
            wm = w >= 0
            wsafe = np.where(wm, w, 0)
            dw = np.where(priv_inf[rows_e, wsafe], unreached, dist[wsafe])
            adm = ~wm | (dw == st[local] + 1)
            pos = np.where(adm, np.arange(total), total)
            first = np.minimum.reduceat(pos, seg)
            found = first < total
            # Record reads *exactly* as the reference examines edges: up
            # to and including the chosen one (the whole remainder when
            # the frame exhausts). Anything beyond would be a phantom
            # read that only manufactures spurious commit conflicts.
            exam = np.arange(total) <= first[local]
            rows_x = rows_e[exam]
            vx = v[exam]
            wx = w[exam]
            reads.add_rights(rows_x, vx)
            wxm = wx >= 0
            if wxm.any():
                reads.add_lefts(rows_x[wxm], wx[wxm])
            nf = sr[~found]
            if nf.size:
                # Whole remaining frame scanned, nothing admissible.
                priv_inf[nf, u[has][~found]] = True
                reads.add_kills(nf, u[has][~found])
                top[nf] -= 1
                running[nf[top[nf] < 0]] = False
            if found.any():
                fr = sr[found]
                fpos = first[found]
                fv = v[fpos]
                ft = st[found]
                # Resume after the chosen edge when popping back.
                stack_idx[fr, ft] += fpos - seg[found] + 1
                chosen_v[fr, ft] = fv
                fw = w[fpos]
                free = fw == -1
                if free.any():
                    ar = fr[free]
                    augmented[ar] = True
                    aug_len[ar] = ft[free] + 1
                    running[ar] = False
                desc = ~free
                if desc.any():
                    dr = fr[desc]
                    dt = ft[desc] + 1
                    stack_u[dr, dt] = fw[desc]
                    stack_idx[dr, dt] = 0
                    top[dr] = dt
        rows = rows[running[rows]]

    # ---- prefix-commit validation -----------------------------------
    # Earliest writer per vertex, then one sparse lookup per recorded
    # read: root r conflicts iff it read a vertex some root < r wrote.
    # The minimal conflicting r only involves writers < r (all of which
    # commit), so the rule is exact, not merely conservative.
    rows_aug = np.flatnonzero(augmented)
    if rows_aug.size:
        lens = aug_len[rows_aug]
        wr_root = np.repeat(rows_aug, lens)
        pos = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
        wr_v = chosen_v[wr_root, pos]
    else:
        wr_root = wr_v = np.empty(0, dtype=np.int64)
    k = n_roots
    rr_r, rr_v = _cat(reads.rr_r), _cat(reads.rr_v)
    if wr_v.size and rr_r.size:
        min_w = np.full(n_right, n_roots, dtype=np.int64)
        np.minimum.at(min_w, wr_v, wr_root)
        hit = rr_r[min_w[rr_v] < rr_r]
        if hit.size:
            k = int(hit.min())
    pi_r, pi_u = _cat(reads.pi_r), _cat(reads.pi_u)
    lr_r, lr_w = _cat(reads.lr_r), _cat(reads.lr_w)
    if pi_u.size and lr_r.size:
        min_k = np.full(n_left, n_roots, dtype=np.int64)
        np.minimum.at(min_k, pi_u, pi_r)
        hit = lr_r[min_k[lr_w] < lr_r]
        if hit.size:
            k = min(k, int(hit.min()))

    # ---- apply the committed prefix ---------------------------------
    dist[pi_u[pi_r < k]] = unreached
    committed_aug = rows_aug[rows_aug < k]
    n_aug = int(committed_aug.size)
    if n_aug:
        lens = aug_len[committed_aug]
        rep = np.repeat(committed_aug, lens)
        pos = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
        path_l = stack_u[rep, pos]
        path_r = chosen_v[rep, pos]
        match_l[path_l] = path_r
        match_r[path_r] = path_l
    return k, n_aug


def _hk_csr_batched(
    n_left: int,
    n_right: int,
    adj: Sequence[Sequence[int]],
    indptr: np.ndarray,
    indices: np.ndarray,
) -> tuple[list[int], list[int], int]:
    """Hopcroft–Karp with the frontier-batched augmentation pass.

    Phase 1 is the exact greedy special case (:func:`_greedy_phase`);
    later phases run the speculative lock-step batch over the filtered
    level graph with an adaptive window, degrading to the sequential
    filtered DFS when commits collapse. Every path is byte-identical to
    the reference; only the work schedule differs.
    """
    unreached = n_left + 1
    ml = [-1] * n_left
    mr = [-1] * n_right
    with stage("matching"):
        size = _greedy_phase(n_left, adj, ml, mr)
        src = np.repeat(
            np.arange(n_left, dtype=np.int64), indptr[1:] - indptr[:-1]
        )
        # Plain lists are the master match representation: most phases
        # finish in the sequential tail, and round-tripping arrays
        # through lists every phase costs more than it saves.
        while -1 in ml:
            ml_arr = np.asarray(ml, dtype=np.int64)
            mr_arr = np.asarray(mr, dtype=np.int64)
            dist, found = _bfs_layers(n_left, indices, src, ml_arr, mr_arr)
            if not found:
                break
            active = [u for u in range(n_left) if ml[u] == -1]
            if len(active) < _FILTER_MIN_ROOTS:
                # Few roots examine few edges: the level filter's O(E)
                # setup would cost more than the dead edges it skips.
                size += _augment_roots(
                    active, adj, dist.tolist(), ml, mr, unreached
                )
                continue
            # Filtered level graph: the DFS then touches only edges
            # that can actually be traversed, which is where most of
            # the sequential tail's time went.
            f_indptr, f_indices = _level_filter(
                n_left, src, indices, dist, mr_arr, unreached
            )
            finite = dist[dist != unreached]
            width = int(finite.max()) + 1 if finite.size else 1
            narrow = int(f_indices.size) < _MIN_BATCH_DEG * max(1, int(finite.size))
            if len(active) < _MIN_BATCH_ROOTS or narrow:
                size += _augment_roots(
                    active,
                    _split_adj(f_indptr, f_indices),
                    dist.tolist(),
                    ml,
                    mr,
                    unreached,
                )
                continue
            # Wide phase: speculative lock-step over the filtered graph
            # with an adaptive window, degrading to the sequential tail
            # when commits collapse.
            act = np.asarray(active, dtype=np.int64)
            f_adj: list[list[int]] | None = None
            window = _INIT_WINDOW
            strikes = 0
            while act.size:
                if act.size < _MIN_BATCH_ROOTS or strikes >= 2:
                    if f_adj is None:
                        f_adj = _split_adj(f_indptr, f_indices)
                    ml = ml_arr.tolist()
                    mr = mr_arr.tolist()
                    size += _augment_roots(
                        act.tolist(), f_adj, dist.tolist(), ml, mr, unreached
                    )
                    break
                batch = min(int(act.size), window)
                committed, n_aug = _augment_pass(
                    act[:batch], f_indptr, f_indices, dist,
                    ml_arr, mr_arr, width, unreached,
                )
                size += n_aug
                act = act[committed:]
                if committed == batch:
                    strikes = 0
                    window = min(2 * window, 1 << 16)
                else:
                    # Shrink toward the observed conflict horizon; count
                    # a strike when speculation is mostly wasted.
                    window = max(_MIN_BATCH_ROOTS, 2 * committed)
                    strikes = strikes + 1 if 4 * committed < batch else 0
            else:
                ml = ml_arr.tolist()
                mr = mr_arr.tolist()
    return ml, mr, size


def _hk_csr(
    n_left: int,
    n_right: int,
    adj: Sequence[Sequence[int]],
    indptr: np.ndarray,
    indices: np.ndarray,
) -> tuple[list[int], list[int], int]:
    """Hopcroft–Karp over a CSR adjacency (with list mirror for the DFS)."""
    if indices.size < _SMALL_E:
        from ..matching.hopcroft_karp import hopcroft_karp

        return hopcroft_karp(n_left, n_right, adj)
    return _hk_csr_batched(n_left, n_right, adj, indptr, indices)


def _weights_by_counts(rows: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """``W[k, r] = sum_i dist[rows[k, i], r]`` as one matrix product.

    ``counts[k, x]`` is how many of row ``k``'s entries equal ``x``
    (``0 <= x < len(dist)``), and ``W = counts @ dist``, exact in int64,
    cast to float — no ``(k, len(rows[k]), len(dist))`` tensor.
    """
    k, span = rows.shape[0], dist.shape[0]
    keys = (np.arange(k, dtype=np.int64)[:, None] * span + rows).ravel()
    counts = np.bincount(keys, minlength=k * span).reshape(k, span)
    return (counts @ dist).astype(float)


def _split_adj(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """Per-left-vertex adjacency lists out of a CSR layout.

    Plain-list slicing: one bulk ``tolist`` then O(1)-ish slices, far
    cheaper than ``np.split`` (which materializes an array per vertex).
    """
    idx = indices.tolist()
    ptr = indptr.tolist()
    return [idx[ptr[i] : ptr[i + 1]] for i in range(len(ptr) - 1)]


class NumpyKernelBackend(KernelBackend):
    """Vectorized kernels; result-identical to the pure-python oracle."""

    # ------------------------------------------------------------------
    # frontier / distance scoring
    # ------------------------------------------------------------------
    def delta_weights(self, rows_used: Sequence[Any], n_rows: int) -> np.ndarray:
        rows = np.stack([np.asarray(ru, dtype=np.int64) for ru in rows_used])
        # Row values may fall outside [0, n_rows): count over their span.
        lo = int(rows.min(initial=0))
        x = np.arange(lo, int(rows.max(initial=n_rows - 1)) + 1, dtype=np.int64)
        dist = np.abs(x[:, None] - np.arange(n_rows, dtype=np.int64))
        return _weights_by_counts(rows - lo, dist)

    def factor_delta_weights(
        self, dist: Any, rows_used: Sequence[Any]
    ) -> np.ndarray:
        d = np.asarray(dist)
        rows = np.stack([np.asarray(ru, dtype=np.int64) for ru in rows_used])
        # Index like ``d[rows]``: negative rows wrap, too-large ones raise.
        return _weights_by_counts(np.arange(d.shape[0])[rows], d)

    # ------------------------------------------------------------------
    # bipartite matching
    # ------------------------------------------------------------------
    def hopcroft_karp(
        self, n_left: int, n_right: int, adj: Sequence[Sequence[int]]
    ) -> tuple[list[int], list[int], int]:
        counts = np.fromiter(
            (len(a) for a in adj), dtype=np.int64, count=n_left
        )
        indptr = np.concatenate(([0], np.cumsum(counts)))
        if int(counts.sum()):
            indices = np.concatenate(
                [np.asarray(a, dtype=np.int64) for a in adj if len(a)]
            )
        else:
            indices = np.empty(0, dtype=np.int64)
        return _hk_csr(n_left, n_right, adj, indptr, indices)

    def bottleneck_feasible(self, weights: Any, threshold: float) -> list[int] | None:
        w = np.asarray(weights, dtype=float)
        k = w.shape[0]
        # np.nonzero is row-major, so per-row columns come out ascending —
        # the reference adjacency order.
        ii, jj = np.nonzero(w <= threshold)
        row_deg = np.bincount(ii, minlength=k)
        # Existence shortcut: a row or column with no edge under the
        # threshold makes a perfect matching impossible, and the
        # reference returns None without its matching ever being
        # observed — so skipping Hopcroft–Karp entirely is
        # result-identical. Most infeasible threshold probes in the
        # bottleneck binary search die here for free.
        if not (row_deg.all() and np.bincount(jj, minlength=k).all()):
            return None
        indptr = np.concatenate(([0], np.cumsum(row_deg)))
        match_l, _, size = _hk_csr(k, k, _split_adj(indptr, jj), indptr, jj)
        return match_l if size == k else None

    def peel_matching(
        self,
        tokens: Any,
        src_col: Any,
        dst_col: Any,
        cost: Any,
        n_cols: int,
    ) -> np.ndarray | None:
        tok = np.asarray(tokens, dtype=np.int64)
        sc = np.asarray(src_col, dtype=np.int64)
        dc = np.asarray(dst_col, dtype=np.int64)
        cs = np.asarray(cost, dtype=float)
        n = int(n_cols)
        # Existence shortcut: a perfect matching needs every column to
        # appear on both sides. When one is missing the reference also
        # returns None (its matching is never observed), so skipping the
        # Hopcroft–Karp run entirely is result-identical — and it removes
        # the matching cost from most failing window probes.
        if not (
            np.bincount(sc, minlength=n).all()
            and np.bincount(dc, minlength=n).all()
        ):
            return None
        pair = sc * n + dc
        # Cheapest (cost, token) representative per column pair.
        order = np.lexsort((tok, cs, pair))
        sp = pair[order]
        is_first = np.empty(sp.size, dtype=bool)
        is_first[0] = True
        is_first[1:] = sp[1:] != sp[:-1]
        starts = np.flatnonzero(is_first)
        rep_idx = order[starts]  # token-array index of each pair's representative
        rep_pair = sp[starts]  # ascending unique pair codes
        # Support-edge adjacency in the reference insertion order: first
        # occurrence of each pair (the smallest array index in its sorted
        # group), grouped by source column (CSR). ``js`` is already
        # non-decreasing, so one argsort of the packed (js, first) key
        # orders the edges; the keys are unique, so any sort agrees.
        first_idx = np.minimum.reduceat(order, starts)
        js = rep_pair // n
        csr_order = np.argsort(js * tok.size + first_idx)
        indices = (rep_pair % n)[csr_order]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(js, minlength=n))))
        match_l, _, size = _hk_csr(
            n, n, _split_adj(indptr, indices), indptr, indices
        )
        if size < n:
            return None
        want = np.arange(n, dtype=np.int64) * n + np.asarray(
            match_l, dtype=np.int64
        )
        return tok[rep_idx[np.searchsorted(rep_pair, want)]]

    # ------------------------------------------------------------------
    # path routing
    # ------------------------------------------------------------------
    def oet_swap_layers(
        self,
        dest: Any,
        pos_stride: int,
        path_stride: int,
        swap_offset: int,
        optimize_parity: bool = True,
        start_parity: int = 0,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        from ..routing.path_oet import oet_rounds_batched

        D = np.asarray(dest)
        best = oet_rounds_batched(D, start_parity=start_parity, validate=False)
        if optimize_parity:
            other = oet_rounds_batched(
                D, start_parity=1 - start_parity, validate=False
            )
            if len(other) < len(best):
                best = other
        layers: list[tuple[np.ndarray, np.ndarray]] = []
        for pos, cc in best:
            u = pos * pos_stride + cc * path_stride
            layers.append((u, u + swap_offset))
        return layers

    # ------------------------------------------------------------------
    # token position/target tracking
    # ------------------------------------------------------------------
    def total_displacement(self, dist: Any, dest: Sequence[int]) -> int:
        d = np.asarray(dist)
        t = np.asarray(dest, dtype=np.int64)
        return int(d[np.arange(t.size), t].sum())

    # ------------------------------------------------------------------
    # schedule assembly
    # ------------------------------------------------------------------
    def assemble_layers(
        self,
        n_vertices: int,
        swap_layers: Sequence[tuple[Any, Any]],
        compact: bool = True,
    ) -> "Schedule":
        from ..routing.schedule import build_schedule

        us: list[np.ndarray] = []
        vs: list[np.ndarray] = []
        for u, v in swap_layers:
            ua = np.asarray(u, dtype=np.int64).ravel()
            va = np.asarray(v, dtype=np.int64).ravel()
            if ua.size != va.size:
                raise ScheduleError("swap layer endpoint arrays differ in length")
            us.append(ua)
            vs.append(va)
        counts = np.fromiter(map(len, us), dtype=np.int64, count=len(us))
        return build_schedule(n_vertices, _cat(us), _cat(vs), counts, compact=compact)

    def compact_serial_swaps(
        self, n_vertices: int, swaps: Sequence[tuple[int, int]]
    ) -> "Schedule":
        from ..routing.schedule import build_schedule

        # Inherently sequential (each swap's level depends on the previous
        # one's); a plain loop over ints is the fast implementation. The
        # builder validates the swaps afterwards, so the loop keys a dict
        # (never indexes a list) by whatever ids it is given.
        avail: dict[Any, int] = {}
        levels: list[int] = []
        for u, v in swaps:
            a, b = avail.get(u, 0), avail.get(v, 0)
            t = a if a >= b else b
            avail[u] = avail[v] = t + 1
            levels.append(t)
        level = np.asarray(levels, dtype=np.int64)
        # Group the swaps by level; the builder sorts within each.
        ends = np.asarray(swaps).reshape(-1, 2)[np.argsort(level, kind="stable")]
        return build_schedule(n_vertices, ends[:, 0], ends[:, 1], np.bincount(level))
