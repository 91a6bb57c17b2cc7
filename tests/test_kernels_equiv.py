"""Kernel equivalence: the numpy kernels must agree exactly with the oracle.

The contract from ``repro.kernels.base``: the product kernels produce
*identical* outputs to the pure-python oracle (``kernel_oracle.py``)
for identical inputs — identical matchings, identical tie-breaks,
identical schedules. This suite pins them together in two tiers:

* **router level** (hypothesis) — every router with a vectorized path
  emits byte-identical schedules on the numpy kernels and under
  :func:`~kernel_oracle.oracle_kernels` on randomized instances;
* **primitive level** — each :class:`KernelBackend` method compared
  directly on randomized inputs, so a divergence is attributed to the
  kernel that caused it rather than surfacing as a schedule diff three
  layers up.

A third tier checks :class:`Schedule`'s array code: every transform
(compaction, trimming, inversion, relabelling, concatenation,
simulation, equality, hashing, iteration, indexing) must agree with a
pure-python reference acting on nested tuples. A fourth pins the
frontier-batched Hopcroft–Karp augmentation to the reference on
adversarial and contended instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import (
    PythonKernelBackend,
    asap_layers,
    canonical_layers,
    oracle_kernels,
)

from repro import CartesianProduct, GridGraph, Permutation, make_router
from repro.graphs import cycle_graph, path_graph
from repro.kernels import NumpyKernelBackend
from repro.routing.schedule import Schedule

PY = PythonKernelBackend()
NP = NumpyKernelBackend()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def grid_and_permutation(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    perm = draw(st.permutations(range(m * n)))
    return GridGraph(m, n), Permutation(list(perm))


@st.composite
def product_and_permutation(draw):
    factories = [path_graph, cycle_graph]
    g = factories[draw(st.integers(0, 1))](draw(st.integers(3, 4)))
    h = factories[draw(st.integers(0, 1))](draw(st.integers(3, 4)))
    prod = CartesianProduct(g, h)
    perm = draw(st.permutations(range(prod.n_vertices)))
    return prod, Permutation(list(perm))


def _assert_same_schedule(a: Schedule, b: Schedule) -> None:
    assert a == b
    assert a.layers == b.layers
    assert a.depth == b.depth and a.size == b.size


def _on_oracle(router: str, graph, perm: Permutation) -> Schedule:
    """Route with ``router`` on the oracle kernels."""
    with oracle_kernels():
        return make_router(router).route(graph, perm)


# ----------------------------------------------------------------------
# tier 1: router-level equivalence
# ----------------------------------------------------------------------
class TestRouterEquivalence:
    @pytest.mark.parametrize("router", ["local", "naive", "hybrid"])
    @given(case=grid_and_permutation())
    @settings(max_examples=30, deadline=None)
    def test_grid_routers(self, router, case):
        grid, perm = case
        a = _on_oracle(router, grid, perm)
        b = make_router(router).route(grid, perm)
        a.verify(grid, perm)
        _assert_same_schedule(a, b)

    @given(case=product_and_permutation())
    @settings(max_examples=15, deadline=None)
    def test_cartesian_router(self, case):
        prod, perm = case
        a = _on_oracle("cartesian", prod, perm)
        b = make_router("cartesian").route(prod, perm)
        a.verify(prod, perm)
        _assert_same_schedule(a, b)

    @given(case=grid_and_permutation())
    @settings(max_examples=15, deadline=None)
    def test_ats_router(self, case):
        grid, perm = case
        a = _on_oracle("ats", grid, perm)
        b = make_router("ats").route(grid, perm)
        a.verify(grid, perm)
        _assert_same_schedule(a, b)

    def test_larger_grid_spot_check(self):
        grid = GridGraph(12, 12)
        for seed in range(3):
            perm = Permutation(
                np.random.default_rng(seed).permutation(grid.n_vertices)
            )
            a = _on_oracle("local", grid, perm)
            b = make_router("local").route(grid, perm)
            _assert_same_schedule(a, b)


# ----------------------------------------------------------------------
# tier 2: primitive-level equivalence
# ----------------------------------------------------------------------
class TestPrimitiveEquivalence:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_hopcroft_karp(self, data):
        n_left = data.draw(st.integers(1, 7))
        n_right = data.draw(st.integers(1, 7))
        adj = [
            data.draw(
                st.lists(
                    st.integers(0, n_right - 1), max_size=n_right, unique=True
                )
            )
            for _ in range(n_left)
        ]
        assert PY.hopcroft_karp(n_left, n_right, adj) == NP.hopcroft_karp(
            n_left, n_right, adj
        )

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_bottleneck_feasible(self, data):
        n = data.draw(st.integers(1, 6))
        w = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 9), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=float,
        )
        thr = float(data.draw(st.integers(0, 9)))
        assert PY.bottleneck_feasible(w, thr) == NP.bottleneck_feasible(w, thr)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_delta_weights(self, data):
        n_rows = data.draw(st.integers(1, 6))
        # Real call sites pass one uniform-length row vector per matching
        # (2n source/destination rows each); the numpy kernel stacks them.
        row_len = data.draw(st.integers(1, 8))
        rows_used = [
            np.array(
                data.draw(
                    st.lists(
                        st.integers(0, n_rows - 1),
                        min_size=row_len,
                        max_size=row_len,
                    )
                )
            )
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        np.testing.assert_array_equal(
            np.asarray(PY.delta_weights(rows_used, n_rows), dtype=float),
            np.asarray(NP.delta_weights(rows_used, n_rows), dtype=float),
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_peel_matching(self, data):
        n = data.draw(st.integers(1, 5))
        # Half the windows hold a permutation's worth of column pairs, so
        # every column appears on both sides and the matching runs; extra
        # pairs repeat columns, and without the permutation a column may
        # be missing. Shuffling interleaves the pairs' first occurrences.
        pairs = []
        if data.draw(st.booleans()):
            pairs += list(enumerate(data.draw(st.permutations(range(n)))))
        col = st.integers(0, n - 1)
        pairs += data.draw(st.lists(st.tuples(col, col), max_size=3 * n))
        pairs = [pairs[i] for i in data.draw(st.permutations(range(len(pairs))))]
        k = len(pairs)
        tokens = np.array(
            sorted(
                data.draw(
                    st.lists(st.integers(0, 99), min_size=k, max_size=k, unique=True)
                )
            ),
            dtype=np.int64,
        )
        # Few distinct costs, so representatives often tie on cost and
        # fall back to the token id.
        cost = np.array(
            data.draw(
                st.lists(
                    st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=k, max_size=k
                )
            ),
            dtype=float,
        )
        src = np.array([j for j, _ in pairs], dtype=np.int64)
        dst = np.array([jp for _, jp in pairs], dtype=np.int64)
        a = PY.peel_matching(tokens, src, dst, cost, n)
        b = NP.peel_matching(tokens, src, dst, cost, n)
        if a is None:
            assert b is None
        else:
            assert b is not None and np.asarray(b).tolist() == list(a)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_oet_swap_layers(self, data):
        length = data.draw(st.integers(1, 12))
        paths = data.draw(st.integers(1, 6))
        # Some columns start sorted (they never swap, but share rounds).
        cols = [
            list(range(length))
            if data.draw(st.booleans())
            else data.draw(st.permutations(range(length)))
            for _ in range(paths)
        ]
        dest = np.array(cols, dtype=np.int64).T.copy()
        parity = data.draw(st.integers(0, 1))
        optimize = data.draw(st.booleans())
        a = PY.oet_swap_layers(
            dest.copy(), paths, 1, paths,
            optimize_parity=optimize, start_parity=parity,
        )
        b = NP.oet_swap_layers(
            dest.copy(), paths, 1, paths,
            optimize_parity=optimize, start_parity=parity,
        )
        norm = lambda layers: [  # noqa: E731
            (list(np.asarray(u)), list(np.asarray(v))) for u, v in layers
        ]
        assert norm(a) == norm(b)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_total_displacement(self, data):
        n = data.draw(st.integers(1, 6))
        dist = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 9), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int64,
        )
        dest = list(data.draw(st.permutations(range(n))))
        assert PY.total_displacement(dist, dest) == NP.total_displacement(
            dist, dest
        )

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_compact_serial_swaps(self, data):
        n = data.draw(st.integers(2, 9))
        swaps = [
            tuple(
                data.draw(
                    st.lists(
                        st.integers(0, n - 1),
                        min_size=2, max_size=2, unique=True,
                    )
                )
            )
            for _ in range(data.draw(st.integers(0, 10)))
        ]
        _assert_same_schedule(
            PY.compact_serial_swaps(n, swaps), NP.compact_serial_swaps(n, swaps)
        )

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_assemble_layers(self, data):
        n = data.draw(st.integers(2, 9))
        layers = []
        for _ in range(data.draw(st.integers(0, 5))):
            verts = data.draw(
                st.lists(
                    st.integers(0, n - 1),
                    min_size=0, max_size=n - (n % 2), unique=True,
                )
            )
            verts = verts[: 2 * (len(verts) // 2)]
            us = np.array(verts[0::2], dtype=np.int64)
            vs = np.array(verts[1::2], dtype=np.int64)
            layers.append((us, vs))
        compact = data.draw(st.booleans())
        a = PY.assemble_layers(n, layers, compact)
        b = NP.assemble_layers(n, layers, compact)
        _assert_same_schedule(a, b)


# ----------------------------------------------------------------------
# tier 3: Schedule's array transforms vs the tuple reference
# ----------------------------------------------------------------------
def _ref_simulate(n: int, layers) -> list[int]:
    """Token start vertex -> final vertex, one swap at a time."""
    occ = list(range(n))
    for layer in layers:
        for u, v in layer:
            occ[u], occ[v] = occ[v], occ[u]
    realized = [0] * n
    for pos, token in enumerate(occ):
        realized[token] = pos
    return realized


def _check_against_reference(s: Schedule, ref, mapping: list[int]) -> None:
    """Every transform of ``s`` equals the tuple reference on ``ref``."""
    n = s.n_vertices
    assert s.layers == ref
    assert s.compact().layers == asap_layers(ref)
    assert s.trimmed().layers == tuple(layer for layer in ref if layer)
    assert s.inverse().layers == tuple(reversed(ref))
    renamed = (
        [(mapping[u], mapping[v]) for u, v in layer] for layer in ref
    )
    assert s.relabel(mapping).layers == canonical_layers(n, renamed)
    assert (s + s).layers == ref + ref
    assert s.serial_swaps() == [swap for layer in ref for swap in layer]
    assert s.simulate().targets.tolist() == _ref_simulate(n, ref)
    assert s.depth == sum(1 for layer in ref if layer)
    assert s.size == sum(len(layer) for layer in ref)
    assert len(s) == len(ref) and list(s) == list(ref)
    for i in range(-len(ref), len(ref)):
        assert s[i] == ref[i]
    with pytest.raises(IndexError):
        s[len(ref)]
    # Equal whichever way it was made, with equal hashes.
    for twin in (
        Schedule(n, ref),
        s.inverse().inverse(),
        s.relabel(list(range(n))),
        s.with_metadata(note="x"),
    ):
        assert twin == s and hash(twin) == hash(s)
    assert s != Schedule(n + 1, ref)


def _routed(seed: int) -> Schedule:
    grid = GridGraph(5, 5)
    perm = Permutation(np.random.default_rng(seed).permutation(25))
    return make_router("local").route(grid, perm)


@st.composite
def raw_layers(draw):
    """Valid layers in any swap order and orientation, empty ones included."""
    n = draw(st.integers(2, 10))
    layers = []
    for _ in range(draw(st.integers(0, 6))):
        verts = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
        layers.append(list(zip(verts[0::2], verts[1::2])))
    mapping = list(draw(st.permutations(range(n))))
    return n, layers, mapping


class TestFlatLayersTransforms:
    """The schedule's flat arrays against the pure-python tuple reference."""

    @pytest.mark.parametrize("seed", range(4))
    def test_transforms_agree(self, seed):
        s = _routed(seed)
        mapping = np.random.default_rng(seed).permutation(25).tolist()
        _check_against_reference(s, s.layers, mapping)
        _check_against_reference(s.compact(), asap_layers(s.layers), mapping)

    @given(case=raw_layers())
    @settings(max_examples=60, deadline=None)
    def test_transforms_agree_on_random_layers(self, case):
        n, layers, mapping = case
        s = Schedule(n, layers)
        _check_against_reference(s, canonical_layers(n, layers), mapping)

    def test_concat_mixed_representations(self):
        # A kernel-assembled schedule joined with a constructor-built one.
        routed = _routed(9)
        built = Schedule(25, [[], [(4, 3), (0, 1)]], metadata={"a": 1})
        assert (routed + built).layers == routed.layers + built.layers
        assert (built + routed).layers == built.layers + routed.layers
        assert (routed + built).metadata == {}

    def test_occupancy_sweep(self):
        s = _routed(2)
        occ = np.arange(25, dtype=np.int64)
        s.apply_to_occupancy(occ)
        expected = list(range(25))
        for layer in s.layers:
            for u, v in layer:
                expected[u], expected[v] = expected[v], expected[u]
        assert occ.tolist() == expected

    def test_empty_flat_schedule(self):
        grid = GridGraph(3, 3)
        ident = Permutation.identity(9)
        s = make_router("local").route(grid, ident)
        assert s.size == 0
        assert s.compact().layers == ()
        assert s.trimmed().depth == 0
        _check_against_reference(s, s.layers, list(range(9))[::-1])


# ----------------------------------------------------------------------
# tier 4: frontier-batched Hopcroft–Karp augmentation
# ----------------------------------------------------------------------

def _reversed_chain(n: int) -> list[list[int]]:
    """Greedy shifts every left one right; the last left is then free and
    its only augmenting path alternates through the whole chain — the
    worst-case path depth for an ``n``-vertex instance."""
    return [[u + 1, u] if u < n - 1 else [u] for u in range(n)]


def _contended_instance(k: int, half: int = 10):
    """``k`` free roots after the greedy phase, each with many length-3
    augmenting paths overlapping its neighbours' — wide and dense enough
    to engage the speculative lock-step batch, with real conflicts."""
    adj = [[i, k + i] for i in range(k)]
    for i in range(k):
        adj.append(list(range(max(0, i - half), min(k, i + half))))
    return 2 * k, 2 * k, adj


class TestBatchedAugmentation:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_instances_match_reference(self, data):
        n_left = data.draw(st.integers(1, 40))
        n_right = data.draw(st.integers(1, 40))
        adj = [
            data.draw(
                st.lists(
                    st.integers(0, n_right - 1),
                    max_size=min(n_right, 12),
                    unique=True,
                )
            )
            for _ in range(n_left)
        ]
        assert NP.hopcroft_karp(n_left, n_right, adj) == PY.hopcroft_karp(
            n_left, n_right, adj
        )

    @pytest.mark.parametrize("n", [5, 17, 64, 97, 200, 513])
    def test_adversarial_long_augmenting_paths(self, n):
        adj = _reversed_chain(n)
        want = PY.hopcroft_karp(n, n, adj)
        assert want[2] == n  # the deep path must actually be taken
        assert NP.hopcroft_karp(n, n, adj) == want

    def test_lockstep_engages_and_matches_reference(self, monkeypatch):
        import repro.kernels._numpy as knp

        n_left, n_right, adj = _contended_instance(100)
        calls: list[int] = []
        orig = knp._augment_pass

        def spy(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(knp, "_augment_pass", spy)
        want = PY.hopcroft_karp(n_left, n_right, adj)
        assert want[2] == n_left  # perfect matching via the contended paths
        assert NP.hopcroft_karp(n_left, n_right, adj) == want
        assert calls, "lock-step batch never engaged on the contended instance"
