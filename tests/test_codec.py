"""Tests for the binary schedule codec, its cache tier and its wire use.

Covers hypothesis round-trips (``decode(encode(s)) == s``
byte-identically, for schedules from the numpy kernels and from the
oracle, at both id widths), a fuzzer proving that
:func:`decode_schedule` raises nothing but :class:`ScheduleError` on
any bytes, corrupt frames surfacing as cache misses or ``bad_request``
— never crashes — the ``cache_get``/``cache_put`` wire fields, and the
refusal of version-1 frames on disk, in ``cache_put`` and in
``cache_get`` answers.
"""

from __future__ import annotations

import asyncio
import base64
import json
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import oracle_kernels

import repro.routing.schedule as schedule_module
from repro import GridGraph, make_router, random_permutation
from repro.errors import ClusterShardError, ScheduleError
from repro.routing.codec import (
    CODEC_VERSION,
    MAGIC,
    MAX_VERTICES,
    decode_schedule,
    encode_schedule,
)
from repro.routing.schedule import Schedule
from repro.routing.serialize import schedule_to_json
from repro.service import (
    AsyncRoutingService,
    ClusterScheduleCache,
    RemoteShardClient,
)
from repro.service.cache import ScheduleCache
from repro.service.handler import RequestHandler


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: Vertex counts on both sides of the int16/int32 id-width boundary.
_WIDE_N = st.sampled_from([32767, 32768, 40000])


@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=1, max_value=24) | _WIDE_N)
    layers = []
    for _ in range(draw(st.integers(0, 5))):
        verts = draw(
            st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 12))
        )
        verts = verts[: 2 * (len(verts) // 2)]
        layers.append(list(zip(verts[0::2], verts[1::2])))
    meta = draw(
        st.one_of(
            st.none(),
            st.dictionaries(
                st.sampled_from(["backend", "router", "note"]),
                st.text(max_size=8),
                max_size=2,
            ),
        )
    )
    return Schedule(n, layers, metadata=meta)


# ----------------------------------------------------------------------
# round-trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    @given(s=schedules())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_round_trip(self, s):
        d = decode_schedule(encode_schedule(s))
        assert d == s
        assert d.layers == s.layers
        assert d.n_vertices == s.n_vertices
        assert d.n_layers == s.n_layers
        assert d.metadata == s.metadata

    def test_empty_schedule(self):
        e = Schedule.empty(5)
        assert decode_schedule(encode_schedule(e)) == e

    def test_re_encode_is_byte_identical(self):
        s = Schedule(9, [[(0, 1)], [], [(2, 5), (3, 4)]], metadata={"a": "b"})
        frame = encode_schedule(s)
        assert encode_schedule(decode_schedule(frame)) == frame

    def test_both_backends_encode_identically(self):
        grid = GridGraph(6, 6)
        perm = random_permutation(grid, seed=7)
        product = make_router("local").route(grid, perm)
        with oracle_kernels():
            oracle = make_router("local").route(grid, perm)
        assert encode_schedule(product) == encode_schedule(oracle)
        assert decode_schedule(encode_schedule(product)) == oracle
        assert decode_schedule(encode_schedule(product)).layers == oracle.layers

    @pytest.mark.parametrize("n, width", [(32767, 2), (32768, 4)])
    def test_id_width_follows_n(self, n, width):
        s = Schedule(n, [[(0, n - 1), (n - 3, n - 2)], [(n - 2, n - 1)]])
        frame = encode_schedule(s)
        assert len(frame) == 40 + width * (2 + 2 * 3)
        assert decode_schedule(frame).layers == s.layers

    def test_more_than_int32_vertices_refused(self):
        with pytest.raises(ScheduleError):
            encode_schedule(Schedule(MAX_VERTICES + 1))
        with pytest.raises(ScheduleError, match="header"):
            decode_schedule(_raw_frame(MAX_VERTICES + 1, [], [], []))

    def test_largest_vertex_count_round_trips(self):
        # Two layers on MAX_VERTICES: the (layer, lo, hi) keys no longer
        # fit int64, so the checks run on renumbered ids.
        n = MAX_VERTICES
        s = Schedule(n, [[(0, n - 1), (2, 3)], [(1, n - 1)]])
        assert decode_schedule(encode_schedule(s)) == s
        with pytest.raises(ScheduleError, match="sorted canonically"):
            decode_schedule(_raw_frame(n, [2], [2, 0], [3, n - 1]))
        with pytest.raises(ScheduleError, match="vertex reuse"):
            decode_schedule(_raw_frame(n, [1, 2], [0, 0, 1], [1, n - 1, n - 1]))

    def test_64x64_frame_is_small(self):
        grid = GridGraph(64, 64)
        s = make_router("local").route(grid, random_permutation(grid, seed=1))
        assert len(encode_schedule(s)) <= 600_000

    def test_decoded_schedule_is_usable(self):
        grid = GridGraph(4, 4)
        perm = random_permutation(grid, seed=1)
        s = make_router("local").route(grid, perm)
        d = decode_schedule(encode_schedule(s))
        d.verify(grid, perm)  # read-only buffers survive simulate/verify
        assert d.compact() == s.compact()


# ----------------------------------------------------------------------
# corruption handling
# ----------------------------------------------------------------------
def _frame() -> bytes:
    return encode_schedule(
        Schedule(6, [[(0, 1), (2, 3)], [(1, 2)]], metadata={"router": "local"})
    )


def _raw_frame(
    n: int, counts: list[int], lo: list[int], hi: list[int], meta: bytes = b""
) -> bytes:
    """A frame assembled field by field, consistent sizes, any values.

    Values are truncated to the id width ``n`` selects, as the encoder
    would store them.
    """
    width = "<i2" if n <= 32767 else "<i4"
    header = struct.pack("<8sqqqq", MAGIC, n, len(counts), len(lo), len(meta))
    body = [
        np.array(a, dtype=np.int64).astype(width).tobytes() for a in (counts, lo, hi)
    ]
    return header + b"".join(body) + meta


def _v1_frame(s: Schedule) -> bytes:
    """The version-1 frame of ``s``: version byte 1 and int64 arrays."""
    counts = [len(layer) for layer in s.layers]
    lo, hi = zip(*s.serial_swaps()) if s.size else ((), ())
    header = struct.pack(
        "<8sqqqq", b"reproSC\x01", s.n_vertices, len(counts), s.size, 0
    )
    body = [np.array(a, dtype="<i8").tobytes() for a in (counts, lo, hi)]
    return header + b"".join(body)


#: Three int16 layer counts whose int16 sum wraps around to the one swap.
WRAPPING_COUNTS = [32767, 32767, 3]


class TestCorruptFrames:
    def test_truncations_raise_schedule_error(self):
        frame = _frame()
        for cut in (0, 4, 8, 39, 40, len(frame) - 1):
            with pytest.raises(ScheduleError):
                decode_schedule(frame[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ScheduleError):
            decode_schedule(_frame() + b"\x00")

    def test_bad_magic_and_version(self):
        frame = _frame()
        with pytest.raises(ScheduleError):
            decode_schedule(b"X" + frame[1:])
        bumped = MAGIC[:-1] + bytes([CODEC_VERSION + 1])
        with pytest.raises(ScheduleError):
            decode_schedule(bumped + frame[8:])

    def test_tampered_payload_rejected(self):
        frame = bytearray(_frame())
        # First counts word (int16 at n = 6) lives right after the header.
        frame[40:42] = struct.pack("<h", 99)
        with pytest.raises(ScheduleError):
            decode_schedule(bytes(frame))

    def test_vertex_reuse_rejected(self):
        # Two identical swaps in one layer: sorted-order check trips.
        with pytest.raises(ScheduleError):
            decode_schedule(_raw_frame(6, [2], [0, 0], [1, 1]))
        # Distinct but overlapping swaps in canonical order: uniqueness
        # of layer endpoints trips.
        with pytest.raises(ScheduleError, match="vertex reuse"):
            decode_schedule(_raw_frame(6, [2], [0, 1], [1, 2]))

    def test_vertex_reuse_rejected_on_the_sort_path(self):
        # 40000 vertices x 105 layers is past the 4M-flag bound, with far
        # more flags per swap than marking pays for, so the reuse check
        # sorts the endpoints instead.
        n, empty = 40000, [0] * 104
        with pytest.raises(ScheduleError, match="layer 104: vertex reuse"):
            decode_schedule(_raw_frame(n, empty + [2], [0, 1], [1, 2]))
        ok = decode_schedule(_raw_frame(n, empty + [2], [0, 2], [1, 3]))
        assert ok.layers[-1] == ((0, 1), (2, 3))

    def test_reuse_marks_reset_between_blocks(self, monkeypatch):
        # Blocks of two layers at n = 4: layer 2 opens the second block,
        # whose block-relative keys are those of layer 0. Marks left over
        # from layer 0 would make its reuse of vertex 2 look clean.
        monkeypatch.setattr(schedule_module, "_MARK_MAX", 8)
        with pytest.raises(ScheduleError, match="layer 2: vertex reuse"):
            decode_schedule(_raw_frame(4, [1, 0, 2], [0, 1, 2], [1, 2, 3]))
        ok = decode_schedule(_raw_frame(4, [1, 0, 1, 1, 1], [0, 0, 0, 2], [1, 1, 1, 3]))
        assert ok.layers == (((0, 1),), (), ((0, 1),), ((0, 1),), ((2, 3),))

    def test_sparse_layers_decode_quickly(self):
        # 10**5 empty layers of 2**21 vertices and one swap: marking one
        # flag per (layer, vertex) would walk 2 * 10**11 flags, so the
        # reuse check sorts the two endpoints instead.
        n, n_layers = 1 << 21, 10**5
        frame = _raw_frame(n, [0] * (n_layers - 1) + [1], [0], [1])
        t0 = time.perf_counter()
        assert decode_schedule(frame).depth == 1
        assert time.perf_counter() - t0 < 2.0

    def test_vertex_reuse_rejected_in_a_layer_wider_than_the_marks(self):
        # One layer of 2**23 vertices needs more flags than a block
        # holds, so every key is sorted instead; nothing is sized by n.
        n = 1 << 23
        with pytest.raises(ScheduleError, match="layer 1: vertex reuse"):
            decode_schedule(_raw_frame(n, [1, 2], [0, 0, 1], [1, 1, 2]))
        assert decode_schedule(_raw_frame(n, [1, 1], [0, 0], [1, 1])).depth == 2

    def test_wrapping_layer_counts_rejected(self):
        # The int16 sum of these counts wraps to 1 == n_swaps; decoding
        # widens to int64 and bounds each count before summing.
        frame = _raw_frame(4, WRAPPING_COUNTS, [0], [1])
        assert len(frame) == 50
        with pytest.raises(ScheduleError, match="layer count"):
            decode_schedule(frame)

    def test_version_1_frame_rejected(self):
        with pytest.raises(ScheduleError, match="not a schedule frame"):
            decode_schedule(_v1_frame(decode_schedule(_frame())))

    @pytest.mark.parametrize(
        "meta", [b"[" * 100_000, b"{" * 100_000, b'{"a":' + b"1" * 5000 + b"}"]
    )
    def test_undecodable_metadata_is_schedule_error(self, meta):
        # Deep nesting raises RecursionError inside json, an over-long
        # integer literal a plain ValueError: both are corrupt metadata.
        with pytest.raises(ScheduleError, match="metadata"):
            decode_schedule(_raw_frame(4, [1], [0], [1], meta))


# ----------------------------------------------------------------------
# fuzzing: decode_schedule is the only way a schedule enters a daemon
# ----------------------------------------------------------------------
_INT64 = st.integers(-(2**63), 2**63 - 1)

#: Metadata sections: short arbitrary bytes, plus the shapes that break
#: ``json.loads`` outside ``JSONDecodeError`` (deep nesting, long ints).
_METADATA = st.binary(max_size=40) | st.builds(
    lambda unit, k: unit * k,
    st.sampled_from([b"[", b'{"a":', b"7"]),
    st.integers(0, 6000),
)


@st.composite
def _arbitrary_fields(draw):
    """Header and payload fields drawn from the whole int64 range."""
    k = draw(st.integers(0, 5))
    s = draw(st.integers(0, 5))
    ids = _INT64 | st.integers(0, 9) | st.integers(32760, 32775)
    counts = draw(st.lists(_INT64 | st.integers(0, s), min_size=k, max_size=k))
    lo = draw(st.lists(ids, min_size=s, max_size=s))
    hi = draw(st.lists(ids, min_size=s, max_size=s))
    n = draw(_INT64 | st.integers(1, 10) | _WIDE_N)
    frame = _raw_frame(n, counts, lo, hi, draw(_METADATA))
    if draw(st.booleans()):  # overwrite one int64 header field
        at = 8 * draw(st.integers(1, 4))
        frame = frame[:at] + struct.pack("<q", draw(_INT64)) + frame[at + 8 :]
    return frame


@st.composite
def _wrapping_counts(draw):
    """int16 layer counts whose int16 sum wraps to ``n_swaps``."""
    s = draw(st.integers(0, 4))
    k = draw(st.integers(3, 6))
    counts = draw(st.lists(st.integers(0, 2**15 - 1), min_size=k - 1, max_size=k - 1))
    counts.append((s - sum(counts)) % 2**16)  # stored as a negative int16
    ends = draw(st.lists(st.integers(0, 7), min_size=2 * s, max_size=2 * s))
    return _raw_frame(8, draw(st.permutations(counts)), ends[:s], ends[s:])


@st.composite
def _mutated_valid(draw):
    """A valid frame truncated, bit-flipped, or given arbitrary metadata."""
    frame = encode_schedule(draw(schedules()))
    how = draw(st.sampled_from(["truncate", "flip", "metadata"]))
    if how == "truncate":
        return frame[: draw(st.integers(0, len(frame)))]
    if how == "flip":
        out = bytearray(frame)
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, len(out) - 1))
            out[i] ^= draw(st.integers(1, 255))
        return bytes(out)
    meta_len = struct.unpack_from("<q", frame, 32)[0]
    body = frame[40 : len(frame) - meta_len]
    meta = draw(_METADATA)
    return frame[:32] + struct.pack("<q", len(meta)) + body + meta


class TestDecodeFuzz:
    @given(frame=_arbitrary_fields() | _wrapping_counts() | _mutated_valid())
    @settings(max_examples=400, deadline=None)
    def test_only_schedule_error_and_valid_layers(self, frame):
        try:
            decoded = decode_schedule(frame)
        except ScheduleError:
            return
        # Anything that decodes is a schedule the public constructor
        # accepts as it stands: same layers, nothing re-canonicalized.
        rebuilt = Schedule(decoded.n_vertices, decoded.layers)
        assert rebuilt.layers == decoded.layers
        assert isinstance(decoded.metadata, dict)


# ----------------------------------------------------------------------
# the cache ops on the wire
# ----------------------------------------------------------------------
def _b64(frame: bytes) -> str:
    return base64.b64encode(frame).decode("ascii")


def _dispatch_all(docs: list[dict]) -> list[dict]:
    """Answer ``docs`` in order through a fresh in-process handler."""

    async def run():
        async with AsyncRoutingService(cache_size=16, max_workers=1) as svc:
            handler = RequestHandler(svc)
            return [await handler.dispatch(doc) for doc in docs]

    return asyncio.run(run())


class _PeerStub(RemoteShardClient):
    """A peer answering the cache ops in process, in one codec version.

    ``codec=CODEC_VERSION`` is a current peer. ``codec=1`` runs a
    release on the version-1 codec: it echoes ``"codec": 1``, stores
    only version-1 frames and serves them back. ``codec=None`` predates
    the codec: it speaks the JSON ``schedule`` document only and never
    echoes.
    """

    def __init__(self, codec: int | None = CODEC_VERSION) -> None:
        super().__init__("unused.sock")
        self.codec = codec
        self.store: dict[str, bytes] = {}
        self.seen: list[dict] = []

    def _request(self, method: str, path: str, doc: dict | None = None) -> dict:
        doc = dict(doc or {})
        self.seen.append(doc)
        binary = self.codec is not None
        resp = {"ok": True, "codec": self.codec} if binary else {"ok": True}
        if path == "/v1/cache_put":
            frame = base64.b64decode(doc.get("schedule_b64", ""))
            magic = b"reproSC" + bytes([self.codec or 0])
            if not binary or frame[:8] != magic:
                return {"ok": False, "code": "bad_request", "error": "bad schedule"}
            self.store[doc["digest"]] = frame
            return {**resp, "stored": True}
        frame = self.store.get(doc["digest"])
        resp["found"] = frame is not None
        if frame is not None and binary:
            resp["schedule_b64"] = _b64(frame)
        elif frame is not None:
            resp["schedule"] = json.loads(schedule_to_json(decode_schedule(frame)))
        return resp


class TestWireFields:
    def test_handler_speaks_the_older_fields(self):
        frame = _frame()
        put, get = _dispatch_all([
            {"op": "cache_put", "digest": "d1", "codec": CODEC_VERSION,
             "schedule_b64": _b64(frame)},
            {"op": "cache_get", "digest": "d1", "codec": CODEC_VERSION},
        ])
        assert put["ok"] and put["stored"] and put["codec"] == CODEC_VERSION
        assert get["found"] and get["codec"] == CODEC_VERSION
        assert base64.b64decode(get["schedule_b64"]) == frame

    def test_client_speaks_the_older_fields(self):
        peer = _PeerStub()
        s = decode_schedule(_frame())
        assert peer.cache_put("d2", s, cost=0.5)
        assert peer.cache_get("d2") == s
        assert peer.cache_get("absent") is None
        assert all(doc["codec"] == CODEC_VERSION for doc in peer.seen)

    def test_json_only_peer_is_a_shard_error(self):
        # A daemon from before the codec speaks JSON only: both ops
        # fail, and the cluster cache computes the schedule locally.
        peer = _PeerStub(codec=None)
        peer.store["d3"] = _frame()
        with pytest.raises(ClusterShardError, match="malformed"):
            peer.cache_get("d3")
        with pytest.raises(ClusterShardError, match="bad_request"):
            peer.cache_put("d3", decode_schedule(_frame()))

    def test_json_only_peer_degrades_to_local_compute(self):
        peer = _PeerStub(codec=None)
        peer.store["d5"] = _frame()
        cache = ClusterScheduleCache(
            ScheduleCache(), {"old": peer}, node_id="self", replication=2
        )
        try:
            assert cache.get("d5") is None  # a miss, never an error
            cache.put("d5", decode_schedule(_frame()))  # local tier only
            assert cache.get("d5") == decode_schedule(_frame())
            assert cache.cluster_stats.degraded_gets >= 1
        finally:
            cache.close()

    def test_version_1_peer_fails_both_directions(self):
        # Each side's frames fail the other side's decode.
        peer = _PeerStub(codec=1)
        peer.store["d7"] = _v1_frame(decode_schedule(_frame()))
        with pytest.raises(ClusterShardError, match="malformed"):
            peer.cache_get("d7")
        with pytest.raises(ClusterShardError, match="bad_request"):
            peer.cache_put("d8", decode_schedule(_frame()))

    def test_version_1_peer_degrades_to_local_compute(self):
        peer = _PeerStub(codec=1)
        peer.store["d9"] = _v1_frame(decode_schedule(_frame()))
        cache = ClusterScheduleCache(
            ScheduleCache(), {"old": peer}, node_id="self", replication=2
        )
        try:
            assert cache.get("d9") is None
            assert cache.dead_nodes() == ["old"]
            assert cache.cluster_stats.remote_errors == 1
        finally:
            cache.close()

    def test_version_1_cache_put_is_bad_request(self):
        (put,) = _dispatch_all([
            {"op": "cache_put", "digest": "d10",
             "schedule_b64": _b64(_v1_frame(decode_schedule(_frame())))},
        ])
        assert not put["ok"] and put["code"] == "bad_request"
        assert "not a schedule frame" in put["error"]

    def test_crafted_frame_put_is_bad_request(self):
        put, stats = _dispatch_all([
            {"op": "cache_put", "digest": "d4",
             "schedule_b64": _b64(_raw_frame(4, WRAPPING_COUNTS, [0], [1]))},
            {"op": "cache_stats"},
        ])
        assert not put["ok"] and put["code"] == "bad_request"
        assert "layer count" in put["error"]
        assert stats["ok"]


# ----------------------------------------------------------------------
# disk-tier integration
# ----------------------------------------------------------------------
def _schedule(seed: int = 0) -> Schedule:
    grid = GridGraph(4, 4)
    return make_router("local").route(grid, random_permutation(grid, seed=seed))


class TestDiskTier:
    def test_binary_files_round_trip(self, tmp_path):
        cache = ScheduleCache(disk_dir=tmp_path)
        s = _schedule()
        cache.put("d1", s)
        assert (tmp_path / "d1.rsc").exists()
        cold = ScheduleCache(disk_dir=tmp_path)
        assert cold.get("d1") == s
        assert cold.stats.disk_hits == 1

    def test_json_files_are_not_read(self, tmp_path):
        # Pre-binary ``<digest>.json`` entries are neither served nor
        # touched: the digest is a miss and recomputes into ``.rsc``.
        s = _schedule(3)
        old = tmp_path / "old.json"
        old.write_text(schedule_to_json(s), encoding="utf-8")
        cache = ScheduleCache(disk_dir=tmp_path)
        assert cache.get("old") is None
        assert cache.stats.disk_hits == 0 and cache.stats.disk_errors == 0
        assert old.exists()
        cache.put("old", s)
        assert ScheduleCache(disk_dir=tmp_path).get("old") == s

    def test_corrupt_binary_is_a_miss_and_unlinked(self, tmp_path):
        cache = ScheduleCache(disk_dir=tmp_path)
        for name, payload in [
            ("trunc", encode_schedule(_schedule())[:30]),
            ("garbage", b"not a schedule frame at all"),
            ("tail", encode_schedule(_schedule()) + b"x"),
            ("deep", _raw_frame(4, [1], [0], [1], b"[" * 100_000)),
        ]:
            (tmp_path / f"{name}.rsc").write_bytes(payload)
            assert cache.get(name) is None
            assert not (tmp_path / f"{name}.rsc").exists()
        assert cache.stats.disk_errors == 4
        assert cache.stats.misses == 4

    def test_version_1_file_is_unlinked_and_recomputed(self, tmp_path):
        s = _schedule(5)
        path = tmp_path / "v1.rsc"
        path.write_bytes(_v1_frame(s))
        cache = ScheduleCache(disk_dir=tmp_path)
        assert cache.get("v1") is None
        assert not path.exists()
        assert cache.stats.disk_errors == 1
        cache.put("v1", s)
        assert ScheduleCache(disk_dir=tmp_path).get("v1") == s
