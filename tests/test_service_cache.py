"""Tests for the tiered LRU schedule cache (repro.service.cache)."""

from __future__ import annotations

import threading

import pytest

from repro.graphs import GridGraph
from repro.perm import random_permutation
from repro.routing import LocalGridRouter
from repro.routing.codec import encode_schedule
from repro.service import LRUCache, RoutingService, ScheduleCache


def _schedule(seed: int = 0, size: int = 3):
    grid = GridGraph(size, size)
    return LocalGridRouter().route(grid, random_permutation(grid, seed=seed))


class TestLRUCache:
    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_put_and_stats(self):
        c = LRUCache(4)
        assert c.get("a") is None
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.stats.hits == 1 and c.stats.misses == 1 and c.stats.puts == 1
        assert c.stats.lookups == 2 and c.stats.hit_rate == 0.5
        assert "a" in c and len(c) == 1

    def test_lru_eviction_order(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refresh a; b is now LRU
        c.put("c", 3)
        assert "b" not in c
        assert "a" in c and "c" in c
        assert c.stats.evictions == 1

    def test_put_refreshes_existing(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)  # refresh, not insert: b must be evicted next
        c.put("c", 3)
        assert c.get("a") == 10 and "b" not in c

    def test_clear_keeps_stats(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.get("a")
        c.clear()
        assert len(c) == 0 and c.stats.hits == 1

    def test_as_dict_shape(self):
        d = LRUCache(2).stats.as_dict()
        assert {"hits", "misses", "evictions", "lookups", "hit_rate"} <= set(d)

    def test_thread_smoke(self):
        c = LRUCache(64)

        def worker(tag: int) -> None:
            for i in range(200):
                c.put(f"{tag}-{i % 32}", i)
                c.get(f"{tag}-{(i + 7) % 32}")

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(c) <= 64
        assert c.stats.lookups == 4 * 200


class TestScheduleCacheDisk:
    def test_memory_only_by_default(self):
        c = ScheduleCache(maxsize=4)
        c.put("k", _schedule())
        assert c.stats.disk_writes == 0

    def test_persists_across_instances(self, tmp_path):
        sched = _schedule(seed=3)
        c1 = ScheduleCache(maxsize=4, disk_dir=tmp_path)
        c1.put("k1", sched)
        assert c1.stats.disk_writes == 1

        c2 = ScheduleCache(maxsize=4, disk_dir=tmp_path)
        got = c2.get("k1")
        assert got == sched
        assert c2.stats.disk_hits == 1 and c2.stats.hits == 1
        # Promoted to memory: second get does not touch disk again.
        assert c2.get("k1") == sched
        assert c2.stats.disk_hits == 1

    def test_survives_memory_eviction(self, tmp_path):
        c = ScheduleCache(maxsize=1, disk_dir=tmp_path)
        s0, s1 = _schedule(0), _schedule(1)
        c.put("k0", s0)
        c.put("k1", s1)  # evicts k0 from memory; disk copy remains
        assert c.stats.evictions == 1
        assert c.get("k0") == s0
        assert c.stats.disk_hits == 1

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path):
        c = ScheduleCache(maxsize=4, disk_dir=tmp_path)
        bad = tmp_path / "kx.rsc"
        bad.write_bytes(b"not a schedule frame")
        assert c.get("kx") is None
        assert c.stats.disk_errors == 1
        assert not bad.exists()

    def test_non_utf8_entry_is_a_miss_and_deleted(self, tmp_path):
        # A well-formed frame whose metadata section is not UTF-8.
        frame = encode_schedule(_schedule().with_metadata(note="ab"))
        meta_len = len(b'{"note":"ab"}')
        c = ScheduleCache(maxsize=4, disk_dir=tmp_path)
        bad = tmp_path / "kb.rsc"
        bad.write_bytes(frame[:-meta_len] + b"\xff" * meta_len)
        assert c.get("kb") is None
        assert c.stats.disk_errors == 1
        assert not bad.exists()

    def test_shard_subdirectories_are_not_read(self, tmp_path):
        """Entries under an older release's ``shard-<i>/`` are misses."""
        sched = _schedule(seed=2)
        old = tmp_path / "shard-3"
        old.mkdir()
        (old / "k.rsc").write_bytes(encode_schedule(sched))
        c = ScheduleCache(maxsize=4, disk_dir=tmp_path)
        assert c.get("k") is None
        assert c.stats.misses == 1 and c.stats.disk_errors == 0
        c.put("k", sched)  # the recompute lands in the flat directory
        assert (tmp_path / "k.rsc").is_file()

    def test_unwritable_dir_counts_error_but_serves_memory(self, tmp_path):
        blocked = tmp_path / "file"
        blocked.write_text("occupied", encoding="utf-8")
        # disk_dir points *through* a regular file -> mkdir fails.
        c = ScheduleCache(maxsize=4, disk_dir=blocked / "sub")
        sched = _schedule()
        c.put("k", sched)
        assert c.stats.disk_errors == 1
        assert c.get("k") == sched


class TestAdmission:
    """``min_cost``: schedules cheaper to recompute than to keep."""

    def test_cost_threshold_seconds(self):
        c = ScheduleCache(maxsize=8, min_cost=1e-3)
        c.put("dear", _schedule(), cost=1.0)
        c.put("cheap", _schedule(), cost=1e-6)
        # Unknown cost must not silently disable caching.
        c.put("unmeasured", _schedule())
        assert set(c.keys()) == {"dear", "unmeasured"}
        assert c.rejected_puts == 1

    def test_rejects_negative_thresholds(self):
        with pytest.raises(ValueError):
            ScheduleCache(min_cost=-1)

    def test_admission_rejects_cheap_puts(self, tmp_path):
        c = ScheduleCache(maxsize=64, disk_dir=tmp_path, min_cost=1.0)
        c.put("k0", _schedule(), cost=1e-6)  # too cheap: rejected
        assert "k0" not in c
        assert c.rejected_puts == 1 and c.stats.puts == 0
        assert not (tmp_path / "k0.rsc").exists()  # nor written to disk
        c.put("k1", _schedule(), cost=5.0)  # expensive: admitted
        assert "k1" in c and (tmp_path / "k1.rsc").is_file()
        assert c.as_dict()["rejected_puts"] == 1

    def test_min_cost_via_service(self):
        # An impossibly high threshold: nothing is ever cached, so the
        # same request recomputes every time and rejected_puts grows.
        svc = RoutingService(cache_size=64, cache_min_cost=1e9)
        grid = GridGraph(3, 3)
        perm = random_permutation(grid, seed=0)
        assert svc.submit(grid, perm).source == "computed"
        assert svc.submit(grid, perm).source == "computed"
        assert svc.stats()["schedule_cache"]["rejected_puts"] == 2


class TestDiskEvictionRace:
    def test_concurrent_corrupt_eviction_tolerated_and_counted_once(
        self, tmp_path, monkeypatch
    ):
        """Two threads racing to drop the same corrupt disk entry.

        Both must survive (the loser's unlink sees the file already
        gone) and the eviction must be counted exactly once. A barrier
        inside the decode step guarantees both threads read the file
        before either unlinks it, which is the racing interleaving.
        """
        import repro.service.cache as cache_mod

        c = ScheduleCache(maxsize=4, disk_dir=tmp_path)
        (tmp_path / "kr.rsc").write_bytes(b"not a schedule frame")

        barrier = threading.Barrier(2, timeout=30)
        real_decode = cache_mod.decode_schedule

        def synchronized_decode(data):
            barrier.wait()
            return real_decode(data)

        monkeypatch.setattr(cache_mod, "decode_schedule", synchronized_decode)

        results: list = []
        errors: list = []

        def load() -> None:
            try:
                results.append(c.get("kr"))
            except Exception as exc:  # noqa: BLE001 - the bug under test
                errors.append(exc)

        threads = [threading.Thread(target=load) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()

        assert errors == []  # the unlink loser must not crash
        assert results == [None, None]  # both observe a miss
        assert c.stats.disk_errors == 1  # the eviction is counted once
        assert c.stats.misses == 2
        assert not (tmp_path / "kr.rsc").exists()
