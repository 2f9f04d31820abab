"""ResultStore eviction: LRU byte budget, age expiry, index, quarantine."""

import json
import os
import time

import pytest

from repro.core.spec import ExperimentSpec
from repro.core.variance import VarianceConfig
from repro.service import ResultStore


def _put(store, key, payload_size=0):
    store.put_shard(key, f"unit-{key}", {"pad": "x" * payload_size})
    return store.shard_path(key)


def _age(path, seconds):
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestByteBudget:
    def test_gc_evicts_oldest_first_down_to_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        paths = [_put(store, f"aa{i}") for i in range(4)]
        for index, path in enumerate(paths):
            _age(path, 1000 - index * 100)  # aa0 oldest ... aa3 newest
        size = paths[0].stat().st_size
        summary = store.gc(max_bytes=2 * size)
        assert summary["evicted"] == 2
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists() and paths[3].exists()
        assert summary["total_bytes"] <= 2 * size

    def test_reads_refresh_recency(self, tmp_path):
        store = ResultStore(tmp_path)
        paths = [_put(store, f"bb{i}") for i in range(3)]
        for path in paths:
            _age(path, 1000)
        hit, _ = store.get_shard("bb0")  # touch: bb0 becomes newest
        assert hit
        size = paths[0].stat().st_size
        store.gc(max_bytes=size)
        assert paths[0].exists()
        assert not paths[1].exists() and not paths[2].exists()

    def test_put_over_budget_triggers_gc(self, tmp_path):
        # Measure one entry's size, then bound the store to exactly that:
        # the second put pushes the total over and must auto-evict the
        # older entry without any explicit gc() call.
        probe = ResultStore(tmp_path)
        first = _put(probe, "cc0")
        size = first.stat().st_size
        _age(first, 100)
        store = ResultStore(tmp_path, max_bytes=size)
        _put(store, "cc1")
        assert not first.exists()
        assert store.shard_path("cc1").exists()
        assert store.total_bytes() <= size

    def test_unbounded_store_never_gcs_on_put(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(3):
            _put(store, f"dd{i}")
        assert store.stats()["shards"] == 3


class TestAgeExpiry:
    def test_gc_evicts_expired_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        old = _put(store, "ee0")
        fresh = _put(store, "ee1")
        _age(old, 3600)
        summary = store.gc(max_age=60.0)
        assert summary["evicted"] == 1
        assert not old.exists() and fresh.exists()


class TestIndex:
    def test_total_bytes_tracks_puts(self, tmp_path):
        store = ResultStore(tmp_path)
        a = _put(store, "ff0")
        b = _put(store, "ff1", payload_size=100)
        assert store.total_bytes() == a.stat().st_size + b.stat().st_size

    def test_index_self_heals_from_scan(self, tmp_path):
        store = ResultStore(tmp_path)
        path = _put(store, "gg0")
        (tmp_path / "index.json").write_text("{ corrupt")
        assert store.total_bytes() == path.stat().st_size
        (tmp_path / "index.json").unlink()
        assert store.total_bytes() == path.stat().st_size

    def test_gc_rewrites_index_to_survivors(self, tmp_path):
        store = ResultStore(tmp_path)
        keep = _put(store, "hh0")
        drop = _put(store, "hh1")
        _age(drop, 3600)
        store.gc(max_age=60.0)
        index = json.loads((tmp_path / "index.json").read_text())
        assert set(index["entries"]) == {f"shards/{keep.name}"}


class TestQuarantineDuringGC:
    def test_unreadable_entry_is_quarantined_not_deleted(self, tmp_path):
        store = ResultStore(tmp_path)
        path = _put(store, "ii0")
        path.write_text("{ truncated")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            summary = store.gc(max_bytes=10**9)
        assert summary["quarantined"] == 1
        assert not path.exists()
        quarantined = list(store.quarantine_dir.glob("*.json"))
        assert len(quarantined) == 1
        assert quarantined[0].read_text() == "{ truncated"
        assert store.stats()["quarantined"] == 1


class TestStats:
    def test_stats_reports_budgets_and_totals(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=10**6, max_age=3600.0)
        _put(store, "jj0")
        stats = store.stats()
        assert stats["max_bytes"] == 10**6
        assert stats["max_age"] == 3600.0
        assert stats["total_bytes"] > 0
        assert stats["shards"] == 1
        assert stats["quarantined"] == 0


def _scan_bytes(root):
    return sum(
        path.stat().st_size
        for tier in ("results", "shards")
        for path in (root / tier).glob("*.json")
    )


class TestIndexLog:
    def test_put_appends_instead_of_rewriting_the_index(self, tmp_path):
        store = ResultStore(tmp_path)
        _put(store, "ab0")
        store.total_bytes()  # fold: index.json written, log consumed
        index = (tmp_path / "index.json").read_bytes()
        assert not (tmp_path / "index.log").exists()
        path = _put(store, "ab1")
        assert (tmp_path / "index.json").read_bytes() == index
        log = (tmp_path / "index.log").read_text().splitlines()
        assert log == [f"{path.stat().st_size} shards/{path.name}"]

    def test_total_bytes_matches_scan_across_two_instances(self, tmp_path):
        first = ResultStore(tmp_path)
        second = ResultStore(tmp_path)

        def check():
            expected = _scan_bytes(tmp_path)
            assert first.total_bytes() == expected
            assert second.total_bytes() == expected

        for i in range(3):
            _put(first, f"cd{i}", payload_size=10 * i)
            _put(second, f"ce{i}", payload_size=7 * i)
        spec = ExperimentSpec(
            kind="variance",
            config=VarianceConfig(qubit_counts=(2, 3), num_circuits=2),
        )
        second.put_result("cf0", spec)  # any persistable type
        check()
        # A re-put of the same key with a new size replaces its entry.
        _put(first, "ce1", payload_size=500)
        check()
        # Forget: a corrupt shard is quarantined by the other instance.
        first.shard_path("cd1").write_text("{ truncated")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            assert second.get_shard("cd1") == (False, None)
        check()
        _age(first.shard_path("cd0"), 3600)
        first.gc(max_age=60.0)
        _put(second, "cg0")
        check()
        second.gc(max_bytes=_scan_bytes(tmp_path) // 2)
        check()

    def test_unreadable_log_line_rebuilds_from_scan(self, tmp_path):
        store = ResultStore(tmp_path)
        _put(store, "da0")
        store.total_bytes()
        _put(store, "da1")
        with open(tmp_path / "index.log", "a") as log:
            log.write("12")  # a writer died mid-line
        assert store.total_bytes() == _scan_bytes(tmp_path)
