"""Store operations: access tracking, LRU garbage collection, the
``repro-store`` CLI, and the uniform ``stats()`` contract."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.io.atomic import lock_file

from repro.store import (
    FileStore,
    MemoryStore,
    SharedFileStore,
    StoreEntry,
    TieredStore,
    collect_garbage,
    scan_entries,
)
from repro.store.cli import main as store_cli
from repro.store.cli import parse_size
from tests.storefiles import replace_bytes


def entry_of(nbytes: int) -> StoreEntry:
    return StoreEntry(
        arrays={"value": np.zeros(max(1, nbytes // 8), dtype=np.float64)}
    )


def backdate(path, seconds: float) -> None:
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestAccessTracking:
    def test_read_touches_entry_mtime(self, tmp_path):
        store = FileStore(tmp_path)
        store.put("aged", entry_of(64))
        path = store.entry_path("aged")
        backdate(path, 3600)
        before = path.stat().st_mtime
        assert store.get("aged") is not None
        assert path.stat().st_mtime > before

    def test_tracking_can_be_disabled(self, tmp_path):
        store = FileStore(tmp_path, track_access=False)
        store.put("aged", entry_of(64))
        path = store.entry_path("aged")
        backdate(path, 3600)
        before = path.stat().st_mtime
        assert store.get("aged") is not None
        assert path.stat().st_mtime == before

    def test_contains_does_not_touch(self, tmp_path):
        store = FileStore(tmp_path)
        store.put("k", entry_of(64))
        path = store.entry_path("k")
        backdate(path, 3600)
        before = path.stat().st_mtime
        assert store.contains("k")
        assert "k" in store
        assert path.stat().st_mtime == before
        assert not store.contains("missing")


class TestCollectGarbage:
    def test_lru_keeps_recently_read_entries(self, tmp_path):
        store = FileStore(tmp_path)
        for i in range(4):
            store.put(f"key-{i}", entry_of(800))
            backdate(store.entry_path(f"key-{i}"), 1000 - i)
        store.get("key-0")  # oldest by insertion, freshest by access
        sizes = [info.nbytes for info in scan_entries(tmp_path)]
        keep_two = sum(sorted(sizes)[:2])  # entries are equal-sized
        report = collect_garbage(tmp_path, max_bytes=keep_two + 1)
        assert report.removed_entries == 2
        kept = {info.key for info in scan_entries(tmp_path)}
        assert "key-0" in kept  # LRU by *access*, not insertion
        assert store.contains("key-0")
        # removed entries are real misses now
        removed = set(report.removed_keys)
        assert removed == {"key-1", "key-2"}
        for key in removed:
            assert store.get(key) is None

    def test_zero_budget_clears_everything(self, tmp_path):
        store = FileStore(tmp_path)
        for i in range(3):
            store.put(f"k{i}", entry_of(100))
        report = collect_garbage(tmp_path, max_bytes=0)
        assert report.removed_entries == 3
        assert report.kept_entries == 0
        assert scan_entries(tmp_path) == []

    def test_within_budget_removes_nothing(self, tmp_path):
        store = FileStore(tmp_path)
        store.put("k", entry_of(100))
        report = collect_garbage(tmp_path, max_bytes=10**9)
        assert report.removed_entries == 0
        assert report.scanned_entries == 1
        assert store.contains("k")

    def test_dry_run_touches_nothing(self, tmp_path):
        store = FileStore(tmp_path)
        for i in range(3):
            store.put(f"k{i}", entry_of(500))
        report = collect_garbage(tmp_path, max_bytes=0, dry_run=True)
        assert report.removed_entries == 3
        assert len(scan_entries(tmp_path)) == 3

    def test_stale_tmp_scratch_swept(self, tmp_path):
        store = FileStore(tmp_path)
        store.put("k", entry_of(64))
        stale = tmp_path / "tmp" / "tmp-999-deadbeef"
        stale.mkdir(parents=True)
        backdate(stale, 7200)
        fresh = tmp_path / "tmp" / "tmp-999-cafef00d"
        fresh.mkdir()
        report = collect_garbage(tmp_path, max_bytes=10**9)
        assert report.stale_tmp_dirs == 1
        assert not stale.exists()
        assert fresh.exists()

    def test_stale_tmp_scratch_file_swept(self, tmp_path):
        store = FileStore(tmp_path)
        store.put("k", entry_of(64))
        stale = tmp_path / "tmp" / "k-999-deadbeef"
        stale.write_bytes(b"half an entry")
        backdate(stale, 7200)
        fresh = tmp_path / "tmp" / "k-999-cafef00d"
        fresh.write_bytes(b"a live writer's entry")
        report = collect_garbage(tmp_path, max_bytes=10**9)
        assert report.stale_tmp_dirs == 1
        assert not stale.exists()
        assert fresh.exists()
        assert store.contains("k")

    def test_lock_files_of_removed_keys_cleaned(self, tmp_path):
        store = SharedFileStore(tmp_path)
        store.get_or_compute("locked", lambda: entry_of(64))
        lock = tmp_path / "locks" / "locked.lock"
        assert lock.exists()
        collect_garbage(tmp_path, max_bytes=0)
        assert not lock.exists()

    def test_held_lock_file_survives_gc(self, tmp_path):
        # Regression: GC unlinked lock files unconditionally.  A writer
        # holding the flock mid-``get_or_compute`` would keep the open
        # (now nameless) file while a second writer locked a *fresh*
        # file of the same name — two "exclusive" computations for one
        # key.  GC must skip lock files whose flock is held.
        store = SharedFileStore(tmp_path)
        store.get_or_compute("locked", lambda: entry_of(64))
        lock = tmp_path / "locks" / "locked.lock"
        with lock_file(lock) as held:  # a slow writer, mid-compute
            assert held
            report = collect_garbage(tmp_path, max_bytes=0)
            assert report.removed_entries == 1  # the entry still goes
            assert lock.exists()  # but the held lock file stays
        # writer done: the next pass sweeps the now-unheld lock file
        store.put("locked", entry_of(64))
        collect_garbage(tmp_path, max_bytes=0)
        assert not lock.exists()

    def test_gc_races_a_slow_writer_without_splitting_the_lock(self, tmp_path):
        # End-to-end shape of the race: GC fires while a writer sits
        # inside get_or_compute.  The writer's exclusivity (and its
        # lock file) must survive the collection.
        store = SharedFileStore(tmp_path)
        store.get_or_compute("racy", lambda: entry_of(64))
        lock = tmp_path / "locks" / "racy.lock"
        entered = threading.Event()
        release = threading.Event()

        def slow_writer():
            def produce():
                entered.set()
                release.wait(timeout=10.0)
                return entry_of(128)

            store.delete("racy")
            store.get_or_compute("racy", produce)

        writer = threading.Thread(target=slow_writer)
        writer.start()
        try:
            assert entered.wait(timeout=10.0)
            collect_garbage(tmp_path, max_bytes=0)  # mid-compute GC
            assert lock.exists()  # the held lock was not unlinked
        finally:
            release.set()
            writer.join(timeout=10.0)
        assert store.contains("racy")  # the slow write still published

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            collect_garbage(tmp_path, max_bytes=-1)

    def test_empty_cache_dir_is_fine(self, tmp_path):
        report = collect_garbage(tmp_path / "never-written", max_bytes=0)
        assert report.scanned_entries == 0


class TestStoreCli:
    def test_parse_size_units(self):
        assert parse_size("1024") == 1024
        assert parse_size("4k") == 4096
        assert parse_size("2M") == 2 * 1024**2
        assert parse_size("1.5G") == int(1.5 * 1024**3)
        assert parse_size("3GB") == 3 * 1024**3
        with pytest.raises(Exception):
            parse_size("lots")

    def test_gc_command(self, tmp_path, capsys):
        store = FileStore(tmp_path)
        for i in range(3):
            store.put(f"k{i}", entry_of(4000))
        code = store_cli(
            ["--cache-dir", str(tmp_path), "gc", "--max-bytes", "4500", "-v"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 2/3" in out
        assert len(scan_entries(tmp_path)) == 1

    def test_gc_dry_run_command(self, tmp_path, capsys):
        store = FileStore(tmp_path)
        store.put("k", entry_of(4000))
        code = store_cli(
            ["--cache-dir", str(tmp_path), "gc", "--max-bytes", "0",
             "--dry-run"]
        )
        assert code == 0
        assert "would remove 1/1" in capsys.readouterr().out
        assert len(scan_entries(tmp_path)) == 1

    def test_stats_command(self, tmp_path, capsys):
        store = FileStore(tmp_path)
        store.put("k", entry_of(256))
        assert store_cli(["--cache-dir", str(tmp_path), "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:   1" in out


class TestUniformStats:
    """Every backend reports the same stats shape; TieredStore
    additionally aggregates its tiers' internal counters."""

    BASE_KEYS = {
        "hits", "misses", "inflight_hits", "puts", "corrupt_misses",
        "evictions", "put_errors", "size",
    }

    def test_all_backends_share_the_base_shape(self, tmp_path):
        backends = [
            MemoryStore(),
            FileStore(tmp_path / "f"),
            SharedFileStore(tmp_path / "s"),
            TieredStore([MemoryStore(), FileStore(tmp_path / "t")]),
        ]
        for store in backends:
            stats = store.stats()
            assert self.BASE_KEYS <= set(stats), type(store).__name__

    def test_tiered_store_aggregates_memory_evictions(self, tmp_path):
        tiered = TieredStore(
            [MemoryStore(max_entries=1), FileStore(tmp_path)]
        )
        for i in range(3):
            tiered.put(f"k{i}", entry_of(64))
        stats = tiered.stats()
        assert stats["evictions"] == 2  # ticked inside the memory tier
        assert len(stats["tiers"]) == 2
        assert stats["tiers"][0]["evictions"] == 2
        assert stats["tiers"][1]["evictions"] == 0

    def test_tiered_store_aggregates_file_corruption(self, tmp_path):
        file_store = FileStore(tmp_path)
        tiered = TieredStore([MemoryStore(max_entries=1), file_store])
        tiered.put("good", entry_of(64))
        tiered.put("bad", entry_of(64))  # evicts "good" from memory
        # corrupt the file copy of the older entry, then read through
        replace_bytes(file_store.entry_path("good"), b"junk")
        assert tiered.get("good") is None
        stats = tiered.stats()
        assert stats["corrupt_misses"] >= 1
        assert stats["misses"] >= 1

    def test_tiered_contains_consults_all_tiers(self, tmp_path):
        file_store = FileStore(tmp_path)
        file_store.put("durable-only", entry_of(64))
        tiered = TieredStore([MemoryStore(), file_store])
        assert tiered.contains("durable-only")
        assert not tiered.contains("nowhere")
