"""Garbage collection for file-backed result stores.

Entries are immutable and content-addressed, so removal is always safe:
a collected entry can only ever cause a future cache *miss* (and a
re-compute), never a wrong answer.  That makes the policy a pure
economics question — keep the bytes most likely to be read again — and
the classic answer is LRU by access time.

:class:`~repro.store.filestore.FileStore` touches each entry's
mtime on every successful read (``track_access=True``, the default),
so the mtime is a last-access clock that works on ``noatime`` mounts.
:func:`collect_garbage` scans ``objects/``, sorts entries by that
clock, and removes oldest-first until the store fits a total-byte
budget.  Entries are single files; directory entries of the older v1
layout are scanned and collected alike.  Stale scratch under ``tmp/``
(crashed writers' files, or directories of the v1 writer) and the lock
files of removed entries are swept as a side effect.

``repro-store gc`` (:mod:`repro.store.cli`) is the operational wrapper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Union

from repro.io.atomic import remove_path, try_lock_file
from repro.store.entryfile import stat_entry
from repro.store.filestore import resolve_cache_dir

PathLike = Union[str, Path]

#: scratch older than this is considered abandoned by a crashed writer
#: (a live writer publishes within seconds).
STALE_TMP_SECONDS = 3600.0


@dataclass(frozen=True)
class StoreEntryInfo:
    """One scanned entry: its key, location, size and last access."""

    key: str
    path: Path
    nbytes: int
    atime: float


@dataclass
class GCReport:
    """What a collection pass saw and did (or would do, dry-run)."""

    budget_bytes: int
    dry_run: bool
    scanned_entries: int = 0
    scanned_bytes: int = 0
    removed_entries: int = 0
    removed_bytes: int = 0
    #: abandoned ``tmp/`` scratch: writers' files, or v1 directories
    stale_tmp_dirs: int = 0
    removed_keys: List[str] = field(default_factory=list)

    @property
    def kept_entries(self) -> int:
        return self.scanned_entries - self.removed_entries

    @property
    def kept_bytes(self) -> int:
        return self.scanned_bytes - self.removed_bytes


def scan_entries(cache_dir: PathLike | None = None) -> List[StoreEntryInfo]:
    """All published entries under a cache dir, oldest access first.

    Size is the entry file's size (for a v1 entry directory, the sum
    of its files' sizes); access time is the entry's mtime (bumped on
    every tracked read).  Entries that vanish mid-scan (a concurrent GC
    or self-healing removal) are skipped.
    """
    objects = resolve_cache_dir(cache_dir) / "objects"
    entries: List[StoreEntryInfo] = []
    if not objects.is_dir():
        return entries
    for prefix in sorted(objects.iterdir()):
        if not prefix.is_dir():
            continue
        for entry in sorted(prefix.iterdir()):
            try:
                found = stat_entry(entry)
            except OSError:
                continue
            if found is not None:
                nbytes, atime = found
                entries.append(
                    StoreEntryInfo(entry.name, entry, nbytes, atime)
                )
    entries.sort(key=lambda info: (info.atime, info.key))
    return entries


def collect_garbage(
    cache_dir: PathLike | None = None,
    max_bytes: int = 0,
    dry_run: bool = False,
    now: float | None = None,
) -> GCReport:
    """LRU-collect a cache dir down to ``max_bytes`` total entry bytes.

    Removes least-recently-accessed entries first until the remainder
    fits the budget (``max_bytes=0`` removes everything), then sweeps
    abandoned ``tmp/`` scratch and the removed entries' lock files.  ``dry_run`` reports the same plan without touching disk.

    Concurrency: removal races benignly with readers (they see a miss
    and recompute) and with writers (an entry re-published after
    removal is simply a fresh entry).  Entry removal takes no locks;
    lock-*file* removal probes each file with a non-blocking ``flock``
    and skips any still held by a live writer, so per-key exclusivity
    is never silently split across two lock files.
    """
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    root = resolve_cache_dir(cache_dir)
    entries = scan_entries(root)
    report = GCReport(budget_bytes=int(max_bytes), dry_run=bool(dry_run))
    report.scanned_entries = len(entries)
    report.scanned_bytes = sum(info.nbytes for info in entries)

    excess = report.scanned_bytes - int(max_bytes)
    for info in entries:
        if excess <= 0:
            break
        if not dry_run:
            remove_path(info.path)
            # Unlink the entry's lock file only while *holding* its
            # flock: a writer in get_or_compute may hold this very
            # lock right now, and unlinking under it would let a
            # second writer lock a fresh file of the same name —
            # two "exclusive" computations for one key.  A held lock
            # simply keeps its file (a later pass sweeps it).
            lock_path = root / "locks" / f"{info.key}.lock"
            if lock_path.exists():
                with try_lock_file(lock_path) as locked:
                    if locked:
                        try:
                            lock_path.unlink()
                        except OSError:
                            pass
        report.removed_entries += 1
        report.removed_bytes += info.nbytes
        report.removed_keys.append(info.key)
        excess -= info.nbytes

    now = time.time() if now is None else float(now)
    tmp_dir = root / "tmp"
    if tmp_dir.is_dir():
        for scratch in tmp_dir.iterdir():
            try:
                stale = now - scratch.stat().st_mtime > STALE_TMP_SECONDS
            except OSError:
                continue
            if stale:
                report.stale_tmp_dirs += 1
                if not dry_run:
                    remove_path(scratch)
    return report
