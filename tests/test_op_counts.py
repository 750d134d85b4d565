"""Operation-count budgets: filesystem work per fleet job.

Creating a file or a directory is the expensive filesystem operation on
the fleet path (about 0.5 ms each on a 2-vCPU VM, against ~22 µs for a
rename), and unlike a timing a count does not depend on the host.  This
test counts what a small one-worker cold sweep creates and holds it to
a per-job budget:

* the queue's share is 2 — the job file at submit and its claim
  rewrite (complete is a rename);
* the store's share is 2 — the per-key lock file and the entry file,
  written under ``tmp/`` and renamed into ``objects/``.

Layout directories (queue state dirs, ``objects/<k[:2]>`` fan-out,
``tmp/``, ``locks/``) are made once per store or queue and counted
apart, as are the per-sweep manifest and queue lock.
"""

from __future__ import annotations

import builtins
import io
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.analysis import AggregateRiskAnalysis
from repro.store import FileStore, SharedFileStore, StoreEntry, ylt_digest

#: files plus directories created per job (queue 2 + store 2)
FILES_PER_JOB = 4
#: of which the store's: key lock + entry file
STORE_FILES_PER_JOB = 2


class CreationLog:
    """Wraps ``os.open``, ``os.mkdir`` and ``open`` to record every file
    and directory they create (not ones that already existed)."""

    def __init__(self, monkeypatch) -> None:
        self.files: list[Path] = []
        self.dirs: list[Path] = []
        real_open, real_mkdir, real_io_open = os.open, os.mkdir, io.open

        def counted_os_open(path, flags, *args, **kwargs):
            fresh = bool(flags & os.O_CREAT) and not os.path.lexists(path)
            fd = real_open(path, flags, *args, **kwargs)
            if fresh:
                self.files.append(Path(path))
            return fd

        def counted_mkdir(path, *args, **kwargs):
            real_mkdir(path, *args, **kwargs)
            self.dirs.append(Path(path))

        def counted_io_open(file, mode="r", *args, **kwargs):
            fresh = (
                isinstance(file, (str, bytes, os.PathLike))
                and any(flag in mode for flag in "wxa")
                and not os.path.lexists(file)
            )
            handle = real_io_open(file, mode, *args, **kwargs)
            if fresh:
                self.files.append(Path(os.fsdecode(file)))
            return handle

        monkeypatch.setattr(os, "open", counted_os_open)
        monkeypatch.setattr(os, "mkdir", counted_mkdir)
        monkeypatch.setattr(io, "open", counted_io_open)
        monkeypatch.setattr(builtins, "open", counted_io_open)


@pytest.fixture()
def creation_log(monkeypatch):
    """Records creations until the test calls ``monkeypatch.undo()``."""
    return CreationLog(monkeypatch)


def test_cold_sweep_creates_at_most_four_files_per_job(
    small_workload, tmp_path, monkeypatch, creation_log
):
    store_dir, queue_dir = tmp_path / "store", tmp_path / "queue"
    store = SharedFileStore(store_dir)
    ara = AggregateRiskAnalysis(
        small_workload.portfolio, small_workload.catalog.n_events
    )
    log = creation_log
    result = ara.run_fleet(
        small_workload.yet,
        n_workers=1,
        store=store,
        queue_dir=queue_dir,
        segment_trials=40,
    )
    monkeypatch.undo()
    jobs = result.meta["fleet"]["jobs_submitted"]
    assert jobs >= 10

    per_sweep = {queue_dir / "locks" / "queue.lock"}
    files = [
        path
        for path in log.files
        if path not in per_sweep and path.parent != queue_dir / "sweeps"
    ]
    # scratch directories are per job; every other directory is layout
    scratch_dirs = [d for d in log.dirs if d.parent == store_dir / "tmp"]
    layout_dirs = [d for d in log.dirs if d.parent != store_dir / "tmp"]
    store_files = [p for p in files if store_dir in p.parents]

    assert len(files) + len(scratch_dirs) <= FILES_PER_JOB * jobs, (
        sorted(str(p) for p in files + scratch_dirs)
    )
    assert len(store_files) <= STORE_FILES_PER_JOB * jobs
    # fan-out is bounded by the 256 two-hex-digit prefixes
    assert len(layout_dirs) <= 256 + 16
    assert len(log.files) - len(files) <= 2
    # and nothing was left behind in tmp/
    assert list((store_dir / "tmp").iterdir()) == []

    mono = ara.run(small_workload.yet, engine="sequential")
    assert ylt_digest(result.ylt) == ylt_digest(mono.ylt)


@pytest.mark.parametrize("kind", ["put", "get"])
def test_store_put_creates_one_file_and_get_none(tmp_path, monkeypatch, kind):
    """A put creates one entry file (its tmp/ and fan-out directory only
    the first time); a get creates nothing."""
    store = FileStore(tmp_path)
    entry = StoreEntry(arrays={"value": np.arange(8.0)})
    store.put("warm-up", entry)
    store.put("aa-first", entry)
    log = CreationLog(monkeypatch)
    if kind == "put":
        store.put("aa-second", entry)
        assert len(log.files) == 1 and log.dirs == []
    else:
        assert store.get("aa-first") is not None
        assert log.files == [] and log.dirs == []
