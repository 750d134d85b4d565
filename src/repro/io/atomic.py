"""Atomic filesystem primitives for on-disk caches.

The result store (:mod:`repro.store`) persists computed YLTs and base
loss vectors under a cache directory that may be read and written by
many processes at once.  POSIX gives exactly one cheap atomicity
primitive — ``rename(2)`` within a filesystem — so every durable write
here follows the same discipline: materialise the payload completely in
a scratch location, then rename it into its final name.  Readers either
see the old entry, the new entry, or nothing; never a torn file.

Removal (:func:`remove_path`) takes a file or a directory tree alike:
store entries are single files, and entries written by the older
directory layout, and the scratch left by crashed writers, may be
either.  :func:`load_npy` reads the per-array ``.npy`` files of that
older layout, memory-mapped by default.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Union

import numpy as np

try:  # POSIX advisory locks; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

PathLike = Union[str, Path]


def array_crc32(array: np.ndarray) -> int:
    """CRC32 of an array's raw bytes (C speed; the store's checksum)."""
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def load_npy(path: PathLike, mmap: bool = True) -> np.ndarray:
    """Read a ``.npy`` file, memory-mapped read-only by default.

    Raises whatever ``numpy.load`` raises on truncated or malformed
    files — callers in :mod:`repro.store` convert that into a cache
    miss rather than a wrong answer.
    """
    return np.load(
        Path(path), mmap_mode="r" if mmap else None, allow_pickle=False
    )


def remove_path(path: PathLike) -> None:
    """Best-effort removal of a file or a whole directory tree.

    Self-healing, ``delete``, GC and the stale-scratch sweep all go
    through here: an entry is one file, but an entry of the older
    directory layout (or a crashed writer's scratch) may be a tree.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError:  # a directory (EISDIR on Linux, EPERM elsewhere)
        shutil.rmtree(path, ignore_errors=True)


def touch(path: PathLike) -> bool:
    """Set ``path``'s timestamps to now (best effort; ``False`` on failure).

    ``path`` may also be an open file descriptor.  The file store calls
    this on every entry read, so an entry's mtime doubles as a
    last-access time that ``repro-store gc``'s LRU policy can trust
    even on ``noatime`` mounts.
    """
    try:
        os.utime(path, None)
        return True
    except OSError:
        return False


def write_json_atomic(path: PathLike, payload: Any) -> None:
    """Serialise ``payload`` to ``path`` via the tmp + rename discipline.

    Readers see the complete old document or the complete new one,
    never a torn write — the property the fleet job queue's state files
    rely on (``os.replace`` also *moves* files between queue state
    directories atomically).  Compact separators keep ``json`` on its C
    encoder (``indent=`` forces the pure-Python one); readers accept
    either layout.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex}"
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    tmp.write_text(text + "\n")
    os.replace(tmp, path)


def read_json(path: PathLike) -> Any:
    """Parse a JSON file, or ``None`` when missing/garbled.

    A vanished file is normal under the queue's rename-based claims (a
    racing worker moved it); a garbled one is treated the same way —
    absence, never a wrong answer.
    """
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


@contextmanager
def lock_file(path: PathLike, create: bool = True):
    """Advisory exclusive lock on ``path`` (``flock(2)``), as a context.

    Yields ``True`` while the lock is held.  This is the per-key
    exclusivity primitive shared by :class:`~repro.store.SharedFileStore`
    (one computation per key per fleet) and the fleet job queue's
    transitions out of ``claimed/`` (one requeue per expired lease, no
    completion of a lost claim).  Degrades gracefully —
    yields ``False`` without locking — on platforms without ``fcntl`` or
    when the lock file cannot be created (read-only cache dir): callers
    lose cross-process exclusivity, never correctness, because every
    durable write behind the lock is idempotent by content addressing.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield False
        return
    path = Path(path)
    try:
        if create:
            path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    except OSError:
        yield False
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield True
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


@contextmanager
def try_lock_file(path: PathLike):
    """Non-blocking variant of :func:`lock_file`.

    Yields ``True`` only when the exclusive ``flock`` was acquired
    *immediately*; ``False`` when another holder (any process — or
    another fd in this one) has it, when the file cannot be opened, or
    on platforms without ``fcntl``.  This is the probe the garbage
    collector uses before unlinking a lock file: a writer that still
    holds the lock keeps its file.  Never creates parent directories —
    a missing lock dir means there is nothing to contend for.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield False
        return
    try:
        fd = os.open(Path(path), os.O_CREAT | os.O_RDWR, 0o644)
    except OSError:
        yield False
        return
    locked = False
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            locked = True
        except OSError:
            pass
        yield locked
    finally:
        try:
            if locked:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


def dir_nbytes(path: PathLike) -> int:
    """Total size in bytes of the regular files under ``path``."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except OSError:
                continue
    return total
