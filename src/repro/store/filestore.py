"""File-backed result stores: durable, mmap-read, multi-process safe.

Layout under one cache directory::

    <cache_dir>/
        objects/<k[:2]>/<key>      # one file per entry (format v2)
        tmp/                       # entry files being written
        locks/<key>.lock           # SharedFileStore advisory locks

An entry file is a small header (format tag, meta, and each array's
name, dtype, shape, offset and CRC32) followed by the 64-byte aligned
array bytes; :mod:`repro.store.entryfile` owns the byte layout.

A write materialises the whole file under ``tmp/`` and renames it into
``objects/``: one file created and one rename per entry.  Renaming over
an existing file replaces it atomically, so a reader sees the complete
old entry, the complete new entry, or a miss; never a torn file.  A
publish race between two writers of one key is harmless (content
addressing makes both byte-identical).

A read is one ``open`` and one ``fstat``, then one ``mmap`` of the
file and ``np.frombuffer`` views onto it — read-only, as the
:class:`StoreEntry` contract requires, and shared through the page
cache by every process replaying the same analysis.  A file under
:data:`MMAP_MIN_BYTES` is read with one ``pread`` instead: copying a
few pages costs less than mapping them and unmapping them again.  Each
array's CRC32 is verified on load (``verify=False`` skips this and
keeps the mapping fully lazy).  Any damage — an empty or truncated
file, a bad tag or header checksum, an offset past the end of the file,
an array checksum mismatch, or anything but a file at the entry's path
(such as an entry directory of the retired v1 layout) — demotes the
entry to a miss, removes it, and bumps ``corrupt_misses``.  A corrupt
cache can slow you down; it cannot change an answer.
"""

from __future__ import annotations

import mmap
import os
import stat
import threading
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

from repro.io.atomic import lock_file, remove_path, touch
from repro.store import entryfile
from repro.store.base import (
    MemoryStore,
    ResultStore,
    StoreEntry,
    check_key,
    logger,
)
from repro.utils.latency import LatencyTracker
from repro.utils.retry import CircuitBreaker

PathLike = Union[str, Path]

#: default cache location; overridden by the ``REPRO_CACHE_DIR``
#: environment variable or an explicit ``cache_dir`` argument.
DEFAULT_CACHE_DIR = "~/.cache/repro-ara"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: entry files smaller than this are read into memory, not mapped
MMAP_MIN_BYTES = 64 * 1024


def resolve_cache_dir(cache_dir: PathLike | None = None) -> Path:
    """The cache root: explicit argument > ``$REPRO_CACHE_DIR`` > default."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    return Path(cache_dir).expanduser()


class FileStore(ResultStore):
    """Durable backend under a cache directory.

    Safe for concurrent readers and writers by construction (atomic
    renames); :meth:`get_or_compute` deduplicates computations within
    one process.  Use :class:`SharedFileStore` when several *processes*
    may compute the same keys and the computation is expensive enough
    to be worth a lock file.

    Parameters
    ----------
    cache_dir:
        Root directory (created on first write).  ``None`` resolves via
        ``$REPRO_CACHE_DIR`` and the package default.
    mmap:
        Memory-map entries of at least :data:`MMAP_MIN_BYTES` on read
        (default) instead of loading copies.
    verify:
        Check each array's recorded CRC32 on read.  Costs one pass over
        the bytes; disable to keep mmap reads fully lazy when the
        filesystem is trusted.
    track_access:
        Touch each entry's mtime on successful read (one ``utime``
        syscall), giving ``repro-store gc``'s LRU policy a last-access
        time that survives ``noatime`` mounts.  Disable for read-only
        cache dirs.
    """

    def __init__(
        self,
        cache_dir: PathLike | None = None,
        mmap: bool = True,
        verify: bool = True,
        track_access: bool = True,
    ) -> None:
        super().__init__()
        self.cache_dir = resolve_cache_dir(cache_dir)
        # entry paths are built as strings on the hot path (pathlib's
        # joins cost about a quarter of a small entry's read)
        self._objects_root = str(self._objects_dir)
        self._tmp_root = str(self._tmp_dir)
        self.mmap = bool(mmap)
        self.verify = bool(verify)
        self.track_access = bool(track_access)

    # -- paths ---------------------------------------------------------
    @property
    def _objects_dir(self) -> Path:
        return self.cache_dir / "objects"

    @property
    def _tmp_dir(self) -> Path:
        return self.cache_dir / "tmp"

    @property
    def _locks_dir(self) -> Path:
        return self.cache_dir / "locks"

    def entry_path(self, key: str) -> Path:
        """Where one entry lives (two-level fan-out by prefix)."""
        return Path(self._entry_file(check_key(key)))

    def _entry_file(self, key: str) -> str:
        return f"{self._objects_root}{os.sep}{key[:2]}{os.sep}{key}"

    # -- backend hooks -------------------------------------------------
    def _get(self, key: str) -> Optional[StoreEntry]:
        path = self._entry_file(key)
        try:
            fd = os.open(path, os.O_RDONLY)
        except (FileNotFoundError, NotADirectoryError):
            return None
        try:
            return self._read_file(key, path, fd, os.fstat(fd))
        finally:
            os.close(fd)

    def _read_file(
        self, key: str, path: str, fd: int, status: os.stat_result
    ) -> Optional[StoreEntry]:
        try:
            if self.mmap and status.st_size >= MMAP_MIN_BYTES:
                buffer = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
            else:
                buffer = os.pread(fd, status.st_size, 0)
            entry = entryfile.decode(buffer, verify=self.verify)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Damaged entries are a miss, never a wrong answer.  Remove
            # the entry only if it is still the one read: a concurrent
            # put may have renamed a good entry over it meanwhile.
            self.note_corrupt(key, repr(exc))
            try:
                current = os.stat(path)
            except OSError:
                return None
            if (current.st_dev, current.st_ino) == (
                status.st_dev,
                status.st_ino,
            ):
                remove_path(path)
            return None
        if self.track_access:
            touch(fd)
        return entry

    def _put(self, key: str, entry: StoreEntry) -> None:
        pieces = entryfile.encode(entry)
        tmp = os.path.join(
            self._tmp_root, f"{key[:16]}-{os.getpid()}-{uuid.uuid4().hex}"
        )
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        try:
            fd = os.open(tmp, flags, 0o644)
        except FileNotFoundError:  # first write, or after clear()
            self._tmp_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, flags, 0o644)
        try:
            with open(fd, "wb") as fh:
                for piece in pieces:
                    fh.write(piece)
        except BaseException:
            remove_path(tmp)
            raise
        self._publish(tmp, self._entry_file(key))

    @staticmethod
    def _publish(tmp: str, final: str) -> None:
        """Rename the finished ``tmp`` file into place (one rename)."""
        try:
            os.rename(tmp, final)
            return
        except FileNotFoundError:  # first entry under this prefix
            os.makedirs(os.path.dirname(final), exist_ok=True)
        except IsADirectoryError:  # damage at this key: replace it
            remove_path(final)
        except OSError:
            remove_path(tmp)
            raise
        try:
            os.rename(tmp, final)
        except OSError:
            remove_path(tmp)
            raise

    def contains(self, key: str) -> bool:
        """Existence = an entry file at the key's path (one stat, no
        read)."""
        try:
            status = os.stat(self._entry_file(check_key(key)))
        except OSError:
            return False
        return stat.S_ISREG(status.st_mode)

    def _delete(self, key: str) -> bool:
        existed = self.contains(key)
        remove_path(self._entry_file(key))
        return existed

    # -- bookkeeping ---------------------------------------------------
    def _size_hint(self):
        return None  # an exact count is a directory walk: len() only

    def __len__(self) -> int:
        if not self._objects_dir.is_dir():
            return 0
        return sum(
            1
            for prefix in self._objects_dir.iterdir()
            if prefix.is_dir()
            for entry in prefix.iterdir()
            if entry.is_file()
        )

    def clear(self) -> None:
        for sub in (self._objects_dir, self._tmp_dir, self._locks_dir):
            remove_path(sub)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(cache_dir={str(self.cache_dir)!r}, "
            f"mmap={self.mmap}, verify={self.verify})"
        )


class SharedFileStore(FileStore):
    """A :class:`FileStore` whose computations dedup across processes.

    :meth:`get_or_compute` takes a per-key advisory lock
    (``flock(2)`` on ``locks/<key>.lock``) around the miss path and
    re-checks the entry after acquiring it, so N worker processes
    racing on one fingerprint run the computation exactly once — the
    cross-process analogue of the quote service's in-flight dedup.  On
    platforms without ``fcntl`` it degrades to plain :class:`FileStore`
    semantics (atomic writes still guarantee correctness; only the
    duplicate work is possible).
    """

    @contextmanager
    def _exclusive(self, key: str):
        # An unlockable cache dir costs cross-process dedup, never the
        # computation (lock_file degrades to an unlocked pass-through
        # and in-process dedup still holds).
        with lock_file(self._locks_dir / f"{key}.lock"):
            yield


class TieredStore(ResultStore):
    """Fast-over-durable composition of stores, with tier quarantine.

    ``get`` consults tiers in order and *promotes* a hit into every
    faster tier (so a file hit lands in memory for the next request);
    ``put`` writes through to every tier.  The canonical serving shape
    is ``TieredStore([MemoryStore(...), SharedFileStore(dir)])`` — hot
    results at reference speed, warm results at page-cache speed, and
    restart survival for free.  Miss-path exclusivity delegates to the
    last (shared, slowest) tier, preserving its cross-process dedup.

    Each tier sits behind a :class:`~repro.utils.retry.CircuitBreaker`:
    a tier whose operations keep *raising* (a network tier mid-outage,
    a cache dir on a dying disk) is quarantined for
    ``breaker_cooldown_seconds`` after ``breaker_threshold``
    consecutive failures, and traffic falls through to the remaining
    tiers — degraded (slower, less durable), never wrong.  After the
    cooldown one probe request is let through; success closes the
    breaker.  Per-tier breaker state and error counts are surfaced in
    :meth:`stats`.  A ``put`` that fails on *every* tier still raises
    (there is nothing left to degrade to), which
    ``get_or_compute`` converts into ``put_errors`` + a served answer.

    **Hedged reads** (``hedge=True``): breakers quarantine a tier that
    *errors*; hedging routes around a tier that is merely *slow*.  Each
    tier's ``get`` latencies feed a :class:`~repro.utils.latency.
    LatencyTracker`; when the first tier's read has outlived that
    tier's tracked ``hedge_quantile`` (clamped to
    ``[hedge_min_delay, hedge_max_delay]``), a hedge request is issued
    against the *remaining* tiers and the first useful result wins —
    the straggling primary read is abandoned (its daemon thread
    finishes harmlessly).  ``hedged_get`` additionally accepts a
    ``validate`` predicate so consumers can take the first *verified*
    result (:func:`repro.store.verify.fetch_verified` passes its
    end-to-end checksum check).  Wins/losses are counted in
    :meth:`stats` under ``hedge``.
    """

    def __init__(
        self,
        stores: Sequence[ResultStore],
        breaker_threshold: int = 5,
        breaker_cooldown_seconds: float = 30.0,
        clock=None,
        hedge: bool = False,
        hedge_quantile: float = 0.95,
        hedge_min_delay: float = 0.002,
        hedge_max_delay: float = 0.25,
    ) -> None:
        super().__init__()
        if not stores:
            raise ValueError("TieredStore needs at least one store")
        if not 0.0 < hedge_quantile <= 1.0:
            raise ValueError(
                f"hedge_quantile must be in (0, 1], got {hedge_quantile}"
            )
        if not 0.0 < hedge_min_delay <= hedge_max_delay:
            raise ValueError(
                f"need 0 < hedge_min_delay <= hedge_max_delay, got "
                f"{hedge_min_delay}/{hedge_max_delay}"
            )
        self.stores = list(stores)
        import time as _time

        self._clock = clock or _time.monotonic
        self._breakers = [
            CircuitBreaker(
                failure_threshold=breaker_threshold,
                cooldown_seconds=breaker_cooldown_seconds,
                clock=self._clock,
            )
            for _ in self.stores
        ]
        self.hedge = bool(hedge) and len(self.stores) > 1
        self.hedge_quantile = float(hedge_quantile)
        self.hedge_min_delay = float(hedge_min_delay)
        self.hedge_max_delay = float(hedge_max_delay)
        self._trackers = [LatencyTracker() for _ in self.stores]
        #: exceptions swallowed while degrading around a tier
        self.tier_errors = 0
        #: hedge requests actually launched / won by the hedge / won by
        #: the primary read despite the hedge
        self.hedges_issued = 0
        self.hedge_wins = 0
        self.hedge_losses = 0
        self.hedge_misses = 0

    # -- breaker plumbing ---------------------------------------------
    def _tier_allowed(self, index: int) -> bool:
        with self._lock:
            return self._breakers[index].allow()

    def _tier_result(self, index: int, ok: bool, key: str, op: str, exc=None):
        with self._lock:
            breaker = self._breakers[index]
            if ok:
                breaker.record_success()
                return
            breaker.record_failure()
            self.tier_errors += 1
            tripped = breaker.state == "open"
        logger.warning(
            "store tier %d failed %s(%s): %r%s",
            index,
            op,
            key[:16],
            exc,
            " — tier quarantined" if tripped else "",
        )

    def _get_sequential(
        self,
        key: str,
        tier_indices: Sequence[int],
        validate: Callable[[StoreEntry], bool] | None = None,
    ) -> Optional[StoreEntry]:
        """The ordered waterfall over ``tier_indices``.

        Hits are promoted into every faster tier; each tier's read
        latency feeds its hedge tracker.  With ``validate``, an entry
        failing the predicate is remembered but the scan continues — a
        deeper tier may hold an undamaged replica — and the last
        invalid entry is returned only when nothing valid surfaced (so
        the caller's corruption handling still sees the damage).
        """
        invalid: Optional[StoreEntry] = None
        for i in tier_indices:
            if not self._tier_allowed(i):
                continue
            store = self.stores[i]
            started = self._clock()
            try:
                entry = store._get(key)
            except Exception as exc:
                self._tier_result(i, False, key, "get", exc)
                continue
            self._trackers[i].record(self._clock() - started)
            self._tier_result(i, True, key, "get")
            if entry is None:
                continue
            if validate is not None and not validate(entry):
                invalid = entry
                continue
            for j, faster in enumerate(self.stores[:i]):
                if not self._tier_allowed(j):
                    continue
                try:
                    faster._put(key, entry)
                    self._tier_result(j, True, key, "promote")
                except Exception as exc:
                    self._tier_result(j, False, key, "promote", exc)
            return entry
        return invalid

    def _get(self, key: str) -> Optional[StoreEntry]:
        if self.hedge:
            return self._hedged_lookup(key, None)
        return self._get_sequential(key, range(len(self.stores)))

    # -- hedged reads --------------------------------------------------
    def hedge_delay(self) -> float:
        """Seconds the primary read may run before a hedge launches.

        The first tier's tracked ``hedge_quantile`` latency, clamped to
        ``[hedge_min_delay, hedge_max_delay]`` — so a healthy fast tier
        hedges only its own tail, and an untracked (cold) store hedges
        eagerly at the floor rather than never.
        """
        tracked = self._trackers[0].quantile(self.hedge_quantile)
        if tracked is None:
            tracked = self.hedge_min_delay
        return min(self.hedge_max_delay, max(self.hedge_min_delay, tracked))

    def hedged_get(
        self,
        key: str,
        validate: Callable[[StoreEntry], bool] | None = None,
    ) -> Optional[StoreEntry]:
        """Counted lookup that hedges a slow first tier.

        Like :meth:`get`, but when the primary waterfall has not
        answered within :meth:`hedge_delay`, a second waterfall is
        launched that *skips the first tier*, and the first useful
        result (``validate``-passing when a predicate is given) is
        served.  Falls back to a plain sequential read when the store
        has a single tier.
        """
        entry = self._hedged_lookup(check_key(key), validate)
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        return entry

    def _hedged_lookup(
        self,
        key: str,
        validate: Callable[[StoreEntry], bool] | None,
    ) -> Optional[StoreEntry]:
        if len(self.stores) < 2:
            return self._get_sequential(key, range(len(self.stores)), validate)

        arrived = threading.Condition()
        outcomes: Dict[str, Optional[StoreEntry]] = {}

        def lookup(label: str, tier_indices: Sequence[int]) -> None:
            try:
                found = self._get_sequential(key, tier_indices, validate)
            except Exception:  # degraded tiers already counted
                found = None
            with arrived:
                outcomes[label] = found
                arrived.notify_all()

        def usable(entry: Optional[StoreEntry]) -> bool:
            return entry is not None and (
                validate is None or validate(entry)
            )

        primary = threading.Thread(
            target=lookup,
            args=("primary", range(len(self.stores))),
            name="tiered-get",
            daemon=True,
        )
        primary.start()
        primary.join(self.hedge_delay())
        with arrived:
            if "primary" in outcomes:
                return outcomes["primary"]
        # The primary read has outlived the hedge trigger: race the
        # remaining tiers against it and serve whichever answers first.
        with self._lock:
            self.hedges_issued += 1
        hedge = threading.Thread(
            target=lookup,
            args=("hedge", range(1, len(self.stores))),
            name="tiered-get-hedge",
            daemon=True,
        )
        hedge.start()
        with arrived:
            while True:
                for label in ("primary", "hedge"):
                    if usable(outcomes.get(label)):
                        with self._lock:
                            if label == "hedge":
                                self.hedge_wins += 1
                            else:
                                self.hedge_losses += 1
                        return outcomes[label]
                if len(outcomes) == 2:
                    # Neither produced a valid entry; surface whatever
                    # invalid payload exists so corruption handling
                    # runs.  A both-miss is not a hedge *loss* — the
                    # primary did not beat the hedge; nobody won.
                    with self._lock:
                        self.hedge_misses += 1
                    return outcomes["primary"] or outcomes["hedge"]
                arrived.wait()

    def _put(self, key: str, entry: StoreEntry) -> None:
        stored = 0
        last_error: Exception | None = None
        for i, store in enumerate(self.stores):
            if not self._tier_allowed(i):
                continue
            try:
                store._put(key, entry)
                self._tier_result(i, True, key, "put")
                stored += 1
            except Exception as exc:
                self._tier_result(i, False, key, "put", exc)
                last_error = exc
        if stored == 0:
            # Nothing accepted the write: degrade no further, surface it.
            raise last_error if last_error is not None else OSError(
                f"every tier quarantined; cannot store {key[:16]}"
            )

    def _exclusive(self, key: str):
        return self.stores[-1]._exclusive(key)

    def contains(self, key: str) -> bool:
        for i, store in enumerate(self.stores):
            if not self._tier_allowed(i):
                continue
            try:
                if store.contains(key):
                    return True
            except Exception as exc:
                self._tier_result(i, False, key, "contains", exc)
        return False

    def _delete(self, key: str) -> bool:
        # Deletes ride the same degradation machinery as every other
        # op: a quarantined tier is skipped (its copy is swept when the
        # breaker re-admits it), and a failing tier's exception feeds
        # its breaker instead of vanishing.
        deleted = False
        for i, store in enumerate(self.stores):
            if not self._tier_allowed(i):
                continue
            try:
                deleted = store._delete(key) or deleted
                self._tier_result(i, True, key, "delete")
            except Exception as exc:
                self._tier_result(i, False, key, "delete", exc)
        return deleted

    def stats(self) -> Dict[str, object]:
        """Aggregated counters plus the per-tier breakdown.

        Top-level ``hits``/``misses`` count requests against the tiered
        view; counters that only ever tick *inside* a tier — capacity
        ``evictions`` (memory LRU), ``corrupt_misses`` (file damage),
        ``put_errors`` (failed write-throughs) — are summed into the
        aggregate so every :class:`ResultStore` backend reports the
        same shape, and ``tiers`` carries each tier's own view in
        order (fleet workers log this to show cache effectiveness).
        Each tier's view additionally carries its circuit ``breaker``
        state, and the aggregate counts ``tier_errors`` (exceptions
        degraded around) and ``breaker_trips``.
        """
        aggregated: Dict[str, object] = super().stats()
        tiers = [store.stats() for store in self.stores]
        latencies = [tracker.summary() for tracker in self._trackers]
        with self._lock:
            for tier, breaker, latency in zip(
                tiers, self._breakers, latencies
            ):
                tier["breaker"] = breaker.as_dict()
                tier["get_latency"] = latency
            aggregated["tier_errors"] = self.tier_errors
            aggregated["breaker_trips"] = sum(
                b.trips for b in self._breakers
            )
            aggregated["hedge"] = {
                "enabled": self.hedge,
                "issued": self.hedges_issued,
                "wins": self.hedge_wins,
                "losses": self.hedge_losses,
                "misses": self.hedge_misses,
            }
        for field in ("evictions", "corrupt_misses", "put_errors"):
            aggregated[field] = int(aggregated[field]) + sum(
                int(tier[field]) for tier in tiers
            )
        aggregated["tiers"] = tiers
        return aggregated

    def _size_hint(self):
        return self.stores[0]._size_hint()  # the hot tier's count

    def __len__(self) -> int:
        return max(len(store) for store in self.stores)

    def clear(self) -> None:
        for store in self.stores:
            store.clear()


def default_store(
    cache_dir: PathLike | None = None,
    memory_entries: int | None = 64,
    mmap: bool = True,
    verify: bool = True,
) -> TieredStore:
    """The standard serving store: memory LRU over a shared file store.

    ``cache_dir`` resolution honours ``$REPRO_CACHE_DIR``; see
    :func:`resolve_cache_dir`.
    """
    return TieredStore(
        [
            MemoryStore(max_entries=memory_entries),
            SharedFileStore(cache_dir, mmap=mmap, verify=verify),
        ]
    )
