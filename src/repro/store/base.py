"""The result store contract and its in-memory backend.

A :class:`ResultStore` maps a *content-addressed key* — a hex digest
produced by :mod:`repro.store.keys` from plan/content fingerprints — to
a :class:`StoreEntry`: a named bundle of immutable numpy arrays plus a
small JSON-able metadata dict.  Because keys are derived from every
input that can change the stored bytes (plan decomposition, YET and ELT
contents, dtype, secondary stream, ...), a hit *is* the answer: there is
no invalidation protocol, only lookup and insert.  Stale entries are
merely unreachable, never wrong.

Backends share the concurrency contract of
:class:`~repro.plan.cache.PlanResultCache`: ``get_or_compute`` runs the
compute callable exactly once per key across all concurrent in-process
requesters (later requesters block on the in-flight computation), and
:class:`~repro.store.filestore.SharedFileStore` extends the same
guarantee across processes with advisory file locks.
"""

from __future__ import annotations

import abc
import logging
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

logger = logging.getLogger("repro.store")

#: keys must be path- and lock-file-safe: digests, or readable test ids.
_KEY_RE = re.compile(r"^[A-Za-z0-9._-]{1,200}$")

#: keys per batched round trip: a remote store sends one
#: ``contains_many``/``get_many`` request per chunk of this size (its
#: server refuses larger batches), and gather reads entries in chunks
#: of this size to bound what it holds at once.
BATCH_KEYS = 256


def check_key(key: str) -> str:
    """Validate a store key (non-empty, filesystem-safe)."""
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise ValueError(
            f"store keys must match {_KEY_RE.pattern!r}, got {key!r}"
        )
    return key


def check_keys(keys: Sequence[str]) -> List[str]:
    """Validate a batch of store keys (a list of keys, not one string)."""
    if isinstance(keys, (str, bytes)):
        raise ValueError(f"expected a sequence of store keys, got {keys!r}")
    return [check_key(key) for key in keys]


@dataclass(frozen=True)
class StoreEntry:
    """One stored result: named arrays plus JSON-able metadata.

    Arrays handed back by a store are frozen (``writeable=False`` or
    read-only memory maps); callers copy before mutating, exactly as
    with :class:`~repro.plan.cache.PlanResultCache` values.
    """

    arrays: Mapping[str, np.ndarray]
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.arrays:
            raise ValueError("a StoreEntry needs at least one array")
        for name, array in self.arrays.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"array names must be non-empty str: {name!r}")
            if not isinstance(array, np.ndarray):
                raise TypeError(
                    f"entry array {name!r} must be numpy, got {type(array)}"
                )

    @property
    def nbytes(self) -> int:
        return int(sum(a.nbytes for a in self.arrays.values()))


def _frozen_copy(array: np.ndarray) -> np.ndarray:
    """Detached, immutable copy of an array (what backends retain)."""
    copy = np.array(array, copy=True)
    copy.flags.writeable = False
    return copy


class ResultStore(abc.ABC):
    """Content-addressed store of computed results.

    Subclasses implement ``_get``/``_put``; the base class provides the
    counted public API and in-flight deduplication for
    :meth:`get_or_compute`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: Dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.inflight_hits = 0
        self.puts = 0
        #: entries that existed but failed to read back (treated as misses)
        self.corrupt_misses = 0
        #: capacity evictions (bounded backends)
        self.evictions = 0
        #: write-throughs that failed (the computed value is still
        #: returned — a full disk costs durability, never the answer)
        self.put_errors = 0

    # -- backend hooks -------------------------------------------------
    @abc.abstractmethod
    def _get(self, key: str) -> Optional[StoreEntry]:
        """Return the entry for ``key`` or ``None`` (no counting)."""

    @abc.abstractmethod
    def _put(self, key: str, entry: StoreEntry) -> None:
        """Insert ``entry`` under ``key`` (idempotent by key contract)."""

    def _exclusive(self, key: str):
        """Context guarding a miss-path compute for ``key``.

        The base implementation guards nothing extra (in-process dedup
        is already handled by the pending-event protocol);
        :class:`~repro.store.filestore.SharedFileStore` overrides this
        with an advisory file lock so *processes* dedup too.
        """
        return _NULL_GUARD

    # -- public API ----------------------------------------------------
    def get(self, key: str) -> Optional[StoreEntry]:
        """Counted lookup: the entry for ``key``, or ``None``."""
        entry = self._get(check_key(key))
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        return entry

    def put(self, key: str, entry: StoreEntry) -> None:
        """Insert ``entry`` under ``key``.

        Keys are content-addressed, so concurrent puts of one key carry
        identical bytes and any winner is correct.
        """
        if not isinstance(entry, StoreEntry):
            raise TypeError(f"expected StoreEntry, got {type(entry)}")
        self._put(check_key(key), entry)
        with self._lock:
            self.puts += 1

    def contains(self, key: str) -> bool:
        """Cheap existence probe (no payload read, no hit/miss counting).

        The base implementation falls back to a full ``_get``;
        directory-backed stores override it with a stat call.  Used by
        the store-aware planner, which probes every segment of a sweep:
        a ``True`` from a store whose entry later proves corrupt costs
        one requeued job, never a wrong answer.
        """
        return self._get(check_key(key)) is not None

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    # -- batched reads -------------------------------------------------
    def contains_many(self, keys: Sequence[str]) -> List[bool]:
        """:meth:`contains` for each key, in order.

        Every key is validated before any is probed.  The default loops
        over :meth:`contains`, so wrappers keep their per-key semantics;
        :class:`~repro.net.client.RemoteStore` overrides it with one
        round trip per chunk of keys.
        """
        keys = check_keys(keys)
        return [self.contains(key) for key in keys]

    def get_many(self, keys: Sequence[str]) -> List[Optional[StoreEntry]]:
        """:meth:`get` for each key, in order (``None`` for a miss).

        Counted like :meth:`get`; every key is validated before any is
        read.  The default loops over :meth:`get`; network backends
        override it to fetch a chunk of entries per round trip.
        """
        keys = check_keys(keys)
        return [self.get(key) for key in keys]

    def delete(self, key: str) -> bool:
        """Remove ``key`` if present; ``True`` when an entry was removed.

        Deleting is always safe — entries are content-addressed, so the
        worst outcome is a future miss and a recompute.  Consumers use
        it to retire entries whose payload failed end-to-end
        verification (:func:`repro.store.verify.fetch_verified`), so a
        store-aware replan sees the damaged key as *missing* instead of
        trusting ``contains``.
        """
        return self._delete(check_key(key))

    def _delete(self, key: str) -> bool:
        """Backend removal hook (best effort; default: no storage)."""
        return False

    def note_corrupt(self, key: str, reason: str = "") -> None:
        """Count (and log) one observed-corrupt entry.

        Every path that demotes a damaged entry to a miss — backend
        self-healing, end-to-end checksum failures — funnels through
        here, so chaos runs can assert corruption was *seen*, never
        silently skipped.
        """
        with self._lock:
            self.corrupt_misses += 1
        logger.warning(
            "corrupt store entry %s treated as a miss%s",
            key,
            f": {reason}" if reason else "",
        )

    def get_or_compute(
        self, key: str, compute: Callable[[], StoreEntry], deadline=None
    ) -> StoreEntry:
        """Return the stored entry, computing (and storing) it at most
        once per key across concurrent in-process callers.

        The first requester claims the key and computes while later
        requesters block on the in-flight event, then re-check — the
        :class:`~repro.plan.cache.PlanResultCache` protocol.  Backends
        with cross-process locks additionally re-check under the lock,
        so a key is computed once per *fleet* of worker processes.

        A failed write-through (disk full, unwritable cache dir) is
        counted in ``put_errors`` and the freshly computed entry is
        returned anyway: persistence failures cost durability, never
        the answer.

        ``deadline`` (a :class:`~repro.utils.retry.Deadline`) bounds
        how long this caller will *wait* — on another requester's
        in-flight computation, or before starting its own — raising
        the typed :class:`~repro.utils.retry.DeadlineExceeded` instead
        of computing expired work.  The computation itself, once
        started, runs to completion (its value is shared by every
        waiter, so abandoning it would waste the others' wait).
        """
        from repro.utils.retry import DeadlineExceeded  # deferred import

        check_key(key)
        while True:
            entry = self.get(key)
            if entry is not None:
                return entry
            with self._lock:
                event = self._pending.get(key)
                if event is None:
                    self._pending[key] = threading.Event()
                    break
                self.inflight_hits += 1
            if deadline is None:
                event.wait()
            elif not event.wait(timeout=deadline.remaining()):
                raise DeadlineExceeded(
                    f"gave up waiting on in-flight compute of {key[:16]}…"
                )
        try:
            if deadline is not None:
                deadline.check(f"store compute of {key[:16]}")
            with self._exclusive(key):
                entry = self._get(key)  # may have landed cross-process
                if entry is None:
                    entry = compute()
                    try:
                        self.put(key, entry)
                    except OSError:
                        with self._lock:
                            self.put_errors += 1
        except BaseException:
            with self._lock:
                self._pending.pop(key).set()
            raise
        with self._lock:
            self._pending.pop(key).set()
        return entry

    # -- bookkeeping ---------------------------------------------------
    def _size_hint(self) -> Optional[int]:
        """Cheap entry count for :meth:`stats`, or ``None`` when only a
        full scan could answer (directory-backed stores — call
        ``len(store)`` explicitly when the walk is worth it)."""
        return len(self)

    def stats(self) -> Dict[str, int]:
        size = self._size_hint()  # outside the lock: may take it itself
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "inflight_hits": self.inflight_hits,
                "puts": self.puts,
                "corrupt_misses": self.corrupt_misses,
                "evictions": self.evictions,
                "put_errors": self.put_errors,
                "size": size,
            }

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of entries currently retrievable."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every entry (counters are kept)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(size={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )


class _NullGuard:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_GUARD = _NullGuard()


class MemoryStore(ResultStore):
    """Process-local LRU backend.

    The fast tier: entries are deep-copied on insert (detaching them
    from caller scratch buffers) and frozen, then shared by reference on
    every hit.  ``max_entries``/``max_bytes`` bound the footprint;
    least-recently-used entries are evicted first and counted in
    ``evictions``.
    """

    def __init__(
        self, max_entries: int | None = 128, max_bytes: int | None = None
    ) -> None:
        super().__init__()
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, StoreEntry]" = OrderedDict()
        self._nbytes = 0

    def _get(self, key: str) -> Optional[StoreEntry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def _put(self, key: str, entry: StoreEntry) -> None:
        frozen = StoreEntry(
            arrays={
                name: _frozen_copy(a) for name, a in entry.arrays.items()
            },
            meta=dict(entry.meta),
        )
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._nbytes -= previous.nbytes
            self._entries[key] = frozen
            self._nbytes += frozen.nbytes
            while self._entries and self._over_budget():
                if next(iter(self._entries)) == key and len(self._entries) == 1:
                    break  # never evict the entry just inserted
                _, evicted = self._entries.popitem(last=False)
                self._nbytes -= evicted.nbytes
                self.evictions += 1

    def _over_budget(self) -> bool:
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        return self.max_bytes is not None and self._nbytes > self.max_bytes

    def _delete(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._nbytes -= entry.nbytes
            return True

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
