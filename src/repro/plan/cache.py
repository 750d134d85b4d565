"""Plan-level result cache: share computed segments across in-flight plans.

The quote workload (arXiv:1308.2066's framing) is many layers over the
same YET, most sharing ELT sets and differing only in contract terms.
Algorithm 1 splits cleanly at the layer-terms boundary: everything
upstream — the fused gather and per-ELT financial terms, i.e. the
combined per-occurrence loss vector — depends only on
``(ELT set, YET, dtype, secondary stream)``, not on the
layer's occurrence/aggregate terms.  Caching at that boundary lets a
batch of N candidate quotes (or a marginal re-quote against a book) pay
for the expensive lookup+financial pass once and re-run only the cheap
layer-terms finish per candidate.

:class:`PlanResultCache` is a thread-safe LRU with *in-flight
deduplication*: the first requester of a key computes while later
requesters block on the same pending entry, so concurrent quote tasks
sharing an ELT set never duplicate the base pass.

Keys are content fingerprints (:func:`elt_fingerprint`,
:func:`yet_fingerprint`), not object identities, so logically identical
inputs hit regardless of which Python objects carry them.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Sequence, Tuple, TypeVar

import numpy as np

from repro.data.elt import EventLossTable
from repro.data.yet import YearEventTable
from repro.utils.retry import DeadlineExceeded

T = TypeVar("T")


class _Unstorable(Exception):
    """Internal: a computed value that the backing store cannot hold."""


def yet_fingerprint(yet: YearEventTable) -> Tuple[int, int, int, int]:
    """Content fingerprint of a YET (shape + CRCs of the CSR arrays).

    The whole table's slice fingerprint: CRC32 over the raw event-id and
    offset bytes changes whenever any occurrence moves — collisions
    would need equal-length tables with colliding CRCs on *both* arrays.
    """
    return yet.slice_fingerprint(0, yet.n_trials)


def elt_fingerprint(elt: EventLossTable) -> Tuple:
    """Content fingerprint of one ELT (ids, losses, financial terms)."""
    return (
        int(elt.elt_id),
        int(elt.n_losses),
        zlib.crc32(np.ascontiguousarray(elt.event_ids)),
        zlib.crc32(np.ascontiguousarray(elt.losses)),
        elt.terms.as_tuple(),
    )


def elt_set_fingerprint(elts: Sequence[EventLossTable]) -> Tuple:
    """Fingerprint of an ordered ELT set (order matters: it fixes the
    accumulation order of the combined loss vector)."""
    return tuple(elt_fingerprint(elt) for elt in elts)


class PlanResultCache:
    """Thread-safe, bounded LRU of computed plan segments with in-flight
    dedup and an optional durable backing store.

    ``get_or_compute(key, compute)`` returns the cached value for
    ``key`` or runs ``compute()`` exactly once across all concurrent
    requesters.  Values are treated as frozen (callers must not mutate
    returned arrays in place — copy before finishing a quote).

    The LRU is hard-bounded at ``maxsize`` entries — under
    many-candidate quoting old segments are evicted (counted in
    ``evictions``), never accumulated without limit.

    ``store`` (a :class:`~repro.store.base.ResultStore`) backs the LRU
    with a second, durable level: misses consult the store before
    computing, and computed ndarray values are written through.  Keys
    are digested with :func:`repro.store.keys.fingerprint_digest` under
    ``namespace``, so logically identical segments hit across process
    restarts and across a fleet of workers sharing one cache directory
    — LRU eviction only ever costs a re-read, not a re-compute.
    """

    def __init__(
        self,
        maxsize: int = 16,
        store=None,
        namespace: str = "plan",
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.store = store
        self.namespace = str(namespace)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._pending: Dict[Hashable, threading.Event] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: hits that joined a computation already in flight
        self.inflight_hits = 0
        #: entries dropped by the LRU bound
        self.evictions = 0
        #: misses satisfied by the backing store (compute avoided)
        self.store_hits = 0
        #: computed values written through to the backing store
        self.store_puts = 0
        #: backing-store failures survived (cache kept serving)
        self.store_errors = 0

    # ------------------------------------------------------------------
    def store_key(self, key: Hashable) -> str:
        """The digested backing-store key of a cache key.

        Public so other layers can address the same durable entries
        (:meth:`~repro.pricing.realtime.QuoteService.loss_store_key`).
        """
        from repro.store.keys import fingerprint_digest  # deferred import

        return fingerprint_digest(self.namespace, key)

    def _compute_via_store(
        self, key: Hashable, compute: Callable[[], T], deadline=None
    ) -> T:
        """Run the miss path *through* the backing store.

        ``store.get_or_compute`` supplies the durable lookup, the
        write-through, and — on :class:`~repro.store.SharedFileStore` —
        the cross-process lock, so a fleet of worker processes racing
        on one fingerprint runs ``compute`` exactly once.  Store
        failures are absorbed (counted in ``store_errors``): the cache
        keeps serving from ``compute`` alone; only ``compute``'s own
        exceptions propagate.
        """
        from repro.store.codec import (  # deferred import
            array_from_entry,
            entry_from_array,
        )

        holder: dict = {}

        def produce():
            try:
                value = compute()
            except BaseException as exc:
                holder["error"] = exc
                raise
            holder["value"] = value
            if not isinstance(value, np.ndarray):
                raise _Unstorable  # computed fine; just not persistable
            return entry_from_array(value)

        try:
            entry = self.store.get_or_compute(
                self.store_key(key), produce, deadline=deadline
            )
        except _Unstorable:
            return holder["value"]
        except DeadlineExceeded:
            raise  # the caller's budget: typed, never absorbed
        except BaseException:
            if "error" in holder:
                raise  # compute itself failed: the caller's problem
            with self._lock:
                self.store_errors += 1
            if "value" in holder:
                return holder["value"]
            return compute()  # store broke before compute could run
        if "value" in holder:
            with self._lock:
                self.store_puts += 1
            return holder["value"]
        with self._lock:
            self.store_hits += 1
        return array_from_entry(entry)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def get_or_compute(
        self, key: Hashable, compute: Callable[[], T], deadline=None
    ) -> T:
        """The cached value for ``key``, computed at most once in-flight.

        ``deadline`` (a :class:`~repro.utils.retry.Deadline`) bounds the
        wait on another requester's in-flight computation and gates the
        start of a fresh one — expired requests raise the typed
        :class:`~repro.utils.retry.DeadlineExceeded` *before* computing,
        and the budget threads through the backing store's own
        ``get_or_compute`` so no nested layer overruns it either.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return self._entries[key]  # type: ignore[return-value]
                event = self._pending.get(key)
                if event is None:
                    self._pending[key] = threading.Event()
                    self.misses += 1
                    break
                self.inflight_hits += 1
            # Another thread is computing this key: wait, then re-check
            # (the computation may have failed, in which case we retry).
            if deadline is None:
                event.wait()
            elif not event.wait(timeout=deadline.remaining()):
                raise DeadlineExceeded(
                    "gave up waiting on an in-flight cache computation"
                )
        try:
            if deadline is not None:
                deadline.check("cached computation")
            if self.store is not None:
                value = self._compute_via_store(key, compute, deadline)
            else:
                value = compute()
        except BaseException:
            with self._lock:
                self._pending.pop(key).set()
            raise
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._pending.pop(key).set()
        return value

    def peek(self, key: Hashable):
        """Return the cached value or ``None`` (no LRU touch, no stats)."""
        with self._lock:
            return self._entries.get(key)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "inflight_hits": self.inflight_hits,
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "evictions": self.evictions,
                "store_hits": self.store_hits,
                "store_puts": self.store_puts,
                "store_errors": self.store_errors,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanResultCache(size={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
