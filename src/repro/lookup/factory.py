"""Factory, shared cache and memory accounting for lookup structures."""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.elt import EventLossTable
from repro.lookup.base import LossLookup
from repro.lookup.combined import StackedDirectTable
from repro.lookup.compressed import CompressedBlockTable
from repro.lookup.cuckoo import CuckooTable
from repro.lookup.direct import DirectAccessTable
from repro.lookup.hashtable import OpenAddressingTable
from repro.lookup.sorted_table import SortedLookupTable

LOOKUP_KINDS = ("direct", "sorted", "hash", "cuckoo", "compressed")
"""Registry names accepted by :func:`build_lookup`."""


def build_lookup(
    elt: EventLossTable,
    catalog_size: int,
    kind: str = "direct",
    dtype: np.dtype | type = np.float64,
) -> LossLookup:
    """Build the lookup structure named ``kind`` for one ELT.

    ``dtype`` affects the direct table's slot precision and the
    compressed table's stored losses; the other compact structures keep
    float64 losses (their memory is key-dominated anyway).
    """
    if kind == "direct":
        return DirectAccessTable(elt, catalog_size=catalog_size, dtype=dtype)
    if kind == "sorted":
        return SortedLookupTable(elt)
    if kind == "hash":
        return OpenAddressingTable(elt)
    if kind == "cuckoo":
        return CuckooTable(elt)
    if kind == "compressed":
        # Loss precision follows the engine's working dtype so that the
        # compressed structure is drop-in exact for float64 engines.
        return CompressedBlockTable(elt, loss_dtype=dtype)
    raise ValueError(f"unknown lookup kind {kind!r}; expected one of {LOOKUP_KINDS}")


def build_layer_lookups(
    elts: Sequence[EventLossTable],
    catalog_size: int,
    kind: str = "direct",
    dtype: np.dtype | type = np.float64,
) -> List[LossLookup]:
    """Build one lookup structure per ELT of a layer."""
    return [
        build_lookup(elt, catalog_size=catalog_size, kind=kind, dtype=dtype)
        for elt in elts
    ]


def build_stacked_table(
    elts: Sequence[EventLossTable],
    catalog_size: int,
    dtype: np.dtype | type = np.float64,
) -> StackedDirectTable:
    """Build the fused-kernel stacked direct table for one layer."""
    return StackedDirectTable(elts, catalog_size=catalog_size, dtype=dtype)


class LookupCache:
    """LRU cache of built layer tables (:class:`StackedDirectTable`).

    Layer tables are frozen after construction and safe for
    concurrent readers, so portfolios whose layers share ELTs — and
    repeated engine runs over the same portfolio (benchmark sweeps,
    pricing loops) — can share one build instead of rebuilding per layer
    per run.

    Entries are keyed by the *identity* of the ELT objects (plus their
    terms and the identity of their data buffers, so reassigning
    ``elt.terms``/``elt.losses`` misses the cache) and
    ``(catalog_size, dtype)``.  Each entry holds only *weak*
    references to its ELTs: dropping a workload evicts its entries —
    the cache never pins hundreds of MB of tables past the data's
    lifetime — and eviction-on-death also guarantees a recycled ``id()``
    can never alias a cached key.  ``maxsize`` bounds worst-case memory
    while the data is alive (direct tables at paper scale are ~240 MB
    per 15-ELT layer).

    The one mutation the key cannot see is *in-place* edits of a live
    ELT's loss values (``elt.losses *= 2``); layer tables are
    build-time snapshots, so after such an edit call
    :func:`clear_lookup_cache` (or use a fresh :class:`LookupCache`).
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        # key -> (value, tuple of weakrefs keeping eviction callbacks alive)
        self._entries: "OrderedDict[Tuple, Tuple[object, tuple]]" = OrderedDict()
        self._lock = threading.Lock()
        # (key, weakref) pairs whose ELT died, purged under the lock
        self._dead: List[Tuple[Tuple, weakref.ref]] = []
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _evict(self, key: Tuple, ref: weakref.ref) -> None:
        # A weakref callback runs at any allocation or gc point, also on
        # a thread that holds ``_lock`` (dropping an evicted value can
        # kill the last ELT another entry is keyed on).  So it never
        # blocks on the lock: it records the death and purges only if
        # the lock is free; otherwise the next locked access purges.
        self._dead.append((key, ref))
        if not self._lock.acquire(blocking=False):
            return
        dropped: list = []
        try:
            self._purge_locked(dropped)
        finally:
            self._lock.release()
        del dropped[:]

    def _purge_locked(self, dropped: list) -> None:
        """Remove entries whose ELTs died; their values go to ``dropped``."""
        while self._dead:
            key, ref = self._dead.pop()
            entry = self._entries.get(key)
            # The key may since hold a fresh entry for a new ELT that
            # reuses the dead one's id; only the dead ELT's entry goes.
            if entry is not None and any(r is ref for r in entry[1]):
                dropped.append(self._entries.pop(key))

    def _get(self, key: Tuple, elts: Sequence[EventLossTable], build):
        # Values leaving the cache are released only after ``_lock`` is
        # dropped, so the ELT deaths they cause run no callback under it.
        dropped: list = []
        with self._lock:
            self._purge_locked(dropped)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[0]
        del dropped[:]
        value = build()
        # Weak references with an eviction callback: the entry dies with
        # its ELTs, so cached ids always refer to live objects and the
        # tables are reclaimable once the workload is dropped.
        refs = tuple(
            weakref.ref(elt, lambda ref, key=key: self._evict(key, ref))
            for elt in elts
        )
        with self._lock:
            self._purge_locked(dropped)
            self.misses += 1
            old = self._entries.pop(key, None)
            if old is not None:
                dropped.append(old)
            self._entries[key] = (value, refs)
            while len(self._entries) > self.maxsize:
                dropped.append(self._entries.popitem(last=False)[1])
        del dropped[:]
        return value

    @staticmethod
    def _key(
        elts: Sequence[EventLossTable],
        catalog_size: int,
        dtype: np.dtype | type,
    ) -> Tuple:
        return (
            tuple(
                (
                    id(elt),
                    elt.terms.as_tuple(),
                    elt.event_ids.ctypes.data,
                    elt.losses.ctypes.data,
                    elt.n_losses,
                )
                for elt in elts
            ),
            int(catalog_size),
            np.dtype(dtype).str,
        )

    # ------------------------------------------------------------------
    def stacked_table(
        self,
        elts: Sequence[EventLossTable],
        catalog_size: int,
        dtype: np.dtype | type = np.float64,
    ) -> StackedDirectTable:
        """Cached :func:`build_stacked_table`."""
        key = self._key(elts, catalog_size, dtype)
        return self._get(
            key,
            elts,
            lambda: build_stacked_table(elts, catalog_size, dtype=dtype),
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        dropped: list = []
        with self._lock:
            self._purge_locked(dropped)
            size = len(self._entries)
        del dropped[:]
        return size

    def clear(self) -> None:
        with self._lock:
            dropped = list(self._entries.values())
            self._entries.clear()
            self._dead.clear()
        del dropped[:]

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}


_DEFAULT_CACHE = LookupCache()


def get_lookup_cache() -> LookupCache:
    """The process-wide shared lookup cache used by all engines."""
    return _DEFAULT_CACHE


def clear_lookup_cache() -> None:
    """Drop every cached lookup build (benchmark hygiene)."""
    _DEFAULT_CACHE.clear()


def memory_report(
    elts: Sequence[EventLossTable],
    catalog_size: int,
    include_stacked: bool = False,
) -> List[Dict[str, float]]:
    """Memory/access trade-off rows for every structure kind.

    One row per kind with total bytes across the given ELTs and expected
    memory accesses per lookup — the quantified version of the paper's
    Section III argument (direct access: most memory, fewest accesses).

    ``include_stacked`` appends the fused ragged kernel's layer-wide
    :class:`~repro.lookup.combined.StackedDirectTable` (the default
    kernel path's representation): byte-identical to the per-ELT direct
    tables, but serviced by one gather for the whole layer.
    """
    rows: List[Dict[str, float]] = []
    for kind in LOOKUP_KINDS:
        lookups = build_layer_lookups(elts, catalog_size, kind=kind)
        total_bytes = sum(lk.nbytes for lk in lookups)
        accesses = (
            sum(lk.mean_accesses_per_lookup() for lk in lookups) / len(lookups)
            if lookups
            else 0.0
        )
        rows.append(
            {
                "kind": kind,
                "total_bytes": float(total_bytes),
                "bytes_per_elt": float(total_bytes / max(len(lookups), 1)),
                "accesses_per_lookup": float(accesses),
            }
        )
    if include_stacked and elts:
        stacked = build_stacked_table(elts, catalog_size)
        rows.append(
            {
                "kind": "stacked",
                "total_bytes": float(stacked.nbytes),
                "bytes_per_elt": float(stacked.nbytes / stacked.n_elts),
                "accesses_per_lookup": float(
                    stacked.mean_accesses_per_lookup()
                ),
            }
        )
    return rows
