"""The layer table: one event-major direct table over all ELTs of a layer.

The paper's Section III weighs two layouts for a layer's direct access
tables: 15 independent tables, or one *combined* table whose row for
event ``e`` holds that event's loss in every ELT.  The workload is
memory-bound, so the layout decides the kernel's speed.
:class:`StackedDirectTable` is the combined layout, a row-major
``(catalog_size + 1, n_elts)`` matrix: one occurrence's losses in every
ELT are one contiguous row (two cache lines for 15 float64 ELTs), where
the independent tables cost one scattered read per ELT.

Each ELT's financial terms are fixed, so the table folds them in when it
is built: its rows hold *net* losses, and the fused kernel's plain path
(:mod:`repro.core.kernels`) is a row gather plus an add of the gathered
columns, with no term pass.  Absent events read exactly 0.0, because the
terms map a zero loss to zero.

Secondary uncertainty scales *gross* losses before the terms apply, so
that path reads a gross twin of the same layout (:meth:`gather_gross`).
The twin is built on first use, once, so a run without secondary
uncertainty never pays for it.  The table keeps its own copy of each
ELT's ``(event_ids, losses)`` for that build and never the ELT objects:
:class:`~repro.lookup.factory.LookupCache` keys entries on weak
references to the ELTs, and a table that held them would keep its own
cache entry alive.

On the paper's GPUs the combined table lost, because threads must first
agree which rows to stage into shared memory; the simulated GPU engines
charge that traffic in their own ledgers, so that finding stays a
modelled result.
"""

from __future__ import annotations

import threading
from typing import Sequence, Tuple

import numpy as np

from repro.data.elt import EventLossTable


def _event_major(columns, catalog_size: int, dtype: np.dtype) -> np.ndarray:
    """``(catalog_size + 1, len(columns))`` zeros, column ``j`` holding
    the losses of ``columns[j] = (event_ids, losses)`` at its event ids."""
    table = np.zeros((catalog_size + 1, len(columns)), dtype=dtype)
    for col, (event_ids, losses) in enumerate(columns):
        table[event_ids, col] = losses
    return table


def _take_rows(table: np.ndarray, event_ids, out: np.ndarray | None):
    """``table[event_ids]`` for a flat id batch, optionally into ``out``."""
    ids = np.asarray(event_ids)
    if ids.ndim != 1:
        raise ValueError(f"event_ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"event ids must lie in [0, {table.shape[0] - 1}], got "
            f"[{ids.min()}, {ids.max()}]"
        )
    # Range-checked above: mode="raise" would stage every gather through
    # a temporary copy of ``out``.
    return np.take(table, ids, axis=0, out=out, mode="clip")


class StackedDirectTable:
    """``(catalog_size + 1, n_elts)`` net loss matrix, one row per event.

    :meth:`gather` pulls every covered ELT's net loss for a flat batch
    of event ids as one contiguous row per id.  Like every lookup
    structure it is frozen after construction and safe for concurrent
    readers (the lazy gross twin is built under a lock).  It is
    deliberately not a :class:`~repro.lookup.base.LossLookup`: queries
    return a matrix (one loss per ELT), not a vector.
    """

    kind = "stacked"

    def __init__(
        self,
        elts: Sequence[EventLossTable],
        catalog_size: int,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if not elts:
            raise ValueError("stacked table needs at least one ELT")
        max_id = max(elt.max_event_id for elt in elts)
        if catalog_size < max_id:
            raise ValueError(
                f"catalog_size {catalog_size} smaller than max event id {max_id}"
            )
        self.catalog_size = int(catalog_size)
        self.elt_ids = tuple(elt.elt_id for elt in elts)
        if len(set(self.elt_ids)) != len(self.elt_ids):
            raise ValueError(f"duplicate ELT ids: {self.elt_ids}")
        dt = np.dtype(dtype)
        self.terms = tuple(elt.terms for elt in elts)
        self._gross_columns = tuple(
            (elt.event_ids.copy(), elt.losses.astype(dt)) for elt in elts
        )
        # Terms round in the table dtype, the arithmetic of
        # ELTFinancialTerms.apply on a float32 or float64 lookup.
        net_columns = [
            (ids, terms.apply(gross))
            for (ids, gross), terms in zip(self._gross_columns, self.terms)
        ]
        self._table = _event_major(net_columns, self.catalog_size, dt)
        self._gross: np.ndarray | None = None
        self._gross_lock = threading.Lock()
        # Per-ELT terms as (n_elts, 1) columns for the secondary path,
        # which applies them to an ELT-major (n_elts, chunk) block.
        # Stored in the table's dtype so a float32 block runs pure
        # float32 ufunc loops (mixed float32/float64 operands would
        # silently compute every element in double).
        as_col = lambda xs: np.asarray(xs, dtype=np.float64).astype(dt).reshape(
            -1, 1
        )
        self._fx = as_col([t.currency_rate for t in self.terms])
        self._retention = as_col([t.retention for t in self.terms])
        self._limit = as_col([t.limit for t in self.terms])
        self._share = as_col([t.share for t in self.terms])
        self._any_fx = bool(np.any(self._fx != 1.0))
        self._any_retention = bool(np.any(self._retention != 0.0))
        self._any_limit = bool(np.any(np.isfinite(self._limit)))
        self._any_share = bool(np.any(self._share != 1.0))

    # ------------------------------------------------------------------
    @property
    def n_elts(self) -> int:
        return self._table.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self._table.dtype

    @property
    def nbytes(self) -> int:
        """Bytes of the net table: what an engine stages to a device."""
        return int(self._table.nbytes)

    @property
    def shape(self) -> Tuple[int, int]:
        return self._table.shape

    @property
    def row_nbytes(self) -> int:
        """Bytes fetched per row load (what shared memory must hold)."""
        return int(self.n_elts * self.dtype.itemsize)

    # ------------------------------------------------------------------
    def gather(
        self, event_ids: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Net rows: ``(n_ids, n_elts)`` losses after each ELT's terms.

        Pass a pooled ``out`` buffer of that shape and the table's dtype
        to avoid allocating.
        """
        return _take_rows(self._table, event_ids, out)

    def gather_gross(
        self, event_ids: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Gross rows: ``(n_ids, n_elts)`` losses before any terms.

        The paper's combined-table row fetch.  The first call builds the
        gross twin of the table (once, whatever the number of concurrent
        callers).
        """
        return _take_rows(self._gross_table(), event_ids, out)

    def _gross_table(self) -> np.ndarray:
        gross = self._gross
        if gross is None:
            with self._gross_lock:
                if self._gross is None:
                    self._gross = _event_major(
                        self._gross_columns, self.catalog_size, self.dtype
                    )
                gross = self._gross
        return gross

    def apply_terms_inplace(self, block: np.ndarray) -> np.ndarray:
        """Each ELT's terms applied to its row of an ``(n_elts, n)`` block.

        The secondary path's term pass over gross losses it has already
        scaled.  Same arithmetic and operation order as
        :meth:`repro.data.elt.ELTFinancialTerms.apply`
        (``share * min(max(l*fx - ret, 0), lim)``), broadcast over the
        whole block in place.  Identity components are skipped (losses
        are non-negative, so with no retention the ``max(·, 0)`` clamp
        is a no-op too).
        """
        if self._any_fx:
            np.multiply(block, self._fx, out=block)
        if self._any_retention:
            np.subtract(block, self._retention, out=block)
            np.maximum(block, 0.0, out=block)
        if self._any_limit:
            np.minimum(block, self._limit, out=block)
        if self._any_share:
            np.multiply(block, self._share, out=block)
        return block

    def mean_accesses_per_lookup(self) -> float:
        """Memory reads per (event, ELT) query.

        A row fetch services all ``n_elts`` per-ELT lookups of one event
        in one contiguous read of ``n_elts`` words, so per (event, ELT)
        pair the read cost is 1 — the direct table's defining property.
        The GPU cost model charges the combined table's *coordination*
        cost (threads writing the needed event ids to shared memory
        first) separately, which is what makes it lose there.
        """
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StackedDirectTable(n_elts={self.n_elts}, "
            f"catalog_size={self.catalog_size}, dtype={self.dtype}, "
            f"nbytes={self.nbytes})"
        )
