"""Combined and stacked direct-access tables over all ELTs of a layer.

Two layer-wide variants of the direct access table live here:

* :class:`CombinedDirectTable` — the paper's second data-structure variant
  (Section III): instead of 15 independent direct access tables, one table
  whose *row* for event ``e`` holds that event's loss in every ELT, so a
  whole row can be staged into GPU shared memory in one cooperative load.
  The paper measured this *slower* than independent tables because threads
  must first communicate which rows to fetch; our GPU cost model charges
  exactly that shared-memory write traffic, reproducing the paper's
  finding.
* :class:`StackedDirectTable` — the transpose layout,
  ``(n_elts, catalog_size + 1)`` with each *row* one ELT's dense loss
  array.  This is the fused CPU kernel's layout
  (:mod:`repro.core.kernels`): ``table[:, ids]`` services every ELT of the
  layer with **one** gather call over a flat CSR id array, and the per-ELT
  financial terms are stored as column vectors so they broadcast over the
  gathered block in place — no per-ELT temporaries.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.data.elt import EventLossTable


class CombinedDirectTable:
    """Dense ``(catalog_size + 1, n_elts)`` loss matrix for one layer.

    Row ``e`` holds event ``e``'s loss in each covered ELT (0.0 where the
    event is absent).  Row-major layout so one row — the unit the paper's
    variant stages into shared memory — is contiguous.

    This class deliberately does *not* subclass
    :class:`~repro.lookup.base.LossLookup`: its queries return a matrix
    (one loss per ELT), not a vector.
    """

    kind = "combined"

    def __init__(
        self,
        elts: Sequence[EventLossTable],
        catalog_size: int,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if not elts:
            raise ValueError("combined table needs at least one ELT")
        max_id = max(elt.max_event_id for elt in elts)
        if catalog_size < max_id:
            raise ValueError(
                f"catalog_size {catalog_size} smaller than max event id {max_id}"
            )
        self.catalog_size = int(catalog_size)
        self.elt_ids = tuple(elt.elt_id for elt in elts)
        if len(set(self.elt_ids)) != len(self.elt_ids):
            raise ValueError(f"duplicate ELT ids: {self.elt_ids}")
        self._table = np.zeros(
            (self.catalog_size + 1, len(elts)), dtype=dtype, order="C"
        )
        for col, elt in enumerate(elts):
            self._table[elt.event_ids, col] = elt.losses.astype(dtype)

    @property
    def n_elts(self) -> int:
        return self._table.shape[1]

    def lookup_rows(self, event_ids: np.ndarray) -> np.ndarray:
        """Fetch whole rows: shape ``ids.shape + (n_elts,)`` of losses.

        Results carry the table's storage dtype (no float64 upcast).
        """
        ids = np.asarray(event_ids)
        return self._table[ids]

    def lookup_elt(self, event_ids: np.ndarray, elt_id: int) -> np.ndarray:
        """Single-ELT column view of the same row fetch."""
        try:
            col = self.elt_ids.index(int(elt_id))
        except ValueError:
            raise KeyError(f"ELT {elt_id} not in combined table") from None
        ids = np.asarray(event_ids)
        return self._table[ids, col]

    @property
    def nbytes(self) -> int:
        return int(self._table.nbytes)

    @property
    def row_nbytes(self) -> int:
        """Bytes fetched per row load (what shared memory must hold)."""
        return int(self._table.shape[1] * self._table.itemsize)

    def mean_accesses_per_lookup(self) -> float:
        """Memory reads per (event, ELT) query.

        A row fetch services all ``n_elts`` per-ELT lookups of one event in
        one contiguous read of ``n_elts`` words, so per (event, ELT) pair
        the read cost is 1 — but the *coordination* cost (threads writing
        the needed event ids to shared memory first) is charged separately
        by the GPU cost model, which is what makes this variant lose.
        """
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CombinedDirectTable(n_elts={self.n_elts}, "
            f"catalog_size={self.catalog_size}, nbytes={self.nbytes})"
        )


class StackedDirectTable:
    """``(n_elts, catalog_size + 1)`` loss matrix, one ELT per row.

    The fused ragged kernel's layer representation: one gather
    (:meth:`gather`) pulls the loss of *every* covered ELT for a flat
    batch of event ids, and :meth:`apply_terms_inplace` applies each
    ELT's financial terms to its row of the gathered block by
    broadcasting — instead of a per-ELT gather + four-temporary term
    application.

    Like :class:`CombinedDirectTable` this is deliberately not a
    :class:`~repro.lookup.base.LossLookup` (queries return a matrix, not
    a vector), and like every lookup structure it is frozen after
    construction and safe for concurrent readers.
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
        self._table = np.zeros(
            (len(elts), self.catalog_size + 1), dtype=dt, order="C"
        )
        for row, elt in enumerate(elts):
            self._table[row, elt.event_ids] = elt.losses.astype(dt)
        self.terms = tuple(elt.terms for elt in elts)
        # Per-ELT terms as (n_elts, 1) columns: broadcasting applies each
        # ELT's terms to its own row of a gathered (n_elts, n_ids) block.
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
        return self._table.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self._table.dtype

    @property
    def nbytes(self) -> int:
        return int(self._table.nbytes)

    @property
    def shape(self) -> Tuple[int, int]:
        return self._table.shape

    # ------------------------------------------------------------------
    def gather(
        self, event_ids: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """One fused gather: gross losses of every ELT for a flat id batch.

        Returns a ``(n_elts, n_ids)`` block in the table's dtype; pass a
        pooled ``out`` buffer of that shape/dtype to avoid allocating.
        """
        ids = np.asarray(event_ids)
        if ids.ndim != 1:
            raise ValueError(f"event_ids must be 1-D, got shape {ids.shape}")
        return np.take(self._table, ids, axis=1, out=out)

    def apply_terms_inplace(self, gross: np.ndarray) -> np.ndarray:
        """Financial terms of every ELT applied to its row, in place.

        Same arithmetic and operation order as
        :meth:`repro.data.elt.ELTFinancialTerms.apply`
        (``share * min(max(l*fx - ret, 0), lim)``), but broadcast over
        the whole gathered block with zero temporaries.  Identity
        components are skipped entirely (losses are non-negative, so
        with no retention the ``max(·, 0)`` clamp is a no-op too).
        """
        if self._any_fx:
            np.multiply(gross, self._fx, out=gross)
        if self._any_retention:
            np.subtract(gross, self._retention, out=gross)
            np.maximum(gross, 0.0, out=gross)
        if self._any_limit:
            np.minimum(gross, self._limit, out=gross)
        if self._any_share:
            np.multiply(gross, self._share, out=gross)
        return gross

    def broadcast_arrays(self):
        """Raw arrays for compiled kernel backends (read-only contract).

        Returns ``(table, fx, retention, limit, share, flags)``: the
        ``(n_elts, catalog + 1)`` loss matrix, the four per-ELT term
        vectors as 1-D arrays in the table's dtype, and the
        ``(any_fx, any_retention, any_limit, any_share)`` identity-skip
        flags — everything a backend needs to replicate
        :meth:`apply_terms_inplace` scalar-wise.  Callers must treat
        the arrays as frozen (they are shared with every concurrent
        reader of this table).
        """
        return (
            self._table,
            self._fx[:, 0],
            self._retention[:, 0],
            self._limit[:, 0],
            self._share[:, 0],
            (
                self._any_fx,
                self._any_retention,
                self._any_limit,
                self._any_share,
            ),
        )

    def mean_accesses_per_lookup(self) -> float:
        # Row-per-ELT layout keeps the direct table's defining property:
        # one array read per (event, ELT) query.
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StackedDirectTable(n_elts={self.n_elts}, "
            f"catalog_size={self.catalog_size}, dtype={self.dtype}, "
            f"nbytes={self.nbytes})"
        )
