"""Scratch-buffer pool: reusable working arrays for the fused kernels.

The kernel in :mod:`repro.core.kernels` borrows its working arrays (the
gathered block, the combined loss vector, multiplier scratch) from a
:class:`ScratchBufferPool` and returns them when the batch is done,
instead of allocating fresh intermediates per batch and per ELT, so a
multi-batch (or multi-layer) run touches the allocator a handful of times
total and peak intermediate memory is measurable rather than incidental.

Buffers are stored flat (1-D) per dtype and handed out as reshaped views
of the smallest free buffer with enough capacity, so one pool serves the
last (short) batch of a run as well as the full-size ones.  The pool also
keeps the peak number of bytes simultaneously lent out (peak
intermediate memory).

A pool is *not* thread-safe; concurrent workers (the multicore engine's
plan slots) each use their own pool.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def _capacity(shape: Sequence[int] | int) -> int:
    if isinstance(shape, (int, np.integer)):
        return int(shape)
    n = 1
    for dim in shape:
        if dim < 0:
            raise ValueError(f"negative dimension in shape {tuple(shape)}")
        n *= int(dim)
    return n


class ScratchBufferPool:
    """Pool of reusable flat scratch arrays, keyed by dtype.

    Usage::

        pool = ScratchBufferPool()
        buf = pool.take((n_elts, n_occ), np.float64)   # uninitialised!
        ... use buf ...
        pool.give(buf)                                  # recycle

    ``take`` returns an *uninitialised* view (like ``np.empty``); callers
    that need zeros must fill them.  ``give`` accepts exactly the view
    that ``take`` returned; giving an unknown array is a silent no-op so
    callers may free unconditionally in ``finally`` blocks.
    """

    def __init__(self) -> None:
        # dtype.str -> free flat buffers (unordered; take() picks best fit)
        self._free: Dict[str, List[np.ndarray]] = {}
        # id(lent view) -> backing flat buffer
        self._lent: Dict[int, np.ndarray] = {}
        self._lent_bytes = 0
        #: peak bytes simultaneously lent out over the pool's lifetime
        self.peak_bytes = 0
        #: total bytes ever allocated (cache-miss allocations)
        self.allocated_bytes = 0
        #: take() calls served from a free buffer / by a new allocation
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def take(
        self, shape: Sequence[int] | int, dtype: np.dtype | type = np.float64
    ) -> np.ndarray:
        """Borrow an uninitialised array of ``shape``/``dtype``."""
        dt = np.dtype(dtype)
        n = _capacity(shape)
        bucket = self._free.get(dt.str, [])
        best = -1
        for i, buf in enumerate(bucket):
            if buf.size >= n and (best < 0 or buf.size < bucket[best].size):
                best = i
        if best >= 0:
            base = bucket.pop(best)
            self.hits += 1
        else:
            base = np.empty(max(n, 1), dtype=dt)
            self.allocated_bytes += base.nbytes
            self.misses += 1
        view = base[:n].reshape(shape)
        # A caller that dropped a borrowed view without give() may free its
        # id for reuse; evict any stale entry so accounting stays exact.
        stale = self._lent.pop(id(view), None)
        if stale is not None:
            self._lent_bytes -= stale.nbytes
        self._lent[id(view)] = base
        self._lent_bytes += base.nbytes
        self.peak_bytes = max(self.peak_bytes, self._lent_bytes)
        return view

    def give(self, view: np.ndarray | None) -> None:
        """Return a borrowed array to the pool (no-op for unknown arrays)."""
        if view is None:
            return
        base = self._lent.pop(id(view), None)
        if base is None:
            return
        self._lent_bytes -= base.nbytes
        self._free.setdefault(base.dtype.str, []).append(base)

    # ------------------------------------------------------------------
    @property
    def lent_bytes(self) -> int:
        """Bytes currently lent out."""
        return self._lent_bytes

    @property
    def free_bytes(self) -> int:
        """Bytes currently retained in free buffers."""
        return sum(b.nbytes for bucket in self._free.values() for b in bucket)

    def clear(self) -> None:
        """Drop all retained free buffers (outstanding loans unaffected)."""
        self._free.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for benchmark reports."""
        return {
            "peak_bytes": self.peak_bytes,
            "allocated_bytes": self.allocated_bytes,
            "lent_bytes": self._lent_bytes,
            "free_bytes": self.free_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScratchBufferPool(peak_bytes={self.peak_bytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )

