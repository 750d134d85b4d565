"""The numeric kernel: Algorithm 1 directly on the ragged CSR arrays.

Every engine — sequential, multicore, the simulated GPUs and the fleet
workers — computes year losses through this module; only the schedule
around it differs, as in the paper, where one kernel body runs from
sequential C++ to four GPUs.  The numpy code below is the kernel's only
implementation; the golden YLT digests and the scalar
:class:`~repro.engines.sequential.ReferenceEngine` pin it.

:func:`layer_trial_batch_ragged` is the one batch entry: every engine
calls it per trial block, with or without secondary uncertainty.  It is
:func:`combined_occurrence_losses` (steps 1–2, where the plain or
secondary-uncertainty fill is chosen) followed by
:func:`finish_layer_losses` (steps 3–4), the same two halves the quote
service calls separately to reuse the first across candidate layers.

The paper's central lesson is that aggregate risk analysis is
memory-bound: every optimisation that won (direct access tables, chunked
shared-memory staging, reduced precision) cuts bytes moved per trial.
The kernel is built around that:

* **no dense padding** — the kernel runs on the YET's CSR arrays
  (``event_ids``/``offsets``) directly, via zero-copy views from
  :meth:`repro.data.yet.YearEventTable.csr_block`;
* **one word per occurrence** — a
  :class:`~repro.lookup.combined.StackedDirectTable`, the paper's
  combined table, keeps each event's net loss summed over the layer's
  ELTs (terms applied at build), so the plain path is one chunked
  ``np.take`` from a ``(catalog + 1,)`` vector, not an ``n_elts`` row;
  the secondary-uncertainty path, whose draws are per (occurrence,
  ELT), scales gathered *gross* rows and applies the terms per chunk.
  Occurrence terms clamp the combined vector in place, and the working
  arrays come from a :class:`~repro.utils.bufpool.ScratchBufferPool`;
* **segment reduction** — per-trial totals come from
  ``np.add.reduceat`` over the CSR offsets;
* **occurrence chunking** — both fills run over bounded occurrence
  chunks (the CPU mirror of the paper's shared-memory chunking): the
  plain path's ``np.take`` converts one chunk of ids at a time, and the
  secondary path stages ``occ_chunk x n_elts`` gross words and
  multipliers per chunk, never ``n_occurrences x n_elts``;
* **a batch autotuner** — :func:`autotune_batch_trials` sizes trial
  batches to a byte budget instead of defaulting to all-trials-at-once.

The stacked direct table is the kernel's only layer table, as direct
access tables are the paper's: one access per lookup.  The compact ELT
structures of :mod:`repro.lookup` (``sorted``/``hash``/``cuckoo``/
``compressed``) are compared on their own by DS-TABLE and never reach
the kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.secondary import SECONDARY_TILE, SecondaryUncertainty
from repro.core.terms import (
    apply_aggregate_terms_cumulative,
    apply_occurrence_terms,
)
from repro.data.layer import LayerTerms
from repro.lookup.combined import StackedDirectTable, checked_take
from repro.lookup.factory import LookupCache, get_lookup_cache
from repro.utils.bufpool import ScratchBufferPool
from repro.utils.timer import (
    ACTIVITY_FINANCIAL,
    ACTIVITY_LAYER,
    ACTIVITY_LOOKUP,
    ActivityProfile,
)

#: the kernel's name in key formats.  Plan fingerprints, segment keys,
#: analysis keys, fleet manifest ``config`` blocks and scenario campaign
#: keys carry it as a constant, so stores written while a second
#: (padded) kernel existed still replay.
KERNEL_RAGGED = "ragged"

#: the layer table's name in key formats.  The stacked direct table is
#: the only one; analysis and segment keys, quote-service base keys,
#: fleet manifest ``config`` blocks and scenario campaign keys carry its
#: name as a constant, so stores written while the kernel also took
#: per-ELT ``sorted``/``hash``/``cuckoo``/``compressed`` tables still
#: replay.
LOOKUP_DIRECT = "direct"

#: default scratch budget of the batch autotuner (bytes)
DEFAULT_BATCH_BUDGET_BYTES = 64 * 2**20

#: the occurrence chunk's byte budget: every fill stages at most this
#: many bytes per chunk (``chunk x n_elts`` words).  A constant of the
#: kernel, as the paper's shared-memory chunk is, so plans and store keys
#: are the same on every host.
OCC_CHUNK_BYTES = 2**19

#: floor on the occurrence chunk (rows per gather): keeps each
#: fused-gather NumPy call large enough to amortise dispatch overhead.
MIN_OCC_CHUNK = 1_024


def occ_chunk_for(n_elts: int, itemsize: int) -> int:
    """Occurrences per fill chunk: :data:`OCC_CHUNK_BYTES` of rows.

    The staged block is ``(chunk, n_elts)`` words, one gathered row per
    occurrence, floored at :data:`MIN_OCC_CHUNK` rows.  This is the CPU
    mirror of the paper's shared-memory chunk: the secondary path's
    scaling and term passes re-read what the gather just wrote, so
    keeping the block small enough to stay cache-resident is what makes
    the fusion pay; the plain path's chunk bounds the temporaries of its
    one-word-per-occurrence ``np.take``.
    """
    row_bytes = max(1, int(n_elts)) * max(1, int(itemsize))
    return max(MIN_OCC_CHUNK, OCC_CHUNK_BYTES // row_bytes)


def _secondary_chunk_tiles(n_elts: int, itemsize: int) -> int:
    """Whole :data:`SECONDARY_TILE` tiles per secondary-path chunk.

    :func:`occ_chunk_for` rounded down to whole RNG tiles, never below
    one: the chunk the secondary fill stages and the autotuner charges.
    """
    return max(1, occ_chunk_for(n_elts, itemsize) // SECONDARY_TILE)


# ----------------------------------------------------------------------
# Autotuning
# ----------------------------------------------------------------------
def autotune_batch_trials(
    n_trials: int,
    events_per_trial: float,
    n_elts: int,
    dtype: np.dtype | type = np.float64,
    budget_bytes: int = DEFAULT_BATCH_BUDGET_BYTES,
    secondary: bool = False,
) -> int:
    """Trials per batch such that the kernel's scratch fits ``budget_bytes``.

    The ragged kernel's per-batch scratch is the combined loss vector
    (one word per occurrence) and the per-trial totals, plus a fixed
    chunk charge.  On the secondary path that charge is exact: the
    gathered gross block (:func:`occ_chunk_for` rows of ``n_elts``
    words, rounded to whole RNG tiles), the multiplier block beside it
    and the per-tile uniform/index workspaces.  The plain path charges
    an ``(occ_chunk_for(n_elts), n_elts)`` block too, although its fill
    stages only one intp copy of an ``occ_chunk_for(1, itemsize)`` id
    chunk inside ``np.take``, so its batches sit a little under the
    budget.  The charge stays because the batch size it yields sets the
    task boundaries of batched plans, so it is part of their plan
    fingerprints (and the segment ranges an engine-native delta plan
    probes); no store key hashes it.  Solving ``scratch(batch) <=
    budget`` gives an explicit memory policy instead of
    all-trials-at-once; the result is clamped to ``[1, n_trials]``.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if budget_bytes < 1:
        raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
    itemsize = np.dtype(dtype).itemsize
    events = max(1.0, float(events_per_trial))
    if secondary:
        # The secondary kernel stages a multiplier block beside the
        # gather chunk, plus one float64 uniform and one intp index
        # workspace of a full tile per ELT row.
        chunk = _secondary_chunk_tiles(n_elts, itemsize) * SECONDARY_TILE
        fixed = n_elts * (
            chunk * itemsize * 2
            + SECONDARY_TILE * (8 + np.dtype(np.intp).itemsize)
        )
    else:
        # Not staged since the plain fill became a 1-D gather; kept so
        # plan fingerprints stay as they were (see the docstring).
        fixed = n_elts * occ_chunk_for(n_elts, itemsize) * itemsize
    # Per trial: combined vector words + totals/year accumulators.
    per_trial = events * itemsize + 16
    batch = int(max(0, budget_bytes - fixed) / per_trial)
    return max(1, min(n_trials, batch))


# ----------------------------------------------------------------------
# Segment reduction
# ----------------------------------------------------------------------
def segment_sums(
    values: np.ndarray, offsets: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-segment sums of a CSR-delimited flat array, in ``float64``.

    ``offsets`` delimits segment ``i`` as ``values[offsets[i]:offsets[i+1]]``;
    empty segments (including trailing ones whose start index equals
    ``values.size``) sum to exactly 0.0: one ``np.add.reduceat`` over
    the offsets instead of a row-sum over ``n_trials x max_events``
    padded slots.
    """
    offs = np.asarray(offsets)
    starts = offs[:-1]
    n_seg = starts.size
    if out is None:
        out = np.zeros(n_seg, dtype=np.float64)
    else:
        if out.shape != (n_seg,):
            raise ValueError(f"out shape {out.shape} != ({n_seg},)")
        out[:] = 0.0
    flat = np.asarray(values)
    if n_seg == 0 or flat.size == 0:
        return out
    # reduceat rejects indices == size (legal here: trailing empty
    # segments); restrict to in-bounds starts, which stay non-decreasing.
    valid = starts < flat.size
    out[valid] = np.add.reduceat(flat, starts[valid], dtype=np.float64)
    # For an empty segment reduceat yields values[start] — zero it.
    counts = np.diff(offs)
    out[counts == 0] = 0.0
    return out


# ----------------------------------------------------------------------
# Layer table selection (shared by every engine)
# ----------------------------------------------------------------------
def build_layer_tables(
    elts,
    catalog_size: int,
    lookup_kind: str = LOOKUP_DIRECT,
    dtype: np.dtype | type = np.float64,
    legacy_kernel: str = KERNEL_RAGGED,
    cache: LookupCache | None = None,
) -> StackedDirectTable:
    """The layer's :class:`StackedDirectTable`, the kernel's only table.

    Builds go through ``cache`` (the process-wide lookup cache by
    default), so layers sharing ELTs — and repeated runs — build once.
    The table's ``nbytes`` is what an engine stages to a (simulated)
    device.

    ``lookup_kind`` and ``legacy_kernel`` keep the third and fifth
    positional slots of the old signature, which ``perfbench/harness.py``
    still fills with ``"direct"`` and :data:`KERNEL_RAGGED`; any other
    value raises ``ValueError``.
    """
    if lookup_kind != LOOKUP_DIRECT:
        raise ValueError(
            f"unknown layer table {lookup_kind!r}: the stacked "
            f"{LOOKUP_DIRECT!r} table is the only one"
        )
    if legacy_kernel != KERNEL_RAGGED:
        raise ValueError(
            f"unknown kernel {legacy_kernel!r}: {KERNEL_RAGGED!r} is the "
            "only kernel"
        )
    cache = cache if cache is not None else get_lookup_cache()
    return cache.stacked_table(elts, catalog_size, dtype=dtype)


# ----------------------------------------------------------------------
# The fused kernel
# ----------------------------------------------------------------------
def _fill_combined(
    ids: np.ndarray,
    stacked: StackedDirectTable,
    combined: np.ndarray,
    profile: ActivityProfile,
) -> None:
    """Fill ``combined`` with per-occurrence losses summed across ELTs.

    Steps 1–2 of Algorithm 1 (gather + financial terms), the layer-term-
    independent prefix shared by every candidate layer over the same ELT
    set — which is exactly why it is split out: the quote service caches
    this vector and re-runs only the finish per candidate.
    """
    n_occ = ids.size
    # One word per occurrence from the per-event sums.
    work = combined.dtype
    if stacked.has_net_sums(work):
        sums = stacked.net_sums(work)
    else:
        # Building the vector applies the ELT terms: this run pays.
        with profile.track(ACTIVITY_FINANCIAL):
            sums = stacked.net_sums(work)
    # Chunked: np.take converts one chunk of int32 ids to intp at a
    # time, and the range check reads them from cache.
    chunk = occ_chunk_for(1, work.itemsize)
    with profile.track(ACTIVITY_LOOKUP):
        for lo in range(0, n_occ, chunk):
            hi = min(lo + chunk, n_occ)
            checked_take(sums, ids[lo:hi], combined[lo:hi])


def _fill_combined_secondary(
    ids: np.ndarray,
    stacked: StackedDirectTable,
    combined: np.ndarray,
    uncertainty: SecondaryUncertainty,
    stream_key: int,
    occ_base: int,
    profile: ActivityProfile,
    pool: ScratchBufferPool,
) -> None:
    """:func:`_fill_combined` with per-(occurrence, ELT) multiplier draws.

    Multipliers are sampled into pooled scratch beside the gathered
    block, addressed by *global* occurrence index (``occ_base`` +
    offset), so the filled vector is invariant to how callers batch or
    chunk the occurrence space.  The multiplier applies to *gross*
    losses, before the terms, so this path gathers from the stacked
    table's gross twin and applies the terms itself.
    """
    n_occ = ids.size
    n_elts = stacked.n_elts
    tdtype = stacked.dtype
    table = uncertainty.quantile_table(dtype=tdtype)
    # Round the occurrence chunk to whole RNG tiles and align chunk
    # boundaries to *global* tile edges: every tile is then regenerated
    # at most once per batch instead of once per straddling chunk.
    chunk_tiles = _secondary_chunk_tiles(n_elts, tdtype.itemsize)
    chunk = chunk_tiles * SECONDARY_TILE
    width = min(chunk, max(n_occ, 1))
    mult = pool.take((n_elts, width), tdtype)
    rows = pool.take((width, n_elts), tdtype)
    try:
        lo = 0
        while lo < n_occ:
            g = occ_base + lo
            aligned_stop = (g // SECONDARY_TILE + chunk_tiles) * SECONDARY_TILE
            hi = min(n_occ, aligned_stop - occ_base)
            with profile.track(ACTIVITY_FINANCIAL):
                mblock = uncertainty.multipliers_for_span(
                    stream_key,
                    occ_base + lo,
                    occ_base + hi,
                    n_elts,
                    out=mult[:, : hi - lo],
                    table=table,
                    pool=pool,
                )
            block = rows[: hi - lo]
            with profile.track(ACTIVITY_LOOKUP):
                stacked.gather_gross(ids[lo:hi], out=block)
            with profile.track(ACTIVITY_FINANCIAL):
                # Scaled gross losses land ELT-major in the multiplier
                # block, where the terms broadcast per ELT row and the
                # rows sum in ELT order.
                np.multiply(block.T, mblock, out=mblock)
                stacked.apply_terms_inplace(mblock)
                np.sum(mblock, axis=0, out=combined[lo:hi])
            lo = hi
    finally:
        pool.give(rows)
        pool.give(mult)


def combined_occurrence_losses(
    event_ids: np.ndarray,
    stacked: StackedDirectTable,
    dtype: np.dtype | type = np.float64,
    out: np.ndarray | None = None,
    profile: ActivityProfile | None = None,
    pool: ScratchBufferPool | None = None,
    secondary: SecondaryUncertainty | None = None,
    stream_key: int = 0,
    occ_base: int = 0,
) -> np.ndarray:
    """Per-occurrence combined losses (steps 1–2) for a flat id block.

    The layer-term-independent prefix of the fused kernel, exposed so
    the :class:`~repro.pricing.realtime.QuoteService` can compute it
    once per ELT set and finish many candidate layers against the same
    vector (:func:`finish_layer_losses`).  ``out`` (shape ``(n_occ,)``
    in the working dtype) avoids allocating — the service passes slices
    of its cached full-YET vector, one per plan task.

    The kernel's only plain-or-secondary choice is made here: with
    ``secondary`` the fill draws per-(occurrence, ELT) multipliers keyed
    by ``stream_key`` and the global occurrence index ``occ_base + i``
    (see :func:`layer_trial_batch_ragged`).
    """
    profile = profile if profile is not None else ActivityProfile()
    pool = pool if pool is not None else ScratchBufferPool()
    ids = np.asarray(event_ids)
    if ids.ndim != 1:
        raise ValueError(f"event_ids must be 1-D, got shape {ids.shape}")
    work = np.dtype(dtype)
    if out is None:
        out = np.empty(ids.size, dtype=work)
    elif out.shape != (ids.size,):
        raise ValueError(f"out shape {out.shape} != ({ids.size},)")
    if secondary is not None:
        if occ_base < 0:
            raise ValueError(f"occ_base must be >= 0, got {occ_base}")
        _fill_combined_secondary(
            ids, stacked, out, secondary, stream_key, occ_base, profile, pool
        )
    else:
        _fill_combined(ids, stacked, out, profile)
    return out


def finish_layer_losses(
    combined: np.ndarray,
    offsets: np.ndarray,
    layer_terms: LayerTerms,
    profile: ActivityProfile | None = None,
) -> np.ndarray:
    """Steps 3–4: layer terms over an already-combined loss vector.

    **Mutates ``combined`` in place** (the occurrence clamp) — callers
    finishing against a cached vector must pass a scratch copy.  Returns
    the per-trial year losses in ``float64``; bit-identical to what the
    fused kernel produces, because it *is* the fused kernel's finishing
    pass.
    """
    profile = profile if profile is not None else ActivityProfile()
    with profile.track(ACTIVITY_LAYER):
        apply_occurrence_terms(combined, layer_terms, out=combined)
        totals = segment_sums(combined, offsets)
        year = apply_aggregate_terms_cumulative(totals, layer_terms, out=totals)
    return year


def layer_trial_batch_ragged(
    event_ids: np.ndarray,
    offsets: np.ndarray,
    layer_terms: LayerTerms,
    profile: ActivityProfile | None = None,
    dtype: np.dtype | type = np.float64,
    pool: ScratchBufferPool | None = None,
    *,
    stacked: StackedDirectTable,
    secondary: SecondaryUncertainty | None = None,
    stream_key: int = 0,
    occ_base: int = 0,
) -> np.ndarray:
    """Steps 1–4 of Algorithm 1 over a ragged CSR trial block, fused.

    :func:`combined_occurrence_losses` into a pooled vector, then
    :func:`finish_layer_losses` over it — the one batch entry every
    engine calls, with or without secondary uncertainty.

    Parameters
    ----------
    event_ids, offsets:
        CSR arrays of the trial block (``offsets[i]:offsets[i+1]``
        delimits trial ``i``); typically views from
        :meth:`~repro.data.yet.YearEventTable.csr_block`.
    layer_terms:
        The layer's occurrence/aggregate XL terms.
    stacked:
        The layer's :class:`~repro.lookup.combined.StackedDirectTable`
        (keyword-only): the plain path reads each occurrence's net loss
        from its per-event vector and the secondary path gathers gross
        rows.
    dtype:
        Working precision of the accumulation.
    pool:
        Scratch-buffer pool for working arrays (a private throwaway pool
        is used if omitted — pass one to reuse buffers across batches).
    secondary:
        The Beta damage-ratio model; when given, multipliers are sampled
        **directly into pooled scratch** beside the gathered gross block
        (one Philox-counter inverse-transform draw per (occurrence, ELT)
        pair — see :meth:`SecondaryUncertainty.multipliers_for_span`)
        and applied before the financial terms.  No dense
        ``(trials, events)`` matrix — of losses *or* of multipliers — is
        ever materialised.
    stream_key:
        Base key of this layer's multiplier stream
        (:func:`~repro.core.secondary.layer_stream_key`); unused without
        ``secondary``.
    occ_base:
        Global index of ``event_ids[0]`` in the full YET's flat
        occurrence array.  Multipliers are addressed by *global*
        occurrence index, so any decomposition of the trial space —
        engine chunks, trial batches, occurrence chunks — reproduces
        identical draws per (occurrence, ELT) pair.

    Returns
    -------
    numpy.ndarray
        1-D ``(n_trials,)`` year losses in ``float64``.
    """
    profile = profile if profile is not None else ActivityProfile()
    pool = pool if pool is not None else ScratchBufferPool()
    offs = np.asarray(offsets)
    if offs.ndim != 1 or offs.size < 1:
        raise ValueError("offsets must be 1-D with at least one entry")
    combined = pool.take((np.size(event_ids),), dtype)
    try:
        combined_occurrence_losses(
            event_ids,
            stacked,
            dtype=dtype,
            out=combined,
            profile=profile,
            pool=pool,
            secondary=secondary,
            stream_key=stream_key,
            occ_base=occ_base,
        )
        year = finish_layer_losses(combined, offs, layer_terms, profile=profile)
    finally:
        pool.give(combined)
    return year
