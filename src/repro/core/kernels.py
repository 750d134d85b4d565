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
* **one contiguous row per occurrence** — a
  :class:`~repro.lookup.combined.StackedDirectTable` holds all of a
  layer's direct tables as one event-major ``(catalog + 1, n_elts)``
  matrix, the paper's combined table, so ``np.take(table, ids, axis=0)``
  reads each occurrence's loss in every ELT as one row instead of
  ``n_elts`` scattered words;
* **terms folded at build** — the table holds each ELT's *net* losses,
  so the plain path only adds the gathered block's columns in ELT order;
  the secondary-uncertainty path scales gathered *gross* rows and then
  applies the terms per chunk.  Occurrence terms clamp the combined
  vector in place, and all working arrays come from a
  :class:`~repro.utils.bufpool.ScratchBufferPool` (allocate once, reuse
  every batch);
* **segment reduction** — per-trial totals come from
  ``np.add.reduceat`` over the CSR offsets;
* **occurrence chunking** — the gather runs over bounded occurrence
  chunks (the CPU mirror of the paper's shared-memory chunking), so peak
  scratch is ``occ_chunk x n_elts`` words rather than
  ``n_occurrences x n_elts``;
* **a batch autotuner** — :func:`autotune_batch_trials` sizes trial
  batches to a byte budget instead of defaulting to all-trials-at-once.

Non-direct lookup kinds (``sorted``/``hash``/``cuckoo``/``compressed``)
cannot be stacked into one matrix; for them the kernel still runs —
per-ELT lookups and terms over the *flat* CSR id array, combined in
place — it just forgoes the row gather.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from repro.core.secondary import SECONDARY_TILE, SecondaryUncertainty
from repro.core.terms import (
    apply_aggregate_terms_cumulative,
    apply_occurrence_terms,
)
from repro.data.layer import LayerTerms
from repro.lookup.base import LossLookup
from repro.lookup.combined import StackedDirectTable
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

#: default scratch budget of the batch autotuner (bytes)
DEFAULT_BATCH_BUDGET_BYTES = 64 * 2**20

#: fallback L2 budget when the cache hierarchy cannot be detected (1 MiB
#: — the ballpark per-core L2 of every x86/ARM server part of the last
#: decade).
FALLBACK_L2_CACHE_BYTES = 1 * 2**20

#: floor on the occurrence chunk (rows per gather): keeps each
#: fused-gather NumPy call large enough to amortise dispatch overhead.
MIN_OCC_CHUNK = 1_024

_DETECTED_L2: int | None = None


def get_l2_cache_bytes() -> int:
    """The occurrence-chunk byte budget: detected L2 size, overridable.

    Resolution order: the ``REPRO_L2_CACHE_BYTES`` environment variable
    (read every call, so tests and deployments can steer the autotuner
    without touching code; plain bytes or a ``K``/``M`` suffix, the same
    format sysfs uses — a malformed value raises rather than being
    silently ignored), then the per-core L2 data/unified cache size from
    sysfs (detected once and memoised), then
    :data:`FALLBACK_L2_CACHE_BYTES`.
    """
    override = os.environ.get("REPRO_L2_CACHE_BYTES")
    if override:
        nbytes = _parse_cache_size(override)
        if nbytes is None:
            raise ValueError(
                f"REPRO_L2_CACHE_BYTES={override!r} is not a byte count "
                "(expected an integer, optionally suffixed with K or M)"
            )
        return max(64 * 1024, nbytes)
    global _DETECTED_L2
    if _DETECTED_L2 is None:
        _DETECTED_L2 = _detect_l2_cache_bytes()
    return _DETECTED_L2


def _parse_cache_size(text: str) -> int | None:
    """Parse ``1048576`` / ``512K`` / ``1M`` into bytes (None if invalid)."""
    text = text.strip().upper()
    scale = 1
    if text.endswith("K"):
        scale, text = 1024, text[:-1]
    elif text.endswith("M"):
        scale, text = 1024 * 1024, text[:-1]
    try:
        nbytes = int(text) * scale
    except ValueError:
        return None
    return nbytes if nbytes > 0 else None


def _detect_l2_cache_bytes() -> int:
    """Read cpu0's level-2 data/unified cache size from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            index = os.path.join(base, entry)
            try:
                with open(os.path.join(index, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(index, "type")) as f:
                    kind = f.read().strip()
                if level != "2" or kind not in ("Data", "Unified"):
                    continue
                with open(os.path.join(index, "size")) as f:
                    nbytes = _parse_cache_size(f.read())
            except OSError:
                continue
            if nbytes:
                return nbytes
    except OSError:
        pass
    return FALLBACK_L2_CACHE_BYTES


def max_occ_chunk(itemsize: int, l2_bytes: int | None = None) -> int:
    """Upper bound on the occurrence chunk for a working ``itemsize``.

    Half the L2 budget in words of ``itemsize`` — the single-ELT limit of
    :func:`occ_chunk_for`, and the derived replacement for the old fixed
    16K cap: a machine with a bigger L2 gets proportionally deeper
    chunks, a smaller one stays cache-resident.
    """
    l2 = get_l2_cache_bytes() if l2_bytes is None else l2_bytes
    return max(MIN_OCC_CHUNK, l2 // (2 * max(1, int(itemsize))))


def occ_chunk_for(
    n_elts: int, itemsize: int, l2_bytes: int | None = None
) -> int:
    """Occurrences per fused-gather chunk under the L2 cache budget.

    The staged block is ``(chunk, n_elts)`` words, one gathered row per
    occurrence; it is sized to half the L2 budget (the other half is left
    for the combined vector, the multiplier block of the secondary path
    and the table lines the gather touches), clamped to
    ``[MIN_OCC_CHUNK, max_occ_chunk(...)]``.  This is the CPU mirror of
    the paper's shared-memory chunk: the column adds over the staged
    block re-read what the gather just wrote, so keeping the block
    cache-resident is what makes the fusion pay.
    """
    l2 = get_l2_cache_bytes() if l2_bytes is None else l2_bytes
    chunk = (l2 // 2) // max(1, int(n_elts) * max(1, int(itemsize)))
    return max(MIN_OCC_CHUNK, min(max_occ_chunk(itemsize, l2), chunk))


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
    l2_bytes: int | None = None,
) -> int:
    """Trials per batch such that the kernel's scratch fits ``budget_bytes``.

    The ragged kernel's per-batch scratch is the combined loss vector
    (one word per occurrence), the fused gather chunk (:func:`occ_chunk_for`
    rows of ``n_elts`` words — charged exactly, at the same
    size the kernel will actually use, including the secondary path's
    rounding of the chunk to whole RNG tiles), the secondary path's
    multiplier block plus its per-tile uniform/index workspaces, and the
    per-trial totals.  Solving ``scratch(batch) <= budget`` gives an
    explicit memory policy instead of all-trials-at-once; the result is
    clamped to ``[1, n_trials]``.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if budget_bytes < 1:
        raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
    itemsize = np.dtype(dtype).itemsize
    events = max(1.0, float(events_per_trial))
    chunk = occ_chunk_for(n_elts, itemsize, l2_bytes=l2_bytes)
    if secondary:
        # The secondary kernel aligns its chunk to whole SECONDARY_TILEs
        # (never below one tile) and stages a multiplier block beside
        # the gather chunk, plus one float64 uniform and one intp index
        # workspace of a full tile per ELT row.
        chunk = max(1, chunk // SECONDARY_TILE) * SECONDARY_TILE
        fixed = n_elts * (
            chunk * itemsize * 2
            + SECONDARY_TILE * (8 + np.dtype(np.intp).itemsize)
        )
    else:
        fixed = n_elts * chunk * itemsize
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
    lookup_kind: str,
    dtype: np.dtype | type,
    legacy_kernel: str = KERNEL_RAGGED,
    cache: LookupCache | None = None,
) -> tuple[list, StackedDirectTable | None, int]:
    """Cached lookup structures for one layer.

    Returns ``(lookups, stacked, table_bytes)``: direct tables are
    stacked into one matrix (``lookups`` empty), every other lookup kind
    uses the per-ELT structures.  ``table_bytes`` is what an engine
    stages to a (simulated) device.  Builds go through ``cache`` (the
    process-wide lookup cache by default) so layers sharing ELTs — and
    repeated runs — build once.

    ``legacy_kernel`` keeps the fifth positional slot of the old
    per-kernel signature, which ``perfbench/harness.py`` still fills
    with :data:`KERNEL_RAGGED`; any other value raises ``ValueError``.
    """
    if legacy_kernel != KERNEL_RAGGED:
        raise ValueError(
            f"unknown kernel {legacy_kernel!r}: {KERNEL_RAGGED!r} is the "
            "only kernel"
        )
    cache = cache if cache is not None else get_lookup_cache()
    if lookup_kind == "direct":
        stacked = cache.stacked_table(elts, catalog_size, dtype=dtype)
        return [], stacked, stacked.nbytes
    lookups = cache.layer_lookups(
        elts, catalog_size=catalog_size, kind=lookup_kind, dtype=dtype
    )
    return lookups, None, sum(lk.nbytes for lk in lookups)


# ----------------------------------------------------------------------
# The fused kernel
# ----------------------------------------------------------------------
def _sum_columns(block: np.ndarray, out: np.ndarray) -> None:
    """``out[i] = block[i, 0] + block[i, 1] + ...``, added in ELT order.

    The same sequential order as ``np.sum(axis=0)`` over the transposed,
    ELT-major block, so the sums keep their bits; ``np.sum(axis=1)``
    would regroup eight or more columns pairwise.  The additions run in
    ``out``'s dtype, as that reduction's did.
    """
    np.copyto(out, block[:, 0])
    for col in range(1, block.shape[1]):
        np.add(out, block[:, col], out=out, dtype=out.dtype)


def _fill_combined(
    ids: np.ndarray,
    lookups: Sequence[LossLookup] | None,
    stacked: StackedDirectTable | None,
    combined: np.ndarray,
    profile: ActivityProfile,
    pool: ScratchBufferPool,
) -> None:
    """Fill ``combined`` with per-occurrence losses summed across ELTs.

    Steps 1–2 of Algorithm 1 (gather + financial terms), the layer-term-
    independent prefix shared by every candidate layer over the same ELT
    set — which is exactly why it is split out: the quote service caches
    this vector and re-runs only the finish per candidate.
    """
    n_occ = ids.size
    if stacked is not None:
        # Fused path: one net row per occurrence, its columns added into
        # the combined vector in ELT order.
        chunk = occ_chunk_for(stacked.n_elts, stacked.dtype.itemsize)
        rows = pool.take(
            (min(chunk, max(n_occ, 1)), stacked.n_elts), stacked.dtype
        )
        try:
            for lo in range(0, n_occ, chunk):
                hi = min(lo + chunk, n_occ)
                block = rows[: hi - lo]
                with profile.track(ACTIVITY_LOOKUP):
                    stacked.gather(ids[lo:hi], out=block)
                with profile.track(ACTIVITY_FINANCIAL):
                    _sum_columns(block, combined[lo:hi])
        finally:
            pool.give(rows)
    else:
        # Fallback combine for non-stackable lookup kinds: still no
        # padding — per-ELT lookups run over the flat id array.
        combined[:] = 0.0
        work = combined.dtype
        for lookup in lookups or ():
            with profile.track(ACTIVITY_LOOKUP):
                gross_flat = lookup.lookup(ids)
            with profile.track(ACTIVITY_FINANCIAL):
                net = lookup.terms.apply(gross_flat)
                combined += net.astype(work, copy=False)


def _fill_combined_secondary(
    ids: np.ndarray,
    lookups: Sequence[LossLookup] | None,
    stacked: StackedDirectTable | None,
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
    work = combined.dtype
    n_elts = stacked.n_elts if stacked is not None else len(lookups or ())
    tdtype = stacked.dtype if stacked is not None else work
    table = uncertainty.quantile_table(dtype=tdtype)
    # Round the occurrence chunk to whole RNG tiles and align chunk
    # boundaries to *global* tile edges: every tile is then regenerated
    # at most once per batch instead of once per straddling chunk.
    chunk = occ_chunk_for(n_elts, tdtype.itemsize)
    chunk_tiles = max(1, chunk // SECONDARY_TILE)
    chunk = chunk_tiles * SECONDARY_TILE
    width = min(chunk, max(n_occ, 1))
    mult = pool.take((n_elts, width), tdtype)
    rows = pool.take((width, n_elts), tdtype) if stacked is not None else None
    try:
        if combined.size and stacked is None:
            combined[:] = 0.0
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
            if stacked is not None:
                block = rows[: hi - lo]
                with profile.track(ACTIVITY_LOOKUP):
                    stacked.gather_gross(ids[lo:hi], out=block)
                with profile.track(ACTIVITY_FINANCIAL):
                    # Scaled gross losses land ELT-major in the
                    # multiplier block, where the terms broadcast per
                    # ELT row and the rows sum in ELT order.
                    np.multiply(block.T, mblock, out=mblock)
                    stacked.apply_terms_inplace(mblock)
                    np.sum(mblock, axis=0, out=combined[lo:hi])
            else:
                # Fallback for non-stackable lookup kinds: per-ELT
                # lookups over the flat chunk, each row scaled by its
                # multiplier stream before the ELT's terms apply.
                for row, lookup in enumerate(lookups or ()):
                    with profile.track(ACTIVITY_LOOKUP):
                        gross_flat = lookup.lookup(ids[lo:hi])
                    with profile.track(ACTIVITY_FINANCIAL):
                        scaled = gross_flat * mblock[row]
                        net = lookup.terms.apply(scaled)
                        combined[lo:hi] += net.astype(work, copy=False)
            lo = hi
    finally:
        pool.give(rows)
        pool.give(mult)


def combined_occurrence_losses(
    event_ids: np.ndarray,
    lookups: Sequence[LossLookup] | None,
    stacked: StackedDirectTable | None = None,
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
            ids, lookups, stacked, out, secondary, stream_key,
            occ_base, profile, pool,
        )
    else:
        _fill_combined(ids, lookups, stacked, out, profile, pool)
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
    lookups: Sequence[LossLookup] | None,
    layer_terms: LayerTerms,
    stacked: StackedDirectTable | None = None,
    profile: ActivityProfile | None = None,
    dtype: np.dtype | type = np.float64,
    pool: ScratchBufferPool | None = None,
    *,
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
    lookups:
        Per-ELT lookup structures — the fallback combine path for
        non-direct kinds.  Ignored when ``stacked`` is given.
    layer_terms:
        The layer's occurrence/aggregate XL terms.
    stacked:
        The layer's :class:`~repro.lookup.combined.StackedDirectTable`;
        when present, net losses come from one row gather per occurrence
        chunk.
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
            lookups,
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
