"""Secondary uncertainty: the paper's future-work extension (Section VI).

Primary uncertainty is *which* events occur (captured by the YET).
Secondary uncertainty is the loss variability *given* an event: an ELT
entry is then the mean of a distribution, not a point value.  The paper
names incorporating it as future work; we implement the standard
beta-distributed damage-ratio model used in catastrophe modelling:

    actual loss = mean loss × B,   B ~ Beta(α, β) scaled to mean 1

Each (event occurrence, ELT) pair draws an independent multiplier inside
the kernel, which multiplies the lookup cost by a per-access RNG draw —
exactly the "fine grain analysis" workload the paper anticipates.

Sampling is **counter-based inverse-transform sampling** (used by
:func:`repro.core.kernels.layer_trial_batch_ragged` when it is given
``secondary=``).
One Philox uniform per (occurrence, ELT) pair indexes a cached
equiprobable-quantile table of the rescaled Beta (the GPU-friendly
formulation — a counter-addressable RNG plus a table read, no rejection
loop).  Streams are keyed by the *global occurrence index* in fixed
:data:`SECONDARY_TILE`-wide tiles, so the multipliers a pair receives
are invariant to trial batching, occurrence chunking and engine
decomposition — any worker that covers a tile regenerates it bit-for-bit.
The table's mean is renormalised to exactly 1, preserving expected
losses by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.utils.rng import SeedLike, default_rng, stable_hash_seed
from repro.utils.validation import check_positive

#: occurrences per counter-based RNG tile.  A tile is the unit of
#: multiplier regeneration: chunks covering part of a tile regenerate the
#: whole tile and slice, so the waste per chunk edge is bounded by one
#: tile while any decomposition reproduces identical draws.
SECONDARY_TILE = 4_096

#: equiprobable bins of the cached Beta quantile table.  4096 bins keep
#: the inverse-transform's distributional error far below Monte-Carlo
#: noise at any realistic trial count while the table (32 KB in float64)
#: stays cache-resident.
QUANTILE_BINS = 4_096

#: draws per bin used to estimate the bin means of the quantile table.
_QUANTILE_OVERSAMPLE = 32


@dataclass(frozen=True)
class SecondaryUncertainty:
    """Beta damage-ratio model of per-event loss variability.

    The multiplier ``B`` is ``Beta(alpha, beta) * (alpha + beta) / alpha``,
    i.e. a Beta variate rescaled to mean exactly 1 so expected losses are
    unchanged (property-tested): only the *distribution* around the mean
    widens.

    Attributes
    ----------
    alpha, beta:
        Beta shape parameters; larger values → tighter distribution.
        ``alpha=beta → mean(raw Beta)=0.5``, rescaled to 1 with support
        ``[0, 2]``.
    """

    alpha: float = 4.0
    beta: float = 4.0

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        check_positive("beta", self.beta)

    @property
    def multiplier_mean(self) -> float:
        """Mean of the rescaled multiplier (exactly 1 by construction)."""
        return 1.0

    @property
    def multiplier_cv(self) -> float:
        """Coefficient of variation of the rescaled multiplier."""
        a, b = self.alpha, self.beta
        raw_mean = a / (a + b)
        raw_var = a * b / ((a + b) ** 2 * (a + b + 1))
        return float(np.sqrt(raw_var) / raw_mean)

    def quantile_table(
        self, bins: int = QUANTILE_BINS, dtype: np.dtype | type = np.float64
    ) -> np.ndarray:
        """Equiprobable-quantile table of the rescaled multiplier.

        Entry ``i`` is the mean of the multiplier within its
        ``[i/bins, (i+1)/bins)`` probability bin, renormalised so the
        table's mean is *exactly* 1: inverse-transform sampling from it
        (a uniform draw scaled to a bin index) preserves expected losses
        by construction, not merely in expectation.  The table is built
        once per ``(alpha, beta, bins, dtype)`` from a fixed internal
        seed and cached process-wide — callers treat it as a frozen
        constant, like a lookup structure.
        """
        return _quantile_table(
            float(self.alpha), float(self.beta), int(bins), np.dtype(dtype).str
        )

    def multipliers_for_span(
        self,
        stream_key: int,
        occ_lo: int,
        occ_hi: int,
        n_elts: int,
        out: np.ndarray | None = None,
        table: np.ndarray | None = None,
        pool=None,
    ) -> np.ndarray:
        """Counter-addressed multipliers for global occurrences [lo, hi).

        Returns an ``(n_elts, occ_hi - occ_lo)`` block whose column for
        global occurrence ``g`` depends only on ``(stream_key, g, row)``
        — never on where a batch, occurrence chunk or worker boundary
        falls.  Uniform draws come from one Philox counter-based stream
        per :data:`SECONDARY_TILE`-wide tile of the occurrence index
        space; partial tiles at span edges are regenerated in full and
        sliced, which is what buys the invariance (callers that can
        should align their chunk boundaries to tiles — the fused kernel
        does — so full regeneration happens at most once per tile).

        ``out`` (pooled scratch in the kernels) avoids allocating the
        result; ``pool`` (a
        :class:`~repro.utils.bufpool.ScratchBufferPool`) additionally
        makes the per-tile uniform and index workspaces allocation-free
        after warm-up.
        """
        if occ_hi < occ_lo:
            raise ValueError(f"invalid span [{occ_lo}, {occ_hi})")
        width = occ_hi - occ_lo
        if out is None:
            out = np.empty((n_elts, width), dtype=np.float64)
        elif out.shape != (n_elts, width):
            raise ValueError(f"out shape {out.shape} != ({n_elts}, {width})")
        if table is None:
            table = self.quantile_table(dtype=out.dtype)
        if width == 0 or n_elts == 0:
            return out
        bins = table.shape[0]
        if pool is None:
            uniforms = np.empty((n_elts, SECONDARY_TILE), dtype=np.float64)
            idx = np.empty((n_elts, SECONDARY_TILE), dtype=np.intp)
        else:
            uniforms = pool.take((n_elts, SECONDARY_TILE), np.float64)
            idx = pool.take((n_elts, SECONDARY_TILE), np.intp)
        try:
            first_tile = occ_lo // SECONDARY_TILE
            last_tile = (occ_hi - 1) // SECONDARY_TILE
            for tile_id in range(first_tile, last_tile + 1):
                t0 = tile_id * SECONDARY_TILE
                rng = np.random.Generator(
                    np.random.Philox(key=stable_hash_seed(stream_key, tile_id))
                )
                rng.random(out=uniforms)
                lo = max(occ_lo, t0) - t0
                hi = min(occ_hi, t0 + SECONDARY_TILE) - t0
                u = uniforms[:, lo:hi]
                np.multiply(u, bins, out=u)
                # Truncating cast into the reusable index workspace; a
                # uniform within one ulp of 1.0 can scale to exactly
                # `bins`, which mode="clip" maps to the last bin.
                target = idx[:, : hi - lo]
                target[...] = u
                np.take(
                    table,
                    target,
                    out=out[:, t0 + lo - occ_lo : t0 + hi - occ_lo],
                    mode="clip",
                )
        finally:
            if pool is not None:
                pool.give(idx)
                pool.give(uniforms)
        return out


@lru_cache(maxsize=64)
def _quantile_table(
    alpha: float, beta: float, bins: int, dtype_str: str
) -> np.ndarray:
    """Build (and cache) the rescaled-Beta quantile table.

    Bin values are means of a sorted oversampled Beta draw (empirical
    equiprobable-bin means, ``_QUANTILE_OVERSAMPLE`` draws per bin) from
    a fixed seed, rescaled to the mean-1 multiplier and renormalised so
    ``table.mean() == 1.0`` exactly (up to one float rounding).
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    rng = default_rng(stable_hash_seed("secondary-quantile-table", bins))
    raw = np.sort(rng.beta(alpha, beta, size=bins * _QUANTILE_OVERSAMPLE))
    table = raw.reshape(bins, _QUANTILE_OVERSAMPLE).mean(axis=1)
    table /= table.mean()
    table = table.astype(dtype_str)
    table.flags.writeable = False
    return table


def resolve_secondary_seed(seed: SeedLike) -> int:
    """Normalise a seed-like input to one integer base key.

    Engines resolve the user's ``secondary_seed`` once per run and derive
    every per-(layer, tile) Philox key from the result with
    :func:`~repro.utils.rng.stable_hash_seed`, so all workers of a
    decomposed run share one base stream family.  ``None`` draws a fresh
    random key (a non-reproducible run, like ``default_rng(None)``).
    """
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return int(seed)
    return int(default_rng(seed).integers(0, 2**63 - 1))


def layer_stream_key(base_seed: int, layer_id: int) -> int:
    """Per-layer stream key: layers draw independent multiplier streams."""
    return stable_hash_seed(base_seed, "secondary-layer", int(layer_id))
