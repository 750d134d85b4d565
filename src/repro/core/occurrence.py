"""Per-occurrence statistics: the OEP companion to the YLT.

The YLT answers *aggregate* questions (AEP curves, annual PML).  Per-risk
pricing and occurrence-exceedance (OEP) curves instead need the largest
single occurrence loss of each simulated year.  This module runs steps
1–3 of Algorithm 1 (lookup, financial terms, occurrence terms — stopping
before the aggregate accumulation) and reduces each trial with ``max``
instead of the cumulative clamp.

The result feeds :func:`repro.metrics.curves.oep_curve` directly.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.kernels import build_layer_tables, combined_occurrence_losses
from repro.core.terms import apply_occurrence_terms
from repro.data.layer import Layer, Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.lookup.combined import StackedDirectTable
from repro.utils.timer import ACTIVITY_FETCH, ACTIVITY_LAYER, ActivityProfile


def _occurrence_net_losses(
    event_ids: np.ndarray,
    stacked: StackedDirectTable,
    layer: Layer,
    profile: ActivityProfile,
) -> np.ndarray:
    """Steps 1–3 of Algorithm 1: one float64 net loss per occurrence."""
    combined = combined_occurrence_losses(
        event_ids, stacked, dtype=np.float64, profile=profile
    )
    with profile.track(ACTIVITY_LAYER):
        return apply_occurrence_terms(combined, layer.terms, out=combined)


def max_occurrence_losses(
    yet: YearEventTable,
    portfolio: Portfolio,
    catalog_size: int,
    batch_trials: int | None = None,
    profile: ActivityProfile | None = None,
) -> YearLossTable:
    """Largest occurrence-net event loss per (layer, trial).

    Returns a :class:`~repro.data.ylt.YearLossTable`-shaped container
    whose entries are *maximum single-occurrence* losses (net of
    financial and occurrence terms) rather than aggregate year losses —
    the input of an OEP curve.  Trials with no occurrence get 0.0.
    ``batch_trials`` bounds the working set to that many trials' CSR
    block at a time.
    """
    profile = profile if profile is not None else ActivityProfile()
    n_trials = yet.n_trials
    batch = n_trials if batch_trials is None else max(1, int(batch_trials))

    per_layer: Dict[int, np.ndarray] = {}
    for layer in portfolio.layers:
        with profile.track(ACTIVITY_FETCH):
            stacked = build_layer_tables(portfolio.elts_of(layer), catalog_size)
        out = np.zeros(n_trials, dtype=np.float64)
        for start in range(0, n_trials, batch):
            stop = min(start + batch, n_trials)
            ids, offs = yet.csr_block(start, stop)
            occ = _occurrence_net_losses(ids, stacked, layer, profile)
            with profile.track(ACTIVITY_LAYER):
                # reduceat over non-empty trials only: an empty trial's
                # start index would repeat (or equal ids.size) and make
                # reduceat return a neighbour's value instead of 0.0.
                nonempty = np.flatnonzero(np.diff(offs))
                if nonempty.size:
                    out[start + nonempty] = np.maximum.reduceat(
                        occ, offs[nonempty]
                    )
        per_layer[layer.layer_id] = out
    return YearLossTable.from_dict(per_layer)


def occurrence_frequency(
    yet: YearEventTable,
    portfolio: Portfolio,
    catalog_size: int,
    threshold: float,
    layer_id: int | None = None,
) -> float:
    """Expected occurrences per year with loss above ``threshold``.

    The per-occurrence analogue of an exceedance probability: counts all
    qualifying occurrences (not just the largest), divided by trials.
    Used for reinstatement pricing, where the number of limit-consuming
    events per year matters.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    layers = (
        portfolio.layers
        if layer_id is None
        else [portfolio.layer(layer_id)]
    )
    profile = ActivityProfile()
    total = 0.0
    for layer in layers:
        stacked = build_layer_tables(portfolio.elts_of(layer), catalog_size)
        occ = _occurrence_net_losses(yet.event_ids, stacked, layer, profile)
        total += float((occ > threshold).sum())
    return total / yet.n_trials
