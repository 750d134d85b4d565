"""Synthetic workload generators.

The paper's inputs come from a proprietary catastrophe-modelling pipeline
(pre-simulated YETs and exposure-derived ELTs).  These generators build the
closest synthetic equivalents: the *sizes, sparsity and access patterns*
match the paper's stated shapes (2M-event catalogue, ~1000 events/trial,
10K–30K losses per ELT, 3–30 ELTs per layer), and the statistical texture
(multi-peril frequency mix, seasonality of occurrence times, heavy-tailed
lognormal severities) matches what catastrophe models produce.  Aggregate
risk analysis performance depends only on those shapes, and correctness is
established against the scalar reference on arbitrary inputs, so the
substitution preserves everything the experiments measure.

All functions are deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.catalog import EventCatalog, PerilRegion
from repro.data.elt import ELTFinancialTerms, EventLossTable
from repro.data.layer import Layer, LayerTerms, Portfolio
from repro.data.yet import (
    EVENT_ID_DTYPE,
    OFFSET_DTYPE,
    TIMESTAMP_DTYPE,
    YearEventTable,
)
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_positive

# Default peril mix used when a catalogue is generated without an explicit
# peril list.  Rates are per-trial-year occurrence counts and sum to ~1000,
# the paper's events-per-trial centre; severities are lognormal parameters.
_DEFAULT_PERIL_MIX: Tuple[Tuple[str, float, float, float, float], ...] = (
    # (name, share of catalogue, share of annual rate, mu, sigma)
    ("NA-hurricane", 0.25, 0.30, 16.0, 1.9),
    ("NA-earthquake", 0.20, 0.10, 16.5, 2.1),
    ("EU-windstorm", 0.20, 0.25, 15.2, 1.6),
    ("JP-typhoon", 0.15, 0.20, 15.6, 1.7),
    ("Global-flood", 0.20, 0.15, 14.8, 1.5),
)

# Seasonality: per-peril Beta(a, b) distribution of occurrence timestamps
# within the year.  Hurricanes/typhoons peak late in the year, windstorms
# early, earthquakes are uniform.
_SEASONALITY = {
    "NA-hurricane": (6.0, 3.0),
    "NA-earthquake": (1.0, 1.0),
    "EU-windstorm": (2.0, 6.0),
    "JP-typhoon": (5.0, 3.0),
    "Global-flood": (2.0, 2.0),
}


def generate_catalog(
    n_events: int,
    n_perils: int | None = None,
    total_annual_rate: float = 1000.0,
    seed: SeedLike = None,
) -> EventCatalog:
    """Generate a multi-peril event catalogue.

    Parameters
    ----------
    n_events:
        Catalogue size (the paper's experiments assume 2,000,000).
    n_perils:
        Number of peril blocks; defaults to the built-in five-peril mix
        (capped at ``n_events`` blocks of at least one event).
    total_annual_rate:
        Expected event occurrences per trial year summed over perils,
        i.e. the mean events-per-trial of a YET drawn from this catalogue.
    seed:
        Unused today (the mix is deterministic) but accepted for symmetry
        with the other generators.
    """
    check_positive("n_events", n_events)
    check_positive("total_annual_rate", total_annual_rate)
    mix = _DEFAULT_PERIL_MIX
    if n_perils is not None:
        if not 1 <= n_perils <= len(mix):
            mix = tuple(
                (f"peril-{i}", 1.0 / n_perils, 1.0 / n_perils, 15.0, 1.8)
                for i in range(n_perils)
            )
        else:
            mix = mix[:n_perils]
    # Re-normalise shares after truncation.
    size_total = sum(m[1] for m in mix)
    rate_total = sum(m[2] for m in mix)

    perils: List[PerilRegion] = []
    cursor = 1
    for i, (name, size_share, rate_share, mu, sigma) in enumerate(mix):
        if i == len(mix) - 1:
            block = n_events - cursor + 1  # absorb rounding remainder
        else:
            block = max(1, int(round(n_events * size_share / size_total)))
            block = min(block, n_events - cursor + 1 - (len(mix) - 1 - i))
        if block <= 0:
            break
        perils.append(
            PerilRegion(
                name=name,
                first_event_id=cursor,
                last_event_id=cursor + block - 1,
                annual_rate=total_annual_rate * rate_share / rate_total,
                severity_mu=mu,
                severity_sigma=sigma,
            )
        )
        cursor += block
    return EventCatalog(n_events=n_events, perils=tuple(perils))


def _sample_event_ids(
    catalog: EventCatalog, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n`` occurrence event ids following the peril rate mix."""
    if n == 0:
        return np.empty(0, dtype=EVENT_ID_DTYPE)
    if not catalog.perils:
        return rng.integers(1, catalog.n_events + 1, size=n).astype(
            EVENT_ID_DTYPE
        )
    weights = np.array([p.annual_rate for p in catalog.perils], dtype=np.float64)
    weights /= weights.sum()
    peril_idx = rng.choice(len(catalog.perils), size=n, p=weights)
    firsts = np.array([p.first_event_id for p in catalog.perils])
    sizes = np.array([p.n_events for p in catalog.perils])
    within = (rng.random(n) * sizes[peril_idx]).astype(np.int64)
    return (firsts[peril_idx] + within).astype(EVENT_ID_DTYPE)


def _sample_timestamps(
    catalog: EventCatalog, event_ids: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample within-year occurrence times with per-peril seasonality."""
    n = event_ids.size
    if n == 0:
        return np.empty(0, dtype=TIMESTAMP_DTYPE)
    if not catalog.perils:
        return rng.random(n).astype(TIMESTAMP_DTYPE)
    times = np.empty(n, dtype=np.float64)
    starts = np.array([p.first_event_id for p in catalog.perils])
    peril_idx = np.searchsorted(starts, event_ids, side="right") - 1
    for i, peril in enumerate(catalog.perils):
        mask = peril_idx == i
        count = int(mask.sum())
        if count == 0:
            continue
        a, b = _SEASONALITY.get(peril.name, (1.0, 1.0))
        times[mask] = rng.beta(a, b, size=count)
    return times.astype(TIMESTAMP_DTYPE)


def generate_yet(
    catalog: EventCatalog,
    n_trials: int,
    events_per_trial: int | None = None,
    fixed_event_count: bool = True,
    seed: SeedLike = None,
) -> YearEventTable:
    """Generate a Year Event Table from a catalogue.

    Parameters
    ----------
    catalog:
        Source event catalogue (defines id space, peril mix, seasonality).
    n_trials:
        Number of pre-simulated years (the paper uses up to 1,000,000).
    events_per_trial:
        Mean occurrences per trial.  Defaults to the catalogue's total
        annual rate.
    fixed_event_count:
        If True (the paper's benchmark shape) every trial has exactly
        ``events_per_trial`` events; otherwise counts are Poisson
        distributed around it, giving the 800–1500 ragged shape.
    seed:
        RNG seed or generator.
    """
    check_positive("n_trials", n_trials)
    rng = default_rng(seed)
    mean_events = (
        float(events_per_trial)
        if events_per_trial is not None
        else catalog.total_annual_rate
    )
    check_positive("events_per_trial", mean_events)

    if fixed_event_count:
        counts = np.full(n_trials, int(round(mean_events)), dtype=np.int64)
    else:
        counts = rng.poisson(mean_events, size=n_trials).astype(np.int64)
    total = int(counts.sum())

    offsets = np.zeros(n_trials + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=offsets[1:])

    event_ids = _sample_event_ids(catalog, total, rng)
    timestamps = _sample_timestamps(catalog, event_ids, rng)

    # Sort occurrences by timestamp *within* each trial: lexsort with the
    # trial index as primary key preserves trial blocks.
    trial_index = np.repeat(np.arange(n_trials, dtype=np.int64), counts)
    order = np.lexsort((timestamps, trial_index))
    return YearEventTable.adopt(
        event_ids=event_ids[order],
        timestamps=timestamps[order],
        offsets=offsets,
    )


def _sample_distinct_ids(
    catalog: EventCatalog, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n`` distinct event ids uniformly from the catalogue.

    Avoids materialising a permutation of the whole (possibly 2M-entry)
    id space: oversample with replacement, deduplicate, repeat until
    enough, which is O(n) for the sparse ELT densities used here.
    """
    if n > catalog.n_events:
        raise ValueError(
            f"cannot draw {n} distinct ids from a {catalog.n_events}-event "
            f"catalogue"
        )
    if n * 3 >= catalog.n_events:
        # Dense request: a permutation is affordable and exact.
        ids = rng.permutation(catalog.n_events)[:n] + 1
        return np.sort(ids).astype(EVENT_ID_DTYPE)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < n:
        need = n - chosen.size
        draw = rng.integers(1, catalog.n_events + 1, size=int(need * 1.3) + 8)
        chosen = np.unique(np.concatenate([chosen, draw]))
    # np.unique sorted them; subsample deterministically if we overshot.
    if chosen.size > n:
        keep = rng.choice(chosen.size, size=n, replace=False)
        chosen = np.sort(chosen[keep])
    return chosen.astype(EVENT_ID_DTYPE)


def _severities_for_ids(
    catalog: EventCatalog, event_ids: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw lognormal ground-up losses using each event's peril severity."""
    n = event_ids.size
    losses = np.empty(n, dtype=np.float64)
    if not catalog.perils:
        return rng.lognormal(15.0, 1.8, size=n)
    starts = np.array([p.first_event_id for p in catalog.perils])
    peril_idx = np.searchsorted(starts, event_ids, side="right") - 1
    for i, peril in enumerate(catalog.perils):
        mask = peril_idx == i
        count = int(mask.sum())
        if count:
            losses[mask] = rng.lognormal(
                peril.severity_mu, peril.severity_sigma, size=count
            )
    return losses


def generate_elt(
    catalog: EventCatalog,
    elt_id: int,
    n_losses: int,
    terms: ELTFinancialTerms | None = None,
    seed: SeedLike = None,
) -> EventLossTable:
    """Generate one Event Loss Table.

    ``n_losses`` distinct events receive a non-zero lognormal loss whose
    severity parameters come from the event's peril block — so the same
    catalogue yields correlated but distinct ELTs, like different exposure
    sets against one event universe.
    """
    check_positive("n_losses", n_losses)
    rng = default_rng(seed)
    ids = _sample_distinct_ids(catalog, n_losses, rng)
    losses = _severities_for_ids(catalog, ids, rng)
    return EventLossTable(
        elt_id=elt_id,
        event_ids=ids,
        losses=losses,
        terms=terms or ELTFinancialTerms(),
    )


def _default_elt_terms(
    rng: np.random.Generator, typical_loss: float
) -> ELTFinancialTerms:
    """Randomised but realistic per-ELT financial terms."""
    retention = float(rng.uniform(0.0, 0.10)) * typical_loss
    limit = float(rng.uniform(5.0, 50.0)) * typical_loss
    share = float(rng.uniform(0.5, 1.0))
    currency_rate = float(rng.choice([1.0, 1.0, 1.0, 0.79, 1.09, 110.0 / 100]))
    return ELTFinancialTerms(
        retention=retention, limit=limit, share=share, currency_rate=currency_rate
    )


def _default_layer_terms(
    rng: np.random.Generator, typical_loss: float
) -> LayerTerms:
    """Randomised but realistic occurrence/aggregate XL terms."""
    occ_retention = float(rng.uniform(0.5, 2.0)) * typical_loss
    occ_limit = float(rng.uniform(2.0, 10.0)) * typical_loss
    agg_retention = float(rng.uniform(0.0, 2.0)) * typical_loss
    agg_limit = float(rng.uniform(10.0, 50.0)) * typical_loss
    return LayerTerms(
        occ_retention=occ_retention,
        occ_limit=occ_limit,
        agg_retention=agg_retention,
        agg_limit=agg_limit,
    )


def generate_layer(
    layer_id: int,
    elt_ids: Sequence[int],
    typical_loss: float = 1.0e7,
    terms: LayerTerms | None = None,
    seed: SeedLike = None,
) -> Layer:
    """Generate a layer covering ``elt_ids`` with realistic XL terms."""
    rng = default_rng(seed)
    return Layer(
        layer_id=layer_id,
        elt_ids=tuple(elt_ids),
        terms=terms or _default_layer_terms(rng, typical_loss),
    )


def generate_portfolio(
    catalog: EventCatalog,
    n_layers: int,
    elts_per_layer: int,
    losses_per_elt: int,
    shared_elt_pool: bool = True,
    identity_terms: bool = False,
    typical_loss: float = 1.0e7,
    seed: SeedLike = None,
) -> Portfolio:
    """Generate a portfolio of layers over a pool of ELTs.

    Parameters
    ----------
    shared_elt_pool:
        If True, layers draw from a pool of ``n_layers * elts_per_layer /
        2`` ELTs (so ELTs are shared between layers, as in a real book);
        otherwise every layer gets its own private ELTs.
    identity_terms:
        If True all financial and layer terms are identities — useful for
        tests where the expected YLT can be computed by summing raw losses.
    """
    check_positive("n_layers", n_layers)
    check_positive("elts_per_layer", elts_per_layer)
    rng = default_rng(seed)

    if shared_elt_pool and n_layers > 1:
        pool_size = max(elts_per_layer, (n_layers * elts_per_layer) // 2)
    else:
        pool_size = n_layers * elts_per_layer

    portfolio = Portfolio()
    for elt_id in range(pool_size):
        terms = (
            ELTFinancialTerms()
            if identity_terms
            else _default_elt_terms(rng, typical_loss)
        )
        portfolio.add_elt(
            generate_elt(
                catalog,
                elt_id=elt_id,
                n_losses=losses_per_elt,
                terms=terms,
                seed=rng,
            )
        )

    all_ids = np.arange(pool_size)
    for layer_id in range(n_layers):
        if shared_elt_pool and n_layers > 1:
            chosen = rng.choice(all_ids, size=elts_per_layer, replace=False)
        else:
            chosen = all_ids[
                layer_id * elts_per_layer : (layer_id + 1) * elts_per_layer
            ]
        layer_terms = (
            LayerTerms() if identity_terms else _default_layer_terms(rng, typical_loss)
        )
        portfolio.add_layer(
            Layer(
                layer_id=layer_id,
                elt_ids=tuple(int(i) for i in np.sort(chosen)),
                terms=layer_terms,
            )
        )
    return portfolio


@dataclass
class Workload:
    """A complete generated problem instance: catalogue + YET + portfolio."""

    catalog: EventCatalog
    yet: YearEventTable
    portfolio: Portfolio
    name: str = "workload"

    @property
    def n_lookups(self) -> int:
        """Total ELT lookups Algorithm 1 performs on this workload.

        Every layer looks up every occurrence in each of its ELTs, so the
        total is ``sum over layers of (n_occurrences * n_elts)``.  The
        paper's example: 1,000 events × 1,000,000 trials × 15 ELTs =
        15 billion lookups.
        """
        return int(
            sum(
                self.yet.n_occurrences * layer.n_elts
                for layer in self.portfolio.layers
            )
        )

    def summary(self) -> str:
        return (
            f"{self.name}: {self.yet.n_trials} trials x "
            f"~{self.yet.n_occurrences // max(self.yet.n_trials, 1)} events, "
            f"{self.portfolio.n_layers} layer(s), "
            f"{self.portfolio.n_elts} ELTs, "
            f"{self.n_lookups:,} total lookups"
        )


def generate_workload(
    spec: "WorkloadSpec",  # noqa: F821 - imported at call time to avoid cycle
    seed: SeedLike = None,
) -> Workload:
    """Generate the full problem instance described by a WorkloadSpec."""
    from repro.data.presets import WorkloadSpec  # local: avoid import cycle

    if not isinstance(spec, WorkloadSpec):
        raise TypeError(f"expected WorkloadSpec, got {type(spec)!r}")
    rng = default_rng(spec.seed if seed is None else seed)
    catalog = generate_catalog(
        n_events=spec.catalog_size,
        n_perils=spec.n_perils,
        total_annual_rate=float(spec.events_per_trial),
        seed=rng,
    )
    yet = generate_yet(
        catalog,
        n_trials=spec.n_trials,
        events_per_trial=spec.events_per_trial,
        fixed_event_count=spec.fixed_event_count,
        seed=rng,
    )
    portfolio = generate_portfolio(
        catalog,
        n_layers=spec.n_layers,
        elts_per_layer=spec.elts_per_layer,
        losses_per_elt=spec.losses_per_elt,
        shared_elt_pool=spec.shared_elt_pool,
        identity_terms=spec.identity_terms,
        seed=rng,
    )
    return Workload(catalog=catalog, yet=yet, portfolio=portfolio, name=spec.name)
