"""Scenario compilation: specs → concrete perturbed analysis inputs.

:func:`compile_scenario` turns a declarative
:class:`~repro.scenario.spec.Scenario` plus a baseline workload into the
concrete :class:`~repro.data.yet.YearEventTable` /
:class:`~repro.data.layer.Portfolio` pair its sweep executes.  The
compile step is where the delta-planning payoff is engineered:

* transforms that perturb a *trial window* rebuild only that window's
  occurrence arrays — every trial outside it keeps its exact bytes, so
  the position-free slice fingerprints of
  :meth:`~repro.data.yet.YearEventTable.slice_fingerprint` (and hence the
  content-addressed segment keys) of untouched segments equal the
  baseline's, and a re-sweep recomputes only the window;
* portfolio-side transforms (severity overlays) change layer
  fingerprints and honestly recompute the layers they touch.

Stochastic transforms draw from per-transform child streams of the
scenario seed (``SeedSequence(scenario.seed, spawn_key=(position,))``),
so the same spec + seed compiles to byte-identical inputs in any
process — the determinism every content-addressed key depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.catalog import EventCatalog, PerilRegion
from repro.data.elt import EventLossTable
from repro.data.layer import Portfolio
from repro.data.yet import OFFSET_DTYPE, YearEventTable
from repro.scenario.spec import Scenario


@dataclass
class ScenarioInputs:
    """Mutable compile state threaded through a scenario's transforms."""

    catalog: EventCatalog
    yet: YearEventTable
    portfolio: Portfolio
    touched: List[Tuple[int, int]] = field(default_factory=list)

    def mark_touched(self, start: int, stop: int) -> None:
        """Record a perturbed trial range (provenance, not correctness)."""
        self.touched.append((int(start), int(stop)))


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario's concrete inputs plus its provenance."""

    scenario: Scenario
    fingerprint: str
    catalog: EventCatalog
    yet: YearEventTable
    portfolio: Portfolio
    #: upper-bound fraction of baseline segments the spec dirties
    perturbed_fraction: float
    #: trial ranges the transforms reported perturbing (best effort)
    touched: Tuple[Tuple[int, int], ...]

    @property
    def n_trials(self) -> int:
        return self.yet.n_trials


def compile_scenario(scenario: Scenario, workload) -> CompiledScenario:
    """Apply a scenario's transforms to a baseline workload.

    ``workload`` is anything with ``catalog`` / ``yet`` / ``portfolio``
    attributes (a :class:`~repro.data.generator.Workload`).  The
    baseline objects are never mutated: transforms build new tables,
    sharing baseline array memory where a range is untouched.
    """
    state = ScenarioInputs(
        catalog=workload.catalog,
        yet=workload.yet,
        portfolio=workload.portfolio,
    )
    base_trials = workload.yet.n_trials
    for position, transform in enumerate(scenario.transforms):
        rng = np.random.default_rng(
            np.random.SeedSequence(int(scenario.seed), spawn_key=(position,))
        )
        transform.apply(state, rng)
    return CompiledScenario(
        scenario=scenario,
        fingerprint=scenario.fingerprint(),
        catalog=state.catalog,
        yet=state.yet,
        portfolio=state.portfolio,
        perturbed_fraction=scenario.perturbed_fraction(base_trials),
        touched=tuple(state.touched),
    )


# ----------------------------------------------------------------------
# Transform primitives (called by the spec classes' ``apply``)
# ----------------------------------------------------------------------
def _peril_index_of(
    catalog: EventCatalog, event_ids: np.ndarray
) -> np.ndarray:
    """Peril-block index of each event id (catalogs tile contiguously)."""
    starts = np.array([p.first_event_id for p in catalog.perils])
    return np.searchsorted(starts, event_ids, side="right") - 1


def resample_occurrences(
    yet: YearEventTable,
    catalog: EventCatalog,
    factors: Dict[str, float],
    trial_start: int,
    trial_stop: int,
    rng: np.random.Generator,
) -> YearEventTable:
    """Scale matched perils' occurrence frequency inside a trial window.

    Each occurrence of a peril with factor ``f`` is kept/replicated
    ``floor(f)`` times plus one more with probability ``frac(f)`` —
    expectation exactly ``f``, deterministic given the stream.  Replicas
    are adjacent to the original at the same timestamp (per-trial
    timestamp order stays valid).  One uniform draw is consumed per
    window occurrence regardless of its factor, so adding a family to
    the overlay never shifts another family's draws.

    Trials outside ``[trial_start, trial_stop)`` share the baseline's
    array bytes: their rebased slice fingerprints — and therefore their
    content-addressed segment keys — are unchanged.
    """
    if not 0 <= trial_start < trial_stop <= yet.n_trials:
        raise ValueError(
            f"invalid overlay window [{trial_start}, {trial_stop}) of "
            f"{yet.n_trials} trials"
        )
    if not catalog.perils:
        raise ValueError("occurrence resampling needs a peril-tagged catalog")
    lo = int(yet.offsets[trial_start])
    hi = int(yet.offsets[trial_stop])
    win_ids = yet.event_ids[lo:hi]
    win_times = yet.timestamps[lo:hi]

    per_peril = np.array(
        [float(factors.get(p.name, 1.0)) for p in catalog.perils],
        dtype=np.float64,
    )
    occ_factor = (
        per_peril[_peril_index_of(catalog, win_ids)]
        if win_ids.size
        else np.empty(0, dtype=np.float64)
    )
    base = np.floor(occ_factor)
    extra = rng.random(occ_factor.size) < (occ_factor - base)
    repeats = (base + extra).astype(np.int64)

    window_trials = trial_stop - trial_start
    trial_index = np.repeat(
        np.arange(window_trials, dtype=np.int64),
        np.diff(yet.offsets[trial_start : trial_stop + 1]),
    )
    new_counts = np.bincount(
        trial_index, weights=repeats, minlength=window_trials
    ).astype(np.int64)

    new_ids = np.repeat(win_ids, repeats)
    new_times = np.repeat(win_times, repeats)

    offsets = np.empty(yet.n_trials + 1, dtype=OFFSET_DTYPE)
    offsets[: trial_start + 1] = yet.offsets[: trial_start + 1]
    np.cumsum(new_counts, out=offsets[trial_start + 1 : trial_stop + 1])
    offsets[trial_start + 1 : trial_stop + 1] += lo
    delta = int(offsets[trial_stop]) - hi
    offsets[trial_stop + 1 :] = yet.offsets[trial_stop + 1 :] + delta

    return YearEventTable.adopt(
        event_ids=np.concatenate(
            [yet.event_ids[:lo], new_ids, yet.event_ids[hi:]]
        ),
        timestamps=np.concatenate(
            [yet.timestamps[:lo], new_times, yet.timestamps[hi:]]
        ),
        offsets=offsets,
    )


def scale_severities(
    portfolio: Portfolio,
    perils: Sequence[PerilRegion],
    factor: float,
) -> Portfolio:
    """Portfolio with matched perils' ELT losses scaled by ``factor``.

    ELTs with no matched events are shared, not copied; layers keep
    their ids/terms.  Layer fingerprints of affected layers change —
    their segments recompute, which is the honest cost of the shock.
    """
    scaled = Portfolio()
    for elt_id, elt in portfolio.elts.items():
        mask = np.zeros(elt.event_ids.shape, dtype=bool)
        for peril in perils:
            mask |= (elt.event_ids >= peril.first_event_id) & (
                elt.event_ids <= peril.last_event_id
            )
        if mask.any():
            losses = elt.losses.copy()
            losses[mask] *= factor
            elt = EventLossTable(
                elt_id=elt.elt_id,
                event_ids=elt.event_ids,
                losses=losses,
                terms=elt.terms,
            )
        scaled.add_elt(elt)
    for layer in portfolio.layers:
        scaled.add_layer(layer)
    return scaled


def tail_proxy(
    yet: YearEventTable,
    catalog: EventCatalog,
    perils: Sequence[PerilRegion],
) -> np.ndarray:
    """Cheap per-trial severity proxy: summed expected peril severity.

    The expected ground-up loss of a lognormal(mu, sigma) event is
    ``exp(mu + sigma^2 / 2)``; summing it over a trial's matched
    occurrences ranks trials by how much heavy-family activity they
    contain — no lookups, no kernel, fully deterministic.
    """
    weights = np.zeros(len(catalog.perils), dtype=np.float64)
    matched = {p.name for p in perils}
    for i, peril in enumerate(catalog.perils):
        if peril.name in matched:
            weights[i] = np.exp(
                peril.severity_mu + 0.5 * peril.severity_sigma**2
            )
    if yet.n_occurrences == 0:
        return np.zeros(yet.n_trials, dtype=np.float64)
    occ_weight = weights[_peril_index_of(catalog, yet.event_ids)]
    trial_index = np.repeat(
        np.arange(yet.n_trials, dtype=np.int64), yet.events_per_trial
    )
    return np.bincount(
        trial_index, weights=occ_weight, minlength=yet.n_trials
    )


def select_tail_trials(
    yet: YearEventTable,
    catalog: EventCatalog,
    perils: Sequence[PerilRegion],
    fraction: float,
) -> YearEventTable:
    """The proxy-worst ``fraction`` of trials, original order preserved.

    Selection is by descending :func:`tail_proxy` with stable
    tie-breaking on trial index, so the same spec always keeps the same
    trials.
    """
    if not catalog.perils:
        raise ValueError("tail seeking needs a peril-tagged catalog")
    proxy = tail_proxy(yet, catalog, perils)
    k = max(1, int(round(fraction * yet.n_trials)))
    order = np.argsort(-proxy, kind="stable")
    selected = np.sort(order[:k])

    counts = yet.events_per_trial[selected]
    starts = yet.offsets[:-1][selected]
    total = int(counts.sum())
    # Gather each kept trial's occurrence range without a Python loop:
    # repeat the range starts per count and add within-trial ranks.
    rank_base = np.concatenate(([0], np.cumsum(counts)[:-1]))
    idx = np.repeat(starts, counts) + (
        np.arange(total, dtype=np.int64) - np.repeat(rank_base, counts)
    )
    offsets = np.zeros(k + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    return YearEventTable.adopt(
        event_ids=yet.event_ids[idx],
        timestamps=yet.timestamps[idx],
        offsets=offsets,
    )
