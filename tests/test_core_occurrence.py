"""Tests for per-occurrence statistics (OEP support)."""

import numpy as np
import pytest

from repro.core.occurrence import max_occurrence_losses, occurrence_frequency
from repro.data.elt import EventLossTable
from repro.data.layer import LayerTerms, Portfolio
from repro.data.yet import YearEventTable
from repro.metrics.curves import oep_curve


def simple_problem():
    yet = YearEventTable.from_trials(
        [
            [(1, 0.1), (2, 0.5)],  # losses 10, 30 → max 30
            [(3, 0.2)],  # loss 5 → max 5
            [],  # empty trial → 0
        ]
    )
    portfolio = Portfolio.single_layer(
        [EventLossTable.from_dict(0, {1: 10.0, 2: 30.0, 3: 5.0})]
    )
    return yet, portfolio


class TestMaxOccurrenceLosses:
    def test_hand_computed(self):
        yet, portfolio = simple_problem()
        table = max_occurrence_losses(yet, portfolio, catalog_size=10)
        assert list(table.layer_losses(0)) == [30.0, 5.0, 0.0]

    def test_occurrence_terms_applied(self):
        yet, _ = simple_problem()
        portfolio = Portfolio.single_layer(
            [EventLossTable.from_dict(0, {1: 10.0, 2: 30.0, 3: 5.0})],
            terms=LayerTerms(occ_retention=8.0, occ_limit=15.0),
        )
        table = max_occurrence_losses(yet, portfolio, catalog_size=10)
        # Trial 0: events net to 2 and 15 (capped) → max 15.
        assert table.layer_losses(0)[0] == pytest.approx(15.0)
        # Trial 1: 5 - 8 → 0.
        assert table.layer_losses(0)[1] == 0.0

    def test_max_bounded_by_year_loss_without_agg_terms(
        self, tiny_identity_workload
    ):
        """With identity terms, max occurrence ≤ year aggregate."""
        from repro.core.kernels import run_ragged

        w = tiny_identity_workload
        occ = max_occurrence_losses(w.yet, w.portfolio, w.catalog.n_events)
        agg = run_ragged(w.yet, w.portfolio, w.catalog.n_events)
        assert np.all(occ.losses <= agg.losses + 1e-9)

    def test_batching_invariant(self, tiny_workload):
        w = tiny_workload
        full = max_occurrence_losses(w.yet, w.portfolio, w.catalog.n_events)
        batched = max_occurrence_losses(
            w.yet, w.portfolio, w.catalog.n_events, batch_trials=7
        )
        assert full.allclose(batched)

    def test_feeds_oep_curve(self, tiny_workload):
        w = tiny_workload
        table = max_occurrence_losses(w.yet, w.portfolio, w.catalog.n_events)
        curve = oep_curve(table.layer_losses(w.portfolio.layers[0].layer_id))
        assert curve.probabilities.size > 0
        assert np.all(np.diff(curve.probabilities) <= 0)


class TestOccurrenceFrequency:
    def test_hand_computed(self):
        yet, portfolio = simple_problem()
        # Occurrence losses across trials: 10, 30, 5 → two above 7.
        freq = occurrence_frequency(
            yet, portfolio, catalog_size=10, threshold=7.0
        )
        assert freq == pytest.approx(2 / 3)

    def test_zero_threshold_counts_all_loss_events(self):
        yet, portfolio = simple_problem()
        freq = occurrence_frequency(
            yet, portfolio, catalog_size=10, threshold=0.0
        )
        assert freq == pytest.approx(3 / 3)

    def test_monotone_in_threshold(self, tiny_workload):
        w = tiny_workload
        f_low = occurrence_frequency(
            w.yet, w.portfolio, w.catalog.n_events, threshold=0.0,
            layer_id=w.portfolio.layers[0].layer_id,
        )
        f_high = occurrence_frequency(
            w.yet, w.portfolio, w.catalog.n_events, threshold=1e12,
            layer_id=w.portfolio.layers[0].layer_id,
        )
        assert f_low >= f_high
        assert f_high == 0.0

    def test_negative_threshold_rejected(self):
        yet, portfolio = simple_problem()
        with pytest.raises(ValueError):
            occurrence_frequency(yet, portfolio, 10, threshold=-1.0)
