"""Tests for per-occurrence statistics (OEP support)."""

import numpy as np
import pytest

from repro.core.occurrence import max_occurrence_losses, occurrence_frequency
from repro.data.elt import ELTFinancialTerms, EventLossTable
from repro.data.layer import Layer, LayerTerms, Portfolio
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
        from tests.conftest import run_sequential

        w = tiny_identity_workload
        occ = max_occurrence_losses(w.yet, w.portfolio, w.catalog.n_events)
        agg = run_sequential(w.yet, w.portfolio, w.catalog.n_events)
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


def scalar_occurrence_losses(yet, portfolio, layer):
    """Per-trial lists of occurrence-net losses, one event at a time."""
    from repro.core.terms import occurrence_term_scalar

    elts = portfolio.elts_of(layer)
    return [
        [
            occurrence_term_scalar(
                sum(elt.terms.apply_scalar(elt.loss_of(int(e))) for elt in elts),
                layer.terms,
            )
            for e in ids
        ]
        for ids, _times in yet.iter_trials()
    ]


def test_edge_cases_match_scalar_loop():
    """Empty trials (leading, runs, trailing, all of them), a single-ELT
    layer and threshold 0, against a scalar per-trial loop."""
    elts = [
        EventLossTable.from_dict(
            0, {1: 10.0, 2: 30.0, 4: 7.0},
            terms=ELTFinancialTerms(retention=1.0, share=0.5),
        ),
        EventLossTable.from_dict(1, {2: 4.0, 3: 5.0, 5: 60.0}),
    ]
    portfolio = Portfolio()
    for elt in elts:
        portfolio.add_elt(elt)
    portfolio.add_layer(
        Layer(layer_id=0, elt_ids=(0, 1), terms=LayerTerms(occ_limit=25.0))
    )
    portfolio.add_layer(  # single-ELT layer
        Layer(layer_id=1, elt_ids=(1,), terms=LayerTerms(occ_retention=4.5))
    )
    yets = [
        YearEventTable.from_trials(
            [
                [],
                [(1, 0.1), (2, 0.5), (9, 0.6)],
                [],
                [],
                [(3, 0.2)],
                [(5, 0.3), (4, 0.4)],
                [],
            ]
        ),
        YearEventTable.from_trials([[], [], []]),  # all empty
    ]
    for yet in yets:
        for batch_trials in (None, 2):
            table = max_occurrence_losses(
                yet, portfolio, 10, batch_trials=batch_trials
            )
            for layer in portfolio.layers:
                per_trial = scalar_occurrence_losses(yet, portfolio, layer)
                expected = [max(t) if t else 0.0 for t in per_trial]
                np.testing.assert_allclose(
                    table.layer_losses(layer.layer_id), expected, rtol=1e-12
                )
        for layer in portfolio.layers:
            per_trial = scalar_occurrence_losses(yet, portfolio, layer)
            positive = sum(loss > 0.0 for t in per_trial for loss in t)
            assert occurrence_frequency(
                yet, portfolio, 10, threshold=0.0,
                layer_id=layer.layer_id,
            ) == pytest.approx(positive / yet.n_trials)
