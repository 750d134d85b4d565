"""Tests for layer pricing and the real-time quote session."""

import numpy as np
import pytest

from repro.data.elt import EventLossTable
from repro.data.layer import Layer, LayerTerms, Portfolio
from repro.data.yet import YearEventTable
from repro.pricing.pricer import LayerQuote, PricingAssumptions, price_layer
from repro.pricing.realtime import QuoteService


def make_layer(occ_limit=100.0):
    return Layer(
        layer_id=1, elt_ids=(0,), terms=LayerTerms(occ_limit=occ_limit)
    )


class TestPricingAssumptions:
    def test_defaults_valid(self):
        PricingAssumptions()

    def test_invalid_expense_ratio(self):
        with pytest.raises(ValueError):
            PricingAssumptions(expense_ratio=1.0)

    def test_negative_loading_rejected(self):
        with pytest.raises(ValueError):
            PricingAssumptions(volatility_loading=-0.1)


class TestPriceLayer:
    def test_zero_losses_zero_premium_components(self):
        quote = price_layer(
            make_layer(),
            np.zeros(100),
            PricingAssumptions(expense_ratio=0.0),
        )
        assert quote.expected_loss == 0.0
        assert quote.premium == 0.0

    def test_constant_losses_pure_premium(self):
        # No volatility, no tail beyond mean → premium = E[loss] grossed up.
        quote = price_layer(
            make_layer(),
            np.full(100, 10.0),
            PricingAssumptions(expense_ratio=0.2),
        )
        assert quote.expected_loss == pytest.approx(10.0)
        assert quote.loss_std == 0.0
        assert quote.tail_capital == 0.0
        assert quote.premium == pytest.approx(10.0 / 0.8)

    def test_premium_at_least_technical(self):
        rng = np.random.default_rng(0)
        quote = price_layer(make_layer(), rng.lognormal(2, 1, 500))
        assert quote.premium >= quote.technical_premium

    def test_premium_exceeds_expected_loss(self):
        rng = np.random.default_rng(1)
        quote = price_layer(make_layer(), rng.lognormal(2, 1, 500))
        assert quote.premium > quote.expected_loss
        assert 0 < quote.loss_ratio < 1

    def test_rate_on_line(self):
        quote = price_layer(
            make_layer(occ_limit=1000.0),
            np.full(10, 100.0),
            PricingAssumptions(expense_ratio=0.0),
        )
        assert quote.rate_on_line == pytest.approx(0.1)

    def test_rate_on_line_nan_for_unlimited(self):
        quote = price_layer(
            Layer(layer_id=0, elt_ids=(0,)),  # unlimited occurrence
            np.full(10, 1.0),
        )
        assert np.isnan(quote.rate_on_line)

    def test_volatility_loading_increases_premium(self):
        rng = np.random.default_rng(2)
        losses = rng.lognormal(2, 1.5, 400)
        low = price_layer(
            make_layer(), losses, PricingAssumptions(volatility_loading=0.0)
        )
        high = price_layer(
            make_layer(), losses, PricingAssumptions(volatility_loading=0.5)
        )
        assert high.premium > low.premium

    def test_empty_losses_rejected(self):
        with pytest.raises(ValueError):
            price_layer(make_layer(), np.empty(0))


class TestQuoteSession:
    @pytest.fixture()
    def session(self):
        elts = [
            EventLossTable.from_dict(
                i, {j: 100.0 * (j + i) for j in range(1, 40)}
            )
            for i in range(4)
        ]
        yet = YearEventTable.from_trials(
            [
                [(int(e), float(t) / 10) for t, e in enumerate(
                    range(1 + (k % 5), 30, 3)
                )]
                for k in range(40)
            ]
        )
        book = Portfolio()
        book.add_elt(elts[0])
        book.add_layer(Layer(layer_id=0, elt_ids=(0,)))
        with QuoteService(
            yet=yet, elts=elts, catalog_size=100, book=book, max_workers=1
        ) as service:
            yield service

    def test_quote_produces_record(self, session):
        record = session.quote(
            elt_ids=(1, 2), terms=LayerTerms(occ_limit=5000.0)
        )
        assert isinstance(record.quote, LayerQuote)
        assert record.analysis_seconds > 0
        assert record.engine == "quote-service"
        assert len(session.history) == 1

    def test_marginal_tvar_computed_with_book(self, session):
        record = session.quote(elt_ids=(1,), terms=LayerTerms())
        assert record.marginal_tvar is not None
        # Adding a non-negative-loss layer cannot reduce the book's tail.
        assert record.marginal_tvar >= -1e-9

    def test_unknown_elt_rejected(self, session):
        with pytest.raises(KeyError):
            session.quote(elt_ids=(99,), terms=LayerTerms())

    def test_mean_quote_seconds(self, session):
        assert session.mean_quote_seconds == 0.0
        session.quote(elt_ids=(1,), terms=LayerTerms())
        session.quote(elt_ids=(2,), terms=LayerTerms())
        assert session.mean_quote_seconds > 0

    def test_no_book_no_marginal(self):
        elts = [EventLossTable.from_dict(0, {1: 10.0})]
        yet = YearEventTable.from_trials([[(1, 0.5)]])
        with QuoteService(
            yet=yet, elts=elts, catalog_size=10, max_workers=1
        ) as service:
            record = service.quote(elt_ids=(0,), terms=LayerTerms())
        assert record.marginal_tvar is None

    def test_duplicate_elt_pool_rejected(self):
        elts = [
            EventLossTable.from_dict(0, {1: 1.0}),
            EventLossTable.from_dict(0, {2: 1.0}),
        ]
        yet = YearEventTable.from_trials([[(1, 0.5)]])
        with pytest.raises(ValueError):
            QuoteService(yet=yet, elts=elts, catalog_size=10)
