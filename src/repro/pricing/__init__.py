"""Reinsurance contract pricing on top of aggregate risk analysis.

The paper's headline use case is **real-time pricing** (its title result:
a 1M-trial analysis in under 5 seconds makes interactive quoting
feasible).  This subpackage implements the standard actuarial pricing
pipeline over YLTs — expected loss plus loadings — and the interactive
workflow: quote a candidate layer against a live portfolio by running the
analysis on demand through one :class:`QuoteService` session.
"""

from repro.pricing.pricer import LayerQuote, PricingAssumptions, price_layer
from repro.pricing.realtime import QuoteRecord, QuoteRequest, QuoteService

__all__ = [
    "LayerQuote",
    "PricingAssumptions",
    "price_layer",
    "QuoteRecord",
    "QuoteRequest",
    "QuoteService",
]
