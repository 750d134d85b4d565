#!/usr/bin/env python
"""Real-time pricing: one quote session, single quotes and a batch.

The paper's motivating scenario — an underwriter adjusts eXcess-of-Loss
terms and re-quotes against a million pre-simulated years in seconds.
This example opens one ``QuoteService`` session over a fixed YET/ELT
pool, quotes three candidate layer structures one at a time, shows the
marginal tail impact of adding each to an existing book — then quotes a
whole *batch* of candidate structures concurrently in the same session.
The service computes the shared gather+financial pass once per ELT set
and reuses it for every candidate's layer-terms finish.

Run:  python examples/portfolio_pricing.py
"""

from __future__ import annotations

import time

import repro
from repro.data.generator import generate_catalog, generate_elt, generate_yet
from repro.pricing import PricingAssumptions, QuoteRequest, QuoteService


def main() -> None:
    # A shared event universe and trial database for the whole session.
    catalog = generate_catalog(n_events=100_000, total_annual_rate=80.0)
    yet = generate_yet(catalog, n_trials=25_000, events_per_trial=80, seed=7)
    elts = [
        generate_elt(catalog, elt_id=i, n_losses=1_500, seed=100 + i)
        for i in range(10)
    ]

    # An existing book: one layer already on risk.
    typical = float(elts[0].losses.mean())
    book = repro.Portfolio()
    for elt in elts[:4]:
        book.add_elt(elt)
    book.add_layer(
        repro.Layer(
            layer_id=0,
            elt_ids=(0, 1, 2, 3),
            terms=repro.LayerTerms(
                occ_retention=2 * typical,
                occ_limit=8 * typical,
                agg_retention=0.0,
                agg_limit=30 * typical,
            ),
        )
    )

    service = QuoteService(
        yet=yet,
        elts=elts,
        catalog_size=catalog.n_events,
        book=book,
        assumptions=PricingAssumptions(
            volatility_loading=0.25,
            capital_confidence=0.99,
            cost_of_capital=0.06,
            expense_ratio=0.10,
        ),
        max_workers=4,
    )

    # Three candidate structures over the same exposures: a working
    # layer, a mid excess layer and a high excess (cat) layer.
    candidates = [
        ("working layer", repro.LayerTerms(
            occ_retention=0.5 * typical, occ_limit=2 * typical,
            agg_retention=0.0, agg_limit=10 * typical)),
        ("mid excess", repro.LayerTerms(
            occ_retention=2 * typical, occ_limit=6 * typical,
            agg_retention=0.0, agg_limit=18 * typical)),
        ("high excess", repro.LayerTerms(
            occ_retention=8 * typical, occ_limit=20 * typical,
            agg_retention=0.0, agg_limit=40 * typical)),
    ]

    print(f"{'structure':14s} {'premium':>14s} {'RoL':>8s} "
          f"{'E[loss]':>14s} {'marginal TVaR':>14s} {'quote secs':>10s}")
    for name, terms in candidates:
        record = service.quote(elt_ids=(4, 5, 6, 7, 8), terms=terms)
        q = record.quote
        print(
            f"{name:14s} {q.premium:>14,.0f} {q.rate_on_line:>8.2%} "
            f"{q.expected_loss:>14,.0f} "
            f"{record.marginal_tvar:>14,.0f} "
            f"{record.analysis_seconds:>10.2f}"
        )

    print(f"\nmean quote latency: {service.mean_quote_seconds:.2f} s over "
          f"{len(service.history)} quotes on {yet.n_trials:,} trials")
    print("(the paper's multi-GPU platform reaches 1M trials in ~4.35 s — "
          "the latency that makes this workflow real-time at market scale)")

    # ------------------------------------------------------------------
    # Batch quoting: sweep a grid of structures through the same
    # session.  All candidates share one ELT set, so the service
    # computes the expensive lookup+financial pass once and finishes
    # each candidate against the cached per-occurrence loss vector —
    # quotes are bit-for-bit identical to one-at-a-time engine runs.
    # ------------------------------------------------------------------
    requests = [
        QuoteRequest(
            elt_ids=(4, 5, 6, 7, 8),
            terms=repro.LayerTerms(
                occ_retention=r * typical,
                occ_limit=(r + 4) * typical,
                agg_retention=0.0,
                agg_limit=(3 * r + 12) * typical,
            ),
            label=f"retention {r:.1f}x",
        )
        for r in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0)
    ]
    with service:  # closes the session's worker pool afterwards
        started = time.perf_counter()
        records = service.quote_many(requests)
        batch_seconds = time.perf_counter() - started
        stats = service.cache_stats()

    print(f"\nbatch of {len(records)} structures quoted concurrently in "
          f"{batch_seconds:.2f} s "
          f"({batch_seconds / len(records):.3f} s/quote):")
    print(f"{'structure':16s} {'premium':>14s} {'RoL':>8s} "
          f"{'marginal TVaR':>14s}")
    for request, record in zip(requests, records):
        q = record.quote
        print(f"{request.label:16s} {q.premium:>14,.0f} "
              f"{q.rate_on_line:>8.2%} {record.marginal_tvar:>14,.0f}")
    print(f"base-vector cache: {stats['base']['misses']} computed "
          "(one per distinct ELT set: the candidates' and the book's), "
          f"{stats['base']['hits']} reused — a single gather+financial "
          "pass served every candidate of the session")


if __name__ == "__main__":
    main()
