"""Concurrent QuoteService: exactness, caching, batching, async quoting."""

import numpy as np
import pytest

from repro.core.analysis import AggregateRiskAnalysis
from repro.core.secondary import SecondaryUncertainty
from repro.data.generator import generate_catalog, generate_elt, generate_yet
from repro.data.layer import Layer, LayerTerms, Portfolio
from repro.metrics.tvar import tail_value_at_risk
from repro.pricing import (
    PricingAssumptions,
    QuoteRequest,
    QuoteService,
    price_layer,
)

SU = SecondaryUncertainty(4.0, 4.0)


@pytest.fixture(scope="module")
def session_data():
    catalog = generate_catalog(n_events=5_000, total_annual_rate=40.0)
    yet = generate_yet(catalog, n_trials=600, events_per_trial=25, seed=11)
    elts = [
        generate_elt(catalog, elt_id=i, n_losses=300, seed=50 + i)
        for i in range(6)
    ]
    return catalog, yet, elts


def single_layer_run(yet, elts, elt_ids, terms, catalog_size, **opts):
    p = Portfolio()
    for elt in elts:
        if elt.elt_id in elt_ids:
            p.add_elt(elt)
    p.add_layer(Layer(layer_id=9999, elt_ids=tuple(elt_ids), terms=terms))
    ara = AggregateRiskAnalysis(p, catalog_size, **opts)
    return ara.run(yet, engine="sequential").ylt.layer_losses(9999)


class TestExactness:
    def test_bitwise_equal_to_sequential_engine(self, session_data):
        catalog, yet, elts = session_data
        terms = LayerTerms(occ_retention=100.0, occ_limit=5_000.0)
        with QuoteService(yet, elts, catalog.n_events, max_workers=3) as svc:
            losses = svc.candidate_losses((0, 1, 2), terms)
        expected = single_layer_run(
            yet, elts, (0, 1, 2), terms, catalog.n_events
        )
        np.testing.assert_array_equal(losses, expected)

    def test_worker_count_invariance(self, session_data):
        catalog, yet, elts = session_data
        terms = LayerTerms(occ_limit=2_000.0, agg_limit=30_000.0)
        results = []
        for workers in (1, 4):
            with QuoteService(
                yet, elts, catalog.n_events, max_workers=workers
            ) as svc:
                results.append(svc.candidate_losses((1, 2, 3), terms))
        np.testing.assert_array_equal(results[0], results[1])

    def test_secondary_seeded_matches_engine(self, session_data):
        catalog, yet, elts = session_data
        terms = LayerTerms(occ_retention=50.0)
        with QuoteService(
            yet,
            elts,
            catalog.n_events,
            max_workers=2,
            secondary=SU,
            secondary_seed=99,
        ) as svc:
            losses = svc.candidate_losses((0, 3), terms, layer_id=9999)
        expected = single_layer_run(
            yet,
            elts,
            (0, 3),
            terms,
            catalog.n_events,
            secondary=SU,
            secondary_seed=99,
        )
        np.testing.assert_array_equal(losses, expected)


class TestCaching:
    def test_cache_hit_parity(self, session_data):
        """Hit vs miss must be invisible in the numbers: a re-quote of
        the same structure returns identical values, served from cache."""
        catalog, yet, elts = session_data
        # Finite occ_limit: keeps rate_on_line non-NaN so the frozen
        # dataclass equality below is meaningful.
        terms = LayerTerms(
            occ_retention=25.0, occ_limit=8_000.0, agg_limit=50_000.0
        )
        with QuoteService(yet, elts, catalog.n_events, max_workers=2) as svc:
            first = svc.quote(elt_ids=(0, 1), terms=terms)
            second = svc.quote(elt_ids=(0, 1), terms=terms)
            stats = svc.cache_stats()
        assert first.meta["cached"] is False
        assert second.meta["cached"] is True
        assert first.quote == second.quote  # frozen dataclass equality
        assert stats["losses"]["misses"] == 1
        assert stats["losses"]["hits"] >= 1

    def test_shared_elt_set_builds_base_once(self, session_data):
        catalog, yet, elts = session_data
        with QuoteService(yet, elts, catalog.n_events, max_workers=2) as svc:
            for k in range(5):
                svc.quote(
                    elt_ids=(2, 3, 4),
                    terms=LayerTerms(occ_retention=10.0 * k),
                )
            stats = svc.cache_stats()
        assert stats["base"]["misses"] == 1
        assert stats["base"]["hits"] == 4

    def test_distinct_elt_sets_distinct_bases(self, session_data):
        catalog, yet, elts = session_data
        with QuoteService(yet, elts, catalog.n_events, max_workers=2) as svc:
            svc.quote(elt_ids=(0, 1), terms=LayerTerms())
            svc.quote(elt_ids=(0, 2), terms=LayerTerms())
            stats = svc.cache_stats()
        assert stats["base"]["misses"] == 2

    def test_marginal_requote_reuses_book_segments(self, session_data):
        """Quoting against a book whose layer shares the candidate's ELT
        set must reuse the book's already-computed base vector."""
        catalog, yet, elts = session_data
        book = Portfolio()
        for elt in elts[:3]:
            book.add_elt(elt)
        book.add_layer(
            Layer(
                layer_id=0,
                elt_ids=(0, 1, 2),
                terms=LayerTerms(occ_retention=200.0),
            )
        )
        with QuoteService(
            yet, elts, catalog.n_events, book=book, max_workers=2
        ) as svc:
            record = svc.quote(
                elt_ids=(0, 1, 2), terms=LayerTerms(occ_limit=4_000.0)
            )
            stats = svc.cache_stats()
        assert record.marginal_tvar is not None
        # One base covers the candidate *and* every book layer.
        assert stats["base"]["misses"] == 1


class TestBatchAndAsync:
    def test_quote_many_order_and_labels(self, session_data):
        catalog, yet, elts = session_data
        requests = [
            QuoteRequest(
                elt_ids=(0, 1, 2),
                terms=LayerTerms(occ_retention=20.0 * k),
                label=f"cand-{k}",
            )
            for k in range(6)
        ]
        with QuoteService(yet, elts, catalog.n_events, max_workers=4) as svc:
            records = svc.quote_many(requests)
        assert [r.meta["label"] for r in records] == [
            f"cand-{k}" for k in range(6)
        ]
        assert len(svc.history) == 6

    def test_quote_many_matches_individual_quotes(self, session_data):
        catalog, yet, elts = session_data
        candidates = [
            ((1, 2), LayerTerms(occ_retention=5.0 * k, occ_limit=3_000.0))
            for k in range(4)
        ]
        with QuoteService(yet, elts, catalog.n_events, max_workers=4) as svc:
            batch = svc.quote_many(candidates)
        for record, (elt_ids, terms) in zip(batch, candidates):
            losses = single_layer_run(
                yet, elts, elt_ids, terms, catalog.n_events
            )
            solo = price_layer(
                Layer(layer_id=9999, elt_ids=elt_ids, terms=terms),
                losses,
                PricingAssumptions(),
            )
            assert record.quote.premium == solo.premium
            assert record.quote.expected_loss == solo.expected_loss

    def test_quote_async_returns_future(self, session_data):
        catalog, yet, elts = session_data
        with QuoteService(yet, elts, catalog.n_events, max_workers=2) as svc:
            future = svc.quote_async(elt_ids=(4, 5), terms=LayerTerms())
            record = future.result(timeout=30)
        assert record.quote.expected_loss >= 0.0
        assert record.engine == "quote-service"

    def test_concurrent_identical_quotes_dedupe_inflight(self, session_data):
        catalog, yet, elts = session_data
        terms = LayerTerms(occ_limit=10_000.0)
        with QuoteService(yet, elts, catalog.n_events, max_workers=4) as svc:
            futures = [
                svc.quote_async(elt_ids=(0, 1, 2, 3), terms=terms)
                for _ in range(8)
            ]
            records = [f.result(timeout=30) for f in futures]
            stats = svc.cache_stats()
        premiums = {r.quote.premium for r in records}
        assert len(premiums) == 1
        assert stats["base"]["misses"] == 1


class TestValidation:
    def test_unknown_elt_rejected(self, session_data):
        catalog, yet, elts = session_data
        with QuoteService(yet, elts, catalog.n_events) as svc:
            with pytest.raises(KeyError):
                svc.quote(elt_ids=(999,), terms=LayerTerms())

    def test_duplicate_pool_rejected(self, session_data):
        catalog, yet, elts = session_data
        with pytest.raises(ValueError):
            QuoteService(yet, [elts[0], elts[0]], catalog.n_events)

    def test_zero_workers_rejected(self, session_data):
        catalog, yet, elts = session_data
        with pytest.raises(ValueError, match="max_workers"):
            QuoteService(yet, elts, catalog.n_events, max_workers=0)

    def test_marginal_matches_engine_runs(self, session_data):
        catalog, yet, elts = session_data
        book = Portfolio()
        for elt in elts[:2]:
            book.add_elt(elt)
        book.add_layer(Layer(layer_id=0, elt_ids=(0, 1)))
        terms = LayerTerms(occ_retention=10.0)
        with QuoteService(
            yet, elts, catalog.n_events, book=book, max_workers=2
        ) as svc:
            service_record = svc.quote(elt_ids=(2, 3), terms=terms)
        confidence = PricingAssumptions().capital_confidence
        book_losses = (
            AggregateRiskAnalysis(book, catalog.n_events)
            .run(yet, engine="sequential")
            .ylt.portfolio_losses()
        )
        candidate = single_layer_run(yet, elts, (2, 3), terms, catalog.n_events)
        expected = tail_value_at_risk(
            candidate + book_losses, confidence
        ) - tail_value_at_risk(book_losses, confidence)
        assert service_record.marginal_tvar == pytest.approx(
            expected, rel=1e-12
        )


class TestPersistentStore:
    """The store-backed service: restart survival, sharing, bounds."""

    def test_base_vectors_survive_restart(self, session_data, tmp_path):
        from repro.store import SharedFileStore

        catalog, yet, elts = session_data
        terms = LayerTerms(occ_retention=25.0, occ_limit=8_000.0)
        with QuoteService(
            yet, elts, catalog.n_events, max_workers=2,
            store=SharedFileStore(tmp_path),
        ) as svc:
            first = svc.candidate_losses((0, 1, 2), terms)
        # A fresh service + fresh store object over the same directory
        # is a restarted worker: the base pass and the finished losses
        # must come back from disk, bit-for-bit.
        with QuoteService(
            yet, elts, catalog.n_events, max_workers=2,
            store=SharedFileStore(tmp_path),
        ) as svc:
            second = svc.candidate_losses((0, 1, 2), terms)
            stats = svc.cache_stats()
        np.testing.assert_array_equal(np.asarray(first), np.asarray(second))
        assert np.asarray(first).tobytes() == np.asarray(second).tobytes()
        assert stats["losses"]["store_hits"] == 1
        # the loss vector hit means the base pass never even ran
        assert stats["base"]["misses"] == 0

    def test_beta_shapes_never_share_stored_losses(self, session_data):
        """A service on a store warmed under another Beta shape (same
        seed, same layer) computes its own losses."""
        from repro.store import MemoryStore

        catalog, yet, elts = session_data
        terms = LayerTerms(occ_retention=100.0)
        store = MemoryStore()
        quoted = {}
        for shape in (4.0, 2.0):
            with QuoteService(
                yet, elts, catalog.n_events, max_workers=2, store=store,
                secondary=SecondaryUncertainty(shape, shape),
                secondary_seed=7,
            ) as svc:
                quoted[shape] = svc.candidate_losses((0, 1, 2), terms)
        expected = single_layer_run(
            yet, elts, (0, 1, 2), terms, catalog.n_events,
            secondary=SecondaryUncertainty(2.0, 2.0), secondary_seed=7,
        )
        np.testing.assert_array_equal(quoted[2.0], expected)
        assert not np.array_equal(quoted[2.0], quoted[4.0])

    def test_store_backed_quotes_match_storeless(self, session_data, tmp_path):
        from repro.store import SharedFileStore

        catalog, yet, elts = session_data
        terms = LayerTerms(occ_retention=100.0, occ_limit=5_000.0)
        with QuoteService(yet, elts, catalog.n_events, max_workers=2) as svc:
            plain = svc.candidate_losses((1, 2), terms)
        store = SharedFileStore(tmp_path)
        for _ in range(2):  # cold write-through, then store replay
            with QuoteService(
                yet, elts, catalog.n_events, max_workers=2, store=store
            ) as svc:
                stored = svc.candidate_losses((1, 2), terms)
            np.testing.assert_array_equal(np.asarray(plain), np.asarray(stored))

    def test_bounded_caches_evict_and_recover(self, session_data, tmp_path):
        """Satellite guard: the LRU is hard-bounded under many-candidate
        quoting — evictions are counted, and with a backing store an
        evicted segment is re-read, not recomputed."""
        from repro.store import SharedFileStore

        catalog, yet, elts = session_data
        store = SharedFileStore(tmp_path)
        with QuoteService(
            yet, elts, catalog.n_events, max_workers=2,
            cache_size=2, store=store,
        ) as svc:
            # 12 distinct candidates > 4 * cache_size loss slots
            for k in range(12):
                svc.quote(elt_ids=(0, 1), terms=LayerTerms(occ_retention=5.0 * k))
            stats = svc.cache_stats()
        assert stats["losses"]["size"] <= 8
        assert stats["losses"]["evictions"] >= 4
        assert stats["losses"]["store_puts"] == 12
        # re-quote an evicted candidate through a fresh bounded service:
        # served from the store with zero base computation
        with QuoteService(
            yet, elts, catalog.n_events, max_workers=2,
            cache_size=2, store=SharedFileStore(tmp_path),
        ) as svc:
            svc.quote(elt_ids=(0, 1), terms=LayerTerms(occ_retention=0.0))
            stats = svc.cache_stats()
        assert stats["losses"]["store_hits"] == 1
        assert stats["base"]["misses"] == 0


class TestOverloadEdges:
    """Satellite guards: the pool under more work than workers, queued
    cancellation, and exception propagation without pool poisoning."""

    def test_quote_many_with_more_batches_than_workers(self, session_data):
        catalog, yet, elts = session_data
        requests = [
            QuoteRequest(
                elt_ids=(0, 1),
                terms=LayerTerms(occ_retention=7.0 * k, occ_limit=4_000.0),
                label=f"wave-{k}",
            )
            for k in range(12)
        ]
        with QuoteService(yet, elts, catalog.n_events, max_workers=2) as svc:
            records = svc.quote_many(requests)
        assert [r.meta["label"] for r in records] == [
            f"wave-{k}" for k in range(12)
        ]
        # every record completed with a real quote despite 6x oversubmit
        assert all(r.quote.expected_loss >= 0.0 for r in records)
        assert len(svc.history) == 12

    def test_cancel_queued_futures_pool_stays_healthy(
        self, session_data, tmp_path
    ):
        from repro.faults import (
            FaultPlan,
            FaultSpec,
            FaultyStore,
            KIND_LATENCY,
            OP_PUT,
        )
        from repro.store import SharedFileStore

        catalog, yet, elts = session_data
        # 200 ms injected on every store put keeps the single worker
        # busy on the head-of-line quote while we cancel the queue.
        slow = FaultyStore(
            SharedFileStore(tmp_path),
            FaultPlan(
                seed=7,
                specs=[
                    FaultSpec(
                        kind=KIND_LATENCY,
                        op=OP_PUT,
                        every=1,
                        latency_seconds=0.2,
                    )
                ],
            ),
        )
        with QuoteService(
            yet, elts, catalog.n_events, max_workers=1, store=slow
        ) as svc:
            head = svc.quote_async(
                elt_ids=(0, 1), terms=LayerTerms(occ_retention=1.0)
            )
            queued = [
                svc.quote_async(
                    elt_ids=(2, 3), terms=LayerTerms(occ_retention=2.0 * k)
                )
                for k in range(1, 5)
            ]
            cancelled = [f.cancel() for f in queued]
            assert all(cancelled)
            assert all(f.cancelled() for f in queued)
            # the in-flight head is past cancellation and completes
            assert head.result(timeout=30).quote.expected_loss >= 0.0
            # the pool is not poisoned: fresh work still runs
            fresh = svc.quote(elt_ids=(4, 5), terms=LayerTerms())
        assert fresh.quote.expected_loss >= 0.0

    def test_quote_many_exception_propagates_without_poisoning_pool(
        self, session_data
    ):
        catalog, yet, elts = session_data
        bad = [
            QuoteRequest(elt_ids=(0, 1), terms=LayerTerms(), label="ok"),
            QuoteRequest(elt_ids=(999,), terms=LayerTerms(), label="bad"),
        ]
        with QuoteService(yet, elts, catalog.n_events, max_workers=2) as svc:
            with pytest.raises(KeyError):
                svc.quote_many(bad)
            # the raising worker did not take the pool down with it
            after = svc.quote_many(
                [
                    QuoteRequest(
                        elt_ids=(0, 1, 2),
                        terms=LayerTerms(occ_limit=8_000.0),
                        label=f"after-{k}",
                    )
                    for k in range(4)
                ]
            )
        assert [r.meta["label"] for r in after] == [
            f"after-{k}" for k in range(4)
        ]
        assert all(r.quote.premium >= 0.0 for r in after)
