"""Tests for the layer table (the paper's combined table) and the factory."""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.data.elt import ELTFinancialTerms, EventLossTable
from repro.lookup.combined import StackedDirectTable, checked_take
from repro.lookup.direct import DirectAccessTable
from repro.lookup.factory import (
    LOOKUP_KINDS,
    LookupCache,
    build_layer_lookups,
    build_lookup,
    memory_report,
)

CATALOG = 2_000


def make_elts(n_elts=3, n_losses=100):
    rng = np.random.default_rng(7)
    elts = []
    for elt_id in range(n_elts):
        ids = np.sort(
            rng.choice(np.arange(1, CATALOG + 1), size=n_losses, replace=False)
        )
        elts.append(
            EventLossTable(
                elt_id=elt_id,
                event_ids=ids.astype(np.int32),
                losses=rng.lognormal(8, 1, size=n_losses),
            )
        )
    return elts


class TestCombinedDirectTable:
    """The paper's combined-table row fetch: the layer table's gross rows."""

    def test_rows_match_individual_lookups(self):
        elts = make_elts()
        combined = StackedDirectTable(elts, CATALOG)
        queries = np.array([1, 5, 100, 1999])
        rows = combined.gather_gross(queries)
        assert rows.shape == (4, 3)
        for col, elt in enumerate(elts):
            expected = [elt.loss_of(int(q)) for q in queries]
            assert np.allclose(rows[:, col], expected)

    def test_lookup_elt_column(self):
        elts = make_elts()
        combined = StackedDirectTable(elts, CATALOG)
        col = combined.elt_ids.index(elts[1].elt_id)
        out = combined.gather_gross(elts[1].event_ids)[:, col]
        assert np.array_equal(out, elts[1].losses)

    def test_row_bytes(self):
        combined = StackedDirectTable(make_elts(n_elts=15), CATALOG)
        assert combined.row_nbytes == 15 * 8

    def test_memory_is_slots_times_elts(self):
        combined = StackedDirectTable(make_elts(n_elts=4), CATALOG)
        assert combined.nbytes == (CATALOG + 1) * 4 * 8

    def test_empty_elt_list_rejected(self):
        with pytest.raises(ValueError):
            StackedDirectTable([], CATALOG)

    def test_duplicate_elt_ids_rejected(self):
        elts = make_elts(n_elts=2)
        elts[1].elt_id = elts[0].elt_id
        with pytest.raises(ValueError):
            StackedDirectTable(elts, CATALOG)

    def test_2d_row_queries(self):
        combined = StackedDirectTable(make_elts(), CATALOG)
        queries = np.zeros((2, 5), dtype=np.int64)
        with pytest.raises(ValueError):
            combined.gather_gross(queries)
        with pytest.raises(ValueError):
            checked_take(combined.net_sums(np.float64), queries, None)


class TestFactory:
    @pytest.mark.parametrize("kind", LOOKUP_KINDS)
    def test_builds_each_kind(self, kind):
        elt = make_elts(n_elts=1)[0]
        lookup = build_lookup(elt, CATALOG, kind=kind)
        assert lookup.kind == kind
        assert np.allclose(lookup.lookup(elt.event_ids), elt.losses)

    def test_unknown_kind_rejected(self):
        elt = make_elts(n_elts=1)[0]
        with pytest.raises(ValueError, match="unknown lookup kind"):
            build_lookup(elt, CATALOG, kind="btree")

    def test_build_layer_lookups(self):
        elts = make_elts(n_elts=4)
        lookups = build_layer_lookups(elts, CATALOG, kind="sorted")
        assert len(lookups) == 4
        assert [lk.elt_id for lk in lookups] == [0, 1, 2, 3]

    def test_memory_report_shape(self):
        rows = memory_report(make_elts(), CATALOG)
        kinds = [row["kind"] for row in rows]
        assert kinds == list(LOOKUP_KINDS)
        assert "compressed" in kinds  # §VI future-work structure included

    def test_memory_report_stacked_row(self):
        rows = {
            r["kind"]: r
            for r in memory_report(make_elts(), CATALOG, include_stacked=True)
        }
        # The ragged default path's layer table: same bytes as the
        # per-ELT direct tables, one read per (event, ELT) query.
        assert rows["stacked"]["total_bytes"] == rows["direct"]["total_bytes"]
        assert rows["stacked"]["accesses_per_lookup"] == 1.0

    def test_memory_report_direct_uses_most_memory_fewest_accesses(self):
        # The §III trade-off, as data.
        rows = {row["kind"]: row for row in memory_report(make_elts(), CATALOG)}
        assert rows["direct"]["total_bytes"] == max(
            r["total_bytes"] for r in rows.values()
        )
        assert rows["direct"]["accesses_per_lookup"] == min(
            r["accesses_per_lookup"] for r in rows.values()
        )


ALL_TERMS = (
    ELTFinancialTerms(retention=900.0, limit=4000.0, share=0.4, currency_rate=1.3),
    ELTFinancialTerms(retention=0.0, limit=0.0, share=0.7),
    ELTFinancialTerms(retention=2500.0, share=0.55, currency_rate=0.8),
)


def net_by_direct_lookup(elts, queries, dtype):
    """Per-ELT DirectAccessTable.lookup -> terms.apply, as (n, n_elts)."""
    columns = []
    for elt in elts:
        direct = DirectAccessTable(elt, CATALOG, dtype=dtype)
        columns.append(elt.terms.apply(direct.lookup(queries)))
    return np.stack(columns, axis=1)


def sum_in_elt_order(rows, work):
    """``rows[:, 0] + rows[:, 1] + ...`` in ``work``: the net-row sum the
    plain kernel computed per occurrence before the per-event vector."""
    out = rows[:, 0].astype(work)
    for col in range(1, rows.shape[1]):
        np.add(out, rows[:, col], out=out, dtype=work)
    return out


class TestStackedDirectTable:
    def test_gather_matches_individual_lookups(self):
        elts = make_elts()
        for elt, terms in zip(elts, ALL_TERMS):
            elt.terms = terms
        stacked = StackedDirectTable(elts, CATALOG)
        queries = np.array([0, 1, 5, 100, 1999, CATALOG])
        sums = checked_take(stacked.net_sums(stacked.dtype), queries, None)
        assert sums.shape == (queries.size,)
        expected = net_by_direct_lookup(elts, queries, np.float64)
        assert np.array_equal(sums, sum_in_elt_order(expected, np.float64))

    def test_apply_terms_matches_scalar_terms(self):
        # The secondary path's terms on transposed gross rows reproduce
        # the net rows folded at build.
        elts = make_elts(n_elts=2)
        elts[0].terms = ELTFinancialTerms(retention=100.0, limit=5000.0, share=0.5)
        elts[1].terms = ELTFinancialTerms(currency_rate=1.3)
        stacked = StackedDirectTable(elts, CATALOG)
        queries = np.concatenate([[0], elts[0].event_ids[:10], elts[1].event_ids[:10]])
        block = np.ascontiguousarray(stacked.gather_gross(queries).T)
        stacked.apply_terms_inplace(block)
        expected = net_by_direct_lookup(elts, queries, np.float64)
        assert np.array_equal(block.T, expected)
        assert np.array_equal(
            sum_in_elt_order(block.T, np.float64), stacked.net_sums(stacked.dtype)[queries]
        )

    def test_gather_into_pooled_buffer(self):
        elts = make_elts()
        stacked = StackedDirectTable(elts, CATALOG, dtype=np.float32)
        out = np.empty((4, len(elts)), dtype=np.float32)
        result = stacked.gather_gross(np.array([1, 2, 3, 4]), out=out)
        assert result is out
        assert stacked.dtype == np.float32
        sums = stacked.net_sums(stacked.dtype)
        vec_out = np.empty(4, dtype=np.float32)
        assert checked_take(sums, np.array([1, 2, 3, 4]), vec_out) is vec_out
        assert sums.dtype == np.float32

    def test_rejects_2d_queries_and_bad_catalog(self):
        elts = make_elts()
        stacked = StackedDirectTable(elts, CATALOG)
        with pytest.raises(ValueError):
            stacked.gather_gross(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            StackedDirectTable(elts, catalog_size=1)
        with pytest.raises(ValueError):
            StackedDirectTable([], catalog_size=CATALOG)

    def test_out_of_range_ids_raise(self):
        stacked = StackedDirectTable(make_elts(), CATALOG)
        for bad in ([CATALOG + 1], [-1], [3, CATALOG + 7, 2]):
            with pytest.raises(IndexError):
                checked_take(stacked.net_sums(stacked.dtype), np.array(bad), None)
            with pytest.raises(IndexError):
                stacked.gather_gross(np.array(bad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("terms", ["all", "identity"])
    def test_net_rows_equal_lookup_then_terms(self, dtype, terms):
        elts = make_elts()
        if terms == "all":
            for elt, elt_terms in zip(elts, ALL_TERMS):
                elt.terms = elt_terms
        stacked = StackedDirectTable(elts, CATALOG, dtype=dtype)
        queries = np.arange(CATALOG + 1)
        rows = net_by_direct_lookup(elts, queries, dtype)
        # In the table's dtype and in each other working dtype: bit for
        # bit the ELT-order sum of the net rows (0.0 against -0.0 too).
        for work in (dtype, np.float32, np.float64):
            sums = stacked.net_sums(work)
            assert sums.dtype == np.dtype(work)
            assert sums.shape == (CATALOG + 1,)
            assert sums.tobytes() == sum_in_elt_order(rows, work).tobytes()
            assert not sums.flags.writeable

    def test_absent_events_read_exactly_zero(self):
        elts = make_elts()
        for elt, terms in zip(elts, ALL_TERMS):
            elt.terms = terms
        stacked = StackedDirectTable(elts, CATALOG)
        present = np.zeros(CATALOG + 1, dtype=bool)
        for elt in elts:
            present[elt.event_ids] = True
        absent = np.flatnonzero(~present)
        assert 0 in absent
        for block in (stacked.net_sums(stacked.dtype)[absent], stacked.gather_gross(absent)):
            assert not np.signbit(block).any()
            assert np.all(block == 0.0)

    def test_gross_twin_built_once_under_concurrent_readers(self, monkeypatch):
        import repro.lookup.combined as combined_mod

        elts = make_elts()
        stacked = StackedDirectTable(elts, CATALOG)
        builds = []
        real = combined_mod._event_major

        def slow_build(*args):
            builds.append(threading.get_ident())
            # widen the window in which other readers arrive
            threading.Event().wait(0.05)
            return real(*args)

        monkeypatch.setattr(combined_mod, "_event_major", slow_build)
        queries = np.arange(CATALOG + 1)
        start = threading.Barrier(8)
        results = [None] * 8

        def reader(i):
            start.wait()
            results[i] = stacked.gather_gross(queries)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(builds) == 1
        raw = np.zeros((CATALOG + 1, len(elts)))
        for col, elt in enumerate(elts):
            raw[elt.event_ids, col] = elt.losses
        for rows in results:
            assert np.array_equal(rows, raw)

    def test_plain_gather_builds_no_gross_twin(self):
        stacked = StackedDirectTable(make_elts(), CATALOG)
        assert stacked.has_net_sums(np.float64)
        assert not stacked.has_net_sums(np.float32)
        stacked.net_sums(np.float32)
        assert stacked.has_net_sums(np.float32)
        assert stacked._gross is None

    def test_net_sums_built_once_per_dtype_under_concurrent_readers(
        self, monkeypatch
    ):
        stacked = StackedDirectTable(make_elts(), CATALOG)
        builds = []
        real = stacked._build_net_sums

        def slow_build(work):
            builds.append(work)
            threading.Event().wait(0.05)
            return real(work)

        monkeypatch.setattr(stacked, "_build_net_sums", slow_build)
        start = threading.Barrier(8)
        results = [None] * 8

        def reader(i):
            start.wait()
            results[i] = stacked.net_sums(np.float32)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert builds == [np.dtype(np.float32)]
        assert all(r is results[0] for r in results)

    def test_duplicate_ids_keep_the_last_loss(self):
        # The constructor rejects them; a reassigned array is not checked.
        elts = make_elts(n_elts=2)
        elts[1].event_ids = np.array([3, 5, 5, 9], dtype=np.int32)
        elts[1].losses = np.array([10.0, 20.0, 30.0, 40.0])
        stacked = StackedDirectTable(elts, CATALOG)
        expected = np.zeros(CATALOG + 1)
        expected[elts[0].event_ids] = elts[0].losses
        expected[[3, 5, 9]] += [10.0, 30.0, 40.0]
        assert np.array_equal(stacked.net_sums(stacked.dtype), expected)
        assert stacked.gather_gross(np.array([5]))[0, 1] == 30.0

    def test_matrix_is_never_materialised(self):
        stacked = StackedDirectTable(make_elts(n_elts=4), CATALOG)
        assert stacked.shape == (CATALOG + 1, 4)
        assert stacked.nbytes == (CATALOG + 1) * 4 * 8
        arrays = [v for v in vars(stacked).values() if isinstance(v, np.ndarray)]
        assert all(a.ndim < 2 or a.shape[0] < CATALOG for a in arrays)

    def test_cached_table_evicted_when_workload_dropped(self):
        cache = LookupCache()
        elts = make_elts()
        table = cache.stacked_table(elts, CATALOG)
        table.gather_gross(np.arange(10))  # the lazy twin holds no ELT
        table_ref = weakref.ref(table)
        del table, elts
        gc.collect()
        assert len(cache) == 0
        assert table_ref() is None


class TestLookupCache:
    def test_hit_returns_same_objects(self):
        from repro.lookup.factory import LookupCache

        cache = LookupCache()
        elts = make_elts()
        first = cache.stacked_table(elts, CATALOG)
        second = cache.stacked_table(elts, CATALOG)
        assert first is second
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_distinct_dtype_catalog_miss(self):
        from repro.lookup.factory import LookupCache

        cache = LookupCache()
        elts = make_elts()
        cache.stacked_table(elts, CATALOG)
        cache.stacked_table(elts, CATALOG, dtype=np.float32)
        cache.stacked_table(elts, CATALOG + 1)
        assert cache.misses == 3 and cache.hits == 0
        # A subset of the same ELTs is a different layer table.
        cache.stacked_table(elts[:1], CATALOG)
        assert cache.misses == 4 and cache.hits == 0

    def test_terms_reassignment_misses(self):
        from repro.data.elt import ELTFinancialTerms
        from repro.lookup.factory import LookupCache

        cache = LookupCache()
        elts = make_elts()
        first = cache.stacked_table(elts, CATALOG)
        elts[0].terms = ELTFinancialTerms(retention=42.0)
        second = cache.stacked_table(elts, CATALOG)
        assert second is not first
        assert second.terms[0].retention == 42.0

    def test_losses_reassignment_misses(self):
        from repro.lookup.factory import LookupCache

        cache = LookupCache()
        elts = make_elts()
        first = cache.stacked_table(elts, CATALOG)
        elts[0].losses = elts[0].losses * 2.0
        second = cache.stacked_table(elts, CATALOG)
        assert second is not first
        assert np.allclose(
            second.gather_gross(elts[0].event_ids)[:, 0], elts[0].losses
        )

    def test_entries_evicted_when_elts_die(self):
        import gc

        from repro.lookup.factory import LookupCache

        cache = LookupCache()
        elts = make_elts()
        cache.stacked_table(elts, CATALOG)
        assert len(cache) == 1
        del elts
        gc.collect()
        assert len(cache) == 0  # weakref callbacks evicted the entry

    def test_lru_bounded(self):
        from repro.lookup.factory import LookupCache

        cache = LookupCache(maxsize=2)
        keep = [make_elts(n_elts=1) for _ in range(4)]
        for elts in keep:
            cache.stacked_table(elts, CATALOG)
        assert len(cache) == 2

    def test_stacked_table_cached(self):
        from repro.core.kernels import build_layer_tables
        from repro.lookup.factory import LookupCache

        # The kernel's table builds go through the given cache.
        cache = LookupCache()
        elts = make_elts()
        a = build_layer_tables(elts, CATALOG, cache=cache)
        b = cache.stacked_table(elts, CATALOG)
        assert a is b
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_lru_eviction_killing_an_elt_does_not_deadlock(self):
        # Entry A's value holds the only reference to ELT ``e``; entry B
        # is keyed on ``e``.  A third insert pushes A out of the LRU,
        # ``e`` dies, and B's eviction callback runs on the inserting
        # thread: it must not block on the cache lock that thread holds.
        cache = LookupCache(maxsize=2)
        anchor_a, anchor_c = make_elts(n_elts=2)
        e = make_elts(n_elts=1)[0]
        cache._get(("a",), [anchor_a], lambda: [e])
        cache._get(("b",), [e], lambda: "b")
        e_ref = weakref.ref(e)
        del e

        def third_insert():
            cache._get(("c",), [anchor_c], lambda: "c")

        worker = threading.Thread(target=third_insert, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "LookupCache deadlocked in eviction"
        assert e_ref() is None
        assert len(cache) == 1  # A pushed out by LRU, B evicted with e
