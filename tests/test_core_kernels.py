"""Equivalence and unit tests for the fused ragged CSR kernel path.

The contract under test: for every dtype, batch size and trial shape
(including empty trials), the fused ragged kernel
(:mod:`repro.core.kernels`) and the line-by-line scalar reference
produce the same Year Loss Tables — exactly in float64, within float32
tolerance on the reduced-precision path.
"""

import numpy as np
import pytest

from repro.core.algorithm import aggregate_risk_analysis_reference
from repro.core.kernels import (
    MIN_OCC_CHUNK,
    occ_chunk_for,
    autotune_batch_trials,
    build_layer_tables,
    layer_trial_batch_ragged,
    segment_sums,
)
from repro.core.secondary import SecondaryUncertainty
from repro.data.elt import EventLossTable
from repro.data.layer import LayerTerms
from repro.data.yet import YearEventTable
from repro.lookup.factory import (
    LookupCache,
    build_stacked_table,
    get_lookup_cache,
)
from repro.utils.bufpool import ScratchBufferPool
from repro.utils.timer import (
    ACTIVITY_FINANCIAL,
    ACTIVITY_LAYER,
    ACTIVITY_LOOKUP,
    ActivityProfile,
)
from tests.conftest import run_sequential


@pytest.fixture(scope="module")
def ragged_yet(tiny_workload):
    """A YET with genuinely ragged trials: empty first/middle/last."""
    rng = np.random.default_rng(7)
    catalog = 800  # matches the tiny workload's catalogue
    trials = []
    for i in range(40):
        if i % 7 == 0:
            trials.append([])
            continue
        k = int(rng.integers(1, 20))
        ids = rng.integers(1, catalog + 1, size=k)
        times = np.sort(rng.random(k))
        trials.append(list(zip(ids.tolist(), times.tolist())))
    trials.append([])  # trailing empty trial: exercises reduceat bounds
    return YearEventTable.from_trials(trials)


# ----------------------------------------------------------------------
# Equivalence: ragged kernel vs scalar reference
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    def test_matches_reference(self, tiny_workload, reference_ylt):
        w = tiny_workload
        ylt = run_sequential(w.yet, w.portfolio, w.catalog.n_events)
        assert reference_ylt.allclose(ylt)

    @pytest.mark.parametrize("batch", [None, 1, 7, 16, 1000])
    def test_batching_does_not_change_results(
        self, tiny_workload, reference_ylt, batch
    ):
        w = tiny_workload
        ylt = run_sequential(
            w.yet, w.portfolio, w.catalog.n_events, batch_trials=batch
        )
        assert reference_ylt.allclose(ylt), f"batch={batch}"

    def test_ragged_trials_with_empties(self, tiny_workload, ragged_yet):
        w = tiny_workload
        reference = aggregate_risk_analysis_reference(ragged_yet, w.portfolio)
        ylt = run_sequential(ragged_yet, w.portfolio, w.catalog.n_events)
        assert reference.allclose(ylt)

    def test_float32_close_to_reference(self, tiny_workload, reference_ylt):
        w = tiny_workload
        ragged = run_sequential(
            w.yet, w.portfolio, w.catalog.n_events, dtype=np.float32
        )
        for layer in w.portfolio.layers:
            a = ragged.layer_losses(layer.layer_id)
            b = reference_ylt.layer_losses(layer.layer_id)
            assert np.allclose(a, b, rtol=1e-4)

    def test_float64_tight_tolerance(self, tiny_workload, reference_ylt):
        w = tiny_workload
        ylt = run_sequential(w.yet, w.portfolio, w.catalog.n_events)
        for layer in w.portfolio.layers:
            assert np.allclose(
                ylt.layer_losses(layer.layer_id),
                reference_ylt.layer_losses(layer.layer_id),
                rtol=1e-9,
                atol=1e-9,
            )

    def test_multilayer_shares_cache(self, multilayer_workload):
        w = multilayer_workload
        from repro.plan.execute import execute_plan_cpu
        from repro.plan.planner import EngineCapabilities, Planner

        cache = LookupCache()
        plan = Planner().plan(w.yet, w.portfolio, EngineCapabilities())
        ylt = execute_plan_cpu(
            w.yet, w.portfolio, w.catalog.n_events, plan, cache=cache
        )
        reference = aggregate_risk_analysis_reference(w.yet, w.portfolio)
        assert reference.allclose(ylt)
        assert ylt.n_layers == 3
        # Builds happened at most once per distinct ELT set.
        assert cache.misses <= w.portfolio.n_layers

    def test_engine_level_equivalence(self, tiny_workload, reference_ylt):
        from repro.core.analysis import AggregateRiskAnalysis

        w = tiny_workload
        for engine in ("sequential", "multicore", "gpu"):
            ara = AggregateRiskAnalysis(w.portfolio, w.catalog.n_events)
            result = ara.run(w.yet, engine=engine)
            assert reference_ylt.allclose(result.ylt), engine


# ----------------------------------------------------------------------
# The batch kernel itself
# ----------------------------------------------------------------------
class TestLayerTrialBatchRagged:
    def test_profile_charges_every_phase(self, tiny_workload):
        w = tiny_workload
        layer = w.portfolio.layers[0]
        stacked = build_stacked_table(
            w.portfolio.elts_of(layer), w.catalog.n_events
        )
        ids, offs = w.yet.csr_block(0, w.yet.n_trials)

        def profile_of(**kwargs):
            profile = ActivityProfile()
            layer_trial_batch_ragged(
                ids, offs, layer.terms, profile=profile, stacked=stacked,
                **kwargs,
            )
            return profile.seconds

        # A plain run over the table's built vector reads one word per
        # occurrence: lookup and layer time, no per-occurrence term work.
        plain = profile_of()
        assert plain[ACTIVITY_LOOKUP] > 0
        assert plain[ACTIVITY_LAYER] > 0
        assert plain.get(ACTIVITY_FINANCIAL, 0.0) == 0.0
        # The run that builds a vector (here a float32 one) applies the
        # ELT terms, and is charged for it.
        assert not stacked.has_net_sums(np.float32)
        building = profile_of(dtype=np.float32)
        assert building[ACTIVITY_FINANCIAL] > 0
        assert building[ACTIVITY_LOOKUP] > 0
        assert profile_of(dtype=np.float32).get(ACTIVITY_FINANCIAL, 0.0) == 0.0
        # Secondary uncertainty draws and applies terms per occurrence.
        secondary = profile_of(secondary=SecondaryUncertainty(4.0, 4.0))
        for activity in (ACTIVITY_LOOKUP, ACTIVITY_FINANCIAL, ACTIVITY_LAYER):
            assert secondary[activity] > 0

    def test_no_lookups_gives_zero_losses(self, tiny_workload):
        """A table with no losses to look up gives exact zeros."""
        w = tiny_workload
        ids, offs = w.yet.csr_block(0, w.yet.n_trials)
        empty = EventLossTable(1, np.array([], dtype=np.int64), np.array([]))
        stacked = build_stacked_table([empty], w.catalog.n_events)
        year = layer_trial_batch_ragged(
            ids, offs, LayerTerms(), stacked=stacked
        )
        assert year.shape == (w.yet.n_trials,)
        assert np.all(year == 0.0)

    def test_rejects_2d_ids(self, tiny_workload):
        w = tiny_workload
        stacked = build_stacked_table(
            w.portfolio.elts_of(w.portfolio.layers[0]), w.catalog.n_events
        )
        with pytest.raises(ValueError):
            layer_trial_batch_ragged(
                np.zeros((2, 3), dtype=np.int32),
                np.array([0, 3, 6]),
                LayerTerms(),
                stacked=stacked,
            )

    def test_table_is_required(self, tiny_workload):
        ids, offs = tiny_workload.yet.csr_block(0, 4)
        with pytest.raises(TypeError, match="stacked"):
            layer_trial_batch_ragged(ids, offs, LayerTerms())

    def test_pool_reuse_across_batches(self, tiny_workload):
        w = tiny_workload
        layer = w.portfolio.layers[0]
        stacked = build_stacked_table(
            w.portfolio.elts_of(layer), w.catalog.n_events
        )
        pool = ScratchBufferPool()
        for start in range(0, w.yet.n_trials, 16):
            stop = min(start + 16, w.yet.n_trials)
            ids, offs = w.yet.csr_block(start, stop)
            layer_trial_batch_ragged(
                ids, offs, layer.terms, pool=pool, stacked=stacked
            )
        # After the first batch every later take() is served from the pool.
        assert pool.hits > 0
        assert pool.lent_bytes == 0  # everything returned
        assert pool.misses <= 1  # the combined buffer; no gathered rows

    def test_plain_run_never_allocates_the_net_matrix(self):
        # 10 ELTs over a 400k-event catalogue: the (catalog + 1, n_elts)
        # float64 matrix would be 32 MB, its per-event vector 3.2 MB.
        import tracemalloc

        from repro.data.layer import Portfolio
        from repro.engines.sequential import SequentialEngine

        catalog = 400_000
        rng = np.random.default_rng(11)
        elts = []
        for elt_id in range(10):
            ids = np.unique(rng.integers(1, catalog + 1, size=2_000))
            elts.append(
                EventLossTable(elt_id, ids, rng.lognormal(6, 1, ids.size))
            )
        portfolio = Portfolio.single_layer(elts, LayerTerms())
        yet = YearEventTable.from_trials(
            [
                [(int(e), 0.5) for e in rng.integers(0, catalog + 1, size=40)]
                for _ in range(200)
            ]
        )
        matrix_bytes = (catalog + 1) * len(elts) * 8
        tracemalloc.start()
        try:
            result = SequentialEngine().run(yet, portfolio, catalog)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.ylt.losses[0].any()
        assert peak < matrix_bytes / 4, (peak, matrix_bytes)


# ----------------------------------------------------------------------
# Segment reduction
# ----------------------------------------------------------------------
class TestSegmentSums:
    def test_matches_python_sums(self, rng):
        values = rng.normal(size=50)
        offsets = np.array([0, 3, 3, 10, 50])
        out = segment_sums(values, offsets)
        expected = [values[a:b].sum() for a, b in zip(offsets, offsets[1:])]
        assert np.allclose(out, expected)

    def test_empty_segments_are_exact_zero(self):
        values = np.ones(4)
        offsets = np.array([0, 0, 2, 2, 4, 4])
        out = segment_sums(values, offsets)
        assert out.tolist() == [0.0, 2.0, 0.0, 2.0, 0.0]

    def test_all_empty(self):
        out = segment_sums(np.empty(0), np.zeros(5, dtype=np.int64))
        assert out.tolist() == [0.0] * 4

    def test_float32_accumulates_in_float64(self):
        values = np.full(1_000_000, 0.1, dtype=np.float32)
        out = segment_sums(values, np.array([0, values.size]))
        assert out.dtype == np.float64
        assert out[0] == pytest.approx(values.astype(np.float64).sum(), rel=1e-9)

    def test_out_validation(self):
        with pytest.raises(ValueError):
            segment_sums(np.ones(3), np.array([0, 3]), out=np.zeros(2))


# ----------------------------------------------------------------------
# Autotuner & plumbing
# ----------------------------------------------------------------------
class TestAutotuner:
    def test_budget_bounds_batch(self):
        batch = autotune_batch_trials(
            n_trials=1_000_000,
            events_per_trial=1_000,
            n_elts=15,
            dtype=np.float64,
            budget_bytes=64 * 2**20,
        )
        # scratch(batch) = combined vector + totals + the staged gather
        # chunk at the size the kernel stages.
        chunk_block = 15 * occ_chunk_for(15, 8) * 8
        assert 1 <= batch <= 1_000_000
        assert batch * (1_000 * 8 + 16) + chunk_block <= 64 * 2**20

    def test_secondary_halves_the_trial_budget_share(self):
        plain = autotune_batch_trials(10**6, 1_000, 15, secondary=False)
        with_secondary = autotune_batch_trials(10**6, 1_000, 15, secondary=True)
        # The multiplier block doubles the fixed chunk cost, so the
        # trial batch can only shrink (or stay equal).
        assert with_secondary <= plain

    def test_chunk_rule_is_a_kernel_constant(self, monkeypatch):
        # The chunk is a constant of the kernel: neither the host's
        # cache nor the environment (a variable that once overrode the
        # budget) moves it, so plans and store keys match across hosts.
        expected = {
            (0, 4): 131072, (0, 8): 65536,
            (1, 4): 131072, (1, 8): 65536,
            (2, 4): 65536, (2, 8): 32768,
            (15, 4): 8738, (15, 8): 4369,
            (64, 4): 2048, (64, 8): 1024,
        }
        for env in (None, "64K", "64M"):
            if env is None:
                monkeypatch.delenv("REPRO_L2_CACHE_BYTES", raising=False)
            else:
                monkeypatch.setenv("REPRO_L2_CACHE_BYTES", env)
            got = {key: occ_chunk_for(*key) for key in expected}
            assert got == expected, env
            assert autotune_batch_trials(1_000_000, 1000, 15) == 8306
            assert (
                autotune_batch_trials(1_000_000, 1000, 15, secondary=True)
                == 8126
            )
            assert (
                autotune_batch_trials(1_000_000, 1000, 15, dtype=np.float32)
                == 16579
            )
            # Wide layers stage at least the floor's rows per chunk.
            assert occ_chunk_for(1_000, 8) == MIN_OCC_CHUNK

    def test_small_workload_runs_in_one_batch(self):
        assert autotune_batch_trials(100, 10.0, 5) == 100

    def test_degenerate_inputs(self):
        assert autotune_batch_trials(1, 0.0, 1) == 1
        assert autotune_batch_trials(10, 1.0, 1, budget_bytes=1) == 1
        with pytest.raises(ValueError):
            autotune_batch_trials(0, 1.0, 1)
        with pytest.raises(ValueError):
            autotune_batch_trials(1, 1.0, 1, budget_bytes=0)

    def test_layer_tables_accept_only_the_ragged_kernel(self, tiny_workload):
        w = tiny_workload
        elts = w.portfolio.elts_of(w.portfolio.layers[0])
        n = w.catalog.n_events
        stacked = build_layer_tables(elts, n)
        assert stacked is get_lookup_cache().stacked_table(elts, n)
        # The positional call perfbench makes: both slots are constants.
        legacy = build_layer_tables(elts, n, "direct", np.float64, "ragged")
        assert legacy is stacked
        with pytest.raises(ValueError, match="only kernel"):
            build_layer_tables(elts, n, "direct", np.float64, "dense")
        for kind in ("sorted", "hash", "cuckoo", "compressed"):
            with pytest.raises(ValueError, match="only one"):
                build_layer_tables(elts, n, kind, np.float64, "ragged")


# ----------------------------------------------------------------------
# Scratch-buffer pool
# ----------------------------------------------------------------------
class TestScratchBufferPool:
    def test_take_give_recycles(self):
        pool = ScratchBufferPool()
        a = pool.take((4, 8), np.float64)
        assert a.shape == (4, 8)
        pool.give(a)
        b = pool.take((32,), np.float64)  # same capacity, reused
        assert pool.hits == 1 and pool.misses == 1
        pool.give(b)

    def test_peak_tracks_simultaneous_loans(self):
        pool = ScratchBufferPool()
        a = pool.take(10, np.float64)
        b = pool.take(10, np.float64)
        assert pool.peak_bytes == a.nbytes + b.nbytes
        pool.give(a)
        pool.give(b)
        c = pool.take(10, np.float64)
        pool.give(c)
        assert pool.peak_bytes == 160  # peak unchanged by later loans

    def test_dtype_buckets_are_separate(self):
        pool = ScratchBufferPool()
        a = pool.take(8, np.float64)
        pool.give(a)
        b = pool.take(8, np.float32)
        assert b.dtype == np.float32
        assert pool.misses == 2  # float32 could not reuse the float64 buffer

    def test_best_fit_prefers_smallest_adequate(self):
        pool = ScratchBufferPool()
        big = pool.take(100, np.float64)
        small = pool.take(10, np.float64)
        pool.give(big)
        pool.give(small)
        c = pool.take(5, np.float64)
        assert c.base.size == 10  # served by the smaller adequate buffer
        pool.give(c)

    def test_give_unknown_is_noop(self):
        pool = ScratchBufferPool()
        pool.give(np.zeros(3))
        pool.give(None)
        assert pool.lent_bytes == 0

    def test_zero_size_take(self):
        pool = ScratchBufferPool()
        a = pool.take((0,), np.float64)
        assert a.size == 0
        pool.give(a)
