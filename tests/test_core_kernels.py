"""Equivalence and unit tests for the fused ragged CSR kernel path.

The contract under test: for every lookup kind, dtype, batch size and
trial shape (including empty trials), the fused ragged kernel
(:mod:`repro.core.kernels`) and the line-by-line scalar reference
produce the same Year Loss Tables — exactly in float64, within float32
tolerance on the reduced-precision path.
"""

import numpy as np
import pytest

from repro.core.algorithm import aggregate_risk_analysis_reference
from repro.core.kernels import (
    MIN_OCC_CHUNK,
    get_l2_cache_bytes,
    max_occ_chunk,
    occ_chunk_for,
    autotune_batch_trials,
    build_layer_tables,
    layer_trial_batch_ragged,
    segment_sums,
)
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

LOOKUP_KINDS = ("direct", "sorted", "hash", "cuckoo", "compressed")


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
    @pytest.mark.parametrize("kind", LOOKUP_KINDS)
    def test_matches_reference_all_kinds(
        self, tiny_workload, reference_ylt, kind
    ):
        w = tiny_workload
        ylt = run_sequential(
            w.yet, w.portfolio, w.catalog.n_events, lookup_kind=kind
        )
        assert reference_ylt.allclose(ylt), kind

    @pytest.mark.parametrize("batch", [None, 1, 7, 16, 1000])
    def test_batching_does_not_change_results(
        self, tiny_workload, reference_ylt, batch
    ):
        w = tiny_workload
        ylt = run_sequential(
            w.yet, w.portfolio, w.catalog.n_events, batch_trials=batch
        )
        assert reference_ylt.allclose(ylt), f"batch={batch}"

    @pytest.mark.parametrize("kind", ("direct", "sorted"))
    def test_ragged_trials_with_empties(self, tiny_workload, ragged_yet, kind):
        w = tiny_workload
        reference = aggregate_risk_analysis_reference(ragged_yet, w.portfolio)
        ylt = run_sequential(
            ragged_yet, w.portfolio, w.catalog.n_events, lookup_kind=kind
        )
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
    def test_fused_and_fallback_paths_agree(self, tiny_workload):
        w = tiny_workload
        layer = w.portfolio.layers[0]
        elts = w.portfolio.elts_of(layer)
        ids, offs = w.yet.csr_block(0, w.yet.n_trials)
        stacked = build_stacked_table(elts, w.catalog.n_events)
        lookups = get_lookup_cache().layer_lookups(elts, w.catalog.n_events)
        fused = layer_trial_batch_ragged(
            ids, offs, None, layer.terms, stacked=stacked
        )
        fallback = layer_trial_batch_ragged(ids, offs, lookups, layer.terms)
        assert np.allclose(fused, fallback, rtol=1e-12)

    def test_profile_charges_every_phase(self, tiny_workload):
        w = tiny_workload
        layer = w.portfolio.layers[0]
        stacked = build_stacked_table(
            w.portfolio.elts_of(layer), w.catalog.n_events
        )
        ids, offs = w.yet.csr_block(0, w.yet.n_trials)
        profile = ActivityProfile()
        layer_trial_batch_ragged(
            ids, offs, None, layer.terms, stacked=stacked, profile=profile
        )
        assert profile.seconds[ACTIVITY_LOOKUP] > 0
        assert profile.seconds[ACTIVITY_FINANCIAL] > 0
        assert profile.seconds[ACTIVITY_LAYER] > 0

    def test_no_lookups_gives_zero_losses(self, tiny_workload):
        w = tiny_workload
        ids, offs = w.yet.csr_block(0, w.yet.n_trials)
        year = layer_trial_batch_ragged(ids, offs, [], LayerTerms())
        assert year.shape == (w.yet.n_trials,)
        assert np.all(year == 0.0)

    def test_rejects_2d_ids(self, tiny_workload):
        with pytest.raises(ValueError):
            layer_trial_batch_ragged(
                np.zeros((2, 3), dtype=np.int32),
                np.array([0, 3, 6]),
                [],
                LayerTerms(),
            )

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
                ids, offs, None, layer.terms, stacked=stacked, pool=pool
            )
        # After the first batch every later take() is served from the pool.
        assert pool.hits > 0
        assert pool.lent_bytes == 0  # everything returned
        assert pool.misses <= 2  # one gather + one combined buffer


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
        # chunk at its actual L2-derived size.
        chunk_block = 15 * occ_chunk_for(15, 8) * 8
        assert 1 <= batch <= 1_000_000
        assert batch * (1_000 * 8 + 16) + chunk_block <= 64 * 2**20

    def test_secondary_halves_the_trial_budget_share(self):
        plain = autotune_batch_trials(10**6, 1_000, 15, secondary=False)
        with_secondary = autotune_batch_trials(10**6, 1_000, 15, secondary=True)
        # The multiplier block doubles the fixed chunk cost, so the
        # trial batch can only shrink (or stay equal).
        assert with_secondary <= plain

    def test_l2_budget_steers_occ_chunk(self):
        small = occ_chunk_for(15, 8, l2_bytes=256 * 1024)
        large = occ_chunk_for(15, 8, l2_bytes=8 * 2**20)
        assert MIN_OCC_CHUNK <= small < large
        assert large <= max_occ_chunk(8, l2_bytes=8 * 2**20)
        # Detected (or fallback) budget is sane and feeds the default.
        assert get_l2_cache_bytes() >= 64 * 1024

    def test_l2_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_L2_CACHE_BYTES", str(512 * 1024))
        assert get_l2_cache_bytes() == 512 * 1024
        assert occ_chunk_for(1, 8) == min(
            max_occ_chunk(8), (512 * 1024 // 2) // 8
        )
        # Suffixed values use the same format as sysfs.
        monkeypatch.setenv("REPRO_L2_CACHE_BYTES", "512K")
        assert get_l2_cache_bytes() == 512 * 1024
        monkeypatch.setenv("REPRO_L2_CACHE_BYTES", "2M")
        assert get_l2_cache_bytes() == 2 * 2**20
        # Malformed overrides fail loudly instead of being ignored.
        monkeypatch.setenv("REPRO_L2_CACHE_BYTES", "lots")
        with pytest.raises(ValueError, match="REPRO_L2_CACHE_BYTES"):
            get_l2_cache_bytes()

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
        _, stacked, nbytes = build_layer_tables(elts, n, "direct", np.float64)
        assert stacked is not None and nbytes == stacked.nbytes
        legacy = build_layer_tables(elts, n, "direct", np.float64, "ragged")
        assert legacy[1] is stacked
        with pytest.raises(ValueError, match="only kernel"):
            build_layer_tables(elts, n, "direct", np.float64, "dense")


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
