"""Tests for the fused ragged secondary-uncertainty path.

Covers the PR-2 tentpole guarantees:

* mean preservation across dtypes and batch sizes;
* decomposition invariance of the counter-based multiplier streams —
  batch size, occurrence chunking, multicore worker count and multi-GPU
  device count must not change a seeded result bit-for-bit;
* empty and degenerate trials through the kernel and the sequential
  engine's batched lane, which runs on the calling thread alone;
* the quantile-table sampler's statistical contract (mean exactly 1).
"""

import threading

import numpy as np
import pytest

from repro.core.kernels import layer_trial_batch_ragged
from repro.core.secondary import (
    SECONDARY_TILE,
    SecondaryUncertainty,
    layer_stream_key,
    resolve_secondary_seed,
)
from repro.data.yet import YearEventTable
from repro.engines.multicore import MulticoreEngine
from repro.engines.multigpu import MultiGPUEngine
from repro.engines.sequential import SequentialEngine
from tests.conftest import run_sequential


SU = SecondaryUncertainty(4.0, 4.0)


def run_workload(workload):
    return (
        workload.yet,
        workload.portfolio,
        workload.catalog.n_events,
    )


# ----------------------------------------------------------------------
# Quantile table / sampler contract
# ----------------------------------------------------------------------
class TestQuantileSampler:
    def test_table_mean_is_exactly_one(self):
        table = SU.quantile_table()
        assert table.mean() == pytest.approx(1.0, abs=1e-12)
        assert table.flags.writeable is False

    def test_table_cached_per_shape(self):
        assert SU.quantile_table() is SU.quantile_table()
        assert SecondaryUncertainty(4.0, 4.0).quantile_table() is SU.quantile_table()

    def test_table_tracks_distribution_spread(self):
        tight = SecondaryUncertainty(100.0, 100.0).quantile_table()
        loose = SecondaryUncertainty(2.0, 2.0).quantile_table()
        assert loose.std() > tight.std()

    def test_span_invariance(self):
        """Multipliers depend only on (key, global index, row)."""
        whole = SU.multipliers_for_span(123, 0, 3 * SECONDARY_TILE, 4)
        pieces = np.concatenate(
            [
                SU.multipliers_for_span(123, lo, hi, 4)
                for lo, hi in [
                    (0, 17),
                    (17, SECONDARY_TILE + 5),
                    (SECONDARY_TILE + 5, 3 * SECONDARY_TILE),
                ]
            ],
            axis=1,
        )
        np.testing.assert_array_equal(whole, pieces)

    def test_distinct_keys_distinct_streams(self):
        a = SU.multipliers_for_span(1, 0, 256, 2)
        b = SU.multipliers_for_span(2, 0, 256, 2)
        assert not np.array_equal(a, b)

    def test_empirical_mean_close_to_one(self):
        block = SU.multipliers_for_span(7, 0, 200_000, 1)
        assert block.mean() == pytest.approx(1.0, abs=5e-3)

    def test_resolve_seed(self):
        assert resolve_secondary_seed(42) == 42
        assert resolve_secondary_seed(np.int64(7)) == 7
        # None draws a fresh key; two draws almost surely differ.
        assert resolve_secondary_seed(None) != resolve_secondary_seed(None)

    def test_layer_keys_differ(self):
        assert layer_stream_key(1, 0) != layer_stream_key(1, 1)


# ----------------------------------------------------------------------
# Mean preservation and spread
# ----------------------------------------------------------------------
class TestDenseRaggedSecondaryParity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch_trials", [None, 7, 64])
    def test_mean_preserved_vs_base(self, small_workload, dtype, batch_trials):
        """Property: multipliers have mean 1, so with loose layer terms
        averaged year losses track the no-secondary baseline."""
        yet, portfolio, catalog = run_workload(small_workload)
        base = run_sequential(yet, portfolio, catalog, dtype=dtype)
        totals = np.zeros(yet.n_trials)
        n_draws = 8
        for seed in range(n_draws):
            ylt = run_sequential(
                yet,
                portfolio,
                catalog,
                dtype=dtype,
                batch_trials=batch_trials,
                secondary=SU,
                secondary_seed=seed,
            )
            totals += ylt.losses[0]
        mean = totals / n_draws
        assert mean.sum() == pytest.approx(
            base.losses[0].sum(), rel=0.05
        )

    def test_secondary_widens_spread_with_looser_beta(self, small_workload):
        yet, portfolio, catalog = run_workload(small_workload)
        base = run_sequential(yet, portfolio, catalog)
        tight = run_sequential(
            yet,
            portfolio,
            catalog,
            secondary=SecondaryUncertainty(5000.0, 5000.0),
            secondary_seed=1,
        )
        # Near-degenerate Beta: multipliers ~1, totals ~deterministic.
        # (Elementwise comparison would amplify near-retention clamps,
        # so the contract is on the aggregate.)
        assert tight.losses[0].sum() == pytest.approx(
            base.losses[0].sum(), rel=0.01
        )



# ----------------------------------------------------------------------
# Decomposition invariance
# ----------------------------------------------------------------------
class TestDecompositionInvariance:
    def test_batch_size_invariance_bitwise(self, small_workload):
        yet, portfolio, catalog = run_workload(small_workload)
        results = [
            run_sequential(
                yet,
                portfolio,
                catalog,
                batch_trials=batch,
                secondary=SU,
                secondary_seed=11,
            ).losses[0]
            for batch in (None, 13, 100, yet.n_trials)
        ]
        for other in results[1:]:
            np.testing.assert_array_equal(results[0], other)

    def test_multicore_worker_count_invariance(self, small_workload):
        yet, portfolio, catalog = run_workload(small_workload)
        results = [
            MulticoreEngine(n_cores=n, secondary=SU, secondary_seed=5)
            .run(yet, portfolio, catalog)
            .ylt.losses[0]
            for n in (1, 2, 5)
        ]
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_multicore_matches_sequential(self, small_workload):
        yet, portfolio, catalog = run_workload(small_workload)
        seq = SequentialEngine(secondary=SU, secondary_seed=5).run(
            yet, portfolio, catalog
        )
        multi = MulticoreEngine(
            n_cores=4, secondary=SU, secondary_seed=5
        ).run(yet, portfolio, catalog)
        np.testing.assert_array_equal(
            seq.ylt.losses[0], multi.ylt.losses[0]
        )

    def test_multigpu_device_count_invariance(self, small_workload):
        yet, portfolio, catalog = run_workload(small_workload)
        results = [
            MultiGPUEngine(n_devices=n, secondary=SU, secondary_seed=9)
            .run(yet, portfolio, catalog)
            .ylt.losses[0]
            for n in (1, 3)
        ]
        np.testing.assert_array_equal(results[0], results[1])

    def test_multicore_occurrence_balanced_split(self):
        """Ragged multicore splits by occurrences: with one huge trial
        and many tiny ones, the heavy trial gets its own chunk."""
        trials = [[(1, 0.1)] * 60] + [[(2, 0.5)]] * 6
        yet = YearEventTable.from_trials(trials)
        from repro.utils.parallel import balanced_chunk_ranges, chunk_ranges

        balanced = balanced_chunk_ranges(yet.offsets, 2)
        plain = chunk_ranges(yet.n_trials, 2)
        assert balanced != plain
        assert balanced[0] == (0, 1)  # the heavy trial alone

    def test_engine_meta_reports_balance_mode(self, tiny_workload):
        yet, portfolio, catalog = run_workload(tiny_workload)
        result = MulticoreEngine(n_cores=2).run(yet, portfolio, catalog)
        assert result.meta["balance"] == "events"


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------
class TestEngineSecondaryWiring:
    @pytest.mark.parametrize(
        "engine_name",
        ["sequential", "multicore", "gpu", "gpu-optimized", "multi-gpu"],
        # ids keep the kernel name they had when a second kernel existed
        ids=lambda name: f"ragged-{name}",
    )
    def test_every_engine_accepts_secondary(self, tiny_workload, engine_name):
        from repro.engines.registry import create_engine

        yet, portfolio, catalog = run_workload(tiny_workload)
        engine = create_engine(engine_name, secondary=SU, secondary_seed=1)
        result = engine.run(yet, portfolio, catalog)
        assert result.meta.get("secondary") is True
        base = create_engine(engine_name).run(yet, portfolio, catalog)
        # Secondary sampling must actually perturb the losses.
        assert not np.array_equal(
            result.ylt.losses[0], base.ylt.losses[0]
        )

    def test_analysis_api_passes_secondary(self, tiny_workload):
        from repro.core.analysis import AggregateRiskAnalysis

        yet, portfolio, catalog = run_workload(tiny_workload)
        ara = AggregateRiskAnalysis(
            portfolio, catalog, secondary=SU, secondary_seed=2
        )
        a = ara.run(yet, engine="sequential")
        b = ara.run(yet, engine="multicore")
        np.testing.assert_array_equal(a.ylt.losses[0], b.ylt.losses[0])

    def test_reference_engine_cross_checks_secondary(self, tiny_workload):
        """The scalar oracle draws the same counter-based multipliers as
        the fused kernel, so a seeded secondary run cross-checks end to
        end (it no longer rejects ``secondary=``)."""
        from repro.engines.sequential import ReferenceEngine, SequentialEngine

        yet, portfolio, catalog = run_workload(tiny_workload)
        oracle = ReferenceEngine(secondary=SU, secondary_seed=21).run(
            yet, portfolio, catalog
        )
        fused = SequentialEngine(secondary=SU, secondary_seed=21).run(
            yet, portfolio, catalog
        )
        assert oracle.meta["secondary"] is True
        np.testing.assert_allclose(
            oracle.ylt.losses[0], fused.ylt.losses[0], rtol=1e-9, atol=1e-6
        )
        # And the draws genuinely perturb the oracle's losses.
        base = ReferenceEngine().run(yet, portfolio, catalog)
        assert not np.array_equal(
            oracle.ylt.losses[0], base.ylt.losses[0]
        )

    def test_no_engine_accepts_kernel(self):
        """One kernel: ``kernel=`` is not an option anywhere."""
        from repro.core.analysis import AggregateRiskAnalysis
        from repro.engines.registry import available_engines, engine_class
        from repro.plan.planner import EngineCapabilities

        for name in available_engines():
            with pytest.raises(TypeError):
                engine_class(name)(kernel="ragged")
        with pytest.raises(TypeError):
            AggregateRiskAnalysis(None, 10, kernel="ragged")
        with pytest.raises(TypeError):
            EngineCapabilities(kernel="ragged")


# ----------------------------------------------------------------------
# Empty trials and the single-thread lane
# ----------------------------------------------------------------------
class TestSequentialLane:
    def test_sequential_engine_empty_trials(self):
        """Empty and degenerate trials survive batched execution."""
        from repro.data.elt import ELTFinancialTerms, EventLossTable
        from repro.data.layer import Layer, LayerTerms, Portfolio

        trials = [[], [(1, 0.2), (2, 0.4)], [], [(3, 0.9)], [], []]
        yet = YearEventTable.from_trials(trials)
        elt = EventLossTable(
            elt_id=0,
            event_ids=np.array([1, 2, 3], dtype=np.int32),
            losses=np.array([10.0, 20.0, 30.0]),
            terms=ELTFinancialTerms(),
        )
        portfolio = Portfolio(
            layers=[Layer(layer_id=0, elt_ids=(0,), terms=LayerTerms())],
            elts={0: elt},
        )
        for batch in (1, 2, None):
            ylt = run_sequential(yet, portfolio, 10, batch_trials=batch)
            np.testing.assert_allclose(
                ylt.losses[0], [0.0, 30.0, 0.0, 30.0, 0.0, 0.0]
            )
            with_secondary = run_sequential(
                yet,
                portfolio,
                10,
                batch_trials=batch,
                secondary=SU,
                secondary_seed=4,
            )
            # Empty trials stay exactly zero under secondary sampling.
            assert with_secondary.losses[0][0] == 0.0
            assert with_secondary.losses[0][2] == 0.0

    @pytest.mark.parametrize("secondary", [None, SU], ids=["plain", "secondary"])
    def test_multi_task_lane_starts_no_thread(
        self, small_workload, monkeypatch, secondary
    ):
        """A one-slot plan of several tasks runs on the caller's thread."""
        yet, portfolio, catalog = run_workload(small_workload)
        engine = SequentialEngine(
            batch_trials=100, secondary=secondary, secondary_seed=3
        )
        plan = engine.plan_for(yet, portfolio)
        assert plan.n_slots == 1
        assert len(plan.layer_tasks(portfolio.layers[0].layer_id)) >= 2
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        engine.run(yet, portfolio, catalog, plan=plan)
        assert started == []

    def test_ragged_kernel_empty_block(self, tiny_workload):
        """Zero-trial and zero-occurrence CSR blocks are legal."""
        from repro.data.layer import LayerTerms
        from repro.lookup.factory import build_stacked_table

        stacked = build_stacked_table(
            tiny_workload.portfolio.elts_of(tiny_workload.portfolio.layers[0]),
            tiny_workload.catalog.n_events,
        )
        for secondary in (None, SU):
            year = layer_trial_batch_ragged(
                np.array([], dtype=np.int32),
                np.array([0], dtype=np.int64),
                LayerTerms(),
                stacked=stacked,
                secondary=secondary,
                stream_key=1,
            )
            assert year.shape == (0,)
