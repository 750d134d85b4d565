"""Plan/execute split: planner policy, plan validity, scheduler invariance.

The acceptance contract of the plan layer:

* plans are deterministic — same workload + capabilities, same plan;
* every plan covers every (layer, trial) and (layer, occurrence)
  exactly once;
* scheduler concurrency is a free knob — seeded YLTs are bit-for-bit
  identical at 1/2/8 workers and equal to the engines' own results;
* every engine executes a Planner plan (no private decompositions).
"""

import numpy as np
import pytest

from repro.core.secondary import SecondaryUncertainty
from repro.data.elt import ELTFinancialTerms, EventLossTable
from repro.data.layer import Layer, LayerTerms, Portfolio
from repro.data.yet import YearEventTable
from repro.engines.registry import available_engines, create_engine
from repro.plan import (
    EngineCapabilities,
    ExecutionPlan,
    Planner,
    PlanTask,
    Scheduler,
    execute_plan_cpu,
)
from repro.utils.parallel import balanced_chunk_ranges, chunk_ranges
from repro.utils.rng import default_rng

SU = SecondaryUncertainty(4.0, 4.0)


def make_workload(n_trials=60, seed=3, n_elts=3, catalog=80):
    rng = default_rng(seed)
    elts = []
    for elt_id in range(n_elts):
        ids = rng.choice(np.arange(1, catalog + 1), size=30, replace=False)
        elts.append(
            EventLossTable(
                elt_id=elt_id,
                event_ids=np.sort(ids).astype(np.int32),
                losses=rng.uniform(10.0, 500.0, size=30),
                terms=ELTFinancialTerms(),
            )
        )
    trials = []
    for _ in range(n_trials):
        k = int(rng.integers(0, 12))
        trials.append(
            [
                (int(rng.integers(1, catalog + 1)), float(t) / 12)
                for t in range(k)
            ]
        )
    yet = YearEventTable.from_trials(trials)
    portfolio = Portfolio.single_layer(
        elts, terms=LayerTerms(occ_retention=50.0, agg_limit=5_000.0)
    )
    return yet, portfolio, catalog


class TestPlanner:
    def test_plans_are_deterministic(self):
        yet, portfolio, _ = make_workload()
        caps = EngineCapabilities(n_slots=4, batch_trials=7)
        a = Planner().plan(yet, portfolio, caps)
        b = Planner().plan(yet, portfolio, caps)
        assert a.tasks == b.tasks
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_is_computed_once(self, monkeypatch):
        import repro.plan.plan as plan_mod

        yet, portfolio, _ = make_workload()
        plan = Planner().plan(yet, portfolio, EngineCapabilities(n_slots=4))
        first = plan.fingerprint()
        monkeypatch.setattr(plan_mod, "stable_hash_seed", None)
        assert plan.fingerprint() == first
        assert plan.summary()["fingerprint"] == first

    def test_fingerprint_tracks_decomposition(self):
        yet, portfolio, _ = make_workload()
        a = Planner().plan(yet, portfolio, EngineCapabilities(n_slots=4))
        b = Planner().plan(yet, portfolio, EngineCapabilities(n_slots=2))
        assert a.fingerprint() != b.fingerprint()

    def test_event_balance_uses_balanced_ranges(self):
        yet, portfolio, _ = make_workload()
        caps = EngineCapabilities(n_slots=3)
        plan = Planner().plan(yet, portfolio, caps)
        assert plan.balance == "events"
        expected = balanced_chunk_ranges(yet.offsets, 3)
        assert plan.slot_ranges(portfolio.layers[0].layer_id) == expected

    def test_trials_balance_uses_trial_ranges(self):
        yet, portfolio, _ = make_workload()
        caps = EngineCapabilities(
            n_slots=3, balance="trials", slot_batching="whole"
        )
        plan = Planner().plan(yet, portfolio, caps)
        assert plan.balance == "trials"
        expected = chunk_ranges(yet.n_trials, 3)
        assert plan.slot_ranges(portfolio.layers[0].layer_id) == expected

    def test_fixed_batch_trials_cuts_lane_into_tasks(self):
        yet, portfolio, _ = make_workload(n_trials=50)
        caps = EngineCapabilities(n_slots=1, batch_trials=12)
        plan = Planner().plan(yet, portfolio, caps)
        sizes = [t.n_trials for t in plan.tasks]
        assert sizes == [12, 12, 12, 12, 2]

    def test_occurrence_ranges_match_offsets(self):
        yet, portfolio, _ = make_workload()
        plan = Planner().plan(
            yet, portfolio, EngineCapabilities(n_slots=4, batch_trials=9)
        )
        for task in plan.tasks:
            assert task.occ_start == int(yet.offsets[task.trial_start])
            assert task.occ_stop == int(yet.offsets[task.trial_stop])

    def test_empty_yet_rejected(self):
        yet = YearEventTable.from_trials([])
        _, portfolio, _ = make_workload()
        with pytest.raises(ValueError):
            Planner().plan(yet, portfolio, EngineCapabilities())

    def test_invalid_capabilities_rejected(self):
        with pytest.raises(ValueError):
            EngineCapabilities(n_slots=0)
        with pytest.raises(ValueError):
            EngineCapabilities(balance="bogus")
        with pytest.raises(ValueError):
            EngineCapabilities(slot_batching="sometimes")
        with pytest.raises(ValueError):
            EngineCapabilities(batch_trials=0)


class TestCoverage:
    @pytest.mark.parametrize(
        "engine_name", ["sequential", "multicore", "gpu", "gpu-optimized", "multi-gpu", "reference"]
    )
    def test_engine_plans_cover_exactly_once(self, engine_name):
        """Every trial and occurrence appears in exactly one task per
        layer, for every engine's own plan."""
        yet, portfolio, _ = make_workload()
        engine = create_engine(engine_name, n_cores=3, n_devices=3)
        plan = engine.plan_for(yet, portfolio)
        plan.validate_coverage()  # raises on gap/overlap
        for layer_id in plan.layer_ids:
            tasks = plan.layer_tasks(layer_id)
            assert sum(t.n_trials for t in tasks) == yet.n_trials
            assert sum(t.n_occurrences for t in tasks) == yet.n_occurrences
            covered = np.zeros(yet.n_trials, dtype=int)
            for t in tasks:
                covered[t.trial_start : t.trial_stop] += 1
            np.testing.assert_array_equal(covered, 1)

    def test_gap_detected(self):
        bad = ExecutionPlan(
            n_trials=10,
            n_occurrences=0,
            layer_ids=(0,),
            n_slots=1,
            balance="events",
            tasks=(
                PlanTask(0, 0, 0, 0, 0, 4, 0, 0),
                PlanTask(1, 0, 0, 1, 5, 10, 0, 0),  # gap: trial 4 missing
            ),
        )
        with pytest.raises(ValueError, match="coverage breaks"):
            bad.validate_coverage()

    def test_overlap_detected(self):
        bad = ExecutionPlan(
            n_trials=10,
            n_occurrences=0,
            layer_ids=(0,),
            n_slots=1,
            balance="events",
            tasks=(
                PlanTask(0, 0, 0, 0, 0, 6, 0, 0),
                PlanTask(1, 0, 0, 1, 5, 10, 0, 0),  # trial 5 twice
            ),
        )
        with pytest.raises(ValueError, match="coverage breaks"):
            bad.validate_coverage()


class TestSchedulerInvariance:
    def test_seeded_ylt_identical_across_concurrency(self):
        """The tentpole guarantee: concurrency 1/2/8 over the *same*
        plan produce bit-for-bit identical seeded YLTs."""
        yet, portfolio, catalog = make_workload(n_trials=90)
        caps = EngineCapabilities(n_slots=8, secondary=True)
        plan = Planner().plan(yet, portfolio, caps)
        results = [
            execute_plan_cpu(
                yet,
                portfolio,
                catalog,
                plan,
                secondary=SU,
                secondary_seed=77,
                scheduler=Scheduler(max_workers=workers),
            ).losses[0]
            for workers in (1, 2, 8)
        ]
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_engine_concurrency_is_free(self):
        """Same logical lanes, different worker pools: the multicore
        engine's results cannot depend on n_cores alone."""
        yet, portfolio, catalog = make_workload(n_trials=80)
        shapes = [(1, 8), (2, 4), (8, 1)]  # (n_cores, threads_per_core)
        plans = []
        outputs = []
        for n_cores, tpc in shapes:
            engine = create_engine(
                "multicore",
                n_cores=n_cores,
                threads_per_core=tpc,
                secondary=SU,
                secondary_seed=13,
            )
            plans.append(engine.plan_for(yet, portfolio).fingerprint())
            outputs.append(
                engine.run(yet, portfolio, catalog).ylt.losses[0]
            )
        assert len(set(plans)) == 1  # identical decomposition
        np.testing.assert_array_equal(outputs[0], outputs[1])
        np.testing.assert_array_equal(outputs[0], outputs[2])

    def test_run_jobs_preserves_order(self):
        scheduler = Scheduler(max_workers=4)
        results = scheduler.run_jobs([lambda i=i: i * i for i in range(20)])
        assert results == [i * i for i in range(20)]

    def test_single_worker_runs_inline(self):
        import threading

        main = threading.get_ident()
        seen = []
        Scheduler(max_workers=1).run_jobs(
            [lambda: seen.append(threading.get_ident())]
        )
        assert seen == [main]


class TestEnginePlanWiring:
    def test_all_engines_report_plan_meta(self):
        yet, portfolio, catalog = make_workload(n_trials=30)
        for name in available_engines():
            result = create_engine(name, n_cores=2, n_devices=2).run(
                yet, portfolio, catalog
            )
            assert "plan" in result.meta, name
            assert result.meta["plan"]["n_tasks"] >= 1, name

    def test_precomputed_plan_accepted(self):
        yet, portfolio, catalog = make_workload(n_trials=40)
        engine = create_engine("sequential", batch_trials=11)
        plan = engine.plan_for(yet, portfolio)
        a = engine.run(yet, portfolio, catalog, plan=plan)
        b = engine.run(yet, portfolio, catalog)
        np.testing.assert_array_equal(a.ylt.losses, b.ylt.losses)
        assert a.meta["plan"]["fingerprint"] == b.meta["plan"]["fingerprint"]

    def test_mismatched_plan_rejected(self):
        yet, portfolio, catalog = make_workload(n_trials=40)
        other_yet, _, _ = make_workload(n_trials=25, seed=9)
        engine = create_engine("sequential")
        plan = engine.plan_for(other_yet, portfolio)
        with pytest.raises(ValueError, match="plan was built for"):
            engine.run(yet, portfolio, catalog, plan=plan)

    def test_foreign_portfolio_plan_rejected(self):
        """A plan for portfolio A must not execute against portfolio B
        (the tasks would miss B's layers and return garbage silently)."""
        yet, portfolio, catalog = make_workload(n_trials=40)
        elts = list(portfolio.elts.values())
        other = Portfolio()
        for elt in elts:
            other.add_elt(elt)
        other.add_layer(
            Layer(layer_id=42, elt_ids=tuple(e.elt_id for e in elts))
        )
        engine = create_engine("sequential")
        plan = engine.plan_for(yet, portfolio)
        with pytest.raises(ValueError, match="only valid for the portfolio"):
            engine.run(yet, other, catalog, plan=plan)
        with pytest.raises(ValueError, match="only valid for the portfolio"):
            execute_plan_cpu(yet, other, catalog, plan)

    def test_analysis_plan_and_run_plan(self):
        from repro.core.analysis import AggregateRiskAnalysis

        yet, portfolio, catalog = make_workload(n_trials=35)
        ara = AggregateRiskAnalysis(portfolio, catalog)
        plan = ara.plan(yet, engine="multicore", n_cores=2)
        plan.validate_coverage()
        result = ara.run(yet, engine="multicore", n_cores=2, plan=plan)
        baseline = ara.run(yet, engine="multicore", n_cores=2)
        np.testing.assert_array_equal(
            result.ylt.losses, baseline.ylt.losses
        )

    def test_run_many_matches_individual_runs(self):
        from repro.core.analysis import AggregateRiskAnalysis

        yet, portfolio, catalog = make_workload(n_trials=30)
        elts = list(portfolio.elts.values())
        books = []
        for k in range(3):
            p = Portfolio()
            for elt in elts:
                p.add_elt(elt)
            p.add_layer(
                Layer(
                    layer_id=k,
                    elt_ids=tuple(e.elt_id for e in elts),
                    terms=LayerTerms(occ_retention=25.0 * k),
                )
            )
            books.append(p)
        ara = AggregateRiskAnalysis(portfolio, catalog)
        many = ara.run_many(yet, books, engine="sequential", max_concurrent=3)
        assert len(many) == 3
        for book, result in zip(books, many):
            solo = AggregateRiskAnalysis(book, catalog).run(
                yet, engine="sequential"
            )
            np.testing.assert_array_equal(
                result.ylt.losses, solo.ylt.losses
            )

    def test_no_engine_owns_decomposition(self):
        """Source-level guard: the decomposition helpers live in the
        planner, not in any engine module."""
        import pathlib

        import repro.engines as engines_pkg

        root = pathlib.Path(engines_pkg.__file__).parent
        forbidden = (
            "balanced_chunk_ranges",
            "chunk_ranges",
            "autotune_batch_trials",
            "decompose(",
            "decompose_balanced",
        )
        for path in root.glob("*.py"):
            text = path.read_text()
            for token in forbidden:
                assert token not in text, f"{path.name} still uses {token}"
