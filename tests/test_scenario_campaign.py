"""Tests for the scenario campaign runner: reuse, replay, early stop."""

import numpy as np
import pytest

from repro.core.secondary import SecondaryUncertainty
from repro.data.generator import generate_workload
from repro.data.presets import SCENARIO_SMALL
from repro.engines import SequentialEngine
from repro.scenario.adaptive import EarlyStopPolicy
from repro.scenario.campaign import ScenarioCampaign
from repro.scenario.compiler import compile_scenario
from repro.scenario.spec import (
    FrequencyOverlay,
    Scenario,
    ScenarioSet,
    SeverityOverlay,
    TrialWindow,
)
from repro.store.base import MemoryStore
from repro.store.keys import ylt_digest

SEGMENT_TRIALS = 100


@pytest.fixture(scope="module")
def spec():
    return SCENARIO_SMALL.with_(n_trials=400, catalog_size=2_000)


@pytest.fixture(scope="module")
def workload(spec):
    return generate_workload(spec)


@pytest.fixture(scope="module")
def stress_set():
    return ScenarioSet(
        name="unit-stress",
        scenarios=(
            Scenario.baseline(),
            Scenario(
                name="surge",
                transforms=(
                    FrequencyOverlay(
                        families=("NA-*",),
                        factor=1.5,
                        trial_start=0,
                        trial_stop=SEGMENT_TRIALS,
                    ),
                ),
                seed=7,
            ),
        ),
    )


def _campaign(workload, store, **kwargs):
    kwargs.setdefault("segment_trials", SEGMENT_TRIALS)
    kwargs.setdefault("n_workers", 2)
    return ScenarioCampaign(workload, store, **kwargs)


class TestCampaignCorrectness:
    def test_campaign_matches_monolithic_run(self, workload, stress_set):
        result = _campaign(workload, MemoryStore()).run(stress_set)
        for scenario in stress_set:
            compiled = compile_scenario(scenario, workload)
            mono = SequentialEngine().run(
                compiled.yet, compiled.portfolio, workload.catalog.n_events
            )
            assert result.outcome(scenario.name).digest == ylt_digest(
                mono.ylt
            )

    def test_outcome_rows_are_jsonable(self, workload, stress_set):
        import json

        result = _campaign(workload, MemoryStore()).run(stress_set)
        json.dumps(result.rows())
        json.dumps(result.summary())


class TestDeltaReuse:
    def test_overlay_reuses_baseline_segments(self, workload, stress_set):
        store = MemoryStore()
        result = _campaign(workload, store).run(stress_set)
        baseline = result.outcome("baseline")
        surge = result.outcome("surge")
        # Cold baseline computes everything; the overlay dirties exactly
        # the first stride's trials, i.e. one segment per layer.
        assert baseline.n_computed == baseline.n_segments
        n_layers = len(workload.portfolio.layers)
        assert surge.n_computed == n_layers
        assert surge.n_reused == surge.n_segments - n_layers

    def test_campaign_replays_stored_scenarios(self, workload, stress_set):
        store = MemoryStore()
        campaign = _campaign(workload, store)
        first = campaign.run(stress_set)
        second = campaign.run(stress_set)
        for scenario in stress_set:
            a = first.outcome(scenario.name)
            b = second.outcome(scenario.name)
            assert not a.replayed
            assert b.replayed
            assert b.n_computed == 0
            assert b.digest == a.digest
            np.testing.assert_array_equal(
                b.ylt.portfolio_losses(), a.ylt.portfolio_losses()
            )
            assert b.metrics == pytest.approx(a.metrics)


def _secondary(alpha: float = 4.0, seed: int = 1):
    return {
        "secondary": SecondaryUncertainty(alpha, alpha),
        "secondary_seed": seed,
    }


#: secondary streams that differ in seed or in Beta shape only
STREAMS = [_secondary(), _secondary(seed=2), _secondary(alpha=2.0)]


class TestCampaignFingerprint:
    def test_sensitive_to_stride_and_policy(self, workload):
        variants = [
            _campaign(workload, MemoryStore()),
            _campaign(
                workload, MemoryStore(), segment_trials=SEGMENT_TRIALS * 2
            ),
            _campaign(workload, MemoryStore(), policy=EarlyStopPolicy()),
        ] + [
            _campaign(workload, MemoryStore(), engine_options=options)
            for options in STREAMS
        ]
        fps = {campaign.campaign_fingerprint() for campaign in variants}
        assert len(fps) == len(variants)

    def test_secondary_streams_never_replay_each_other(self, workload):
        """Campaigns over one store that differ only in their secondary
        stream each serve their own ``Engine.run`` digest."""
        store = MemoryStore()
        scenarios = ScenarioSet("one", (Scenario.baseline(),))
        compiled = compile_scenario(Scenario.baseline(), workload)
        for options in STREAMS:
            outcome = _campaign(
                workload, store, engine_options=options
            ).run(scenarios).outcome("baseline")
            mono = SequentialEngine(**options).run(
                compiled.yet, compiled.portfolio, workload.catalog.n_events
            )
            assert outcome.digest == ylt_digest(mono.ylt)
            assert not outcome.replayed

    def test_stable_across_instances(self, workload):
        a = _campaign(workload, MemoryStore())
        b = _campaign(workload, MemoryStore())
        assert a.campaign_fingerprint() == b.campaign_fingerprint()


class TestEarlyStopping:
    def test_stages_are_stride_aligned_and_nested(self, workload):
        policy = EarlyStopPolicy(
            stage_fractions=(0.25, 0.5, 1.0), min_trials=100
        )
        campaign = _campaign(workload, MemoryStore(), policy=policy)
        counts = campaign._stage_counts(workload.yet.n_trials)
        assert counts[-1] == workload.yet.n_trials
        assert list(counts) == sorted(set(counts))
        for count in counts[:-1]:
            assert count % SEGMENT_TRIALS == 0

    def test_early_stop_reports_fewer_trials(self, workload, stress_set):
        # A very loose tolerance stops at the first eligible stage.
        policy = EarlyStopPolicy(rel_tol=10.0, min_trials=100)
        result = _campaign(
            workload, MemoryStore(), policy=policy
        ).run(stress_set)
        for outcome in result.outcomes:
            assert outcome.early_stopped
            assert outcome.trials_used < outcome.n_trials
            assert outcome.ylt.n_trials == outcome.trials_used

    def test_no_policy_runs_full_trials_in_one_stage(self, workload, stress_set):
        result = _campaign(workload, MemoryStore()).run(stress_set)
        baseline = result.outcome("baseline")
        assert not baseline.early_stopped
        assert baseline.trials_used == baseline.n_trials
        assert len(baseline.stages) == 1

    def test_early_stop_metrics_match_prefix_run(self, workload):
        """An early-stopped YLT equals the same scenario windowed to the
        stopped prefix — staging is slicing, not approximation."""
        policy = EarlyStopPolicy(rel_tol=10.0, min_trials=100)
        scenario = Scenario.baseline()
        result = _campaign(
            workload, MemoryStore(), policy=policy
        ).run(ScenarioSet("one", (scenario,)))
        outcome = result.outcome("baseline")
        prefix = Scenario(
            name="prefix",
            transforms=(TrialWindow(0, outcome.trials_used),),
        )
        compiled = compile_scenario(prefix, workload)
        mono = SequentialEngine().run(
            compiled.yet, compiled.portfolio, workload.catalog.n_events
        )
        assert outcome.digest == ylt_digest(mono.ylt)


class TestManifestRebuild:
    def test_external_worker_context_matches_submitter(self, spec, workload):
        """The manifest's spec + scenario + stage_trials block rebuilds
        byte-identical inputs in a fresh process (simulated here by
        regenerating from the spec)."""
        from repro.fleet.context import context_from_manifest
        from repro.fleet.sweep import submit_sweep
        from repro.fleet.jobs import JobQueue

        scenario = Scenario(
            name="shock",
            transforms=(SeverityOverlay(families=("JP-*",), factor=1.25),),
            seed=3,
        )
        compiled = compile_scenario(scenario, workload)
        stage = 200
        yet_stage = compiled.yet.slice_trials(0, stage)
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            queue = JobQueue(tmp)
            ticket = submit_sweep(
                queue,
                MemoryStore(),
                yet_stage,
                compiled.portfolio,
                workload.catalog.n_events,
                SequentialEngine(),
                segment_trials=SEGMENT_TRIALS,
                workload_spec=spec,
                scenario=scenario,
                stage_trials=stage,
            )
        ctx = context_from_manifest(ticket.manifest)
        np.testing.assert_array_equal(ctx.yet.event_ids, yet_stage.event_ids)
        np.testing.assert_array_equal(ctx.yet.offsets, yet_stage.offsets)
        assert ctx.yet.n_trials == stage

    def test_manifest_without_spec_still_errors(self, workload):
        from repro.fleet.context import context_from_manifest

        with pytest.raises(ValueError, match="workload spec"):
            context_from_manifest({"sweep_id": "s", "workload": {}})


class TestCampaignValidation:
    def test_external_workers_require_spec(self, workload):
        with pytest.raises(ValueError, match="workload_spec"):
            ScenarioCampaign(workload, MemoryStore(), n_workers=0)

    def test_bad_stride_rejected(self, workload):
        with pytest.raises(ValueError, match="segment_trials"):
            ScenarioCampaign(workload, MemoryStore(), segment_trials=0)
