"""End-to-end workflow integration tests (the README user journeys)."""

import numpy as np
import pytest

import repro
from repro.io.binary import (
    load_portfolio,
    load_yet,
    load_ylt,
    save_portfolio,
    save_yet,
    save_ylt,
)


class TestReadmeQuickstart:
    """The exact sequence the README promises must keep working."""

    def test_quickstart_sequence(self):
        workload = repro.generate_workload(
            repro.BENCH_SMALL.with_(n_trials=300, events_per_trial=15)
        )
        ara = repro.AggregateRiskAnalysis(
            workload.portfolio,
            catalog_size=workload.catalog.n_events,
        )
        result = ara.run(workload.yet, engine="multicore")
        summary = repro.ylt_summary(result.ylt, layer_id=0)
        assert summary["n_trials"] == 300
        fractions = result.profile.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_public_api_surface(self):
        """Everything __all__ promises must exist and be importable."""
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_engine_names_in_readme_exist(self):
        assert set(repro.available_engines()) >= {
            "sequential", "multicore", "gpu", "gpu-optimized", "multi-gpu",
        }


class TestFullPipelineWithPersistence:
    """generate → persist → reload → analyse → metrics → price."""

    def test_pipeline(self, tmp_path, tiny_workload):
        w = tiny_workload
        # Persist inputs.
        save_yet(w.yet, tmp_path / "yet.npz")
        save_portfolio(w.portfolio, tmp_path / "portfolio.npz")
        # Reload and analyse.
        yet = load_yet(tmp_path / "yet.npz")
        portfolio = load_portfolio(tmp_path / "portfolio.npz")
        ara = repro.AggregateRiskAnalysis(portfolio, w.catalog.n_events)
        result = ara.run(yet, engine="sequential")
        # Persist output, reload, compute metrics and a price.
        save_ylt(result.ylt, tmp_path / "ylt.npz")
        ylt = load_ylt(tmp_path / "ylt.npz")
        assert ylt.allclose(result.ylt, rtol=0, atol=0)
        layer = portfolio.layers[0]
        losses = ylt.layer_losses(layer.layer_id)
        quote = repro.price_layer(layer, losses)
        assert quote.premium >= quote.expected_loss
        var = repro.value_at_risk(losses, 0.95)
        tvar = repro.tail_value_at_risk(losses, 0.95)
        assert tvar >= var

    def test_cross_engine_validation_api(self, tiny_workload):
        report = repro.verify_engines(
            tiny_workload, engines=("sequential", "gpu")
        )
        assert report.all_passed


class TestOccurrenceWorkflow:
    def test_oep_pipeline(self, tiny_workload):
        w = tiny_workload
        table = repro.max_occurrence_losses(
            w.yet, w.portfolio, w.catalog.n_events
        )
        layer_id = w.portfolio.layers[0].layer_id
        curve = repro.oep_curve(table.layer_losses(layer_id))
        # OEP never exceeds AEP at the same return period when aggregate
        # terms are identity; here just require a well-formed curve.
        assert curve.probabilities.size >= 1
        assert np.all(curve.probabilities <= 1.0)

    def test_convergence_pipeline(self, small_workload):
        w = small_workload
        ara = repro.AggregateRiskAnalysis(w.portfolio, w.catalog.n_events)
        result = ara.run(w.yet, engine="sequential")
        losses = result.ylt.layer_losses(w.portfolio.layers[0].layer_id)
        rows = repro.convergence_table(
            losses, return_period_years=10.0, fractions=(0.25, 1.0)
        )
        assert rows[-1]["n_trials"] == losses.size
        lo, hi = repro.pml_confidence_interval(losses, 10.0)
        assert lo <= repro.pml(losses, 10.0) <= hi
