"""Tests for the AggregateRiskAnalysis high-level API."""

import numpy as np
import pytest

from repro.core.analysis import AggregateRiskAnalysis, AnalysisResult
from repro.data.ylt import YearLossTable
from repro.utils.timer import ActivityProfile


class TestAggregateRiskAnalysis:
    def test_run_sequential(self, tiny_workload, reference_ylt):
        ara = AggregateRiskAnalysis(
            tiny_workload.portfolio, tiny_workload.catalog.n_events
        )
        result = ara.run(tiny_workload.yet, engine="sequential")
        assert isinstance(result, AnalysisResult)
        assert result.engine == "sequential"
        assert result.wall_seconds > 0
        assert reference_ylt.allclose(result.ylt)

    def test_unknown_engine_rejected(self, tiny_workload):
        ara = AggregateRiskAnalysis(
            tiny_workload.portfolio, tiny_workload.catalog.n_events
        )
        with pytest.raises(ValueError, match="unknown engine"):
            ara.run(tiny_workload.yet, engine="quantum")

    def test_engine_options_forwarded(self, tiny_workload):
        ara = AggregateRiskAnalysis(
            tiny_workload.portfolio, tiny_workload.catalog.n_events
        )
        result = ara.run(tiny_workload.yet, engine="multicore", n_cores=2)
        assert result.meta["n_cores"] == 2

    def test_run_all_covers_all_engines(self, tiny_workload):
        ara = AggregateRiskAnalysis(
            tiny_workload.portfolio, tiny_workload.catalog.n_events
        )
        results = ara.run_all(tiny_workload.yet)
        assert set(results) == {
            "sequential",
            "multicore",
            "gpu",
            "gpu-optimized",
            "multi-gpu",
        }
        baseline = results["sequential"].ylt
        for name, result in results.items():
            assert baseline.allclose(result.ylt, rtol=2e-4, atol=1.0), name

    def test_ylt_reference(self, tiny_workload, reference_ylt):
        ara = AggregateRiskAnalysis(
            tiny_workload.portfolio, tiny_workload.catalog.n_events
        )
        assert reference_ylt.allclose(ara.ylt_reference(tiny_workload.yet))

    def test_invalid_catalog_size(self, tiny_workload):
        with pytest.raises(ValueError):
            AggregateRiskAnalysis(tiny_workload.portfolio, 0)


class TestAnalysisResult:
    def test_effective_seconds_prefers_modeled(self):
        ylt = YearLossTable.single_layer(np.array([1.0]))
        result = AnalysisResult(
            ylt=ylt,
            profile=ActivityProfile(),
            engine="gpu",
            wall_seconds=10.0,
            modeled_seconds=2.0,
        )
        assert result.effective_seconds == 2.0

    def test_effective_seconds_falls_back_to_wall(self):
        ylt = YearLossTable.single_layer(np.array([1.0]))
        result = AnalysisResult(
            ylt=ylt,
            profile=ActivityProfile(),
            engine="sequential",
            wall_seconds=10.0,
        )
        assert result.effective_seconds == 10.0
