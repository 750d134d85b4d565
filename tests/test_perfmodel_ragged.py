"""Ragged-aware analytic perfmodel: predictions of the fused CSR kernel."""

import pytest

from repro.bench.runner import measure_engine
from repro.data.presets import BENCH_SMALL, PAPER
from repro.engines.gpu_common import OptimizationFlags
from repro.perfmodel.gpu import (
    predict_gpu_basic,
    predict_gpu_optimized,
    predict_gpu_ragged,
)


class TestPaperScaleProjections:
    def test_fusion_win_on_basic_kernel(self):
        """At paper scale the fused ragged formulation beats the padded
        basic kernel: half the strided per-pair traffic, a fraction of
        the per-event layer traffic."""
        paper = predict_gpu_basic(PAPER)
        ragged = predict_gpu_ragged(PAPER)
        assert ragged.total_seconds < paper.total_seconds
        # The win is substantial, not rounding: >20% modeled time.
        assert ragged.total_seconds < 0.8 * paper.total_seconds

    def test_parity_on_chunked_optimized_kernel(self):
        """The chunked-optimised kernel already keeps intermediates
        on-chip, so fusing buys little there — the ledger's documented
        behaviour (parity, not regression)."""
        paper = predict_gpu_optimized(PAPER)
        ragged = predict_gpu_ragged(PAPER, optimized=True)
        assert ragged.total_seconds == pytest.approx(
            paper.total_seconds, rel=0.1
        )
        assert ragged.total_seconds <= paper.total_seconds * 1.01

    def test_secondary_costs_more(self):
        base = predict_gpu_ragged(PAPER)
        secondary = predict_gpu_ragged(PAPER, secondary=True)
        assert secondary.total_seconds > base.total_seconds

    def test_flags_without_optimized_rejected(self):
        """The basic engine's ragged kernel records flags=none; a
        flagged basic projection would model a nonexistent kernel."""
        with pytest.raises(ValueError, match="optimized=True"):
            predict_gpu_ragged(PAPER, flags=OptimizationFlags.all())

    def test_flags_describe_and_meta(self):
        p = predict_gpu_ragged(PAPER, optimized=True)
        assert p.meta["kernel"] == "ragged"
        assert p.meta["optimized"] is True
        assert p.meta["flags"] == OptimizationFlags.all().describe()
        assert p.meta["occ_chunk"] >= 1


class TestEngineConsistency:
    """A prediction must price exactly what the simulated engine runs:
    both build the same per-(workload, flags) ragged ledger, so modeled
    seconds agree (whole-workload ledger vs the engine's single launch).
    """

    def test_basic_ragged_matches_engine(self):
        result = measure_engine(BENCH_SMALL, "gpu", traffic="fused")
        prediction = predict_gpu_ragged(BENCH_SMALL)
        assert result.modeled_seconds == pytest.approx(
            prediction.total_seconds, rel=1e-6
        )

    def test_optimized_ragged_matches_engine(self):
        result = measure_engine(
            BENCH_SMALL, "gpu-optimized", traffic="fused"
        )
        prediction = predict_gpu_ragged(BENCH_SMALL, optimized=True)
        assert result.modeled_seconds == pytest.approx(
            prediction.total_seconds, rel=1e-6
        )

    def test_profile_activities_sum_to_total(self):
        p = predict_gpu_ragged(BENCH_SMALL)
        assert p.profile.total == pytest.approx(p.total_seconds, rel=1e-9)
