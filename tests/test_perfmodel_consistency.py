"""Consistency: the analytic model must agree with the simulated engines.

The perfmodel predictions and the gpusim engines share the same traffic
recorders and cost model; on any workload the analytic prediction must
therefore match the engine's modeled seconds (small slack for per-batch
rounding of coalesced transactions and trial-count remainders).
"""

import pytest

from repro.bench.runner import get_workload
from repro.data.presets import BENCH_SMALL
from repro.engines.gpu_optimized import GPUBasicEngine, GPUOptimizedEngine
from repro.engines.multigpu import MultiGPUEngine
from repro.perfmodel.cpu import predict_sequential
from repro.perfmodel.gpu import predict_gpu_basic, predict_gpu_optimized
from repro.perfmodel.multigpu import predict_multi_gpu

# A spec whose generated workload has exactly the spec's nominal shape
# (fixed event counts), so analytic totals and executed totals align.
SPEC = BENCH_SMALL.with_(
    name="consistency",
    n_trials=512,
    events_per_trial=32,
    catalog_size=4_000,
    losses_per_elt=300,
    elts_per_layer=4,
)


@pytest.fixture(scope="module")
def workload():
    return get_workload(SPEC)


def run(engine, workload):
    return engine.run(
        workload.yet, workload.portfolio, workload.catalog.n_events
    )


class TestModelEngineAgreement:
    """Pinned to ``traffic="paper"``: the analytic model prices the
    paper's padded CUDA kernels, so model↔engine agreement is a
    paper-ledger contract.  The fused ledger deliberately charges the
    fused formulation's (smaller) traffic — asserted separately below."""

    def test_gpu_basic(self, workload):
        predicted = predict_gpu_basic(SPEC).total_seconds
        modeled = run(GPUBasicEngine(traffic="paper"), workload).modeled_seconds
        assert modeled == pytest.approx(predicted, rel=0.05)

    def test_gpu_optimized(self, workload):
        predicted = predict_gpu_optimized(SPEC).total_seconds
        modeled = run(
            GPUOptimizedEngine(traffic="paper"), workload
        ).modeled_seconds
        assert modeled == pytest.approx(predicted, rel=0.05)

    def test_multi_gpu(self, workload):
        predicted = predict_multi_gpu(SPEC, n_devices=4).total_seconds
        modeled = run(
            MultiGPUEngine(n_devices=4, traffic="paper"), workload
        ).modeled_seconds
        assert modeled == pytest.approx(predicted, rel=0.08)

    @pytest.mark.parametrize("tpb", [128, 256, 512])
    def test_block_size_sweeps_agree(self, workload, tpb):
        predicted = predict_gpu_basic(
            SPEC, threads_per_block=tpb
        ).total_seconds
        modeled = run(
            GPUBasicEngine(threads_per_block=tpb, traffic="paper"), workload
        ).modeled_seconds
        assert modeled == pytest.approx(predicted, rel=0.05)


class TestRaggedLedgerShowsFusionWin:
    """The fused ledger (coalesced CSR streams + fused gather, no
    global intermediates) must price *below* the paper's padded ledger
    wherever the fusion actually removes traffic: the basic kernel's
    per-pair round trips and the optimised kernel without chunking.
    The fully chunked optimised kernel is already on-chip, so there the
    fused ledger models at parity (within the small extra coalesced
    offsets stream).  ``dense`` names the paper's padded ledger."""

    def test_ragged_beats_dense_on_basic(self, workload):
        dense = run(GPUBasicEngine(traffic="paper"), workload)
        ragged = run(GPUBasicEngine(traffic="fused"), workload)
        assert ragged.modeled_seconds < dense.modeled_seconds
        assert ragged.ylt.allclose(dense.ylt)

    def test_ragged_beats_dense_without_chunking(self, workload):
        from repro.engines.gpu_common import OptimizationFlags

        flags = OptimizationFlags(False, True, True, True)
        dense = run(
            GPUOptimizedEngine(traffic="paper", flags=flags), workload
        )
        ragged = run(
            GPUOptimizedEngine(traffic="fused", flags=flags), workload
        )
        assert ragged.modeled_seconds < dense.modeled_seconds

    def test_ragged_parity_on_fully_optimized(self, workload):
        dense = run(GPUOptimizedEngine(traffic="paper"), workload)
        ragged = run(GPUOptimizedEngine(traffic="fused"), workload)
        assert ragged.modeled_seconds <= dense.modeled_seconds * 1.02
        assert ragged.ylt.allclose(dense.ylt)


class TestLinearityOfSequentialModel:
    """§IV.A: runtime linear in each workload dimension."""

    @pytest.mark.parametrize(
        "field",
        ["n_trials", "events_per_trial", "elts_per_layer", "n_layers"],
    )
    def test_doubling_dimension_doubles_dominant_terms(self, field):
        base = predict_sequential(SPEC).total_seconds
        doubled_spec = SPEC.with_(**{field: getattr(SPEC, field) * 2})
        doubled = predict_sequential(doubled_spec).total_seconds
        ratio = doubled / base
        if field in ("n_trials", "n_layers"):
            assert ratio == pytest.approx(2.0, rel=1e-6)
        else:
            # events and ELTs don't scale the fetch term identically, so
            # the ratio is within (1, 2] but close to 2 (lookup dominates).
            assert 1.6 < ratio <= 2.0001
