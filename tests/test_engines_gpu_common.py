"""Tests for the shared GPU-kernel traffic recorders and helpers."""

import pytest

from repro.engines.gpu_common import (
    BASIC_REGISTERS_PER_THREAD,
    OptimizationFlags,
    max_feasible_threads_per_block,
    modeled_activity_profile,
    optimized_barrier_intensity,
    optimized_mlp,
    optimized_shared_bytes_per_block,
    record_optimized_traffic,
)
from repro.gpusim.device import TESLA_C2075
from repro.gpusim.memory import DeviceCounters, TrafficClass


def counters():
    return DeviceCounters(device=TESLA_C2075)


class TestOptimizationFlags:
    def test_all_and_none(self):
        assert OptimizationFlags.all().describe() == (
            "chunking+unroll+float32+registers"
        )
        assert OptimizationFlags.none().describe() == "none"

    def test_partial_describe(self):
        flags = OptimizationFlags(True, False, True, False)
        assert flags.describe() == "chunking+float32"


NONE = OptimizationFlags.none()


class TestRecordBasicTraffic:
    """The basic kernel's ledger: the optimised one with no flags."""

    def test_lookup_is_random_traffic(self):
        c = counters()
        record_optimized_traffic(c, 1000, 10, 5, 8, NONE, 24)
        random_bytes = c.global_bytes_moved[TrafficClass.RANDOM.value]
        assert random_bytes == 1000 * 5 * TESLA_C2075.transaction_bytes

    def test_intermediates_are_strided(self):
        c = counters()
        record_optimized_traffic(c, 1000, 10, 5, 8, NONE, 24)
        assert c.global_bytes_moved[TrafficClass.STRIDED.value] > 0

    def test_activity_attribution_complete(self):
        c = counters()
        record_optimized_traffic(c, 100, 10, 3, 8, NONE, 24)
        assert set(c.activity_bytes) == {
            "fetch_events", "loss_lookup", "financial_terms",
            "layer_terms", "other",
        }

    def test_traffic_scales_linearly_with_occurrences(self):
        a, b = counters(), counters()
        record_optimized_traffic(a, 100, 10, 3, 8, NONE, 24)
        record_optimized_traffic(b, 200, 10, 3, 8, NONE, 24)
        assert b.global_bytes_moved[TrafficClass.RANDOM.value] == (
            2 * a.global_bytes_moved[TrafficClass.RANDOM.value]
        )


class TestRecordOptimizedTraffic:
    def test_chunking_removes_strided_traffic(self):
        with_chunking, without = counters(), counters()
        record_optimized_traffic(
            with_chunking, 1000, 10, 5, 4, OptimizationFlags.all(), 24
        )
        record_optimized_traffic(
            without, 1000, 10, 5, 4,
            OptimizationFlags(False, True, True, True), 24,
        )
        assert (
            with_chunking.global_bytes_moved[TrafficClass.STRIDED.value] == 0
        )
        assert without.global_bytes_moved[TrafficClass.STRIDED.value] > 0

    def test_chunking_moves_work_to_shared_memory(self):
        c = counters()
        record_optimized_traffic(
            c, 1000, 10, 5, 4, OptimizationFlags.all(), 24
        )
        assert c.shared_accesses > 0
        assert c.constant_accesses > 0

    def test_no_registers_means_shared_accumulators(self):
        with_regs, without = counters(), counters()
        record_optimized_traffic(
            with_regs, 1000, 10, 5, 4, OptimizationFlags.all(), 24
        )
        record_optimized_traffic(
            without, 1000, 10, 5, 4,
            OptimizationFlags(True, True, True, False), 24,
        )
        assert without.shared_accesses > with_regs.shared_accesses

    def test_unroll_reduces_instructions(self):
        rolled, unrolled = counters(), counters()
        record_optimized_traffic(
            rolled, 1000, 10, 5, 4,
            OptimizationFlags(True, False, True, True), 24,
        )
        record_optimized_traffic(
            unrolled, 1000, 10, 5, 4, OptimizationFlags.all(), 24
        )
        assert unrolled.instructions < rolled.instructions


class TestResourceHelpers:
    def test_shared_bytes_formula(self):
        flags = OptimizationFlags.all()
        # 2 staging buffers x chunk x word per thread.
        assert optimized_shared_bytes_per_block(32, 24, 4, flags) == (
            32 * 24 * 4 * 2
        )

    def test_shared_bytes_zero_without_chunking(self):
        assert optimized_shared_bytes_per_block(
            256, 24, 8, OptimizationFlags.none()
        ) == 0

    def test_no_registers_adds_accumulator_buffer(self):
        flags = OptimizationFlags(True, True, True, False)
        with_acc = optimized_shared_bytes_per_block(32, 24, 4, flags)
        without_acc = optimized_shared_bytes_per_block(
            32, 24, 4, OptimizationFlags.all()
        )
        assert with_acc == without_acc + 32 * 24 * 4

    def test_mlp_follows_chunking(self):
        assert optimized_mlp(OptimizationFlags.all(), 96) == 96.0
        assert optimized_mlp(OptimizationFlags.none(), 96) == 1.0

    def test_barrier_follows_chunking(self):
        assert optimized_barrier_intensity(OptimizationFlags.all()) > 0
        assert optimized_barrier_intensity(OptimizationFlags.none()) == 0.0

    def test_max_feasible_tpb(self):
        flags = OptimizationFlags.all()
        tpb = max_feasible_threads_per_block(
            TESLA_C2075.shared_mem_per_sm_bytes, 24, 4, flags, cap=1024
        )
        # 192 B/thread → 48 KB / 192 = 256 threads exactly.
        assert tpb == 256

    def test_max_feasible_tpb_infeasible_chunk(self):
        flags = OptimizationFlags.all()
        with pytest.raises(ValueError, match="reduce"):
            max_feasible_threads_per_block(
                TESLA_C2075.shared_mem_per_sm_bytes, 10_000, 8, flags
            )

    def test_max_feasible_tpb_cap_below_warp(self):
        with pytest.raises(ValueError):
            max_feasible_threads_per_block(
                48 * 1024, 24, 4, OptimizationFlags.all(), cap=16
            )


class TestModeledActivityProfile:
    def test_splits_bandwidth_by_bytes(self):
        c = counters()
        c.global_random(100, 4, activity="loss_lookup")
        c.global_random(100, 4, activity="fetch_events")
        profile = modeled_activity_profile(c, bandwidth_s=2.0, compute_s=0.0)
        assert profile.seconds["loss_lookup"] == pytest.approx(1.0)
        assert profile.seconds["fetch_events"] == pytest.approx(1.0)

    def test_splits_compute_by_flops(self):
        c = counters()
        c.flops(300, 4, activity="financial_terms")
        c.flops(100, 4, activity="layer_terms")
        profile = modeled_activity_profile(c, bandwidth_s=0.0, compute_s=4.0)
        assert profile.seconds["financial_terms"] == pytest.approx(3.0)
        assert profile.seconds["layer_terms"] == pytest.approx(1.0)

    def test_empty_counters_empty_profile(self):
        profile = modeled_activity_profile(counters(), 1.0, 1.0)
        assert profile.total == 0.0

    def test_basic_registers_constant_exported(self):
        assert BASIC_REGISTERS_PER_THREAD == 20
