"""Tests for GPUDevice execution, transfers and the MultiGPU pool."""

import numpy as np
import pytest

from repro.gpusim.device import TESLA_C2075
from repro.gpusim.kernel import GPUDevice, SimKernel
from repro.gpusim.memory import DeviceCounters
from repro.gpusim.multi import MultiGPU
from repro.gpusim.transfer import TRANSFER_LATENCY_S, TransferModel


class DoublingKernel(SimKernel):
    """Toy kernel: out[i] = 2 * inp[i], one thread per element."""

    name = "double"
    mlp = 1.0

    def __init__(self, inp, out):
        self.inp = inp
        self.out = out
        self.ranges = []

    def run_range(self, start, stop, counters):
        self.ranges.append((start, stop))
        self.out[start:stop] = 2.0 * self.inp[start:stop]
        counters.global_coalesced((stop - start) * 8)
        counters.flops(stop - start, 8)


class TestGPUDeviceMemory:
    def test_alloc_and_free(self):
        device = GPUDevice(TESLA_C2075)
        device.alloc("a", 1024)
        assert device.mem_used == 1024
        device.free("a")
        assert device.mem_used == 0

    def test_oom_raises(self):
        device = GPUDevice(TESLA_C2075)
        with pytest.raises(MemoryError, match="cannot allocate"):
            device.alloc("huge", TESLA_C2075.global_mem_bytes + 1)

    def test_paper_scale_yet_with_timestamps_does_not_fit(self):
        # 1M trials x 1000 events x (4B id + 4B timestamp) = 8 GB > 5.375.
        device = GPUDevice(TESLA_C2075)
        with pytest.raises(MemoryError):
            device.alloc("yet_full", 1_000_000 * 1_000 * 8)

    def test_paper_scale_event_ids_only_fit(self):
        # ids only: 4 GB < 5.375 GB — why engines stage ids without times.
        device = GPUDevice(TESLA_C2075)
        device.alloc("yet_ids", 1_000_000 * 1_000 * 4)

    def test_duplicate_name_rejected(self):
        device = GPUDevice(TESLA_C2075)
        device.alloc("x", 10)
        with pytest.raises(ValueError):
            device.alloc("x", 10)

    def test_free_unknown_rejected(self):
        with pytest.raises(KeyError):
            GPUDevice(TESLA_C2075).free("nope")

    def test_free_all(self):
        device = GPUDevice(TESLA_C2075)
        device.alloc("a", 10)
        device.alloc("b", 20)
        device.free_all()
        assert device.mem_used == 0


class TestGPUDeviceLaunch:
    def test_functional_result_correct(self):
        inp = np.arange(1000, dtype=np.float64)
        out = np.empty_like(inp)
        device = GPUDevice(TESLA_C2075)
        result = device.launch(
            DoublingKernel(inp, out), n_threads_total=1000,
            threads_per_block=128,
        )
        assert np.array_equal(out, 2.0 * inp)
        assert result.modeled_seconds > 0
        assert result.counters.flops_dp == 1000

    def test_batching_covers_all_threads_without_overlap(self):
        inp = np.ones(1000)
        kernel = DoublingKernel(inp, np.empty(1000))
        GPUDevice(TESLA_C2075).launch(
            kernel, n_threads_total=1000, threads_per_block=64, batch_blocks=3
        )
        covered = []
        for start, stop in kernel.ranges:
            covered.extend(range(start, stop))
        assert covered == list(range(1000))

    def test_block_size_over_limit_rejected(self):
        kernel = DoublingKernel(np.ones(10), np.empty(10))
        with pytest.raises(ValueError):
            GPUDevice(TESLA_C2075).launch(
                kernel, n_threads_total=10, threads_per_block=2048
            )

    def test_modeled_time_independent_of_batching(self):
        inp = np.ones(4096)
        device = GPUDevice(TESLA_C2075)
        results = []
        for batch in (1, 8, 64):
            kernel = DoublingKernel(inp, np.empty_like(inp))
            results.append(
                device.launch(
                    kernel, 4096, threads_per_block=128, batch_blocks=batch
                ).modeled_seconds
            )
        assert results[0] == pytest.approx(results[1])
        assert results[1] == pytest.approx(results[2])


class TestTransferModel:
    def test_pricing_formula(self):
        transfers = TransferModel(device=TESLA_C2075)
        seconds = transfers.h2d(TESLA_C2075.pcie_bandwidth_bytes)  # 1 second of payload
        assert seconds == pytest.approx(1.0 + TRANSFER_LATENCY_S)

    def test_totals_accumulate(self):
        transfers = TransferModel(device=TESLA_C2075)
        transfers.h2d(1000, "a")
        transfers.d2h(2000, "b")
        assert transfers.h2d_bytes == 1000
        assert transfers.d2h_bytes == 2000
        assert transfers.n_transfers == 2
        assert transfers.total_seconds > 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            TransferModel(device=TESLA_C2075).h2d(-1)


class TestMultiGPU:
    def test_makespan(self):
        assert MultiGPU.modeled_makespan([1.0, 3.0, 2.0]) == 3.0
        assert MultiGPU.modeled_makespan([]) == 0.0

    def test_efficiency(self):
        # Perfect scaling: 4 devices, 4x faster → efficiency 1.
        assert MultiGPU.efficiency(4.0, 1.0, 4) == pytest.approx(1.0)
        assert MultiGPU.efficiency(4.0, 2.0, 4) == pytest.approx(0.5)

    def test_efficiency_invalid(self):
        with pytest.raises(ValueError):
            MultiGPU.efficiency(1.0, 0.0, 4)

    def test_invalid_device_count(self):
        with pytest.raises(ValueError):
            MultiGPU(0)
