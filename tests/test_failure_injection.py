"""Failure injection and hostile-input tests.

A production library fails loudly and precisely: device out-of-memory,
non-finite inputs, corrupted files, impossible launch configurations.
"""

import numpy as np
import pytest

from repro.data.elt import EventLossTable
from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.engines.gpu_optimized import GPUBasicEngine
from repro.engines.multigpu import MultiGPUEngine
from repro.gpusim.device import DeviceSpec


def tiny_device(mem_bytes: int) -> DeviceSpec:
    """A GPU with an arbitrarily small global memory."""
    return DeviceSpec(
        name="Tiny",
        n_sms=2,
        cores_per_sm=32,
        clock_ghz=1.0,
        global_mem_bytes=mem_bytes,
        mem_bandwidth_gbs=100.0,
    )


class TestDeviceOutOfMemory:
    def test_gpu_engine_oom_on_undersized_device(self, tiny_workload):
        engine = GPUBasicEngine(device_spec=tiny_device(1024))
        with pytest.raises(MemoryError, match="cannot allocate"):
            engine.run(
                tiny_workload.yet,
                tiny_workload.portfolio,
                tiny_workload.catalog.n_events,
            )

    def test_multigpu_engine_oom_propagates_from_worker_thread(
        self, tiny_workload
    ):
        engine = MultiGPUEngine(
            device_spec=tiny_device(1024), n_devices=2
        )
        with pytest.raises(MemoryError):
            engine.run(
                tiny_workload.yet,
                tiny_workload.portfolio,
                tiny_workload.catalog.n_events,
            )


class TestHostileInputs:
    def test_nan_losses_rejected_at_construction(self):
        with pytest.raises(ValueError, match="finite"):
            EventLossTable(
                elt_id=0,
                event_ids=np.array([1, 2], dtype=np.int32),
                losses=np.array([1.0, np.nan]),
            )

    def test_inf_losses_rejected_at_construction(self):
        with pytest.raises(ValueError, match="finite"):
            EventLossTable.from_dict(0, {1: np.inf})

    def test_event_ids_beyond_catalog_fail_direct_table(self):
        from repro.lookup.direct import DirectAccessTable

        elt = EventLossTable.from_dict(0, {5000: 1.0})
        with pytest.raises(ValueError, match="smaller"):
            DirectAccessTable(elt, catalog_size=100)

    def test_engine_rejects_zero_catalog(self, tiny_workload):
        with pytest.raises(ValueError):
            GPUBasicEngine().run(
                tiny_workload.yet, tiny_workload.portfolio, 0
            )

    def test_yet_with_garbage_offsets_rejected(self):
        with pytest.raises(ValueError):
            YearEventTable(
                event_ids=np.array([1], dtype=np.int32),
                timestamps=np.array([0.5], dtype=np.float32),
                offsets=np.array([0, 5], dtype=np.int64),  # beyond data
            )

    def test_portfolio_mutated_after_build_caught_by_engine(
        self, tiny_workload
    ):
        portfolio = Portfolio()
        portfolio.add_elt(EventLossTable.from_dict(0, {1: 1.0}))
        from repro.data.layer import Layer

        portfolio.add_layer(Layer(layer_id=0, elt_ids=(0,)))
        del portfolio.elts[0]  # corrupt it
        with pytest.raises(KeyError):
            GPUBasicEngine().run(tiny_workload.yet, portfolio, 100)


class TestCorruptedFiles:
    def test_truncated_npz_rejected(self, tmp_path):
        from repro.io.binary import load_yet

        path = tmp_path / "broken.npz"
        path.write_bytes(b"PK\x03\x04 not a real zip")
        with pytest.raises(Exception):
            load_yet(path)

    def test_wrong_container_type_rejected(self, tmp_path, tiny_workload):
        from repro.io.binary import load_portfolio, save_yet

        path = tmp_path / "yet.npz"
        save_yet(tiny_workload.yet, path)
        with pytest.raises(ValueError, match="format"):
            load_portfolio(path)


class TestDegenerateWorkloads:
    def test_single_trial_single_event(self):
        yet = YearEventTable.from_trials([[(1, 0.5)]])
        portfolio = Portfolio.single_layer(
            [EventLossTable.from_dict(0, {1: 7.0})]
        )
        for engine_cls in (GPUBasicEngine,):
            result = engine_cls().run(yet, portfolio, 10)
            assert result.ylt.layer_losses(0)[0] == pytest.approx(7.0)

    def test_all_trials_empty(self):
        yet = YearEventTable.from_trials([[], [], []])
        portfolio = Portfolio.single_layer(
            [EventLossTable.from_dict(0, {1: 7.0})]
        )
        result = GPUBasicEngine().run(yet, portfolio, 10)
        assert np.all(result.ylt.losses == 0.0)

    def test_no_trial_events_hit_any_elt(self):
        yet = YearEventTable.from_trials([[(9, 0.1)], [(8, 0.2)]])
        portfolio = Portfolio.single_layer(
            [EventLossTable.from_dict(0, {1: 7.0})]
        )
        result = GPUBasicEngine().run(yet, portfolio, 10)
        assert np.all(result.ylt.losses == 0.0)

    def test_catalog_of_one_event(self):
        yet = YearEventTable.from_trials([[(1, 0.5), (1, 0.9)]])
        portfolio = Portfolio.single_layer(
            [EventLossTable.from_dict(0, {1: 3.0})]
        )
        result = GPUBasicEngine().run(yet, portfolio, 1)
        assert result.ylt.layer_losses(0)[0] == pytest.approx(6.0)
