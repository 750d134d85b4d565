"""(iii) Basic GPU engine — the paper's unoptimised CUDA implementation.

One simulated device (Tesla C2075 by default), one thread per trial,
direct access tables and all intermediates in global memory.  The engine
stages inputs over the (modeled) PCIe bus, launches
:class:`~repro.engines.gpu_common.ARABasicKernel`, and reports both the
functional YLT (exact) and the modeled device seconds.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.core.secondary import layer_stream_key
from repro.engines.base import Engine
from repro.engines.gpu_common import (
    TRAFFIC_FUSED,
    ARABasicKernel,
    build_layer_tables,
    check_traffic,
    merge_meta_occupancy,
    modeled_activity_profile,
)
from repro.gpusim.device import DeviceSpec, TESLA_C2075
from repro.gpusim.kernel import GPUDevice
from repro.plan.plan import ExecutionPlan
from repro.plan.planner import EngineCapabilities
from repro.utils.timer import ACTIVITY_OTHER, ActivityProfile
from repro.utils.validation import check_positive


class GPUBasicEngine(Engine):
    """Basic CUDA implementation on one simulated GPU.

    Parameters
    ----------
    device_spec:
        Simulated hardware (paper: Tesla C2075).
    threads_per_block:
        CUDA block size (the paper's Figure 2 sweeps 128–640; 256 is its
        observed sweet spot and the default here).
    batch_blocks:
        Functional batching granularity (results/cost unaffected).
    traffic:
        Traffic ledger the simulated device prices: ``"fused"`` (the
        default, what the ragged kernel moves) or ``"paper"`` (the
        paper's padded CUDA kernel, as the analytic model prices it).
        Changes modeled seconds only, never the YLT.
    """

    name = "gpu"

    def __init__(
        self,
        lookup_kind: str = "direct",
        dtype: np.dtype | type = np.float64,
        device_spec: DeviceSpec = TESLA_C2075,
        threads_per_block: int = 256,
        batch_blocks: int = 256,
        traffic: str = TRAFFIC_FUSED,
        secondary=None,
        secondary_seed=None,
        backend=None,
    ) -> None:
        super().__init__(
            lookup_kind=lookup_kind,
            dtype=dtype,
            secondary=secondary,
            secondary_seed=secondary_seed,
            backend=backend,
        )
        self.traffic = check_traffic(traffic)
        check_positive("threads_per_block", threads_per_block)
        check_positive("batch_blocks", batch_blocks)
        self.device_spec = device_spec
        self.threads_per_block = int(threads_per_block)
        self.batch_blocks = int(batch_blocks)

    def capabilities(self) -> EngineCapabilities:
        # One device, one kernel launch per layer: a single whole-range
        # task per lane (block-level batching happens inside the
        # simulated device, not in the plan).
        return EngineCapabilities(
            engine=self.name,
            n_slots=1,
            slot_batching="whole",
            dtype=self.dtype.str,
            secondary=self.secondary is not None,
        )

    def _execute(
        self,
        yet: YearEventTable,
        portfolio: Portfolio,
        catalog_size: int,
        plan: ExecutionPlan,
    ) -> tuple[YearLossTable, ActivityProfile, float | None, Dict[str, Any]]:
        device = GPUDevice(self.device_spec)
        word = self.dtype.itemsize
        base_seed = self._secondary_base_seed()

        per_layer: Dict[int, np.ndarray] = {}
        modeled_total = 0.0
        profile = ActivityProfile()
        meta: Dict[str, Any] = {
            "device": self.device_spec.name,
            "traffic": self.traffic,
            "secondary": self.secondary is not None,
            "layers": [],
        }

        # The YET (event ids only — timestamps are not needed once trials
        # are time-ordered) is staged once and shared by all layers.
        yet_bytes = yet.n_occurrences * 4
        device.alloc("yet_event_ids", yet_bytes)
        modeled_total += device.transfers.h2d(yet_bytes, "yet")

        for layer in portfolio.layers:
            (task,) = plan.layer_tasks(layer.layer_id)
            lookups, stacked, table_bytes = build_layer_tables(
                portfolio.elts_of(layer),
                catalog_size,
                self.lookup_kind,
                self.dtype,
            )
            device.alloc(f"elt_tables_layer{layer.layer_id}", table_bytes)
            modeled_total += device.transfers.h2d(
                table_bytes, f"elt_tables_layer{layer.layer_id}"
            )
            # Per-thread lx/lox intermediates live in local (= global)
            # memory; CUDA sizes local memory by *resident* threads.
            local_bytes = (
                self.device_spec.n_sms
                * self.device_spec.max_threads_per_sm
                * yet.max_events_per_trial
                * word
                * 2
            )
            device.alloc(f"local_intermediates_layer{layer.layer_id}", local_bytes)
            out_bytes = yet.n_trials * 8
            device.alloc(f"ylt_layer{layer.layer_id}", out_bytes)

            out = np.empty(yet.n_trials, dtype=np.float64)
            kernel = ARABasicKernel(
                yet=yet,
                lookups=lookups,
                layer_terms=layer.terms,
                out=out,
                dtype=self.dtype,
                traffic=self.traffic,
                stacked=stacked,
                secondary=self.secondary,
                secondary_stream_key=layer_stream_key(
                    base_seed, layer.layer_id
                ),
                occ_origin=task.occ_start,
                backend=self.backend,
            )
            result = device.launch(
                kernel,
                n_threads_total=task.n_trials,
                threads_per_block=self.threads_per_block,
                batch_blocks=self.batch_blocks,
            )
            modeled_total += result.modeled_seconds
            modeled_total += device.transfers.d2h(
                out_bytes, f"ylt_layer{layer.layer_id}"
            )
            profile = profile.merged(
                modeled_activity_profile(
                    result.counters,
                    result.cost.bandwidth_s,
                    result.cost.compute_s,
                )
            )
            layer_meta: Dict[str, Any] = {"layer_id": layer.layer_id}
            meta["layers"].append(merge_meta_occupancy(layer_meta, result))

            device.free(f"elt_tables_layer{layer.layer_id}")
            device.free(f"local_intermediates_layer{layer.layer_id}")
            device.free(f"ylt_layer{layer.layer_id}")
            per_layer[layer.layer_id] = out

        # Whatever modeled time is not attributable to a Figure 6 activity
        # (launch overhead, PCIe staging) lands in "other".
        leftover = modeled_total - profile.total
        if leftover > 0:
            profile.charge(ACTIVITY_OTHER, leftover)
        meta["transfer_seconds"] = device.transfers.total_seconds
        meta["transfer_bytes"] = device.transfers.total_bytes
        return (
            YearLossTable.from_dict(per_layer),
            profile,
            modeled_total,
            meta,
        )
