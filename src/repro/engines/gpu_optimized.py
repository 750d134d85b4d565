"""Single-GPU engines: (iv) optimised and (iii) basic CUDA.

The paper's optimised CUDA implementation on one simulated Tesla C2075.
Each of the four optimisations is independently toggleable through
:class:`~repro.engines.gpu_common.OptimizationFlags`, which is what the
ablation benchmark sweeps; with all flags on, the modeled time at paper
scale roughly halves relative to the basic engine — the paper's
38.47 s → 20.63 s (~1.9x).

The basic implementation (iii) is the same engine with no optimisation
applied: :class:`GPUBasicEngine` is a profile that pins
``OptimizationFlags.none()`` and the basic kernel's register footprint.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.core.kernels import build_layer_tables
from repro.core.secondary import layer_stream_key
from repro.engines.base import Engine
from repro.engines.gpu_common import (
    BASIC_REGISTERS_PER_THREAD,
    OPTIMIZED_REGISTERS_PER_THREAD,
    TRAFFIC_FUSED,
    ARAKernel,
    OptimizationFlags,
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


class GPUOptimizedEngine(Engine):
    """Optimised CUDA implementation on one simulated GPU.

    Parameters
    ----------
    flags:
        Which optimisations are active (default: all four, the paper's
        configuration).
    chunk_events:
        Events staged per thread per chunk.  The default (24) makes a
        256-thread block consume exactly the SM's 48 KB of shared memory
        in ``float32`` — one resident block, with chunk-level prefetch
        keeping the memory bus saturated.
    threads_per_block:
        Block size (256 default, as for the basic engine).
    traffic:
        Traffic ledger the simulated device prices: ``"fused"`` (the
        default, what the ragged kernel moves) or ``"paper"`` (the
        paper's padded CUDA kernel, as the analytic model prices it).
        Changes modeled seconds only, never the YLT.
    """

    name = "gpu-optimized"
    #: register footprint of the launched kernel (occupancy input)
    registers_per_thread = OPTIMIZED_REGISTERS_PER_THREAD

    def __init__(
        self,
        lookup_kind: str = "direct",
        dtype: np.dtype | type = np.float64,
        device_spec: DeviceSpec = TESLA_C2075,
        threads_per_block: int = 256,
        chunk_events: int = 24,
        flags: OptimizationFlags | None = None,
        batch_blocks: int = 256,
        traffic: str = TRAFFIC_FUSED,
        secondary=None,
        secondary_seed=None,
    ) -> None:
        super().__init__(
            lookup_kind=lookup_kind,
            dtype=dtype,
            secondary=secondary,
            secondary_seed=secondary_seed,
        )
        self.traffic = check_traffic(traffic)
        check_positive("threads_per_block", threads_per_block)
        check_positive("chunk_events", chunk_events)
        check_positive("batch_blocks", batch_blocks)
        self.device_spec = device_spec
        self.threads_per_block = int(threads_per_block)
        self.chunk_events = int(chunk_events)
        self.flags = flags if flags is not None else OptimizationFlags.all()
        self.batch_blocks = int(batch_blocks)

    @property
    def working_dtype(self) -> np.dtype:
        """float32 when the reduced-precision optimisation is on."""
        return np.dtype(np.float32) if self.flags.float32 else self.dtype

    def capabilities(self) -> EngineCapabilities:
        # One device, one launch per layer (block-level batching and the
        # four optimisations live inside the simulated kernel).
        return EngineCapabilities(
            engine=self.name,
            n_slots=1,
            slot_batching="whole",
            dtype=self.working_dtype.str,
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
        dtype = self.working_dtype
        base_seed = self._secondary_base_seed()
        per_layer: Dict[int, np.ndarray] = {}
        modeled_total = 0.0
        profile = ActivityProfile()
        meta: Dict[str, Any] = {
            "device": self.device_spec.name,
            "flags": self.flags.describe(),
            "chunk_events": self.chunk_events,
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
                dtype,
            )
            device.alloc(f"elt_tables_layer{layer.layer_id}", table_bytes)
            modeled_total += device.transfers.h2d(
                table_bytes, f"elt_tables_layer{layer.layer_id}"
            )
            out_bytes = yet.n_trials * 8
            device.alloc(f"ylt_layer{layer.layer_id}", out_bytes)
            if not self.flags.chunking:
                # Without chunking the per-thread lx/lox intermediates
                # live in local (= global) memory; CUDA sizes local
                # memory by *resident* threads.
                local_bytes = (
                    self.device_spec.n_sms
                    * self.device_spec.max_threads_per_sm
                    * yet.max_events_per_trial
                    * dtype.itemsize
                    * 2
                )
                device.alloc(f"local_layer{layer.layer_id}", local_bytes)

            out = np.empty(yet.n_trials, dtype=np.float64)
            kernel = ARAKernel(
                yet=yet,
                lookups=lookups,
                layer_terms=layer.terms,
                out=out,
                dtype=dtype,
                flags=self.flags,
                chunk_events=self.chunk_events,
                traffic=self.traffic,
                stacked=stacked,
                secondary=self.secondary,
                secondary_stream_key=layer_stream_key(
                    base_seed, layer.layer_id
                ),
                occ_origin=task.occ_start,
                registers_per_thread=self.registers_per_thread,
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
            device.free(f"ylt_layer{layer.layer_id}")
            if not self.flags.chunking:
                device.free(f"local_layer{layer.layer_id}")
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


class GPUBasicEngine(GPUOptimizedEngine):
    """Basic CUDA implementation on one simulated GPU.

    The optimised engine with none of the four optimisations applied
    (all intermediates in global/local memory, rolled loops, working
    precision ``dtype``) and the basic kernel's 20 registers per thread.

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
    registers_per_thread = BASIC_REGISTERS_PER_THREAD

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
    ) -> None:
        super().__init__(
            lookup_kind=lookup_kind,
            dtype=dtype,
            device_spec=device_spec,
            threads_per_block=threads_per_block,
            flags=OptimizationFlags.none(),
            batch_blocks=batch_blocks,
            traffic=traffic,
            secondary=secondary,
            secondary_seed=secondary_seed,
        )
