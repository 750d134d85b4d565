"""(v) Multi-GPU engine — the paper's fastest implementation.

The optimised kernel decomposed over a pool of simulated Tesla M2090s:
the shared :class:`~repro.plan.planner.Planner` block-partitions the
trial space into one lane per device (equal trial counts, the paper's
rule, or equal occurrence counts with ``balance="events"``), each device
receives the full ELT tables plus its YET slice, and the
:class:`~repro.plan.scheduler.Scheduler` drives one *real* host thread
per device — the paper's "a thread on the CPU invokes and manages a GPU"
architecture.  Modeled time is the fork-join makespan: the slowest
device's staging + kernel + copy-back.

The default block size is 32 — the warp size — which the paper's Figure 4
finds optimal for this kernel: its deep chunking (``chunk_events=96``,
768 B of shared staging per thread) means a 64-thread block already
consumes the entire 48 KB shared memory of an SM, and beyond 64 threads
the launch is infeasible ("shared memory overflow").
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.core.secondary import layer_stream_key
from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.engines.base import Engine
from repro.core.kernels import build_layer_tables
from repro.engines.gpu_common import (
    TRAFFIC_FUSED,
    ARAKernel,
    OptimizationFlags,
    check_traffic,
    merge_meta_occupancy,
    modeled_activity_profile,
)
from repro.gpusim.device import DeviceSpec, TESLA_M2090
from repro.gpusim.kernel import GPUDevice, KernelResult
from repro.gpusim.multi import MultiGPU
from repro.plan.plan import ExecutionPlan, PlanTask
from repro.plan.planner import EngineCapabilities
from repro.plan.scheduler import Scheduler
from repro.plan.staging import (
    STAGING_OVERLAP,
    STAGING_SERIAL,
    TransferSchedule,
    check_staging,
    overlap_pipeline_seconds,
)
from repro.utils.timer import ACTIVITY_OTHER, ActivityProfile
from repro.utils.validation import check_positive


class MultiGPUEngine(Engine):
    """Optimised kernel over ``n_devices`` simulated GPUs.

    Parameters
    ----------
    n_devices:
        Pool size (the paper's platform has four M2090s).
    threads_per_block:
        Block size per device kernel (32 = warp size is the paper's and
        our optimum; Figure 4's sweep).
    chunk_events:
        Per-thread staging depth (96 events → 768 B/thread in float32,
        saturating shared memory at 64 threads/block).
    balance:
        Trial-partitioning strategy: ``"trials"`` (the paper's equal
        trial-count split) or ``"events"`` (equal occurrence counts — an
        extension that load-balances ragged YETs).  Resolved by the
        shared planner, the same rule the multicore engine's ragged
        path uses.
    staging:
        Table-broadcast schedule (modeled time only; functional results
        are identical either way).  ``"serial"`` (default) stages each
        layer's tables before its kernel, the paper's behaviour and the
        historically pinned modeled numbers.  ``"overlap"`` prices the
        :class:`~repro.plan.staging.TransferSchedule`: byte-identical
        table broadcasts are deduped across layers sharing ELTs, and
        each device streams layer ``i+1``'s tables while layer ``i``'s
        kernel runs (copy/compute overlap), never slower than serial.
    traffic:
        Traffic ledger the simulated device prices: ``"fused"`` (the
        default, what the ragged kernel moves) or ``"paper"`` (the
        paper's padded CUDA kernel, as the analytic model prices it).
        Changes modeled seconds only, never the YLT.
    """

    name = "multi-gpu"

    def __init__(
        self,
        lookup_kind: str = "direct",
        dtype: np.dtype | type = np.float64,
        device_spec: DeviceSpec = TESLA_M2090,
        n_devices: int = 4,
        threads_per_block: int = 32,
        chunk_events: int = 96,
        flags: OptimizationFlags | None = None,
        batch_blocks: int = 2048,
        balance: str = "trials",
        traffic: str = TRAFFIC_FUSED,
        secondary=None,
        secondary_seed=None,
        staging: str = STAGING_SERIAL,
    ) -> None:
        super().__init__(
            lookup_kind=lookup_kind,
            dtype=dtype,
            secondary=secondary,
            secondary_seed=secondary_seed,
        )
        self.traffic = check_traffic(traffic)
        check_positive("n_devices", n_devices)
        check_positive("threads_per_block", threads_per_block)
        check_positive("chunk_events", chunk_events)
        if balance not in ("trials", "events"):
            raise ValueError(
                f"balance must be 'trials' or 'events', got {balance!r}"
            )
        self.device_spec = device_spec
        self.n_devices = int(n_devices)
        self.threads_per_block = int(threads_per_block)
        self.chunk_events = int(chunk_events)
        self.flags = flags if flags is not None else OptimizationFlags.all()
        self.batch_blocks = int(batch_blocks)
        self.balance = balance
        self.staging = check_staging(staging)

    @property
    def working_dtype(self) -> np.dtype:
        return np.dtype(np.float32) if self.flags.float32 else self.dtype

    def capabilities(self) -> EngineCapabilities:
        # One lane per device, one launch per (layer, device).
        return EngineCapabilities(
            engine=self.name,
            n_slots=self.n_devices,
            balance=self.balance,
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
        pool = MultiGPU(self.n_devices, spec=self.device_spec)
        scheduler = Scheduler(max_workers=self.n_devices)
        dtype = self.working_dtype
        base_seed = self._secondary_base_seed()

        per_layer: Dict[int, np.ndarray] = {}
        profile = ActivityProfile()
        meta: Dict[str, Any] = {
            "device": self.device_spec.name,
            "n_devices": self.n_devices,
            "flags": self.flags.describe(),
            "chunk_events": self.chunk_events,
            "balance": plan.balance,
            "traffic": self.traffic,
            "secondary": self.secondary is not None,
            "staging": self.staging,
            "per_device": [],
        }
        modeled_total = 0.0
        overlap = self.staging == STAGING_OVERLAP
        schedule = TransferSchedule.for_portfolio(portfolio, dtype)
        if overlap:
            meta["transfer_schedule"] = schedule.summary()
        # Alloc name of the device-resident copy of each unique table
        # block (the first layer staging a key owns the allocation).
        table_names: Dict[Any, str] = {}
        # Per-device (stage, compute) legs per layer, for the pipelined
        # makespan under ``staging="overlap"``.
        stage_legs: List[List[float]] = [[] for _ in range(self.n_devices)]
        compute_legs: List[List[float]] = [[] for _ in range(self.n_devices)]

        for layer in portfolio.layers:
            # Every device needs the full ELT tables (lookups are not
            # partitionable by trial); tables are built once on the host
            # (through the shared cache) and conceptually broadcast to
            # each device.
            lookups, stacked, table_bytes = build_layer_tables(
                portfolio.elts_of(layer),
                catalog_size,
                self.lookup_kind,
                dtype,
            )
            out = np.empty(yet.n_trials, dtype=np.float64)
            fresh = schedule.is_fresh(layer.layer_id)
            table_key = (tuple(sorted(layer.elt_ids)), dtype.str)
            if fresh:
                table_names[table_key] = f"tables_layer{layer.layer_id}"
            table_name = table_names[table_key]

            def run_device(
                slot: int, tasks: List[PlanTask]
            ) -> tuple[KernelResult, float, float, PlanTask]:
                (task,) = tasks  # whole-lane plans: one launch per device
                device: GPUDevice = pool.devices[slot]
                sub_yet = yet.slice_trials(task.trial_start, task.trial_stop)
                stage_in = 0.0
                yet_bytes = sub_yet.n_occurrences * 4
                name = f"layer{layer.layer_id}"
                device.alloc(f"yet_{name}", yet_bytes)
                stage_in += device.transfers.h2d(yet_bytes, f"yet_{name}")
                alloc_name = table_name if overlap else f"tables_{name}"
                if not overlap or fresh:
                    # Serial mode restages every layer (the paper's
                    # behaviour); overlap mode broadcasts each unique
                    # table block once and keeps it device-resident.
                    device.alloc(alloc_name, table_bytes)
                    stage_in += device.transfers.h2d(table_bytes, alloc_name)
                out_bytes = sub_yet.n_trials * 8
                device.alloc(f"ylt_{name}", out_bytes)

                kernel = ARAKernel(
                    yet=sub_yet,
                    lookups=lookups,
                    layer_terms=layer.terms,
                    out=out[task.trial_start : task.trial_stop],
                    dtype=dtype,
                    flags=self.flags,
                    chunk_events=self.chunk_events,
                    traffic=self.traffic,
                    stacked=stacked,
                    secondary=self.secondary,
                    secondary_stream_key=layer_stream_key(
                        base_seed, layer.layer_id
                    ),
                    # Global origin of this device's YET slice keeps
                    # the counter-based secondary draws identical for
                    # any device count.
                    occ_origin=task.occ_start,
                )
                result = device.launch(
                    kernel,
                    n_threads_total=sub_yet.n_trials,
                    threads_per_block=self.threads_per_block,
                    batch_blocks=self.batch_blocks,
                )
                copy_back = device.transfers.d2h(out_bytes, f"ylt_{name}")
                device.free(f"yet_{name}")
                if not overlap:
                    device.free(alloc_name)
                device.free(f"ylt_{name}")
                return result, stage_in, copy_back, task

            # One real host thread per device (the paper's management
            # scheme); the scheduler joins and we take the makespan.
            outcomes = scheduler.run_layer(plan, layer.layer_id, run_device)
            per_device_seconds: List[float] = []
            for slot, (result, stage_in, copy_back, task) in outcomes:
                staging = stage_in + copy_back
                device_seconds = result.modeled_seconds + staging
                per_device_seconds.append(device_seconds)
                stage_legs[slot].append(stage_in)
                compute_legs[slot].append(result.modeled_seconds + copy_back)
                profile = profile.merged(
                    modeled_activity_profile(
                        result.counters,
                        result.cost.bandwidth_s,
                        result.cost.compute_s,
                    )
                )
                device_meta: Dict[str, Any] = {
                    "device_id": slot,
                    "layer_id": layer.layer_id,
                    "trials": (task.trial_start, task.trial_stop),
                    "staging_seconds": staging,
                    "kernel_seconds": result.modeled_seconds,
                }
                meta["per_device"].append(
                    merge_meta_occupancy(device_meta, result)
                )
            if not overlap:
                modeled_total += pool.modeled_makespan(per_device_seconds)
            per_layer[layer.layer_id] = out

        if overlap:
            # The pipelined makespan prices the whole layer sequence at
            # once per device (copy/compute overlap spans layer
            # boundaries), then the slowest device dominates.
            modeled_total = pool.modeled_makespan(
                [
                    overlap_pipeline_seconds(stage_legs[s], compute_legs[s])
                    for s in range(self.n_devices)
                ]
            )

        # Devices ran concurrently: the merged per-activity profile summed
        # device-seconds, so normalise it to the makespan for Figure 6.
        if profile.total > 0 and modeled_total > 0:
            profile = profile.scaled(modeled_total / profile.total)
        leftover = modeled_total - profile.total
        if leftover > 0:
            profile.charge(ACTIVITY_OTHER, leftover)
        return (
            YearLossTable.from_dict(per_layer),
            profile,
            modeled_total,
            meta,
        )
