"""Multi-GPU performance prediction (implementation (v)).

Trials are block-partitioned over homogeneous devices; each device stages
the full ELT tables plus its YET slice and runs the optimised kernel.
The modeled time is the fork-join makespan — the slowest (largest) slice —
matching both the paper's architecture and our simulated engine.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.data.presets import WorkloadSpec
from repro.engines.gpu_common import (
    OPTIMIZED_REGISTERS_PER_THREAD,
    OptimizationFlags,
    modeled_activity_profile,
    optimized_barrier_intensity,
    optimized_mlp,
    optimized_shared_bytes_per_block,
    record_optimized_traffic,
)
from repro.gpusim.costmodel import estimate_kernel_seconds
from repro.gpusim.device import DeviceSpec, TESLA_M2090
from repro.gpusim.hierarchy import KernelLaunch
from repro.gpusim.memory import DeviceCounters
from repro.gpusim.occupancy import compute_occupancy
from repro.gpusim.transfer import TransferModel
from repro.perfmodel.result import PerfPrediction
from repro.utils.timer import ACTIVITY_OTHER
from repro.utils.validation import check_positive


def predict_multi_gpu(
    spec: WorkloadSpec,
    n_devices: int = 4,
    device: DeviceSpec = TESLA_M2090,
    threads_per_block: int = 32,
    chunk_events: int = 96,
    flags: OptimizationFlags | None = None,
) -> PerfPrediction:
    """Modeled time of the optimised kernel over ``n_devices`` GPUs.

    Raises ``ValueError`` for infeasible block sizes (shared-memory
    overflow), which is how the Figure 4 sweep's truncation beyond 64
    threads per block is represented.

    Staging follows the paper's stage-then-compute order: the largest
    device's tables, YET slice and YLT slice are priced on top of its
    kernel time, with no copy overlapping a kernel.
    """
    check_positive("n_devices", n_devices)
    flags = flags if flags is not None else OptimizationFlags.all()
    word_bytes = 4 if flags.float32 else 8

    # The largest slice dominates the makespan.
    trials_max = math.ceil(spec.n_trials / n_devices)
    occ_max = trials_max * spec.events_per_trial
    trial_fraction = trials_max / spec.n_trials

    counters = DeviceCounters(device=device)
    for _ in range(spec.n_layers):
        record_optimized_traffic(
            counters,
            n_occ=occ_max,
            n_trials=trials_max,
            n_elts=spec.elts_per_layer,
            word=word_bytes,
            flags=flags,
            chunk_events=chunk_events,
        )
    launch = KernelLaunch(
        n_threads_total=trials_max,
        threads_per_block=threads_per_block,
        shared_bytes_per_block=optimized_shared_bytes_per_block(
            threads_per_block, chunk_events, word_bytes, flags
        ),
        registers_per_thread=OPTIMIZED_REGISTERS_PER_THREAD,
    )
    launch.validate_against(device)
    occupancy = compute_occupancy(device, launch)
    if not occupancy.launchable:
        raise ValueError(
            f"infeasible launch: {threads_per_block} threads/block with "
            f"{launch.shared_bytes_per_block} B shared "
            f"(limited by {occupancy.limiting_resource})"
        )
    cost = estimate_kernel_seconds(
        device,
        launch,
        counters,
        mlp=optimized_mlp(flags, chunk_events),
        barrier_intensity=optimized_barrier_intensity(flags),
    )

    # Per-device staging: full tables + its YET slice in, its YLT out.
    transfers = TransferModel(device=device)
    table_bytes_layer = (
        spec.catalog_size + 1
    ) * word_bytes * spec.elts_per_layer
    table_bytes = table_bytes_layer * spec.n_layers
    transfers.h2d(table_bytes, "elt_tables")
    transfers.h2d(spec.n_occurrences * 4 * trial_fraction, "yet_slice")
    transfers.d2h(
        spec.n_trials * 8 * trial_fraction * spec.n_layers, "ylt_slice"
    )
    total = cost.total + transfers.total_seconds
    profile = modeled_activity_profile(
        counters, cost.bandwidth_s, cost.compute_s
    )
    leftover = total - profile.total
    if leftover > 0:
        profile.charge(ACTIVITY_OTHER, leftover)

    meta: Dict[str, Any] = {
        "device": device.name,
        "n_devices": n_devices,
        "threads_per_block": threads_per_block,
        "chunk_events": chunk_events,
        "flags": flags.describe(),
        "trials_per_device": trials_max,
        "occupancy": cost.occupancy.occupancy,
        "blocks_per_sm": cost.occupancy.blocks_per_sm,
        "limiting_resource": cost.occupancy.limiting_resource,
        "kernel_seconds": cost.total,
        "transfer_seconds": transfers.total_seconds,
    }
    return PerfPrediction(
        implementation="multi-gpu",
        total_seconds=total,
        profile=profile,
        meta=meta,
    )


def scaling_curve(
    spec: WorkloadSpec,
    device_counts: List[int] = [1, 2, 3, 4],
    device: DeviceSpec = TESLA_M2090,
    threads_per_block: int = 32,
    chunk_events: int = 96,
) -> List[Dict[str, float]]:
    """Figure 3: time and efficiency vs number of GPUs.

    Efficiency is speedup over the 1-GPU point divided by device count —
    the paper reports ~100% because trials decompose perfectly and each
    device's staging shrinks with its slice.
    """
    baseline = None
    rows: List[Dict[str, float]] = []
    for n in device_counts:
        prediction = predict_multi_gpu(
            spec,
            n_devices=n,
            device=device,
            threads_per_block=threads_per_block,
            chunk_events=chunk_events,
        )
        if baseline is None:
            baseline = prediction.total_seconds
        speedup = baseline / prediction.total_seconds
        rows.append(
            {
                "n_gpus": n,
                "seconds": prediction.total_seconds,
                "speedup_vs_1gpu": speedup,
                "efficiency": speedup / (n / device_counts[0]),
            }
        )
    return rows
