"""Single-GPU performance predictions (basic and optimised kernels).

These predictions execute *no* kernel: they build the same traffic ledger
the simulated kernels record (via the shared recorders in
:mod:`repro.engines.gpu_common`) for the whole workload at once, then
price it with the gpusim cost model plus PCIe staging.  By construction a
prediction equals the modeled seconds the corresponding engine reports on
the same workload (up to per-batch rounding of coalesced transactions) —
property-tested in ``tests/perfmodel``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.kernels import occ_chunk_for
from repro.data.presets import WorkloadSpec
from repro.engines.gpu_common import (
    BASIC_REGISTERS_PER_THREAD,
    OPTIMIZED_REGISTERS_PER_THREAD,
    OptimizationFlags,
    modeled_activity_profile,
    optimized_barrier_intensity,
    optimized_mlp,
    optimized_shared_bytes_per_block,
    record_optimized_traffic,
    record_ragged_traffic,
)
from repro.gpusim.costmodel import estimate_kernel_seconds
from repro.gpusim.device import DeviceSpec, TESLA_C2075
from repro.gpusim.hierarchy import KernelLaunch
from repro.gpusim.memory import DeviceCounters
from repro.gpusim.occupancy import compute_occupancy
from repro.gpusim.transfer import TransferModel
from repro.perfmodel.result import PerfPrediction
from repro.utils.timer import ACTIVITY_OTHER


def _staging_seconds(
    spec: WorkloadSpec,
    device: DeviceSpec,
    table_word_bytes: int,
    trial_fraction: float = 1.0,
) -> tuple[float, Dict[str, float]]:
    """PCIe staging time: ELT tables + YET slice in, YLT slice out."""
    transfers = TransferModel(device=device)
    table_bytes = (
        (spec.catalog_size + 1) * table_word_bytes * spec.elts_per_layer
    ) * spec.n_layers
    yet_bytes = spec.n_occurrences * 4 * trial_fraction
    ylt_bytes = spec.n_trials * 8 * trial_fraction * spec.n_layers
    transfers.h2d(table_bytes, "elt_tables")
    transfers.h2d(yet_bytes, "yet")
    transfers.d2h(ylt_bytes, "ylt")
    detail = {
        "table_bytes": table_bytes,
        "yet_bytes": yet_bytes,
        "ylt_bytes": ylt_bytes,
        "transfer_seconds": transfers.total_seconds,
    }
    return transfers.total_seconds, detail


def predict_gpu_basic(
    spec: WorkloadSpec,
    device: DeviceSpec = TESLA_C2075,
    threads_per_block: int = 256,
    word_bytes: int = 8,
) -> PerfPrediction:
    """Modeled time of the basic CUDA implementation (iii).

    ``word_bytes=8``: the basic kernel works in double precision.  Its
    ledger is the optimised kernel's with no optimisation applied.
    """
    counters = DeviceCounters(device=device)
    for _ in range(spec.n_layers):
        record_optimized_traffic(
            counters,
            n_occ=spec.n_occurrences,
            n_trials=spec.n_trials,
            n_elts=spec.elts_per_layer,
            word=word_bytes,
            flags=OptimizationFlags.none(),
            chunk_events=24,  # priced only with chunking on
        )
    launch = KernelLaunch(
        n_threads_total=spec.n_trials,
        threads_per_block=threads_per_block,
        shared_bytes_per_block=0,
        registers_per_thread=BASIC_REGISTERS_PER_THREAD,
    )
    launch.validate_against(device)
    cost = estimate_kernel_seconds(device, launch, counters, mlp=1.0)
    staging, detail = _staging_seconds(spec, device, word_bytes)
    total = cost.total + staging

    profile = modeled_activity_profile(
        counters, cost.bandwidth_s, cost.compute_s
    )
    leftover = total - profile.total
    if leftover > 0:
        profile.charge(ACTIVITY_OTHER, leftover)
    meta: Dict[str, Any] = {
        "device": device.name,
        "threads_per_block": threads_per_block,
        "occupancy": cost.occupancy.occupancy,
        "blocks_per_sm": cost.occupancy.blocks_per_sm,
        "limiting_resource": cost.occupancy.limiting_resource,
        "kernel_seconds": cost.total,
        "memory_bound": cost.memory_bound,
        **detail,
    }
    return PerfPrediction(
        implementation="gpu", total_seconds=total, profile=profile, meta=meta
    )


def predict_gpu_optimized(
    spec: WorkloadSpec,
    device: DeviceSpec = TESLA_C2075,
    threads_per_block: int = 256,
    chunk_events: int = 24,
    flags: OptimizationFlags | None = None,
) -> PerfPrediction:
    """Modeled time of the optimised CUDA implementation (iv).

    Raises ``ValueError`` when the launch is infeasible on the device
    (shared-memory overflow) — the condition that truncates Figure 4.
    """
    flags = flags if flags is not None else OptimizationFlags.all()
    word_bytes = 4 if flags.float32 else 8
    counters = DeviceCounters(device=device)
    for _ in range(spec.n_layers):
        record_optimized_traffic(
            counters,
            n_occ=spec.n_occurrences,
            n_trials=spec.n_trials,
            n_elts=spec.elts_per_layer,
            word=word_bytes,
            flags=flags,
            chunk_events=chunk_events,
        )
    launch = KernelLaunch(
        n_threads_total=spec.n_trials,
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
    staging, detail = _staging_seconds(spec, device, word_bytes)
    total = cost.total + staging

    profile = modeled_activity_profile(
        counters, cost.bandwidth_s, cost.compute_s
    )
    leftover = total - profile.total
    if leftover > 0:
        profile.charge(ACTIVITY_OTHER, leftover)
    meta: Dict[str, Any] = {
        "device": device.name,
        "threads_per_block": threads_per_block,
        "chunk_events": chunk_events,
        "flags": flags.describe(),
        "occupancy": cost.occupancy.occupancy,
        "blocks_per_sm": cost.occupancy.blocks_per_sm,
        "limiting_resource": cost.occupancy.limiting_resource,
        "kernel_seconds": cost.total,
        "memory_bound": cost.memory_bound,
        **detail,
    }
    return PerfPrediction(
        implementation="gpu-optimized",
        total_seconds=total,
        profile=profile,
        meta=meta,
    )


def predict_gpu_ragged(
    spec: WorkloadSpec,
    device: DeviceSpec = TESLA_C2075,
    threads_per_block: int = 256,
    optimized: bool = False,
    flags: OptimizationFlags | None = None,
    chunk_events: int = 24,
    secondary: bool = False,
) -> PerfPrediction:
    """Modeled time of the *fused ragged* kernel at paper scale.

    Prices the :func:`~repro.engines.gpu_common.record_ragged_traffic`
    ledger — the coalesced CSR streams, the single fused gather per
    (event, ELT) pair, and the one-pass segment reduction — with the
    same cost model as the paper-ledger predictions, so paper-scale
    projections show the fusion win of the fused kernel.

    ``optimized=False`` mirrors the basic engine running the ragged
    kernel (no shared staging, ``mlp=1``, the basic register
    footprint); ``optimized=True`` mirrors the optimised engines
    (``flags`` default all four optimisations, chunked staging with
    ``chunk_events`` loads in flight).  ``secondary`` adds the fused secondary-uncertainty
    path's quantile-table reads and counter-RNG arithmetic.
    """
    if optimized:
        flags = flags if flags is not None else OptimizationFlags.all()
    else:
        if flags is not None:
            raise ValueError(
                "flags apply only to optimized=True: the basic engine "
                "runs the ragged kernel with no optimisations "
                "(its kernel records flags=none), so a flagged "
                "basic-ragged projection would model a kernel that "
                "does not exist"
            )
        flags = OptimizationFlags.none()
    word_bytes = 4 if flags.float32 else 8
    # The fused gather's occurrence-chunk depth, exactly as the kernel
    # classes derive it (the ragged ledger's constant-traffic input).
    occ_chunk = occ_chunk_for(max(1, spec.elts_per_layer), word_bytes)
    counters = DeviceCounters(device=device)
    for _ in range(spec.n_layers):
        record_ragged_traffic(
            counters,
            n_occ=spec.n_occurrences,
            n_trials=spec.n_trials,
            n_elts=spec.elts_per_layer,
            word=word_bytes,
            flags=flags,
            occ_chunk=occ_chunk,
            secondary=secondary,
        )
    launch = KernelLaunch(
        n_threads_total=spec.n_trials,
        threads_per_block=threads_per_block,
        shared_bytes_per_block=(
            optimized_shared_bytes_per_block(
                threads_per_block, chunk_events, word_bytes, flags
            )
            if optimized
            else 0
        ),
        registers_per_thread=(
            OPTIMIZED_REGISTERS_PER_THREAD
            if optimized
            else BASIC_REGISTERS_PER_THREAD
        ),
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
        mlp=optimized_mlp(flags, chunk_events) if optimized else 1.0,
        barrier_intensity=(
            optimized_barrier_intensity(flags) if optimized else 0.0
        ),
    )
    staging, detail = _staging_seconds(spec, device, word_bytes)
    total = cost.total + staging

    profile = modeled_activity_profile(
        counters, cost.bandwidth_s, cost.compute_s
    )
    leftover = total - profile.total
    if leftover > 0:
        profile.charge(ACTIVITY_OTHER, leftover)
    meta: Dict[str, Any] = {
        "device": device.name,
        "threads_per_block": threads_per_block,
        "kernel": "ragged",
        "optimized": optimized,
        "flags": flags.describe(),
        "occ_chunk": occ_chunk,
        "secondary": secondary,
        "occupancy": cost.occupancy.occupancy,
        "blocks_per_sm": cost.occupancy.blocks_per_sm,
        "limiting_resource": cost.occupancy.limiting_resource,
        "kernel_seconds": cost.total,
        "memory_bound": cost.memory_bound,
        **detail,
    }
    return PerfPrediction(
        implementation="gpu-ragged" if not optimized else "gpu-optimized-ragged",
        total_seconds=total,
        profile=profile,
        meta=meta,
    )
