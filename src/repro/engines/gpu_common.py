"""The ARA kernel for the simulated GPU, shared by engines (iii)–(v).

One kernel class, :class:`ARAKernel`, mirrors both of the paper's CUDA
implementations: the basic kernel (iii) is the optimised kernel (iv)
with none of the four optimisations of Section III applied.  The
optimisations are individually toggleable through
:class:`OptimizationFlags`, which is what the ablation benchmark sweeps:

- **chunking** — events are staged through shared memory in fixed-size
  chunks and the term computations run on the staged chunk, removing
  the intermediate global traffic and giving each thread ``chunk``
  independent loads in flight (the ``mlp`` the cost model rewards);
  without it all intermediates (per-event ``lx``/``lox`` arrays) live in
  global/local memory, so every step of Algorithm 1 re-reads and
  re-writes them ("the basic parallel implementation on the GPU requires
  high memory transactions");
- **loop unrolling** — fewer dynamic instructions per (event, ELT);
- **reduced precision** — ``float32`` tables and arithmetic;
- **registers** — per-thread accumulators move from shared memory into
  the register file.

The kernel computes with the same ragged kernel as the CPU engines
(:mod:`repro.core.kernels`), so its YLTs are exact (float64) or
float32-accurate (reduced precision) relative to the scalar reference.
The *traffic ledger* the simulated device prices is chosen with
``traffic=``:

* ``"fused"`` (the default) — :func:`record_ragged_traffic`, what the
  fused ragged formulation moves (coalesced CSR streams, fused gather,
  no global intermediates);
* ``"paper"`` — :func:`record_optimized_traffic`, the paper's padded
  CUDA kernels, which the analytic performance model prices and the
  paper-figure experiments reproduce.

The ledger is a pure function of occurrences, trials, ELTs, word size
and flags, so switching it changes modeled seconds only, never a YLT.

Paper traffic accounting per (event, ELT) pair, no optimisations:
one RANDOM lookup + four STRIDED intermediate accesses (write/read ``lx``,
read/write ``lox``); plus nine STRIDED accesses per event for the
occurrence/cumulative/aggregate steps; plus coalesced YET reads and YLT
writes.  The optimised kernel keeps only the RANDOM lookups and coalesced
streams, moving everything else on-chip — which is exactly why the paper
measures it ~2x faster (38.47 s → 20.63 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.kernels import layer_trial_batch_ragged, occ_chunk_for
from repro.core.secondary import SecondaryUncertainty
from repro.data.layer import LayerTerms
from repro.data.yet import YearEventTable
from repro.gpusim.kernel import SimKernel
from repro.gpusim.memory import DeviceCounters
from repro.lookup.combined import StackedDirectTable
from repro.utils.bufpool import ScratchBufferPool
from repro.utils.timer import (
    ACTIVITY_FETCH,
    ACTIVITY_FINANCIAL,
    ACTIVITY_LAYER,
    ACTIVITY_LOOKUP,
    ACTIVITY_OTHER,
    ActivityProfile,
)

#: the traffic ledgers a simulated GPU kernel can price (``traffic=``)
TRAFFIC_FUSED = "fused"
TRAFFIC_PAPER = "paper"
TRAFFIC_LEDGERS = (TRAFFIC_FUSED, TRAFFIC_PAPER)


def check_traffic(traffic: str) -> str:
    """Validate a traffic-ledger name (GPU engine constructors call this)."""
    if traffic not in TRAFFIC_LEDGERS:
        raise ValueError(
            f"unknown traffic ledger {traffic!r}; expected one of "
            f"{TRAFFIC_LEDGERS}"
        )
    return traffic


# Dynamic instructions per (event, ELT) iteration of the inner loop.
INSTR_PER_ITER_ROLLED = 8.0
INSTR_PER_ITER_UNROLLED = 3.0

# Register footprints (occupancy inputs) of the basic engine's kernel
# and of the optimised engines' kernel.
BASIC_REGISTERS_PER_THREAD = 20
OPTIMIZED_REGISTERS_PER_THREAD = 32

# Floating-point ops per event for each phase (fx, sub, max, min, share;
# accumulate; clamp pipelines).
FLOPS_FINANCIAL_PER_LOOKUP = 5.0
FLOPS_ACCUM_PER_LOOKUP = 1.0
FLOPS_LAYER_PER_EVENT = 9.0

# Extra work per (event, ELT) pair with secondary uncertainty on: one
# Philox counter round for the uniform, the bin-index scale, and the
# multiply into the gross loss (the quantile-table read is charged as a
# random global access separately).
FLOPS_SECONDARY_PER_LOOKUP = 12.0


@dataclass(frozen=True)
class OptimizationFlags:
    """Which of the paper's four GPU optimisations are active."""

    chunking: bool = True
    unroll: bool = True
    float32: bool = True
    registers: bool = True

    @classmethod
    def none(cls) -> "OptimizationFlags":
        return cls(chunking=False, unroll=False, float32=False, registers=False)

    @classmethod
    def all(cls) -> "OptimizationFlags":
        return cls()

    def describe(self) -> str:
        on = [
            name
            for name in ("chunking", "unroll", "float32", "registers")
            if getattr(self, name)
        ]
        return "+".join(on) if on else "none"


def optimized_shared_bytes_per_block(
    threads_per_block: int,
    chunk_events: int,
    word_bytes: int,
    flags: OptimizationFlags,
) -> int:
    """Shared-memory request of the optimised kernel per block.

    Two staging buffers per thread (current chunk + prefetched next),
    plus the accumulators when the register optimisation is off.  Shared
    by the kernel class and the analytic performance model.
    """
    if not flags.chunking:
        return 0
    per_thread = chunk_events * word_bytes * 2
    if not flags.registers:
        per_thread += chunk_events * word_bytes
    return threads_per_block * per_thread


def optimized_mlp(flags: OptimizationFlags, chunk_events: int) -> float:
    """Memory-level parallelism of the optimised kernel per thread."""
    return float(chunk_events) if flags.chunking else 1.0


def optimized_barrier_intensity(flags: OptimizationFlags) -> float:
    """Barrier stall exposure (chunk staging synchronises per chunk)."""
    return 0.12 if flags.chunking else 0.0


def max_feasible_threads_per_block(
    shared_mem_per_sm_bytes: int,
    chunk_events: int,
    word_bytes: int,
    flags: OptimizationFlags,
    warp_size: int = 32,
    cap: int = 256,
) -> int:
    """Largest warp-multiple block size whose shared request fits one SM.

    Used by ablation sweeps: configurations with bigger per-thread shared
    footprints (float64, no register optimisation) must shrink the block
    to stay launchable, exactly as a CUDA programmer would.
    """
    if cap < warp_size:
        raise ValueError(f"cap {cap} below warp size {warp_size}")
    best = 0
    tpb = warp_size
    while tpb <= cap:
        if (
            optimized_shared_bytes_per_block(tpb, chunk_events, word_bytes, flags)
            <= shared_mem_per_sm_bytes
        ):
            best = tpb
        tpb += warp_size
    if best == 0:
        raise ValueError(
            f"no feasible block size: even {warp_size} threads need "
            f"{optimized_shared_bytes_per_block(warp_size, chunk_events, word_bytes, flags)} "
            f"B of shared memory (> {shared_mem_per_sm_bytes} B); reduce "
            f"chunk_events"
        )
    return best


def record_optimized_traffic(
    counters: DeviceCounters,
    n_occ: float,
    n_trials: float,
    n_elts: int,
    word: int,
    flags: OptimizationFlags,
    chunk_events: int,
) -> None:
    """Ledger entries of the paper's padded kernel (flag-dependent).

    Shared by :class:`ARAKernel` (per executed range) and the analytic
    performance model (once, with workload totals), so the two can never
    disagree about what the kernel does.  ``OptimizationFlags.none()``
    is the basic kernel (iii).
    """
    per_pair = float(n_occ) * n_elts
    counters.global_coalesced(n_occ * 4, activity=ACTIVITY_FETCH)
    counters.global_random(per_pair, word, activity=ACTIVITY_LOOKUP)

    if flags.chunking:
        # Events staged into shared memory (1 write + n_elts reads per
        # occurrence); term computations run on-chip.
        counters.shared(n_occ * (1.0 + n_elts))
        if not flags.registers:
            # Accumulators in shared memory: read-modify-write per pair.
            counters.shared(2.0 * per_pair)
        # Financial and layer term constants come from constant memory
        # (one broadcast read per chunk per term set).
        n_chunks = max(1.0, n_occ / chunk_events)
        counters.constant(n_chunks * (n_elts + 1))
    else:
        # Without chunking the intermediates stay in global memory:
        # lx written then re-read, lox read-modify-written (lines 8-13),
        # and ~9 strided accesses per event for the occurrence clamp,
        # cumulative sum, aggregate clamp, difference and final sum
        # (lines 15-29).
        counters.global_strided(
            4.0 * per_pair, word, activity=ACTIVITY_FINANCIAL
        )
        counters.global_strided(9.0 * n_occ, word, activity=ACTIVITY_LAYER)

    counters.flops(
        (FLOPS_FINANCIAL_PER_LOOKUP + FLOPS_ACCUM_PER_LOOKUP) * per_pair,
        word,
        activity=ACTIVITY_FINANCIAL,
    )
    counters.flops(FLOPS_LAYER_PER_EVENT * n_occ, word, activity=ACTIVITY_LAYER)
    counters.global_coalesced(n_trials * 8, activity=ACTIVITY_OTHER)

    instr = INSTR_PER_ITER_UNROLLED if flags.unroll else INSTR_PER_ITER_ROLLED
    counters.instruction_count(instr * per_pair)


def record_ragged_traffic(
    counters: DeviceCounters,
    n_occ: float,
    n_trials: float,
    n_elts: int,
    word: int,
    flags: OptimizationFlags,
    occ_chunk: int,
    secondary: bool = False,
) -> None:
    """Ledger entries of the *fused ragged* kernel (flag-dependent).

    The fused formulation's traffic differs from the paper's padded
    ledger in exactly the ways the fusion wins on hardware:

    * the trial stream is the CSR arrays — coalesced event ids **plus
      the coalesced offsets array** — instead of a padded id block;
    * one fused gather per (event, ELT) pair (random, irreducible), with
      the gathered chunk staged on-chip and the financial terms broadcast
      over it in place: with ``flags.chunking`` there is **no** global
      intermediate traffic, without it the gathered block spills to
      global memory and is re-read once by the terms pass (2 accesses
      per pair — still half the padded basic kernel's 4);
    * the segment reduction + occurrence/aggregate clamps make one
      strided pass over the combined vector (2 accesses per event)
      instead of the padded kernel's nine;
    * with ``secondary``, one quantile-table read per pair (random) and
      the counter-RNG arithmetic.

    Shared by :class:`ARAKernel` under ``traffic="fused"`` so the
    modeled GPU seconds show the same fusion win the CPU wall clock
    measures.
    """
    per_pair = float(n_occ) * n_elts
    # CSR streams: event ids and the offsets array, both coalesced.
    counters.global_coalesced(n_occ * 4, activity=ACTIVITY_FETCH)
    counters.global_coalesced((n_trials + 1) * 8, activity=ACTIVITY_FETCH)
    # The fused gather: one random table read per (event, ELT) pair.
    counters.global_random(per_pair, word, activity=ACTIVITY_LOOKUP)
    if secondary:
        # Per-pair damage-ratio multiplier: one quantile-table read.
        counters.global_random(per_pair, word, activity=ACTIVITY_FINANCIAL)
        counters.flops(
            FLOPS_SECONDARY_PER_LOOKUP * per_pair,
            word,
            activity=ACTIVITY_FINANCIAL,
        )

    if flags.chunking:
        # Gathered chunk staged on-chip; terms broadcast in place, and
        # the occurrence clamp + segment accumulation consume the staged
        # combined values before they ever reach global memory.
        counters.shared(n_occ * (1.0 + n_elts))
        counters.shared(2.0 * n_occ)
        if not flags.registers:
            counters.shared(2.0 * per_pair)
        n_chunks = max(1.0, n_occ / max(1, occ_chunk))
        counters.constant(n_chunks * (n_elts + 1))
    else:
        # Without staging the gathered block spills to global memory and
        # the in-place terms pass re-reads it (write + read per pair),
        # and the combined vector makes one strided round trip — still
        # half the padded basic kernel's four per-pair accesses and a
        # fraction of its nine per-event layer accesses.
        counters.global_strided(
            2.0 * per_pair, word, activity=ACTIVITY_FINANCIAL
        )
        counters.global_strided(2.0 * n_occ, word, activity=ACTIVITY_LAYER)

    counters.flops(
        (FLOPS_FINANCIAL_PER_LOOKUP + FLOPS_ACCUM_PER_LOOKUP) * per_pair,
        word,
        activity=ACTIVITY_FINANCIAL,
    )
    counters.flops(FLOPS_LAYER_PER_EVENT * n_occ, word, activity=ACTIVITY_LAYER)
    counters.global_coalesced(n_trials * 8, activity=ACTIVITY_OTHER)

    instr = INSTR_PER_ITER_UNROLLED if flags.unroll else INSTR_PER_ITER_ROLLED
    counters.instruction_count(instr * per_pair)


class ARAKernel(SimKernel):
    """The ARA kernel on the simulated GPU (one thread per trial).

    The functional compute is always the ragged kernel of
    :mod:`repro.core.kernels` over the layer's ``stacked`` table.
    ``flags`` selects which of the paper's four optimisations the
    *modeled* kernel applies: with :meth:`OptimizationFlags.none` it is
    implementation (iii), with any flags set implementation (iv).  ``traffic`` picks the ledger the
    simulated device prices: ``"fused"`` (:func:`record_ragged_traffic`)
    or ``"paper"`` (:func:`record_optimized_traffic`, the paper's padded
    CUDA kernels).  ``registers_per_thread`` is the engine's register
    footprint — it is not derivable from the flags, because OPT-ABLATE's
    no-flags row prices the optimised kernel's 32 registers while the
    basic engine's kernel uses 20.
    """

    name = "ara"

    def __init__(
        self,
        yet: YearEventTable,
        stacked: StackedDirectTable,
        layer_terms: LayerTerms,
        out: np.ndarray,
        dtype: np.dtype,
        flags: OptimizationFlags,
        chunk_events: int = 24,
        traffic: str = TRAFFIC_FUSED,
        secondary: SecondaryUncertainty | None = None,
        secondary_stream_key: int = 0,
        occ_origin: int = 0,
        registers_per_thread: int = OPTIMIZED_REGISTERS_PER_THREAD,
    ) -> None:
        if out.shape != (yet.n_trials,):
            raise ValueError(
                f"output array shape {out.shape} != ({yet.n_trials},)"
            )
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
        self.yet = yet
        self.stacked = stacked
        self.layer_terms = layer_terms
        self.out = out
        self.dtype = np.dtype(dtype)
        self.flags = flags
        self.chunk_events = int(chunk_events)
        self.traffic = check_traffic(traffic)
        self.secondary = secondary
        self.secondary_stream_key = int(secondary_stream_key)
        # Global occurrence index of this (sub-)YET's first occurrence:
        # multi-device engines pass their slice's origin so the
        # counter-based secondary draws stay decomposition-invariant
        # across device counts.
        self.occ_origin = int(occ_origin)
        self.registers_per_thread = int(registers_per_thread)
        self._pool = ScratchBufferPool()

    # -- resource footprint ------------------------------------------------
    @property
    def word_bytes(self) -> int:
        return self.dtype.itemsize

    @property
    def n_elts(self) -> int:
        return self.stacked.n_elts

    @property
    def occ_chunk(self) -> int:
        """Occurrence-chunk depth of the fused gather."""
        return occ_chunk_for(max(1, self.n_elts), self.word_bytes)

    @property
    def mlp(self) -> float:  # type: ignore[override]
        # Chunked prefetch keeps a whole chunk of independent loads in
        # flight per thread; without chunking loads serialise behind the
        # global intermediate updates.
        return optimized_mlp(self.flags, self.chunk_events)

    @property
    def barrier_intensity(self) -> float:  # type: ignore[override]
        # Chunk staging requires block-wide synchronisation per chunk.
        return optimized_barrier_intensity(self.flags)

    def shared_bytes_per_block(self, threads_per_block: int) -> int:
        return optimized_shared_bytes_per_block(
            threads_per_block, self.chunk_events, self.word_bytes, self.flags
        )

    # -- execution ----------------------------------------------------------
    def run_range(self, start: int, stop: int, counters: DeviceCounters) -> None:
        ids, offs = self.yet.csr_block(start, stop)
        year = layer_trial_batch_ragged(
            ids,
            offs,
            self.layer_terms,
            stacked=self.stacked,
            dtype=self.dtype,
            pool=self._pool,
            secondary=self.secondary,
            stream_key=self.secondary_stream_key,
            occ_base=self.occ_origin + int(self.yet.offsets[start]),
        )
        self.out[start:stop] = year
        if self.traffic == TRAFFIC_FUSED:
            record_ragged_traffic(
                counters,
                n_occ=ids.size,
                n_trials=stop - start,
                n_elts=self.n_elts,
                word=self.word_bytes,
                flags=self.flags,
                occ_chunk=self.occ_chunk,
                secondary=self.secondary is not None,
            )
            return
        record_optimized_traffic(
            counters,
            n_occ=ids.size,
            n_trials=stop - start,
            n_elts=self.n_elts,
            word=self.word_bytes,
            flags=self.flags,
            chunk_events=self.chunk_events,
        )


def modeled_activity_profile(
    counters: DeviceCounters, bandwidth_s: float, compute_s: float
) -> ActivityProfile:
    """Distribute modeled kernel seconds over the Figure 6 activities.

    Bandwidth-bound seconds are split proportionally to each activity's
    bytes moved; compute seconds proportionally to its flops.  This is the
    modeled analogue of the measured per-activity wall profile.
    """
    profile = ActivityProfile()
    total_bytes = sum(counters.activity_bytes.values())
    if total_bytes > 0:
        for activity, nbytes in counters.activity_bytes.items():
            profile.charge(activity, bandwidth_s * nbytes / total_bytes)
    total_flops = sum(counters.activity_flops.values())
    if total_flops > 0:
        for activity, flops in counters.activity_flops.items():
            profile.charge(activity, compute_s * flops / total_flops)
    return profile


def merge_meta_occupancy(meta: Dict, result) -> Dict:
    """Copy launch/occupancy details of a KernelResult into engine meta."""
    occ = result.cost.occupancy
    meta.update(
        {
            "threads_per_block": result.launch.threads_per_block,
            "n_blocks": result.launch.n_blocks,
            "blocks_per_sm": occ.blocks_per_sm,
            "occupancy": occ.occupancy,
            "limiting_resource": occ.limiting_resource,
            "concurrency_factor": result.cost.concurrency_factor,
            "memory_bound": result.cost.memory_bound,
        }
    )
    return meta
