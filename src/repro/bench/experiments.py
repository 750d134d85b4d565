"""One entry point per paper table/figure (the DESIGN.md experiment index).

Every function returns an :class:`~repro.bench.runner.ExperimentReport`
whose rows interleave three sources:

* ``paper_*`` columns — the published numbers (Section IV/V, Figures 1–6);
* ``model_*`` columns — the analytic model at full paper scale;
* ``measured_*`` columns — the real engines on a scaled-down workload
  (CPU engines: wall seconds; GPU engines: the gpusim-modeled seconds of
  the actually-executed simulated kernels, with wall seconds as sanity).

``measured_spec`` defaults keep each experiment inside a few seconds so
the whole suite can run in CI; pass ``BENCH_DEFAULT``/``BENCH_LARGE`` for
tighter measured statistics.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.bench.runner import ExperimentReport, get_workload, measure_engine
from repro.data.presets import BENCH_SMALL, PAPER, WorkloadSpec
from repro.engines.gpu_common import (
    OptimizationFlags,
    max_feasible_threads_per_block,
)
from repro.gpusim.device import TESLA_C2075, TESLA_M2090
from repro.lookup.factory import LOOKUP_KINDS, build_lookup, memory_report
from repro.perfmodel.activities import activity_breakdown_table, predict_all
from repro.perfmodel.calibration import (
    PAPER_FIG1B,
    PAPER_FIG5_SECONDS,
    PAPER_MULTICORE_SPEEDUPS,
    PAPER_MULTIGPU,
    PAPER_SEQ_BREAKDOWN,
)
from repro.perfmodel.cpu import (
    predict_multicore,
    predict_multicore_oversubscribed,
    predict_sequential,
)
from repro.perfmodel.gpu import predict_gpu_basic, predict_gpu_optimized
from repro.perfmodel.multigpu import predict_multi_gpu, scaling_curve
from repro.utils.rng import default_rng
from repro.utils.timer import ACTIVITIES

#: default measured workload — small enough for CI, same shape as PAPER
DEFAULT_MEASURED = BENCH_SMALL

#: traffic ledger of the paper-figure experiments' measured GPU rows.
#: Their model_* columns price the paper's padded CUDA kernels, so the
#: simulated devices must price the same ledger.  (``create_engine``
#: drops the option for the CPU engines, which price nothing.)
PAPER_TRAFFIC = "paper"


# ----------------------------------------------------------------------
# SEQ-SCALE: linear scaling of the sequential implementation (§IV.A)
# ----------------------------------------------------------------------
def seq_scaling(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED, measure: bool = True
) -> ExperimentReport:
    """Runtime vs each workload dimension; the paper reports linearity."""
    report = ExperimentReport(
        exp_id="SEQ-SCALE",
        title="Sequential runtime scaling in trials/events/ELTs/layers",
    )
    dimensions = {
        "n_trials": lambda s, f: s.with_(n_trials=max(1, int(s.n_trials * f))),
        "events_per_trial": lambda s, f: s.with_(
            events_per_trial=max(1, int(s.events_per_trial * f))
        ),
        "elts_per_layer": lambda s, f: s.with_(
            elts_per_layer=max(1, int(s.elts_per_layer * f))
        ),
        "n_layers": lambda s, f: s.with_(n_layers=max(1, int(s.n_layers * f))),
    }
    for dim, make in dimensions.items():
        for factor in (1.0, 2.0, 4.0):
            spec = make(measured_spec, factor) if factor != 1.0 else measured_spec
            # n_layers scaling needs >1 layer to be visible.
            if dim == "n_layers" and factor > 1.0:
                spec = measured_spec.with_(n_layers=int(factor))
            model = predict_sequential(spec)
            row = {
                "dimension": dim,
                "factor": factor,
                "model_seconds": model.total_seconds,
            }
            if measure:
                result = measure_engine(spec, "sequential")
                row["measured_seconds"] = result.wall_seconds
            report.add(**row)
    report.note(
        "model_seconds scale exactly linearly per dimension (the paper's "
        "§IV.A observation); measured_seconds track within benchmarking "
        "noise and fixed overheads."
    )
    report.note(
        f"paper sequential breakdown at full scale: "
        f"{PAPER_SEQ_BREAKDOWN['total']} s total, "
        f"{PAPER_SEQ_BREAKDOWN['loss_lookup']} s (66%) lookup, "
        f"{PAPER_SEQ_BREAKDOWN['financial_and_layer']} s (31%) numeric."
    )
    return report


# ----------------------------------------------------------------------
# FIG-1a: multicore cores sweep
# ----------------------------------------------------------------------
def fig1a(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED,
    measure: bool = True,
    core_counts: Sequence[int] = (1, 2, 4, 8),
) -> ExperimentReport:
    """Figure 1a: execution time vs number of CPU cores."""
    report = ExperimentReport(
        exp_id="FIG-1a", title="Multicore CPU: cores vs execution time"
    )
    seq_model = predict_sequential(PAPER).total_seconds
    measured_base = None
    for n in core_counts:
        model = predict_multicore(PAPER, n_cores=n)
        row = {
            "n_cores": n,
            "paper_speedup": PAPER_MULTICORE_SPEEDUPS.get(n),
            "model_paper_seconds": model.total_seconds,
            "model_speedup": seq_model / model.total_seconds,
        }
        if measure:
            result = measure_engine(measured_spec, "multicore", n_cores=n)
            if measured_base is None:
                measured_base = result.wall_seconds
            row["measured_seconds"] = result.wall_seconds
            row["measured_speedup"] = measured_base / result.wall_seconds
        report.add(**row)
    report.note(
        "shape: sub-linear speedup saturating by 8 cores (memory-bandwidth "
        "bound random lookups) — paper: 1.5x/2.2x/2.6x at 2/4/8 cores."
    )
    return report


# ----------------------------------------------------------------------
# FIG-1b: oversubscription sweep
# ----------------------------------------------------------------------
def fig1b(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED,
    measure: bool = True,
    threads_per_core: Sequence[int] = (1, 4, 16, 64, 256),
    n_cores: int = 8,
) -> ExperimentReport:
    """Figure 1b: 8-core runtime vs threads per core."""
    report = ExperimentReport(
        exp_id="FIG-1b",
        title="Multicore CPU: total threads vs execution time (8 cores)",
    )
    for t in threads_per_core:
        model = predict_multicore_oversubscribed(
            PAPER, threads_per_core=t, n_cores=n_cores
        )
        row = {
            "threads_per_core": t,
            "total_threads": n_cores * t,
            "model_paper_seconds": model.total_seconds,
        }
        if measure:
            result = measure_engine(
                measured_spec,
                "multicore",
                n_cores=n_cores,
                threads_per_core=t,
            )
            row["measured_seconds"] = result.wall_seconds
        report.add(**row)
    report.note(
        f"paper endpoints: {PAPER_FIG1B['threads_per_core_1']} s at 1 "
        f"thread/core -> {PAPER_FIG1B['threads_per_core_256']} s at 256 "
        "(diminishing returns); the model reproduces the saturating drop."
    )
    return report


# ----------------------------------------------------------------------
# FIG-2: GPU threads-per-block sweep (basic kernel)
# ----------------------------------------------------------------------
def fig2(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED,
    measure: bool = True,
    block_sizes: Sequence[int] = (128, 256, 384, 512, 640),
) -> ExperimentReport:
    """Figure 2: basic GPU kernel, threads per block vs time."""
    report = ExperimentReport(
        exp_id="FIG-2",
        title="Basic GPU kernel: threads per block vs execution time",
    )
    for tpb in block_sizes:
        model = predict_gpu_basic(PAPER, threads_per_block=tpb)
        row = {
            "threads_per_block": tpb,
            "model_paper_seconds": model.total_seconds,
            "occupancy": model.meta["occupancy"],
        }
        if measure:
            result = measure_engine(
                measured_spec,
                "gpu",
                threads_per_block=tpb,
                traffic=PAPER_TRAFFIC,
            )
            row["sim_modeled_seconds"] = result.modeled_seconds
        report.add(**row)
    report.note(
        "shape: 128 threads/block measurably slower (under-occupied SMs); "
        "best from 256 with flat/diminishing returns beyond — matches the "
        "paper's reading of Figure 2."
    )
    return report


# ----------------------------------------------------------------------
# FIG-3: multi-GPU scaling and efficiency
# ----------------------------------------------------------------------
def fig3(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED,
    measure: bool = True,
    device_counts: Sequence[int] = (1, 2, 3, 4),
) -> ExperimentReport:
    """Figures 3a/3b: execution time and efficiency vs number of GPUs."""
    report = ExperimentReport(
        exp_id="FIG-3", title="Multiple GPUs: time (3a) and efficiency (3b)"
    )
    curve = scaling_curve(PAPER, device_counts=list(device_counts))
    measured_base = None
    for row_model in curve:
        n = int(row_model["n_gpus"])
        row = {
            "n_gpus": n,
            "model_paper_seconds": row_model["seconds"],
            "model_efficiency": row_model["efficiency"],
        }
        if measure:
            result = measure_engine(
                measured_spec, "multi-gpu", n_devices=n, traffic=PAPER_TRAFFIC
            )
            if measured_base is None:
                measured_base = result.modeled_seconds
            row["sim_modeled_seconds"] = result.modeled_seconds
            row["sim_efficiency"] = measured_base / (
                n * result.modeled_seconds
            )
        report.add(**row)
    report.note(
        f"paper: 4.35 s on 4 GPUs, ~4x over one GPU, ~100% efficiency; "
        f"model: {curve[-1]['seconds']:.2f} s, "
        f"{curve[-1]['efficiency']*100:.1f}% efficiency."
    )
    report.note(
        f"paper single-GPU (M2090) lookup time "
        f"{PAPER_MULTIGPU['single_gpu_lookup_seconds']} s drops to "
        f"{PAPER_MULTIGPU['lookup_seconds']} s on four."
    )
    return report


# ----------------------------------------------------------------------
# FIG-4: multi-GPU threads-per-block sweep (optimised kernel)
# ----------------------------------------------------------------------
def fig4(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED,
    measure: bool = True,
    block_sizes: Sequence[int] = (16, 32, 48, 64, 96),
) -> ExperimentReport:
    """Figure 4: four GPUs, threads per block vs time (optimised kernel)."""
    report = ExperimentReport(
        exp_id="FIG-4",
        title="Four GPUs, optimised kernel: threads per block vs time",
    )
    for tpb in block_sizes:
        row = {"threads_per_block": tpb}
        try:
            model = predict_multi_gpu(PAPER, threads_per_block=tpb)
            row["model_paper_seconds"] = model.total_seconds
            row["blocks_per_sm"] = model.meta["blocks_per_sm"]
            row["feasible"] = True
        except ValueError:
            row["model_paper_seconds"] = None
            row["feasible"] = False
        if measure and row["feasible"]:
            result = measure_engine(
                measured_spec,
                "multi-gpu",
                threads_per_block=tpb,
                traffic=PAPER_TRAFFIC,
            )
            row["sim_modeled_seconds"] = result.modeled_seconds
        report.add(**row)
    report.note(
        "shape: best at 32 threads/block (the warp size: whole blocks swap "
        "on latency stalls); 16 wastes warp lanes; >64 infeasible — shared "
        "memory overflow, the paper's stated reason the sweep stops at 64."
    )
    return report


# ----------------------------------------------------------------------
# FIG-5: the headline summary across all five implementations
# ----------------------------------------------------------------------
def fig5(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED, measure: bool = True
) -> ExperimentReport:
    """Figure 5: average total seconds for implementations (i)-(v)."""
    report = ExperimentReport(
        exp_id="FIG-5",
        title="Total execution time of all five implementations",
    )
    predictions = predict_all(PAPER)
    seq_paper = PAPER_FIG5_SECONDS["sequential"]
    seq_model = predictions["sequential"].total_seconds
    measured_wall_seq = None
    for name, prediction in predictions.items():
        row = {
            "implementation": name,
            "paper_seconds": PAPER_FIG5_SECONDS[name],
            "paper_speedup": seq_paper / PAPER_FIG5_SECONDS[name],
            "model_paper_seconds": prediction.total_seconds,
            "model_speedup": seq_model / prediction.total_seconds,
        }
        if measure:
            result = measure_engine(measured_spec, name, traffic=PAPER_TRAFFIC)
            if result.modeled_seconds is None:
                # CPU engines: real wall seconds, comparable to each other.
                row["measured_wall_seconds"] = result.wall_seconds
                if name == "sequential":
                    measured_wall_seq = result.wall_seconds
                if measured_wall_seq:
                    row["measured_wall_speedup"] = (
                        measured_wall_seq / result.wall_seconds
                    )
            else:
                # GPU engines: gpusim-modeled seconds of the executed
                # simulated kernels (not comparable with wall seconds).
                row["sim_modeled_seconds"] = result.modeled_seconds
        report.add(**row)
    report.note(
        "paper headline: 77x multi-GPU over sequential CPU; model: "
        f"{seq_model / predictions['multi-gpu'].total_seconds:.0f}x."
    )
    report.note(
        "measured CPU rows are wall seconds in this container (thread "
        "overheads dominate on tiny workloads — use --scale default/large "
        "for representative multicore speedups); GPU rows report the "
        "gpusim-modeled seconds of actually-executed simulated kernels."
    )
    return report


# ----------------------------------------------------------------------
# FIG-6: per-activity breakdown
# ----------------------------------------------------------------------
def fig6(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED, measure: bool = True
) -> ExperimentReport:
    """Figure 6: percentage of time per activity per implementation."""
    report = ExperimentReport(
        exp_id="FIG-6",
        title="Share of time per activity (fetch/lookup/financial/layer)",
    )
    for row_model in activity_breakdown_table(PAPER):
        report.add(source="model-paper", **row_model)
    if measure:
        for name in ("sequential", "multicore", "gpu", "gpu-optimized", "multi-gpu"):
            result = measure_engine(measured_spec, name, traffic=PAPER_TRAFFIC)
            fractions = result.profile.fractions()
            row = {
                "source": "measured",
                "implementation": name,
                "total": result.profile.total,
            }
            for activity in ACTIVITIES:
                row[activity] = result.profile.seconds.get(activity, 0.0)
                row[f"{activity}_pct"] = 100.0 * fractions.get(activity, 0.0)
            report.add(**row)
    report.note(
        "paper landmarks: sequential lookup 222.61 s (~66%); multi-GPU "
        f"lookup {PAPER_MULTIGPU['lookup_seconds']} s = "
        f"{PAPER_MULTIGPU['lookup_fraction']*100:.2f}% of total; terms "
        f"drop to {PAPER_MULTIGPU['terms_seconds']} s."
    )
    return report


# ----------------------------------------------------------------------
# DS-TABLE: lookup data-structure trade-off (§III)
# ----------------------------------------------------------------------
def data_structures(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED,
    measure: bool = True,
    n_queries: int = 200_000,
) -> ExperimentReport:
    """Direct access table vs compact representations (memory & speed)."""
    report = ExperimentReport(
        exp_id="DS-TABLE",
        title="ELT lookup structures: memory vs accesses vs throughput",
    )
    workload = get_workload(measured_spec)
    layer = workload.portfolio.layers[0]
    elts = workload.portfolio.elts_of(layer)
    rng = default_rng(1234)
    queries = rng.integers(
        1, workload.catalog.n_events + 1, size=n_queries
    ).astype(np.int64)

    memory_rows = {
        row["kind"]: row
        for row in memory_report(elts, workload.catalog.n_events)
    }
    for kind in LOOKUP_KINDS:
        row = {
            "kind": kind,
            "total_bytes": memory_rows[kind]["total_bytes"],
            "accesses_per_lookup": memory_rows[kind]["accesses_per_lookup"],
        }
        if measure:
            lookup = build_lookup(
                elts[0], workload.catalog.n_events, kind=kind
            )
            started = time.perf_counter()
            lookup.lookup(queries)
            elapsed = time.perf_counter() - started
            row["measured_ns_per_lookup"] = 1e9 * elapsed / n_queries
        report.add(**row)
    report.note(
        "the paper's §III argument quantified: the direct table spends "
        "the most memory and the fewest accesses; at paper scale its 15 "
        "ELTs materialise 30M loss slots for 300K non-zero losses."
    )
    report.note(
        "combined-table variant (the paper's second implementation) loses "
        "because threads must stage row indices first — charged as shared-"
        "memory coordination traffic in the GPU cost model."
    )
    return report


# ----------------------------------------------------------------------
# OPT-ABLATE: the four GPU optimisations, cumulatively
# ----------------------------------------------------------------------
def opt_ablation(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED,
    measure: bool = True,
    chunk_events: int = 24,
) -> ExperimentReport:
    """Ablation of chunking / unrolling / float32 / registers."""
    report = ExperimentReport(
        exp_id="OPT-ABLATE",
        title="GPU optimisation ablation (cumulative flags)",
    )
    stages = [
        ("none", OptimizationFlags.none()),
        ("chunking", OptimizationFlags(True, False, False, False)),
        ("chunking+unroll", OptimizationFlags(True, True, False, False)),
        ("chunking+unroll+float32", OptimizationFlags(True, True, True, False)),
        ("all four", OptimizationFlags.all()),
    ]
    device = TESLA_C2075
    for label, flags in stages:
        word = 4 if flags.float32 else 8
        if flags.chunking:
            tpb = max_feasible_threads_per_block(
                device.shared_mem_per_sm_bytes, chunk_events, word, flags
            )
        else:
            tpb = 256
        model = predict_gpu_optimized(
            PAPER, threads_per_block=tpb, chunk_events=chunk_events, flags=flags
        )
        row = {
            "flags": label,
            "threads_per_block": tpb,
            "model_paper_seconds": model.total_seconds,
        }
        if measure:
            # Priced on the paper's ledger: this experiment reproduces
            # the paper's ablation of its padded CUDA kernel, which is
            # what the analytic model prices.
            result = measure_engine(
                measured_spec,
                "gpu-optimized",
                threads_per_block=tpb,
                chunk_events=chunk_events,
                flags=flags,
                traffic=PAPER_TRAFFIC,
            )
            row["sim_modeled_seconds"] = result.modeled_seconds
        report.add(**row)
    basic = predict_gpu_basic(PAPER).total_seconds
    all_on = report.rows[-1]["model_paper_seconds"]
    report.note(
        f"paper: optimisations take the GPU from 38.47 s to 20.63 s "
        f"(~1.9x); model: {basic:.2f} s -> {all_on:.2f} s "
        f"({basic / all_on:.2f}x), dominated by chunking — consistent with "
        "the paper's remark that the GPU's numerical speed contributed "
        "'surprisingly little'."
    )
    return report


def _timed_seconds(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def quote_bench_spec() -> WorkloadSpec:
    """The pricing-session workload of PLAN-ABLATE / REPLAY-ABLATE.

    Paper-shaped: enough ELTs per layer that the shared
    gather+financial pass dominates a quote, as at paper scale
    (15 ELTs/layer), while staying CI-sized.
    """
    return BENCH_SMALL.with_(
        n_trials=10_000, events_per_trial=80, elts_per_layer=12
    )


def quote_candidates(workload, n_candidates: int) -> list:
    """Deterministic candidate layers over the workload's first ELT set.

    Shared by the quote benchmarks *and* the REPLAY-ABLATE child
    process: because terms derive only from the (seeded) workload, a
    separate process regenerating the same spec produces byte-identical
    candidates — and therefore identical content-addressed store keys.
    """
    from repro.data.layer import LayerTerms

    layer = workload.portfolio.layers[0]
    elts = workload.portfolio.elts_of(layer)
    elt_ids = tuple(elt.elt_id for elt in elts)
    typical = float(np.mean([float(elt.losses.mean()) for elt in elts]))
    return [
        (
            elt_ids,
            LayerTerms(
                occ_retention=0.4 * k * typical,
                occ_limit=(4.0 + k) * typical,
                agg_retention=0.0,
                agg_limit=(12.0 + 2.0 * k) * typical,
            ),
        )
        for k in range(n_candidates)
    ]


# ----------------------------------------------------------------------
# PLAN-ABLATE: batched QuoteService vs sequential per-quote analyses
# ----------------------------------------------------------------------
def plan_ablation(
    measured_spec: WorkloadSpec | None = None,
    measure: bool = True,
    n_candidates: int = 8,
    repeats: int = 3,
    worker_counts: Sequence[int] = (1, 2, 8),
) -> ExperimentReport:
    """Quote a batch of candidate layers: plan-level sharing vs re-runs.

    The sequential baseline is one plain sequential-engine
    :meth:`~repro.core.analysis.AggregateRiskAnalysis.run` of each
    candidate's single-layer portfolio (lookup *tables* already shared
    through the process-wide cache).  The batched rows run the same candidates through a
    :class:`~repro.pricing.realtime.QuoteService`, which additionally
    shares the combined per-occurrence loss vector across the batch: one
    gather+financial pass per ELT set, one cheap layer-terms finish per
    candidate.  Quotes are bit-for-bit identical either way; the ratio
    is pure plan-level reuse.  Worker counts sweep the scheduler's
    concurrency — results are invariant, only latency moves.
    """
    from repro.core.analysis import AggregateRiskAnalysis
    from repro.data.layer import Portfolio
    from repro.pricing.realtime import QuoteService

    report = ExperimentReport(
        exp_id="PLAN-ABLATE",
        title="Concurrent quote service: shared-plan reuse vs per-quote runs",
    )
    if measured_spec is None:
        measured_spec = quote_bench_spec()
    if not measure:
        report.note("measure=False: nothing to report (no model rows).")
        return report

    workload = get_workload(measured_spec)
    yet = workload.yet
    catalog_size = workload.catalog.n_events
    layer = workload.portfolio.layers[0]
    elts = workload.portfolio.elts_of(layer)
    candidates = quote_candidates(workload, n_candidates)

    def analyse(terms) -> None:
        AggregateRiskAnalysis(
            Portfolio.single_layer(elts, terms), catalog_size
        ).run(yet, engine="sequential")

    # Warm the process-wide lookup cache so neither side pays the build.
    analyse(candidates[0][1])

    def run_sequential() -> None:
        for _ids, terms in candidates:
            analyse(terms)

    sequential_s = min(
        _timed_seconds(run_sequential) for _ in range(max(1, repeats))
    )
    report.add(
        mode="sequential",
        workers=1,
        n_candidates=n_candidates,
        measured_seconds=sequential_s,
        per_quote_seconds=sequential_s / n_candidates,
        speedup_vs_sequential=1.0,
    )

    for workers in worker_counts:
        stats = {}

        def run_batched() -> None:
            # A fresh service per run: every repeat pays the full cold
            # base pass, so the ratio is honest (no warm-cache credit).
            with QuoteService(
                yet, elts, catalog_size, max_workers=workers
            ) as service:
                service.quote_many(candidates)
                stats.update(service.cache_stats())

        batched_s = min(
            _timed_seconds(run_batched) for _ in range(max(1, repeats))
        )
        report.add(
            mode="quote-service",
            workers=workers,
            n_candidates=n_candidates,
            measured_seconds=batched_s,
            per_quote_seconds=batched_s / n_candidates,
            speedup_vs_sequential=sequential_s / batched_s,
            base_cache=dict(stats.get("base", {})),
        )

    best = max(
        (r for r in report.rows if r["mode"] == "quote-service"),
        key=lambda r: r["speedup_vs_sequential"],
    )
    report.note(
        f"batched quoting of {n_candidates} candidates sharing one "
        f"{len(elts)}-ELT set: best {best['speedup_vs_sequential']:.2f}x "
        f"over sequential re-quoting (at {best['workers']} workers) — one "
        "gather+financial pass reused by every candidate's layer-terms "
        "finish."
    )
    report.note(
        "quotes are bit-for-bit identical to per-candidate sequential "
        "engine runs: the shared base vector is decomposition-invariant "
        "and the finish is the fused kernel's own layer-terms pass."
    )
    return report


# ----------------------------------------------------------------------
# REPLAY-ABLATE: persistent result store — cold runs vs warm replays
# ----------------------------------------------------------------------
def warm_quote_store(params: dict) -> None:
    """Child-process entry point of REPLAY-ABLATE's cross-process row.

    Regenerates the (seeded, deterministic) quote workload from the
    spec fields the parent passed, opens a
    :class:`~repro.store.SharedFileStore` on the parent's cache
    directory and quotes the first ``n_candidates`` candidates — which
    persists the shared base combined-loss vector (and those
    candidates' finished year losses) under content-addressed keys the
    parent process derives identically.
    """
    from repro.pricing.realtime import QuoteService
    from repro.store import SharedFileStore

    spec = WorkloadSpec(**params["spec"])
    workload = get_workload(spec)
    candidates = quote_candidates(workload, int(params.get("n_candidates", 1)))
    layer = workload.portfolio.layers[0]
    elts = workload.portfolio.elts_of(layer)
    store = SharedFileStore(params["cache_dir"])
    with QuoteService(
        workload.yet,
        elts,
        workload.catalog.n_events,
        max_workers=1,
        store=store,
    ) as service:
        service.quote_many(candidates)


def _spawn_quote_warmer(
    cache_dir, spec: WorkloadSpec, n_candidates: int = 1
) -> None:
    """Run :func:`warm_quote_store` in a separate Python process."""
    import dataclasses
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys, json\n"
        "from repro.bench.experiments import warm_quote_store\n"
        "warm_quote_store(json.loads(sys.argv[1]))\n"
    )
    params = {
        "cache_dir": str(cache_dir),
        "n_candidates": n_candidates,
        "spec": dataclasses.asdict(spec),
    }
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(params)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"quote-warmer child failed ({proc.returncode}):\n{proc.stderr}"
        )


def replay_ablation(
    measured_spec: WorkloadSpec | None = None,
    measure: bool = True,
    repeats: int = 3,
    n_candidates: int = 8,
    cache_dir=None,
) -> ExperimentReport:
    """Plan persistence & replay: the result store's reuse, measured.

    Three comparisons on one seeded workload:

    * **cold** — a full sequential-engine analysis against an empty
      store (the store's write-through cost is charged here);
    * **warm-memory / warm-file** — the identical analysis replayed
      from the memory tier and, with a fresh process-simulating store,
      from the file tier (open + header parse + mmap + checksum); both
      must return the stored YLT bit-for-bit with zero engine task
      executions;
    * **quote-cold / quote-warm-xproc / quote-replay** — a batch of
      candidate layers quoted by a storeless service vs a fresh service
      whose :class:`~repro.store.SharedFileStore` was warmed by a
      *separate process* (the many-worker serving shape: the expensive
      base pass happens once per fleet, not once per process), then the
      steady state where the whole batch replays from the store.
    """
    import tempfile
    from pathlib import Path

    from repro.core.analysis import AggregateRiskAnalysis
    from repro.engines.base import execution_count
    from repro.pricing.realtime import QuoteService
    from repro.store import (
        MemoryStore,
        SharedFileStore,
        TieredStore,
        ylt_digest,
    )

    report = ExperimentReport(
        exp_id="REPLAY-ABLATE",
        title="Result-store replay: cold analysis vs warm (memory/file/fleet)",
    )
    if measured_spec is None:
        measured_spec = quote_bench_spec()
    if not measure:
        report.note("measure=False: nothing to report (no model rows).")
        return report

    owner = None
    if cache_dir is None:
        owner = tempfile.TemporaryDirectory(prefix="repro-replay-")
        cache_dir = owner.name
    cache_dir = Path(cache_dir)
    analysis_dir = cache_dir / "analysis"
    quote_dir = cache_dir / "quotes"
    try:
        workload = get_workload(measured_spec)
        yet = workload.yet
        catalog_size = workload.catalog.n_events
        ara = AggregateRiskAnalysis(workload.portfolio, catalog_size)

        # -- cold: empty store every repeat (includes the write-through)
        cold_s = float("inf")
        cold_result = None
        for _ in range(max(1, repeats)):
            SharedFileStore(analysis_dir).clear()
            store = TieredStore([MemoryStore(), SharedFileStore(analysis_dir)])
            started = time.perf_counter()
            cold_result = ara.run(yet, engine="sequential", store=store)
            cold_s = min(cold_s, time.perf_counter() - started)
        cold_digest = ylt_digest(cold_result.ylt)
        report.add(
            mode="cold",
            engine="sequential",
            measured_seconds=cold_s,
            speedup_vs_cold=1.0,
            ylt_digest=cold_digest,
        )

        # -- warm-memory: one persistent store, replay from the LRU tier
        warm_store = TieredStore([MemoryStore(), SharedFileStore(analysis_dir)])
        ara.run(yet, engine="sequential", store=warm_store)  # prime memory
        executions_before = execution_count()
        warm_mem_s = float("inf")
        warm_result = None
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            warm_result = ara.run(yet, engine="sequential", store=warm_store)
            warm_mem_s = min(warm_mem_s, time.perf_counter() - started)
        report.add(
            mode="warm-memory",
            engine="sequential",
            measured_seconds=warm_mem_s,
            speedup_vs_cold=cold_s / warm_mem_s,
            ylt_digest=ylt_digest(warm_result.ylt),
            executions=execution_count() - executions_before,
            replay_hit=bool(warm_result.meta["replay"]["hit"]),
        )

        # -- warm-file: a fresh store per repeat = a restarted process
        warm_file_s = float("inf")
        for _ in range(max(1, repeats)):
            fresh = TieredStore([MemoryStore(), SharedFileStore(analysis_dir)])
            started = time.perf_counter()
            warm_result = ara.run(yet, engine="sequential", store=fresh)
            warm_file_s = min(warm_file_s, time.perf_counter() - started)
        report.add(
            mode="warm-file",
            engine="sequential",
            measured_seconds=warm_file_s,
            speedup_vs_cold=cold_s / warm_file_s,
            ylt_digest=ylt_digest(warm_result.ylt),
            executions=execution_count() - executions_before,
            replay_hit=bool(warm_result.meta["replay"]["hit"]),
        )

        # -- quote batch: storeless service vs fleet-warmed file store
        layer = workload.portfolio.layers[0]
        elts = workload.portfolio.elts_of(layer)
        candidates = quote_candidates(workload, n_candidates)

        quote_cold_s = float("inf")
        for _ in range(max(1, repeats)):
            with QuoteService(
                yet, elts, catalog_size, max_workers=4
            ) as service:
                started = time.perf_counter()
                service.quote_many(candidates)
                quote_cold_s = min(
                    quote_cold_s, time.perf_counter() - started
                )
        report.add(
            mode="quote-cold",
            n_candidates=n_candidates,
            measured_seconds=quote_cold_s,
            per_quote_seconds=quote_cold_s / n_candidates,
            speedup_vs_cold=1.0,
        )

        # A *separate process* computes and persists the shared base
        # vector; this process then quotes the whole batch against it.
        # One timed pass only: it write-throughs the finished loss
        # vectors, so a second pass would measure a different (fully
        # warm) store state — reported separately below.
        _spawn_quote_warmer(quote_dir, measured_spec, n_candidates=1)
        with QuoteService(
            yet,
            elts,
            catalog_size,
            max_workers=4,
            store=SharedFileStore(quote_dir),
        ) as service:
            started = time.perf_counter()
            service.quote_many(candidates)
            quote_fleet_s = time.perf_counter() - started
            fleet_stats = service.cache_stats()
        report.add(
            mode="quote-warm-xproc",
            n_candidates=n_candidates,
            measured_seconds=quote_fleet_s,
            per_quote_seconds=quote_fleet_s / n_candidates,
            speedup_vs_cold=quote_cold_s / quote_fleet_s,
            base_cache=dict(fleet_stats.get("base", {})),
            loss_cache=dict(fleet_stats.get("losses", {})),
        )

        # Fully warm store (every loss vector persisted): repeat quotes
        # of the whole batch are pure store replays — the many-user
        # serving steady state.
        quote_replay_s = float("inf")
        replay_stats = {}
        for _ in range(max(1, repeats)):
            with QuoteService(
                yet,
                elts,
                catalog_size,
                max_workers=4,
                store=SharedFileStore(quote_dir),
            ) as service:
                started = time.perf_counter()
                service.quote_many(candidates)
                quote_replay_s = min(
                    quote_replay_s, time.perf_counter() - started
                )
                replay_stats = service.cache_stats()
        report.add(
            mode="quote-replay",
            n_candidates=n_candidates,
            measured_seconds=quote_replay_s,
            per_quote_seconds=quote_replay_s / n_candidates,
            speedup_vs_cold=quote_cold_s / quote_replay_s,
            base_cache=dict(replay_stats.get("base", {})),
            loss_cache=dict(replay_stats.get("losses", {})),
        )

        report.note(
            f"whole-analysis replay: warm-memory "
            f"{cold_s / warm_mem_s:.1f}x, warm-file (restart) "
            f"{cold_s / warm_file_s:.1f}x over the cold run, YLTs "
            "bit-identical (digest-checked) with zero engine task "
            "executions."
        )
        report.note(
            f"cross-process quote reuse: a child process persisted the "
            f"shared base vector; quoting {n_candidates} candidates in "
            f"this process took {quote_fleet_s:.3f}s "
            f"({quote_cold_s / quote_fleet_s:.1f}x vs storeless) with "
            "zero base-vector computations, and once the batch's loss "
            f"vectors were persisted, re-quoting the batch replays at "
            f"{quote_cold_s / quote_replay_s:.1f}x."
        )
        report.note(
            "invalidation is content-addressed: any change to the YET, "
            "an ELT, layer terms, dtype, kernel/decomposition or the "
            "secondary stream changes the key, so stale entries are "
            "unreachable by construction."
        )
        return report
    finally:
        if owner is not None:
            owner.cleanup()


# ----------------------------------------------------------------------
# EXT-SECONDARY: the future-work extension
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# FLEET-ABLATE: distributed sweeps — scale-out and delta re-sweeps
# ----------------------------------------------------------------------
def fleet_bench_spec() -> WorkloadSpec:
    """The fleet-sweep workload: enough segments for real scheduling.

    Two layers over a shared pool and 8 segments per layer at the
    benchmark's stride, so a fleet has 16 comparable jobs to pull — the
    master-worker shape of the companion cluster paper, CI-sized.
    """
    return BENCH_SMALL.with_(
        name="fleet-bench",
        n_trials=16_000,
        events_per_trial=150,
        elts_per_layer=10,
        n_layers=2,
        shared_elt_pool=True,
    )


def fleet_ablation(
    measured_spec: WorkloadSpec | None = None,
    measure: bool = True,
    n_workers: int = 4,
    segment_trials: int = 1_000,
    delta_fraction: float = 0.1,
    repeats: int = 2,
    cache_dir=None,
) -> ExperimentReport:
    """Fleet sweeps: worker scale-out and store-aware delta re-sweeps.

    Five rows on one seeded workload:

    * **monolithic** — a plain sequential ``Engine.run`` (the
      no-queue baseline; fleet coordination overhead shows against it);
    * **fleet-1 / fleet-N** — cold fleet sweeps (fresh store + queue)
      drained by 1 and ``n_workers`` workers.  Measured wall seconds on
      this host, plus *modeled makespans*: per-job compute seconds are
      measured (each segment entry records them) and scheduled LPT-
      greedy onto hypothetical fleets —
      :func:`repro.fleet.sweep.modeled_makespan`, the fleet analogue of
      the repository's simulated-GPU cost models, meaningful even on
      single-core CI hosts where threads cannot physically overlap;
    * **delta-cold / delta-resweep** — the workload extended by
      ``delta_fraction`` new trials, swept against a fresh store vs
      re-swept against the original sweep's store (only the new tail's
      segments are jobs).  The ratio is the store-aware planning win.

    Every row records the assembled YLT digest; the fleet digests must
    equal the monolithic runs' (bit-for-bit assembly is asserted by the
    benchmark's guards, not just eyeballed).
    """
    import tempfile
    from pathlib import Path

    from repro.core.analysis import AggregateRiskAnalysis
    from repro.data.yet import YearEventTable
    from repro.engines.registry import create_engine
    from repro.fleet.sweep import modeled_makespan
    from repro.store import SharedFileStore
    from repro.store.keys import ylt_digest

    report = ExperimentReport(
        exp_id="FLEET-ABLATE",
        title="Fleet sweeps: distributed job queue + store-aware deltas",
    )
    if measured_spec is None:
        measured_spec = fleet_bench_spec()
    if not measure:
        report.note("measure=False: nothing to report (no model rows).")
        return report

    workload = get_workload(measured_spec)
    yet = workload.yet
    ara = AggregateRiskAnalysis(workload.portfolio, workload.catalog.n_events)

    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="fleet-ablate-")
        cache_dir = tmp.name
    cache_dir = Path(cache_dir)

    try:
        mono = min(
            (ara.run(yet, engine="sequential") for _ in range(repeats)),
            key=lambda r: r.wall_seconds,
        )
        report.add(
            mode="monolithic",
            workers=1,
            measured_seconds=mono.wall_seconds,
            ylt_digest=ylt_digest(mono.ylt),
        )

        def fleet_run(store, workers, label_yet=yet, analysis=ara):
            return analysis.run_fleet(
                label_yet,
                engine="sequential",
                n_workers=workers,
                store=store,
                segment_trials=segment_trials,
            )

        # -- cold sweeps at 1 and n workers ------------------------------
        # A run warms its store, so each repeat gets a fresh one and
        # min-of-repeats (the suite's standard noise rule) applies to
        # the guarded fleet rows exactly as to the baselines.
        def cold_fleet(label: str, workers: int):
            runs = [
                (
                    fleet_run(
                        SharedFileStore(cache_dir / f"{label}-{k}"), workers
                    ),
                    cache_dir / f"{label}-{k}",
                )
                for k in range(repeats)
            ]
            return min(runs, key=lambda rs: rs[0].wall_seconds)

        fleet_1, store_1_dir = cold_fleet("fleet-1", 1)
        store_1 = SharedFileStore(store_1_dir)
        # per-job compute seconds, recorded by the workers in each
        # segment entry: the modeled-makespan inputs.
        engine_obj = create_engine("sequential")
        delta_plan = engine_obj.plan_missing(
            yet, workload.portfolio, None, segment_trials=segment_trials
        )
        job_seconds = [
            float(store_1.get(record.key).meta["seconds"])
            for record in delta_plan.segments
        ]
        makespan_1 = modeled_makespan(job_seconds, 1)
        makespan_n = modeled_makespan(job_seconds, n_workers)
        report.add(
            mode="fleet-1",
            workers=1,
            measured_seconds=fleet_1.wall_seconds,
            jobs=fleet_1.meta["fleet"]["jobs_submitted"],
            reused=fleet_1.meta["fleet"]["segments_reused"],
            modeled_makespan_seconds=makespan_1,
            modeled_speedup=1.0,
            ylt_digest=ylt_digest(fleet_1.ylt),
        )

        fleet_n, _store_n_dir = cold_fleet(f"fleet-{n_workers}", n_workers)
        report.add(
            mode=f"fleet-{n_workers}",
            workers=n_workers,
            measured_seconds=fleet_n.wall_seconds,
            measured_speedup_vs_1=fleet_1.wall_seconds / fleet_n.wall_seconds,
            jobs=fleet_n.meta["fleet"]["jobs_submitted"],
            reused=fleet_n.meta["fleet"]["segments_reused"],
            modeled_makespan_seconds=makespan_n,
            modeled_speedup=makespan_1 / makespan_n if makespan_n else 0.0,
            ylt_digest=ylt_digest(fleet_n.ylt),
        )

        # -- delta re-sweep: extend the YET by delta_fraction -----------
        tail_trials = max(1, int(yet.n_trials * delta_fraction))
        tail = get_workload(
            measured_spec.with_(
                name=f"{measured_spec.name}-tail",
                n_trials=tail_trials,
                seed=measured_spec.seed + 1,
            )
        ).yet
        extended = YearEventTable.concatenate([yet, tail])

        mono_ext = ara.run(extended, engine="sequential")
        delta_cold = min(
            (
                fleet_run(
                    SharedFileStore(cache_dir / f"delta-cold-{k}"),
                    1,
                    extended,
                )
                for k in range(repeats)
            ),
            key=lambda r: r.wall_seconds,
        )
        report.add(
            mode="delta-cold",
            workers=1,
            measured_seconds=delta_cold.wall_seconds,
            jobs=delta_cold.meta["fleet"]["jobs_submitted"],
            reused=delta_cold.meta["fleet"]["segments_reused"],
            ylt_digest=ylt_digest(delta_cold.ylt),
        )
        # The resweep reuses fleet-1's store, which holds the *base*
        # workload's segments — only the appended tail is new work.  A
        # run mutates its store (the tail lands in it), so each repeat
        # gets a fresh copy of the warmed cache dir; min-of-repeats is
        # the suite's standard noise rule.
        import shutil

        def resweep_once(k: int):
            warmed = cache_dir / f"resweep-{k}"
            shutil.copytree(store_1_dir, warmed)
            return fleet_run(SharedFileStore(warmed), 1, extended)

        resweep = min(
            (resweep_once(k) for k in range(repeats)),
            key=lambda r: r.wall_seconds,
        )
        report.add(
            mode="delta-resweep",
            workers=1,
            measured_seconds=resweep.wall_seconds,
            speedup_vs_cold=delta_cold.wall_seconds / resweep.wall_seconds,
            jobs=resweep.meta["fleet"]["jobs_submitted"],
            reused=resweep.meta["fleet"]["segments_reused"],
            delta_fraction=delta_fraction,
            ylt_digest=ylt_digest(resweep.ylt),
            monolithic_extended_digest=ylt_digest(mono_ext.ylt),
        )
        report.note(
            f"modeled fleet makespan (measured per-job seconds, LPT onto "
            f"{n_workers} workers): {makespan_1:.3f}s -> {makespan_n:.3f}s "
            f"({makespan_1 / makespan_n:.2f}x); measured wall speedup on "
            f"this host: "
            f"{fleet_1.wall_seconds / fleet_n.wall_seconds:.2f}x."
        )
        report.note(
            f"store-aware delta: re-sweeping after a {delta_fraction:.0%} "
            f"YET extension enqueued "
            f"{resweep.meta['fleet']['jobs_submitted']} of "
            f"{resweep.meta['fleet']['n_segments']} segments "
            f"({delta_cold.wall_seconds / resweep.wall_seconds:.1f}x over a "
            "cold sweep of the same extended input)."
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
    return report


# ----------------------------------------------------------------------
# CHAOS-ABLATE: fleet sweeps under injected faults
# ----------------------------------------------------------------------
def chaos_bench_spec() -> WorkloadSpec:
    """The chaos workload: the fleet bench at half the trial count.

    Same two-layer shared-pool shape as :func:`fleet_bench_spec` (so
    chaos rows are comparable to fleet rows), sized so a baseline
    sweep is long enough for a lease expiry to be *recoverable within*
    the run — the kill row's inflation bound is meaningful — while the
    whole experiment stays CI-sized.
    """
    return fleet_bench_spec().with_(name="chaos-bench", n_trials=8_000)


def chaos_ablation(
    measured_spec: WorkloadSpec | None = None,
    measure: bool = True,
    n_workers: int = 4,
    segment_trials: int = 1_000,
    lease_seconds: float = 0.25,
    repeats: int = 2,
    seed: int = 2013,
    base_dir=None,
) -> ExperimentReport:
    """Fleet sweeps under injected faults: same bytes, bounded slowdown.

    Four rows, one seeded workload, every sweep through the same
    chaos harness (:class:`~repro.faults.runner.ChaosRunner`, so the
    baseline carries identical wrapper overhead):

    * **baseline** — an empty fault plan;
    * **kill-1** — 1 of ``n_workers`` dies at its first claim (no
      cleanup; peers must requeue the lease).  Guarded: digest equal
      to baseline, makespan inflation ≤ 2x;
    * **store-faults** — a torn write, transient read corruption,
      transient get IO errors and one dropped put.  Guarded: digest
      equal, zero duplicate-compute leaks (every extra compute is
      accounted to an invalidated entry or a dropped put);
    * **split-brain** — stalled heartbeats (seeded coin flips), a
      duplicate claim, injected read latency.  Guarded: digest equal,
      zero leaks (the dedup machinery absorbs the double claims).

    Timing rows are min-of-``repeats``; digest equality must hold on
    *every* repeat (a single mismatching run is a correctness bug, not
    noise).
    """
    import tempfile
    from pathlib import Path

    from repro.engines.registry import create_engine
    from repro.faults import (
        KIND_CORRUPT,
        KIND_DUPLICATE_CLAIM,
        KIND_IO_ERROR,
        KIND_KILL,
        KIND_LATENCY,
        KIND_STALL_HEARTBEAT,
        KIND_TORN_WRITE,
        OP_CLAIM,
        OP_GET,
        OP_HEARTBEAT,
        OP_PUT,
        ChaosRunner,
        FaultPlan,
        FaultSpec,
        no_faults,
    )

    report = ExperimentReport(
        exp_id="CHAOS-ABLATE",
        title="Chaos-hardened fleet: digest equality under injected faults",
    )
    if measured_spec is None:
        measured_spec = chaos_bench_spec()
    if not measure:
        report.note("measure=False: nothing to report (no model rows).")
        return report

    workload = get_workload(measured_spec)
    tmp = None
    if base_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="chaos-ablate-")
        base_dir = tmp.name
    base_dir = Path(base_dir)

    plans = {
        "kill-1": lambda: FaultPlan(
            seed,
            [FaultSpec(kind=KIND_KILL, op=OP_CLAIM, at=1, times=1)],
        ),
        "store-faults": lambda: FaultPlan(
            seed,
            [
                FaultSpec(kind=KIND_TORN_WRITE, op=OP_PUT, at=2, times=1),
                FaultSpec(kind=KIND_CORRUPT, op=OP_GET, every=7, times=2),
                FaultSpec(kind=KIND_IO_ERROR, op=OP_GET, every=5, times=4),
                FaultSpec(kind=KIND_IO_ERROR, op=OP_PUT, at=4, times=1),
            ],
        ),
        "split-brain": lambda: FaultPlan(
            seed,
            [
                FaultSpec(
                    kind=KIND_STALL_HEARTBEAT,
                    op=OP_HEARTBEAT,
                    probability=0.6,
                ),
                FaultSpec(
                    kind=KIND_DUPLICATE_CLAIM, op=OP_CLAIM, at=2, times=1
                ),
                FaultSpec(
                    kind=KIND_LATENCY,
                    op=OP_GET,
                    every=4,
                    latency_seconds=0.005,
                ),
            ],
        ),
    }

    try:
        runner = ChaosRunner(
            workload.yet,
            workload.portfolio,
            workload.catalog.n_events,
            create_engine("sequential"),
            base_dir,
            segment_trials=segment_trials,
            n_workers=n_workers,
            lease_seconds=lease_seconds,
        )

        def best_of(label: str, plan_factory) -> "tuple":
            """Min-seconds run; every repeat's digest collected."""
            runs = [
                runner.run(plan_factory(), label=f"{label}-{k}")
                for k in range(repeats)
            ]
            return (
                min(runs, key=lambda r: r.seconds),
                sorted({r.digest for r in runs}),
            )

        baseline, base_digests = best_of(
            "baseline", lambda: no_faults(seed)
        )
        if len(base_digests) != 1:
            raise AssertionError(
                f"fault-free chaos baseline not deterministic: "
                f"{base_digests}"
            )
        report.add(
            mode="baseline",
            workers=n_workers,
            measured_seconds=baseline.seconds,
            rounds=baseline.rounds,
            computed=baseline.computed,
            speculated=baseline.speculated,
            duplicate_compute_leaks=baseline.duplicate_compute_leaks,
            ylt_digest=baseline.digest,
        )

        for mode, plan_factory in plans.items():
            result, digests = best_of(mode, plan_factory)
            report.add(
                mode=mode,
                workers=n_workers,
                measured_seconds=result.seconds,
                inflation_vs_baseline=(
                    result.seconds / baseline.seconds
                    if baseline.seconds
                    else 1.0
                ),
                rounds=result.rounds,
                computed=result.computed,
                speculated=result.speculated,
                store_retries=result.store_retries,
                requeued=result.requeued,
                invalidated=result.invalidated,
                dropped_puts=result.dropped_puts,
                duplicate_compute_leaks=result.duplicate_compute_leaks,
                workers_killed=len(result.killed_workers),
                fault_counts=dict(result.fault_counts),
                ylt_digest=result.digest,
                digest_matches_baseline=(
                    digests == [baseline.digest]
                ),
            )

        kill_row = next(r for r in report.rows if r["mode"] == "kill-1")
        report.note(
            f"digest equality held under every fault plan "
            f"({', '.join(plans)}): injected kills, torn writes, "
            "corruption, IO errors, stalled heartbeats and duplicate "
            "claims change wall-clock, never bytes."
        )
        report.note(
            f"killing 1 of {n_workers} workers at its first claim "
            f"inflated the sweep {kill_row['inflation_vs_baseline']:.2f}x "
            f"(lease {lease_seconds}s; peers requeued the orphaned lease "
            "and speculation back-filled stragglers)."
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
    return report


def ext_secondary(
    measured_spec: WorkloadSpec = DEFAULT_MEASURED, measure: bool = True
) -> ExperimentReport:
    """Secondary uncertainty: distributional cost and statistical effect."""
    from repro.core.kernels import build_layer_tables, layer_trial_batch_ragged
    from repro.core.secondary import SecondaryUncertainty, layer_stream_key

    report = ExperimentReport(
        exp_id="EXT-SECONDARY",
        title="Secondary uncertainty inside the kernel (paper future work)",
    )
    if measure:
        workload = get_workload(measured_spec)
        layer = workload.portfolio.layers[0]
        lookups, stacked, _ = build_layer_tables(
            workload.portfolio.elts_of(layer),
            workload.catalog.n_events,
            "direct",
            np.float64,
        )
        ids, offsets = workload.yet.event_ids, workload.yet.offsets
        for cv_label, su in (
            ("none", None),
            ("beta(4,4)", SecondaryUncertainty(4.0, 4.0)),
            ("beta(2,2)", SecondaryUncertainty(2.0, 2.0)),
        ):
            started = time.perf_counter()
            year = layer_trial_batch_ragged(
                ids,
                offsets,
                lookups,
                layer.terms,
                stacked=stacked,
                secondary=su,
                stream_key=layer_stream_key(42, layer.layer_id),
            )
            seconds = time.perf_counter() - started
            report.add(
                uncertainty=cv_label,
                multiplier_cv=0.0 if su is None else su.multiplier_cv,
                measured_seconds=seconds,
                mean_year_loss=float(np.mean(year)),
                std_year_loss=float(np.std(year)),
            )
        report.note(
            "per-(occurrence, ELT) damage-ratio sampling roughly doubles "
            "kernel arithmetic; year-loss std shifts while the mean stays "
            "within sampling error when layer terms are loose."
        )
    return report


# ----------------------------------------------------------------------
# SERVE-ABLATE: SLO-grade serving under overload and injected latency
# ----------------------------------------------------------------------
def serve_bench_spec() -> WorkloadSpec:
    """The serving workload of SERVE-ABLATE.

    Sized so one layer-terms finish is milliseconds (a realistic quote
    tail once the base vector is shared) while the whole ablation stays
    CI-sized.
    """
    return BENCH_SMALL.with_(
        n_trials=20_000, events_per_trial=100, elts_per_layer=8
    )


def serve_requests(workload, n: int, offset: int = 0) -> list:
    """``n`` unique candidate quote requests over the first ELT set.

    Terms vary per index through three coprime cycles, so requests are
    pairwise distinct for any CI-scale ``n`` — every admitted quote
    pays a real layer-terms finish instead of a loss-cache hit, and
    disjoint ``offset`` ranges keep benchmark phases from warming each
    other.  Deterministic (terms derive only from the seeded workload),
    so store prewarms address the exact entries serving will fetch.
    """
    from repro.data.layer import LayerTerms
    from repro.pricing.realtime import QuoteRequest

    layer = workload.portfolio.layers[0]
    elts = workload.portfolio.elts_of(layer)
    elt_ids = tuple(elt.elt_id for elt in elts)
    typical = float(np.mean([float(elt.losses.mean()) for elt in elts]))
    requests = []
    for k in range(n):
        i = offset + k
        requests.append(
            QuoteRequest(
                elt_ids=elt_ids,
                terms=LayerTerms(
                    occ_retention=(0.2 + 0.01 * (i % 97)) * typical,
                    occ_limit=(4.0 + 0.05 * (i % 211)) * typical,
                    agg_retention=0.0,
                    agg_limit=(12.0 + 0.1 * (i % 307)) * typical,
                ),
                label=f"serve-{i}",
            )
        )
    return requests


def serve_ablation(
    measured_spec: WorkloadSpec | None = None,
    measure: bool = True,
    max_workers: int = 2,
    load_factors: Sequence[float] = (0.5, 1.0, 2.0),
    duration_seconds: float = 1.5,
    capacity_requests: int = 64,
    hedge_requests: int = 40,
    seed: int = 2013,
    base_dir=None,
) -> ExperimentReport:
    """Quote serving under overload: typed sheds, bounded tails, hedges.

    Three phases, one seeded workload:

    1. **capacity** — closed-loop quotes/sec of the bare
       :class:`~repro.pricing.realtime.QuoteService` (the anchor all
       offered rates scale from, so the rows measure *relative*
       overload on any machine);
    2. **open loop** — an admission-controlled
       :class:`~repro.serve.QuoteFrontEnd` offered 0.5x/1x/2x capacity
       with per-request deadlines.  Rows record goodput, shed rate
       (typed, by reason), p50/p95/p99 of *admitted* requests and the
       brownout state reached — at 2x the gate sheds roughly half the
       offered load and the admitted half stays inside the SLO;
    3. **hedged store reads** — the same prewarmed two-tier store
       behind a latency-injecting
       :class:`~repro.faults.store.FaultyStore` on tier 0 (same seeded
       :class:`~repro.faults.plan.FaultPlan` both modes), quoted with
       hedging off then on.  Hedging routes around the injected tier-0
       stalls, cutting p99, while every served loss vector stays
       bit-for-bit equal to a direct sequential-engine run.
    """
    import tempfile
    import zlib
    from pathlib import Path

    from repro.core.analysis import AggregateRiskAnalysis
    from repro.data.layer import Layer, Portfolio
    from repro.faults import (
        KIND_LATENCY,
        OP_GET,
        FaultPlan,
        FaultSpec,
        FaultyStore,
    )
    from repro.pricing.realtime import QuoteService
    from repro.serve import QuoteFrontEnd, measure_capacity, run_open_loop
    from repro.serve.brownout import BrownoutController
    from repro.store import SharedFileStore, TieredStore
    from repro.utils.latency import percentile

    report = ExperimentReport(
        exp_id="SERVE-ABLATE",
        title="SLO-grade quote serving: admission, deadlines, hedged reads",
    )
    if measured_spec is None:
        measured_spec = serve_bench_spec()
    if not measure:
        report.note("measure=False: nothing to report (no model rows).")
        return report

    workload = get_workload(measured_spec)
    yet = workload.yet
    catalog_size = workload.catalog.n_events
    layer = workload.portfolio.layers[0]
    elts = workload.portfolio.elts_of(layer)

    # ---- phase 1: closed-loop capacity anchor -------------------------
    service = QuoteService(
        yet, elts, catalog_size, max_workers=max_workers, cache_size=4
    )
    with service:
        # First quote pays the shared base pass; capacity measures the
        # steady state (per-candidate finishes), like a warm server.
        service.quote_many(serve_requests(workload, 1, offset=90_000))
        capacity_qps = measure_capacity(
            service, serve_requests(workload, capacity_requests, offset=0)
        )
        mean_service_seconds = 1.0 / max(capacity_qps, 1e-9)
        slo_seconds = max(0.25, 40.0 * mean_service_seconds)
        report.add(
            mode="capacity",
            workers=max_workers,
            capacity_qps=capacity_qps,
            mean_service_seconds=mean_service_seconds,
            slo_seconds=slo_seconds,
        )

        # ---- phase 2: open-loop offered load ------------------------
        offset = 1_000
        for factor in load_factors:
            rate = max(capacity_qps * factor, 1.0)
            offered = min(int(rate * duration_seconds), 4_000)
            frontend = QuoteFrontEnd(
                service,
                max_inflight=2 * max_workers,
                brownout=BrownoutController(
                    window_seconds=1.0,
                    min_dwell_seconds=0.25,
                    min_samples=20,
                ),
            )
            load = run_open_loop(
                frontend,
                serve_requests(workload, offered, offset=offset),
                rate_qps=rate,
                timeout=slo_seconds,
            )
            offset += offered
            stats = frontend.stats()
            report.add(
                mode=f"open-loop-{factor:g}x",
                workers=max_workers,
                load_factor=factor,
                slo_seconds=slo_seconds,
                brownout_state=stats["brownout"]["state"],
                brownout_transitions=len(
                    stats["brownout"]["transitions"]
                ),
                coalesced=stats["requests"]["coalesced"],
                **load.as_row(),
            )

    # ---- phase 3: hedged reads vs injected tier-0 latency -------------
    tmp = None
    if base_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="serve-ablate-")
        base_dir = tmp.name
    base_dir = Path(base_dir)
    requests = serve_requests(workload, hedge_requests, offset=50_000)
    latency_specs = [
        FaultSpec(
            kind=KIND_LATENCY, op=OP_GET, every=3, latency_seconds=0.05
        )
    ]
    try:
        # Prewarm both tiers (writes go through every tier) so the
        # serving phase below is pure store reads.
        warm = TieredStore(
            [SharedFileStore(base_dir / "a"), SharedFileStore(base_dir / "b")]
        )
        with QuoteService(
            yet, elts, catalog_size, max_workers=max_workers, store=warm
        ) as prewarmer:
            prewarmer.quote_many(requests)

        def digest_of(svc) -> int:
            crc = 0
            for request in requests[:4]:
                losses = svc.candidate_losses(
                    request.elt_ids, request.terms
                )
                crc = zlib.crc32(losses.tobytes(), crc)
            return crc

        hedge_rows = {}
        for hedge_on in (False, True):
            tiered = TieredStore(
                [
                    FaultyStore(
                        SharedFileStore(base_dir / "a"),
                        FaultPlan(seed, list(latency_specs)),
                    ),
                    SharedFileStore(base_dir / "b"),
                ],
                hedge=hedge_on,
                hedge_min_delay=0.002,
                hedge_max_delay=0.02,
            )
            with QuoteService(
                yet,
                elts,
                catalog_size,
                max_workers=max_workers,
                store=tiered,
                cache_size=1,  # tiny LRU: every quote reads the store
            ) as served:
                samples = []
                for request in requests:
                    started = time.perf_counter()
                    served.quote(
                        request.elt_ids,
                        request.terms,
                        layer_id=request.layer_id,
                    )
                    samples.append(time.perf_counter() - started)
                digest = digest_of(served)
            hedge = tiered.stats()["hedge"]
            mode = "store-hedge-on" if hedge_on else "store-hedge-off"
            hedge_rows[mode] = {
                "p50": percentile(samples, 0.50),
                "p99": percentile(samples, 0.99),
                "digest": digest,
            }
            report.add(
                mode=mode,
                workers=max_workers,
                requests=len(requests),
                injected_every=3,
                injected_latency_seconds=0.05,
                p50_seconds=hedge_rows[mode]["p50"],
                p99_seconds=hedge_rows[mode]["p99"],
                hedges_issued=hedge["issued"],
                hedge_wins=hedge["wins"],
                hedge_losses=hedge["losses"],
                losses_crc32=digest,
            )

        # Served bytes must equal a direct sequential-engine run of the
        # same candidates — hedging and injected latency included.
        direct_crc = 0
        for request in requests[:4]:
            candidate = Layer(
                layer_id=request.layer_id,
                elt_ids=request.elt_ids,
                terms=request.terms,
            )
            portfolio = Portfolio()
            for elt in elts:
                portfolio.add_elt(elt)
            portfolio.add_layer(candidate)
            result = AggregateRiskAnalysis(portfolio, catalog_size).run(
                yet, engine="sequential"
            )
            direct_crc = zlib.crc32(
                result.ylt.layer_losses(request.layer_id).tobytes(),
                direct_crc,
            )
        for mode, row in hedge_rows.items():
            if row["digest"] != direct_crc:
                raise AssertionError(
                    f"{mode}: served losses diverge from the direct "
                    f"engine run ({row['digest']:#x} != {direct_crc:#x})"
                )
        report.add(
            mode="digest-check",
            requests_checked=4,
            losses_crc32=direct_crc,
            digests_match_direct=True,
        )
        off, on = (
            hedge_rows["store-hedge-off"],
            hedge_rows["store-hedge-on"],
        )
        report.note(
            f"hedged reads cut p99 store-backed quote latency from "
            f"{off['p99'] * 1e3:.1f} ms to {on['p99'] * 1e3:.1f} ms under "
            "50 ms tier-0 latency injection (every 3rd get), with served "
            "bytes identical to a direct sequential-engine run."
        )
    finally:
        if tmp is not None:
            tmp.cleanup()

    two_x = next(
        (r for r in report.rows if r.get("load_factor") == 2.0), None
    )
    if two_x is not None:
        report.note(
            f"at 2x capacity the gate shed {two_x['shed_rate']:.0%} of "
            f"offered load (typed Overloaded, reasons "
            f"{two_x['shed_reasons']}) while goodput held "
            f"{two_x['goodput_qps']:.0f}/{capacity_qps:.0f} qps and "
            f"admitted p99 stayed at {two_x['p99_seconds']:.3f} s "
            f"(SLO {slo_seconds:.2f} s, brownout state "
            f"{two_x['brownout_state']})."
        )
    return report


# ----------------------------------------------------------------------
# NET-ABLATE: the fleet over the wire — remote tiers + shuffle assembly
# ----------------------------------------------------------------------
def net_bench_spec() -> WorkloadSpec:
    """The network workload: the fleet bench at half the trial count.

    Same two-layer shared-pool shape as :func:`fleet_bench_spec` (so
    network rows compare against fleet rows), segmented finely by the
    benchmark (250-trial stride → 64 segments) so per-segment assembly
    has a real fetch bill for partition/shuffle assembly to beat.
    """
    return fleet_bench_spec().with_(name="net-bench", n_trials=8_000)


def net_ablation(
    measured_spec: WorkloadSpec | None = None,
    measure: bool = True,
    n_workers: int = 3,
    segment_trials: int = 250,
    n_partitions: int = 8,
    repeats: int = 2,
    seed: int = 2013,
    base_dir=None,
) -> ExperimentReport:
    """The fleet over localhost sockets: what the network tier costs.

    Six rows, one seeded workload, every remote row through the real
    wire protocol (``NetServer`` + ``RemoteStore``/``RemoteJobQueue``
    on loopback — serialization, framing, CRCs and retries are all
    real; only propagation delay is missing):

    * **monolithic** — a plain sequential ``Engine.run`` (the digest
      reference for every other row);
    * **warm-local / warm-remote** — warm replay of a fully stored
      sweep (submit finds zero missing segments, gather re-reads the
      store) against the local file tier vs the *same directory*
      served over the wire.  The ratio is the network tax on the
      replay path;
    * **assemble-segments / assemble-partials** — cold sweeps over the
      wire, classic per-segment assembly vs partition/shuffle
      (``n_partitions`` reduce jobs folding partial YLTs).  Each row
      records, on a dedicated gather client, the *entries read at
      assembly* (S segments vs P partials, the sublinearity the
      benchmark's hard gate pins) and the *round trips* that carried
      them (``get_many`` batches, at most ⌈entries/BATCH_KEYS⌉ plus
      the manifest load);
    * **wire-faults** — a cold sweep with injected wire latency and
      connection drops on the surviving workers and 1 of ``n_workers``
      killed at its first compute (lease expiry + peer requeue must
      recover).  Guarded: digest equal to monolithic.

    Timing rows are min-of-``repeats``; digest equality must hold on
    *every* run (one mismatch is a correctness bug, not noise).
    """
    import tempfile
    import threading
    from pathlib import Path

    from repro.core.analysis import AggregateRiskAnalysis
    from repro.engines.registry import create_engine
    from repro.faults.plan import (
        KIND_KILL,
        OP_COMPUTE,
        FaultPlan,
        FaultSpec,
        WorkerKilled,
    )
    from repro.faults.wire import wire_chaos_plan
    from repro.fleet import (
        FleetWorker,
        JobQueue,
        context_for_engine,
        gather_sweep,
        run_workers,
        submit_sweep,
    )
    from repro.net.client import RemoteStore
    from repro.net.queue import RemoteJobQueue
    from repro.net.server import NetServer, ServerThread
    from repro.store import SharedFileStore
    from repro.store.keys import ylt_digest
    from repro.utils.retry import RetryPolicy

    report = ExperimentReport(
        exp_id="NET-ABLATE",
        title="Network fleet: remote store/queue + partition assembly",
    )
    if measured_spec is None:
        measured_spec = net_bench_spec()
    if not measure:
        report.note("measure=False: nothing to report (no model rows).")
        return report

    workload = get_workload(measured_spec)
    yet, portfolio = workload.yet, workload.portfolio
    n_events = workload.catalog.n_events
    ara = AggregateRiskAnalysis(portfolio, n_events)
    engine_obj = create_engine("sequential")
    ctx = context_for_engine(yet, portfolio, n_events, engine_obj)
    retry = RetryPolicy(
        max_attempts=4, base_delay=0.005, max_delay=0.05,
        deadline_seconds=10.0,
    )

    tmp = None
    if base_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="net-ablate-")
        base_dir = tmp.name
    base_dir = Path(base_dir)

    def remote_pair(host, port, fault_plan=None):
        return (
            RemoteStore(
                host, port, retry_policy=retry, fault_plan=fault_plan
            ),
            RemoteJobQueue(host, port, retry_policy=retry),
        )

    def submit(queue, store, partitions=None):
        return submit_sweep(
            queue, store, yet, portfolio, n_events, engine_obj,
            segment_trials=segment_trials, n_partitions=partitions,
        )

    def replay(store, queue):
        """Warm path: submit (zero missing) + gather, timed together."""
        t0 = time.perf_counter()
        ticket = submit(queue, store)
        ylt = gather_sweep(queue, store, ticket.sweep_id)
        return time.perf_counter() - t0, ticket, ylt_digest(ylt)

    def drain(host, port, ticket, worker_specs):
        """Run one FleetWorker thread per spec, each on its own pair.

        ``worker_specs``: (name, store_plan, kill_plan) tuples; workers
        whose kill plan is set run (and die) *before* the survivors
        start, so the recovery path — lease expiry, peer requeue — is
        deterministically exercised.
        """
        workers, deaths = [], []
        for name, store_plan, kill_plan in worker_specs:
            w_store, w_queue = remote_pair(host, port, fault_plan=store_plan)
            workers.append(
                FleetWorker(
                    w_queue,
                    w_store,
                    contexts={ticket.sweep_id: ctx},
                    worker_id=name,
                    fault_plan=kill_plan,
                    speculate=False,
                )
            )

        def drive(worker):
            try:
                worker.run(sweep_id=ticket.sweep_id, poll_seconds=0.02)
            except WorkerKilled:
                deaths.append(worker.worker_id)

        doomed = [w for w, s in zip(workers, worker_specs) if s[2] is not None]
        survivors = [w for w in workers if w not in doomed]
        for worker in doomed:
            thread = threading.Thread(target=drive, args=(worker,))
            thread.start()
            thread.join(timeout=120.0)
        threads = [
            threading.Thread(target=drive, args=(w,)) for w in survivors
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600.0)
        for w in workers:
            w.store.close()
            w.queue.close()
        return workers, deaths

    def cold_wire_sweep(label, lease_seconds, partitions, worker_specs):
        """A full cold sweep over the wire; returns the row dict."""
        store_dir = base_dir / f"{label}-cache"
        queue = JobQueue(
            base_dir / f"{label}-q", lease_seconds=lease_seconds,
            max_attempts=5,
        )
        server = NetServer(SharedFileStore(store_dir), queue=queue)
        with ServerThread(server) as (host, port):
            s_store, s_queue = remote_pair(host, port)
            t0 = time.perf_counter()
            ticket = submit(s_queue, s_store, partitions=partitions)
            workers, deaths = drain(host, port, ticket, worker_specs)
            counts = s_queue.counts(ticket.sweep_id)
            if counts["failed"] or counts["pending"] or counts["claimed"]:
                raise AssertionError(
                    f"{label}: sweep did not drain cleanly: {counts}"
                )
            # assembly fetches on a *dedicated* gather client: its
            # store transport carries nothing but the gather's gets.
            g_store, g_queue = remote_pair(host, port)
            ylt = gather_sweep(g_queue, g_store, ticket.sweep_id)
            seconds = time.perf_counter() - t0
            row = {
                "measured_seconds": seconds,
                "segments": ticket.delta.n_segments,
                "jobs": ticket.submitted,
                "assembly_fetches": g_store.transport.requests,
                "assembly_entries": g_store.hits,
                "computed": sum(w.stats.computed for w in workers),
                "rpc_retries": sum(
                    w.store.stats()["rpc_retries"] for w in workers
                ),
                "workers_killed": len(deaths),
                "ylt_digest": ylt_digest(ylt),
            }
            for client in (s_store, s_queue, g_store, g_queue):
                client.close()
        return row

    try:
        mono = min(
            (ara.run(yet, engine="sequential") for _ in range(repeats)),
            key=lambda r: r.wall_seconds,
        )
        mono_digest = ylt_digest(mono.ylt)
        report.add(
            mode="monolithic",
            measured_seconds=mono.wall_seconds,
            ylt_digest=mono_digest,
        )

        # -- warm one shared store locally, then replay it twice --------
        warm_dir = base_dir / "warm-cache"
        local_store = SharedFileStore(warm_dir)
        local_queue = JobQueue(base_dir / "warm-q", lease_seconds=60.0)
        warm_ticket = submit(local_queue, local_store)
        n_segments = warm_ticket.delta.n_segments
        run_workers(
            local_queue,
            local_store,
            contexts={warm_ticket.sweep_id: ctx},
            n_workers=n_workers,
            sweep_id=warm_ticket.sweep_id,
        )

        local_runs = [replay(local_store, local_queue) for _ in range(repeats)]
        local_seconds = min(r[0] for r in local_runs)
        digests = {r[2] for r in local_runs}
        report.add(
            mode="warm-local",
            measured_seconds=local_seconds,
            segments=n_segments,
            jobs=sum(r[1].submitted for r in local_runs),
            ylt_digest=digests.pop() if len(digests) == 1 else sorted(digests),
        )

        remote_queue_dir = JobQueue(
            base_dir / "warm-remote-q", lease_seconds=60.0
        )
        server = NetServer(SharedFileStore(warm_dir), queue=remote_queue_dir)
        with ServerThread(server) as (host, port):

            def remote_replay():
                store, queue = remote_pair(host, port)
                try:
                    seconds, ticket, digest = replay(store, queue)
                    return seconds, ticket, digest, store.transport.requests
                finally:
                    store.close()
                    queue.close()

            remote_runs = [remote_replay() for _ in range(repeats)]
        remote_seconds = min(r[0] for r in remote_runs)
        report.add(
            mode="warm-remote",
            measured_seconds=remote_seconds,
            segments=n_segments,
            jobs=sum(r[1].submitted for r in remote_runs),
            rpc_requests=remote_runs[0][3],
            overhead_vs_local=remote_seconds / local_seconds,
            ylt_digest=remote_runs[0][2],
        )

        # -- cold sweeps over the wire: S-fetch vs P-fetch assembly -----
        plain = [(f"w{i}", None, None) for i in range(n_workers)]
        seg_row = cold_wire_sweep("segments", 60.0, None, plain)
        report.add(mode="assemble-segments", workers=n_workers, **seg_row)
        part_row = cold_wire_sweep("partials", 60.0, n_partitions, plain)
        report.add(
            mode="assemble-partials",
            workers=n_workers,
            n_partitions=n_partitions,
            **part_row,
        )

        # -- wire faults + a worker kill --------------------------------
        kill_plan = FaultPlan(
            seed,
            [
                FaultSpec(
                    kind=KIND_KILL,
                    op=OP_COMPUTE,
                    at=1,
                    worker_substring="w-doomed",
                )
            ],
        )
        chaotic = [
            (
                f"w{i}",
                wire_chaos_plan(
                    seed + i,
                    latency_seconds=0.002,
                    latency_probability=0.2,
                    drop_every=40,
                    drop_times=3,
                ),
                None,
            )
            for i in range(n_workers - 1)
        ]
        chaotic.append(("w-doomed", None, kill_plan))
        fault_row = cold_wire_sweep("faults", 1.0, None, chaotic)
        report.add(mode="wire-faults", workers=n_workers, **fault_row)

        wire_rows = [
            r for r in report.rows if r["mode"] != "monolithic"
        ]
        if any(r["ylt_digest"] != mono_digest for r in wire_rows):
            raise AssertionError(
                "a network row diverged from the monolithic digest: "
                + str(
                    [(r["mode"], r["ylt_digest"]) for r in wire_rows]
                )
            )
        report.note(
            f"warm replay of {n_segments} segments: "
            f"{local_seconds:.3f}s local file tier vs "
            f"{remote_seconds:.3f}s over the wire "
            f"({remote_seconds / local_seconds:.2f}x, "
            f"{remote_runs[0][3]} RPCs)."
        )
        report.note(
            f"assembly reads: {seg_row['assembly_entries']} segment "
            f"entries vs {part_row['assembly_entries']} partial YLTs at "
            f"{n_partitions} partitions of {n_segments} segments — the "
            "shuffle makes gather read O(P) entries, not O(S); batched "
            f"fetches carry them in {seg_row['assembly_fetches']} and "
            f"{part_row['assembly_fetches']} round trips."
        )
        report.note(
            f"wire-faults row: {fault_row['workers_killed']} worker killed, "
            f"{fault_row['rpc_retries']} RPCs retried; digest bit-identical "
            "to the monolithic run."
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
    return report


# ----------------------------------------------------------------------
# SCENARIO-ABLATE: what-if campaigns over the delta-planned fleet
# ----------------------------------------------------------------------
def scenario_bench_spec() -> WorkloadSpec:
    """The scenario workload: the multi-family preset, unmodified.

    Five named peril blocks (overlay targets), two layers over a shared
    ELT pool, 2,000 trials segmented at a 100-trial stride by the
    benchmark → 40 segments, of which a [0, 200) overlay window dirties
    exactly 4.
    """
    from repro.data.presets import SCENARIO_SMALL

    return SCENARIO_SMALL


def scenario_ablation(
    measured_spec: WorkloadSpec | None = None,
    measure: bool = True,
    n_workers: int = 2,
    segment_trials: int = 100,
    overlay_window: int = 200,
    base_dir=None,
) -> ExperimentReport:
    """Scenario campaigns: determinism, delta reuse, early-stop soundness.

    One seeded baseline workload, one two-scenario set (baseline + a
    crisis overlay scaling hurricane frequency by 1.5x inside a 10%
    trial window), three measurements:

    * **determinism** — the campaign run twice against *fresh* stores,
      and each scenario's compiled inputs priced monolithically by a
      plain ``Engine.run``.  All three digests per scenario must be
      bit-identical (same spec + seed → same YLT, locally or through
      the fleet);
    * **delta reuse** — with the baseline's segments stored, the
      overlay re-sweep may compute at most ~2x its perturbed fraction
      of segments (the content-addressed keys of untouched trials are
      unchanged, so the store serves them);
    * **early stopping** — the same set under an
      :class:`~repro.scenario.adaptive.EarlyStopPolicy`; every stopped
      scenario's PML/TVaR must sit within ``policy.tolerance`` of the
      exact full-trial metrics.
    """
    import tempfile
    from pathlib import Path

    from repro.engines.registry import create_engine
    from repro.scenario.adaptive import EarlyStopPolicy
    from repro.scenario.campaign import ScenarioCampaign
    from repro.scenario.compiler import compile_scenario
    from repro.scenario.spec import FrequencyOverlay, Scenario, ScenarioSet
    from repro.store import SharedFileStore
    from repro.store.keys import ylt_digest

    report = ExperimentReport(
        exp_id="SCENARIO-ABLATE",
        title="Scenario campaigns: determinism, delta reuse, early stop",
    )
    if measured_spec is None:
        measured_spec = scenario_bench_spec()
    if not measure:
        report.note("measure=False: nothing to report (no model rows).")
        return report

    workload = get_workload(measured_spec)
    n_trials = workload.yet.n_trials
    overlay = Scenario(
        name="hurricane-surge",
        transforms=(
            FrequencyOverlay(
                families=("NA-hurricane",),
                factor=1.5,
                trial_start=0,
                trial_stop=overlay_window,
            ),
        ),
        seed=7,
    )
    scenario_set = ScenarioSet(
        name="scenario-bench", scenarios=(Scenario.baseline(), overlay)
    )

    tmp = None
    if base_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="scenario-ablate-")
        base_dir = tmp.name
    base_dir = Path(base_dir)

    def run_campaign(label, policy=None):
        campaign = ScenarioCampaign(
            workload,
            SharedFileStore(base_dir / f"{label}-cache"),
            segment_trials=segment_trials,
            policy=policy,
            n_workers=n_workers,
        )
        t0 = time.perf_counter()
        result = campaign.run(scenario_set)
        return result, time.perf_counter() - t0

    try:
        # -- two independent campaign runs + monolithic references ------
        run1, seconds1 = run_campaign("run1")
        run2, seconds2 = run_campaign("run2")
        engine_obj = create_engine("sequential")
        policy_metrics = EarlyStopPolicy()  # default watched metrics
        mono = {}
        for scenario in scenario_set:
            compiled = compile_scenario(scenario, workload)
            result = engine_obj.run(
                compiled.yet, compiled.portfolio, workload.catalog.n_events
            )
            mono[scenario.name] = {
                "digest": ylt_digest(result.ylt),
                "metrics": policy_metrics.tail_metrics(
                    result.ylt.portfolio_losses()
                ),
            }
        for outcome in run1.outcomes:
            rerun = run2.outcome(outcome.name)
            report.add(
                mode=f"campaign-{outcome.name}",
                measured_seconds=seconds1,
                n_trials=outcome.n_trials,
                segments=outcome.n_segments,
                computed=outcome.n_computed,
                reused=outcome.n_reused,
                perturbed_fraction=compile_scenario(
                    scenario_set.scenario(outcome.name), workload
                ).perturbed_fraction,
                executed_fraction=(
                    outcome.n_computed / outcome.n_segments
                ),
                ylt_digest=outcome.digest,
                rerun_digest_equal=outcome.digest == rerun.digest,
                mono_digest_equal=(
                    outcome.digest == mono[outcome.name]["digest"]
                ),
                pml=outcome.metrics["pml"],
                tvar=outcome.metrics["tvar"],
            )

        # -- early stopping vs the exact full-trial metrics --------------
        policy = EarlyStopPolicy(rel_tol=0.15, min_trials=200)
        adaptive, _ = run_campaign("early-stop", policy=policy)
        for outcome in adaptive.outcomes:
            exact = mono[outcome.name]["metrics"]
            report.add(
                mode=f"early-stop-{outcome.name}",
                trials_used=outcome.trials_used,
                n_trials=outcome.n_trials,
                early_stopped=outcome.early_stopped,
                computed=outcome.n_computed,
                tolerance=policy.tolerance,
                pml_rel_diff=abs(outcome.metrics["pml"] - exact["pml"])
                / max(abs(exact["pml"]), 1e-12),
                tvar_rel_diff=abs(outcome.metrics["tvar"] - exact["tvar"])
                / max(abs(exact["tvar"]), 1e-12),
            )

        overlay_row = next(
            r for r in report.rows if r["mode"] == "campaign-hurricane-surge"
        )
        report.note(
            f"delta reuse: the {overlay_window / n_trials:.0%}-window "
            f"overlay computed {overlay_row['computed']} of "
            f"{overlay_row['segments']} segments "
            f"({overlay_row['executed_fraction']:.0%}); the rest were "
            "served from the baseline's stored segments."
        )
        report.note(
            f"determinism: campaign digests equal across independent "
            f"runs and vs monolithic Engine.run on the compiled inputs "
            f"({seconds1:.2f}s / {seconds2:.2f}s per campaign)."
        )
        stopped = [
            r for r in report.rows
            if r["mode"].startswith("early-stop-") and r["early_stopped"]
        ]
        report.note(
            f"early stop: {len(stopped)} scenario(s) stopped before "
            f"full trials, all within tolerance {policy.tolerance:.2f} "
            "of their exact full-trial PML/TVaR."
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
    return report


ALL_EXPERIMENTS = {
    "SEQ-SCALE": seq_scaling,
    "FIG-1a": fig1a,
    "FIG-1b": fig1b,
    "FIG-2": fig2,
    "FIG-3": fig3,
    "FIG-4": fig4,
    "FIG-5": fig5,
    "FIG-6": fig6,
    "DS-TABLE": data_structures,
    "OPT-ABLATE": opt_ablation,
    "PLAN-ABLATE": plan_ablation,
    "REPLAY-ABLATE": replay_ablation,
    "FLEET-ABLATE": fleet_ablation,
    "CHAOS-ABLATE": chaos_ablation,
    "SERVE-ABLATE": serve_ablation,
    "NET-ABLATE": net_ablation,
    "SCENARIO-ABLATE": scenario_ablation,
    "EXT-SECONDARY": ext_secondary,
}
"""Experiment id → generator function (the per-experiment index)."""
