"""Sweep orchestration: submit, drain, gather.

A *sweep* is one analysis decomposed into segments, the unit of storage
and of delta reuse.  Submission is store-aware end to end: the engine's
:meth:`~repro.engines.base.Engine.plan_missing` derives every segment's
content-addressed key, probes the store, and only the missing segments
become queue work — a re-sweep of a partially changed input (extended
YET, one re-termed layer) enqueues only the delta.  Missing segments
are queued in *runs* (:func:`segment_runs`): one job per contiguous run
of up to :func:`run_length` segments of one layer, which a worker
computes in one kernel call and writes in one batch, so coordination is
paid per run, not per segment.  The manifest records *all* segments
(stored and missing), which is exactly what the assembler needs to
gather the final YLT.

``run_fleet`` (the API behind
:meth:`repro.core.analysis.AggregateRiskAnalysis.run_fleet`) wires the
whole loop in-process: submit, spawn N worker threads against the
shared queue/store, drain, assemble.  The same queue directory and
cache dir serve subprocess workers (``repro-fleet worker``) unchanged —
the example and the REPLAY-style benchmarks run both shapes.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.fleet.assemble import FleetAssemblyError, ResultAssembler
from repro.fleet.context import FleetContext, config_from_context, spec_dict
from repro.fleet.jobs import JOB_KIND_SEGMENT, FleetJob, JobQueue
from repro.fleet.worker import FleetWorker, WorkerStats
from repro.plan.delta import DeltaPlan, SegmentRecord
from repro.plan.scheduler import Scheduler
from repro.store.base import ResultStore

#: the most segments one run job holds
MAX_RUN_SEGMENTS = 16
#: runs each worker should get at least about this many of, so work
#: still balances across a fleet and a straggler holds little of it
RUNS_PER_WORKER = 4
#: the fleet size assumed when the submitter does not know it
#: (``repro-fleet submit``, scenario campaigns, the chaos runner)
DEFAULT_FLEET_WORKERS = 4


@dataclass
class SweepTicket:
    """Receipt of a submitted sweep.

    ``submitted`` counts segments enqueued (partition mode: reduce
    jobs), ``runs`` the queue jobs holding them, and ``reused`` the
    segments (partition mode: partials) already stored.
    """

    sweep_id: str
    delta: DeltaPlan
    submitted: int
    runs: int
    reused: int
    manifest: Dict[str, Any]

    def summary(self) -> Dict[str, Any]:
        return {
            "sweep_id": self.sweep_id,
            "submitted": self.submitted,
            "runs": self.runs,
            "reused": self.reused,
            **self.delta.summary(),
        }


def run_length(n_missing: int, n_workers: int | None = None) -> int:
    """Segments per run job: about :data:`RUNS_PER_WORKER` runs per
    worker, at most :data:`MAX_RUN_SEGMENTS` segments each.

    A fleet known to be one worker has no peer to balance against or
    to speculate for it, so its runs are as long as the cap allows.
    """
    workers = DEFAULT_FLEET_WORKERS if n_workers is None else max(1, n_workers)
    if workers == 1:
        return MAX_RUN_SEGMENTS
    share = math.ceil(n_missing / (RUNS_PER_WORKER * workers))
    return max(1, min(MAX_RUN_SEGMENTS, share))


def segment_runs(
    records: Sequence[SegmentRecord], n_workers: int | None = None
) -> List[List[SegmentRecord]]:
    """Group segments, in order, into runs of contiguous trials of one
    layer, at most :func:`run_length` long."""
    limit = run_length(len(records), n_workers)
    runs: List[List[SegmentRecord]] = []
    for record in records:
        if runs:
            run = runs[-1]
            last = run[-1].task
            if (
                len(run) < limit
                and last.layer_id == record.task.layer_id
                and last.trial_stop == record.task.trial_start
            ):
                run.append(record)
                continue
        runs.append([record])
    return runs


def run_job(sweep_id: str, run: Sequence[SegmentRecord]) -> FleetJob:
    """The queue job of one run; its id and key are its first
    segment's, so resubmitting a sweep finds the same jobs."""
    first = run[0]
    return FleetJob(
        job_id=f"{sweep_id}.t{first.task.task_id:06d}",
        sweep_id=sweep_id,
        kind=JOB_KIND_SEGMENT,
        key=first.key,
        payload={
            "segments": [
                {"key": record.key, "task": asdict(record.task)}
                for record in run
            ]
        },
    )


def context_for_engine(
    yet: YearEventTable,
    portfolio: Portfolio,
    catalog_size: int,
    engine_obj,
) -> FleetContext:
    """A :class:`FleetContext` matching an engine's numeric config."""
    caps = engine_obj.capabilities()
    return FleetContext(
        yet=yet,
        portfolio=portfolio,
        catalog_size=int(catalog_size),
        dtype=caps.dtype,
        secondary=engine_obj.secondary,
        secondary_seed=engine_obj._secondary_base_seed(),
    )


def _workload_block(
    workload_spec, scenario, stage_trials: int | None
) -> Dict[str, Any]:
    """The manifest's ``workload`` block: spec + scenario + stage."""
    block: Dict[str, Any] = {}
    if workload_spec is not None:
        block["spec"] = spec_dict(workload_spec)
    if scenario is not None:
        block["scenario"] = scenario.to_dict()
    if stage_trials is not None:
        block["stage_trials"] = int(stage_trials)
    return block


def submit_sweep(
    queue: JobQueue,
    store: ResultStore,
    yet: YearEventTable,
    portfolio: Portfolio,
    catalog_size: int,
    engine_obj,
    segment_trials: int | None = None,
    plan=None,
    workload_spec=None,
    sweep_id: str | None = None,
    n_partitions: int | None = None,
    scenario=None,
    stage_trials: int | None = None,
    n_workers: int | None = None,
) -> SweepTicket:
    """Delta-plan an analysis and enqueue its missing segments.

    Missing segments are enqueued as run jobs (:func:`segment_runs`)
    sized for ``n_workers`` workers (``None``: the
    :data:`DEFAULT_FLEET_WORKERS` a submitter that does not know its
    fleet assumes).  The sweep id defaults to a digest of the delta
    plan (decomposition + segment keys), so resubmitting the identical
    sweep is idempotent: job ids collide and the queue skips them.
    ``workload_spec`` (a
    :class:`~repro.data.presets.WorkloadSpec`) embeds the seeded
    recipe for the inputs in the manifest so workers in other processes
    can regenerate them; in-process fleets register their live context
    instead and may omit it.

    ``n_partitions`` switches the sweep to **partition/shuffle** mode
    (:mod:`repro.fleet.partition`): instead of one job per missing
    segment, the queue gets one *reduce* job per partition of the full
    segment list.  Reduce workers fetch-or-compute their members (the
    per-segment store dedup is unchanged) and store one partial-YLT
    entry each, and :func:`gather_sweep` merges the partials — P store
    reads at assembly instead of S.  Partitions whose partial is
    already stored are skipped entirely (the delta principle, one
    level up).

    ``scenario`` (a :class:`~repro.scenario.spec.Scenario`) records in
    the manifest that ``yet``/``portfolio`` are the *compiled* outputs
    of that spec applied to the workload-spec baseline; cross-process
    workers re-compile it deterministically.  ``stage_trials`` marks a
    staged trial-prefix sweep (adaptive campaigns), so workers slice
    the compiled table the same way the submitter did.
    """
    delta = engine_obj.plan_missing(
        yet, portfolio, store, segment_trials=segment_trials, plan=plan
    )
    if sweep_id is None:
        sweep_id = f"sweep-{delta.fingerprint()[:16]}"
    ctx = context_for_engine(yet, portfolio, catalog_size, engine_obj)
    manifest: Dict[str, Any] = {
        "sweep_id": sweep_id,
        "kind": "analysis",
        "engine": engine_obj.name,
        "config": config_from_context(ctx),
        "workload": _workload_block(workload_spec, scenario, stage_trials),
        "n_trials": yet.n_trials,
        "n_occurrences": yet.n_occurrences,
        "layer_ids": [int(i) for i in delta.plan.layer_ids],
        "plan_fingerprint": delta.plan.fingerprint(),
        "delta_fingerprint": delta.fingerprint(),
        "segments": [
            {
                "key": record.key,
                "task_id": record.task.task_id,
                "layer_id": record.task.layer_id,
                "trial_start": record.task.trial_start,
                "trial_stop": record.task.trial_stop,
                "occ_start": record.task.occ_start,
                "occ_stop": record.task.occ_stop,
                "stored": record.stored,
            }
            for record in delta.segments
        ],
    }
    if n_partitions is not None:
        from repro.fleet.partition import (
            build_partitions,
            manifest_partitions,
            reduce_jobs,
        )

        partitions = build_partitions(delta.segments, n_partitions)
        manifest["partitions"] = manifest_partitions(partitions)
        queue.save_sweep(sweep_id, manifest)
        stored = store.contains_many([p["key"] for p in partitions])
        todo = [p for p, hit in zip(partitions, stored) if not hit]
        # a warm sweep with nothing to do makes no queue call (on a
        # remote queue, one round trip fewer)
        submitted = queue.submit(reduce_jobs(sweep_id, todo)) if todo else 0
        return SweepTicket(
            sweep_id=sweep_id,
            delta=delta,
            submitted=submitted,
            runs=submitted,
            reused=len(partitions) - len(todo),
            manifest=manifest,
        )
    queue.save_sweep(sweep_id, manifest)
    jobs = [
        run_job(sweep_id, run)
        for run in segment_runs(delta.missing, n_workers)
    ]
    # ``submitted`` counts the segments of the runs actually added (a
    # resubmitted sweep's jobs are skipped); a warm sweep makes no call.
    added = set(queue.submit_ids(jobs)) if jobs else set()
    return SweepTicket(
        sweep_id=sweep_id,
        delta=delta,
        submitted=sum(
            len(job.payload["segments"]) for job in jobs if job.job_id in added
        ),
        runs=len(added),
        reused=delta.n_stored,
        manifest=manifest,
    )


def run_workers(
    queue: JobQueue,
    store: ResultStore,
    contexts: Optional[Dict[str, FleetContext]] = None,
    n_workers: int = 2,
    sweep_id: str | None = None,
    poll_seconds: float = 0.02,
) -> List[WorkerStats]:
    """Drain a sweep with ``n_workers`` in-process worker threads.

    NumPy kernels release the GIL, so threads genuinely overlap on
    multi-core hosts; on any host, results are identical because
    placement is fixed by global trial index and the store dedups the
    compute.  Raises when jobs exhausted their attempts — a sweep with
    ``failed/`` jobs must not silently assemble.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    workers = [
        FleetWorker(queue, store, contexts=contexts) for _ in range(n_workers)
    ]
    Scheduler(max_workers=n_workers).run_jobs(
        [
            (lambda w=worker: w.run(sweep_id=sweep_id, poll_seconds=poll_seconds))
            for worker in workers
        ]
    )
    failures = list(queue.jobs("failed", sweep_id))
    if failures:
        details = "; ".join(
            f"{job.job_id}: {job.error}" for job in failures[:3]
        )
        raise FleetAssemblyError(
            f"{len(failures)} job(s) exhausted their attempts ({details})"
        )
    return [worker.stats for worker in workers]


def gather_sweep(
    queue: JobQueue, store: ResultStore, sweep_id: str
):
    """Assemble a sweep's YLT from its manifest + the store.

    A partition/shuffle sweep assembles from its P partial-YLT entries;
    when any partial is missing or damaged, assembly falls back to the
    per-segment path (S fetches, but able to heal by recompute) before
    giving up — a degraded gather beats a failed one, and both paths
    produce bit-identical YLTs.
    """
    manifest = queue.load_sweep(sweep_id)
    if manifest is None:
        raise FleetAssemblyError(f"no manifest for sweep {sweep_id!r}")
    assembler = ResultAssembler(store)
    if manifest.get("partitions"):
        try:
            return assembler.assemble_partials(manifest)
        except FleetAssemblyError:
            pass  # degraded: fall through to per-segment assembly
    return assembler.assemble(manifest)


def modeled_makespan(job_seconds: Sequence[float], n_workers: int) -> float:
    """Makespan of an LPT schedule of measured job times over a fleet.

    The fleet analogue of the repository's simulated-GPU cost models:
    per-job compute seconds are *measured* (workers store each run's
    seconds, pro-rated by trials, in its segments' meta), and the
    wall-clock of a hypothetical ``n_workers`` fleet is the
    longest-processing-time-first greedy assignment — the standard
    4/3-competitive bound.  This is what the FLEET-ABLATE
    benchmark reports alongside measured wall times, so the scaling
    claim is meaningful even on single-core CI hosts.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    loads = [0.0] * min(n_workers, max(1, len(job_seconds)))
    heapq.heapify(loads)
    for seconds in sorted((float(s) for s in job_seconds), reverse=True):
        heapq.heappush(loads, heapq.heappop(loads) + seconds)
    return max(loads) if loads else 0.0


def wait_for_drain(
    queue: JobQueue,
    sweep_id: str | None = None,
    timeout: float = 300.0,
    poll_seconds: float = 0.1,
) -> bool:
    """Block until a sweep has no pending/claimed jobs (external workers).

    Requeues expired leases while waiting (so a crashed external worker
    cannot wedge the wait).  Returns ``False`` on timeout.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if queue.active_count(sweep_id) == 0:
            return True
        queue.requeue_expired()
        time.sleep(poll_seconds)
    return queue.active_count(sweep_id) == 0
