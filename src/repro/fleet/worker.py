"""The fleet worker: claim → compute → store → complete, forever.

Workers are deliberately dumb loops.  All coordination lives in the
queue (rename-based claims, mtime leases) and the result store
(content-addressed entries with cross-process locks); the worker just
moves jobs between them:

1. claim a pending job — a *run* of contiguous segments of one layer
   (or, in partition mode, a reduce job);
2. resolve the sweep's :class:`~repro.fleet.context.FleetContext`
   (registered in-process, or regenerated from the manifest's seeded
   workload spec);
3. probe the run's segments with one ``contains_many``; if any is
   missing, hold the run's key (:meth:`~repro.store.base.ResultStore.
   exclusive`: in-process dedup plus the backend's cross-process lock),
   probe again, compute the span of the still-missing segments in one
   :func:`~repro.plan.execute.execute_segment_cpu` call — per-trial
   losses do not depend on the span, so every worker writes the bytes
   a monolithic run would — and write them with one ``put_many``;
4. mark the job done.

Segments stay the unit of storage and of delta reuse; a run is only
the unit of coordination, so a sweep pays its claim, lock and kernel
call per run rather than per segment.

One heartbeat thread per worker touches the claimed file while the
compute runs, so long runs on slow workers are not stolen; a worker
that dies mid-compute simply stops heartbeating and its job is requeued
by any peer's :meth:`~repro.fleet.jobs.JobQueue.requeue_expired` scan.
Failed computes requeue up to the queue's ``max_attempts`` and then
land in ``failed/`` with the error *and its provenance* (exception
chain + attempt history) recorded.

Resilience knobs (all on by default):

* store operations run under a bounded
  :class:`~repro.utils.retry.RetryPolicy` — a transient IO error costs
  a backoff, not a failed attempt;
* segment entries carry end-to-end checksums
  (:func:`repro.store.verify.attach_checksums`), so corruption
  anywhere between this worker's write and the assembler's read is
  detected, retried and recomputed instead of silently assembled;
* an idle worker **speculates** on straggling peers' runs
  (:meth:`FleetWorker.speculate_one`): lease age past half the lease
  means the owner may be dead or stalled, so the run is stored exactly
  as the owner would store it — whichever of the two holds the run's
  key second finds its segments stored — and the eventual requeue
  becomes a store hit.
"""

from __future__ import annotations

import os
import random
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.fleet.context import FleetContext, context_from_manifest
from repro.fleet.jobs import (
    JOB_KIND_REDUCE,
    JOB_KIND_SEGMENT,
    FleetJob,
    JobFormatError,
    JobQueue,
)
from repro.plan.execute import execute_segment_cpu
from repro.plan.plan import PlanTask
from repro.store.base import ResultStore, StoreEntry
from repro.store.verify import attach_checksums
from repro.utils.retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_call


@dataclass
class WorkerStats:
    """What one worker did (fleet benchmarks and ``meta`` reporting)."""

    worker_id: str
    claimed: int = 0
    computed: int = 0
    reused: int = 0
    failed: int = 0
    requeued_for_peers: int = 0
    speculated: int = 0
    store_retries: int = 0
    compute_seconds: float = 0.0
    errors: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "claimed": self.claimed,
            "computed": self.computed,
            "reused": self.reused,
            "failed": self.failed,
            "requeued_for_peers": self.requeued_for_peers,
            "speculated": self.speculated,
            "store_retries": self.store_retries,
            "compute_seconds": self.compute_seconds,
            "errors": dict(self.errors),
        }


class _Heartbeat:
    """One background lease refresher per worker.

    The thread starts on the first :meth:`hold`, refreshes the lease of
    whichever job is held at every tick, and exits when the outermost
    ``with`` block ends — a worker pays one thread start per
    :meth:`FleetWorker.run`, not one per job.
    """

    def __init__(self, queue: JobQueue) -> None:
        self._queue = queue
        self._lock = threading.Lock()
        self._job: Optional[FleetJob] = None
        self._depth = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self, interval: float) -> None:
        while not self._stop.wait(interval):
            with self._lock:
                job = self._job
            if job is None:
                continue
            try:
                self._queue.heartbeat(job)
            except Exception:
                pass  # best effort: the next tick beats again

    def hold(self, job: Optional[FleetJob]) -> None:
        """Beat ``job``'s lease from now on (``None``: beat nothing)."""
        with self._lock:
            self._job = job
        if job is not None and self._thread is None:
            # lease/4 cadence; read at start (a remote queue's lease is
            # the server's, fetched on first use)
            interval = max(0.01, self._queue.lease_seconds / 4)
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, args=(interval,), daemon=True
            )
            self._thread.start()

    def __enter__(self) -> "_Heartbeat":
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        self.hold(None)
        if self._depth == 0 and self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None


class FleetWorker:
    """One worker process/thread draining a queue into a store.

    Parameters
    ----------
    queue, store:
        The shared coordination substrate.  Every worker of a fleet
        points at the same queue directory and (for cross-process
        fleets) a :class:`~repro.store.SharedFileStore`-backed store.
    contexts:
        Pre-registered ``{sweep_id: FleetContext}`` (in-process fleets).
        Unknown sweeps fall back to the manifest's workload spec.
    worker_id:
        Stable identity for leases and stats (default: pid + random).
    retry_policy:
        Bounds retries of transient store errors around
        ``get_or_compute`` (default:
        :data:`~repro.utils.retry.DEFAULT_RETRY_POLICY`).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` hook: consulted
        once per executed job (op ``"compute"``, keyed by job id) so
        chaos runs can poison specific segments
        (:class:`~repro.faults.plan.InjectedFault` → the normal
        fail/requeue path) or kill this worker mid-compute
        (:class:`~repro.faults.plan.WorkerKilled` → unwinds like a
        crash, job left claimed).  Production fleets leave it ``None``.
    speculate:
        Allow idle-loop speculative re-execution of straggling peers'
        segments (see :meth:`speculate_one`).
    """

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        contexts: Optional[Dict[str, FleetContext]] = None,
        worker_id: str | None = None,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        fault_plan=None,
        speculate: bool = True,
        speculation_age_fraction: float = 0.5,
    ) -> None:
        self.queue = queue
        self.store = store
        self.contexts: Dict[str, FleetContext] = dict(contexts or {})
        self.worker_id = (
            worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.speculate = bool(speculate)
        self.speculation_age_fraction = float(speculation_age_fraction)
        self._speculated_ids: Set[str] = set()
        self._retry_rng = random.Random()  # backoff jitter, seeded once
        self._heartbeat = _Heartbeat(queue)
        self.stats = WorkerStats(worker_id=self.worker_id)

    # ------------------------------------------------------------------
    def _count_retry(self, attempt, exc, delay) -> None:
        self.stats.store_retries += 1

    def _store_call(self, fn):
        """Run a store operation under the worker's retry policy."""
        return retry_call(
            fn,
            self.retry_policy,
            rng=self._retry_rng,
            on_retry=self._count_retry,
        )

    # ------------------------------------------------------------------
    def _context(self, sweep_id: str) -> FleetContext:
        ctx = self.contexts.get(sweep_id)
        if ctx is None:
            manifest = self.queue.load_sweep(sweep_id)
            if manifest is None:
                raise ValueError(f"no manifest for sweep {sweep_id!r}")
            ctx = context_from_manifest(manifest)
            self.contexts[sweep_id] = ctx
        return ctx

    # ------------------------------------------------------------------
    @staticmethod
    def _task_from(payload: Dict[str, object]) -> PlanTask:
        return PlanTask(**{k: int(v) for k, v in payload.items()})

    def _members(self, job: FleetJob) -> List[Tuple[str, PlanTask]]:
        segments = job.payload.get("segments")
        if segments is None:
            raise JobFormatError(
                f"job {job.job_id} has no 'segments' list: a payload "
                "holding one 'task' is the older one-job-per-segment "
                "format; resubmit its sweep from this version"
            )
        return [
            (str(member["key"]), self._task_from(member["task"]))
            for member in segments
        ]

    def _unstored(
        self, members: List[Tuple[str, PlanTask]]
    ) -> List[Tuple[str, PlanTask]]:
        stored = self._store_call(
            lambda: self.store.contains_many([key for key, _ in members])
        )
        return [member for member, hit in zip(members, stored) if not hit]

    def _compute_run(
        self, ctx: FleetContext, members: List[Tuple[str, PlanTask]]
    ) -> Tuple[Dict[str, StoreEntry], float]:
        """One kernel call over the trial span of ``members`` (one
        layer, ascending trials), split into one entry per member."""
        tasks = [task for _, task in members]
        if any(
            a.layer_id != b.layer_id or a.trial_stop > b.trial_start
            for a, b in zip(tasks, tasks[1:])
        ):
            raise ValueError("a run's segments must ascend within one layer")
        first, last = tasks[0], tasks[-1]
        span = replace(first, trial_stop=last.trial_stop, occ_stop=last.occ_stop)
        started = time.perf_counter()
        losses = execute_segment_cpu(
            ctx.yet,
            ctx.portfolio,
            ctx.catalog_size,
            span,
            dtype=np.dtype(ctx.dtype),
            secondary=ctx.secondary,
            secondary_seed=ctx.secondary_seed,
        )
        seconds = time.perf_counter() - started
        entries = {}
        for key, task in members:
            offset = task.trial_start - span.trial_start
            # End-to-end checksums in the entry *meta*: verified by the
            # assembler on read, catching damage past the backend's own
            # CRC (network tiers, injected corruption).
            entries[key] = attach_checksums(
                StoreEntry(
                    arrays={"losses": losses[offset : offset + task.n_trials]},
                    meta={
                        "kind": JOB_KIND_SEGMENT,
                        "layer_id": task.layer_id,
                        "trial_start": task.trial_start,
                        "trial_stop": task.trial_stop,
                        "computed_by": self.worker_id,
                        "seconds": seconds * task.n_trials / span.n_trials,
                    },
                )
            )
        return entries, seconds

    def _store_run(self, ctx: FleetContext, job: FleetJob) -> Tuple[int, float]:
        """Store a run job's missing segments: ``(computed, seconds)``.

        The members are probed in one ``contains_many``; when any is
        missing, the run's key is held
        (:meth:`~repro.store.base.ResultStore.exclusive`), the members
        are probed again, and the span from the first to
        the last still-missing member is computed in one kernel call
        and written with one ``put_many``.
        """
        missing = self._unstored(self._members(job))
        if not missing:
            return 0, 0.0
        with self.store.exclusive(job.key):
            missing = self._unstored(missing)
            if not missing:
                return 0, 0.0
            entries, seconds = self._compute_run(ctx, missing)
            self._store_call(lambda: self.store.put_many(entries))
        return len(entries), seconds

    def _ensure_segment(
        self, ctx: FleetContext, key: str, task: PlanTask
    ) -> StoreEntry:
        """``get_or_compute`` one segment, counting computed vs reused."""
        computed: Dict[str, float] = {}

        def produce() -> StoreEntry:
            entries, seconds = self._compute_run(ctx, [(key, task)])
            computed["seconds"] = seconds
            return entries[key]

        entry = self._store_call(
            lambda: self.store.get_or_compute(key, produce)
        )
        if "seconds" in computed:
            self.stats.computed += 1
            self.stats.compute_seconds += computed["seconds"]
        else:
            self.stats.reused += 1
        return entry

    def _run_reduce(self, ctx: FleetContext, job: FleetJob) -> None:
        """Fold one partition's segments into a partial-YLT entry.

        The map and combine of the partition/shuffle mode, fused: each
        member segment is fetched-or-computed through the store (the
        once-per-fleet guarantee and computed/reused accounting are the
        segment path's, unchanged), then the loss vectors concatenate
        into one entry under the partition's content-addressed key.
        """
        from repro.fleet.partition import build_partial
        from repro.store.verify import verify_entry

        if self._store_call(lambda: self.store.contains(job.key)):
            return  # partial already reduced by a peer (or a past sweep)
        members = []
        for key, task in self._members(job):
            entry = self._ensure_segment(ctx, key, task)
            if not verify_entry(entry):
                # A damaged stored segment must not be folded into the
                # partial: retire it and compute a fresh one.
                self.store.note_corrupt(key, "damaged segment in reduce")
                self._store_call(lambda k=key: self.store.delete(k))
                entry = self._ensure_segment(ctx, key, task)
            members.append(
                (
                    {
                        "layer_id": task.layer_id,
                        "trial_start": task.trial_start,
                        "trial_stop": task.trial_stop,
                    },
                    entry.arrays["losses"],
                )
            )
        partial = attach_checksums(
            build_partial(members, meta={"computed_by": self.worker_id})
        )
        self._store_call(
            lambda: self.store.get_or_compute(job.key, lambda: partial)
        )

    def _run_job(self, job: FleetJob) -> None:
        if self.fault_plan is not None:
            from repro.faults.plan import (  # deferred: chaos-only path
                KIND_KILL,
                KIND_POISON,
                OP_COMPUTE,
                InjectedFault,
                WorkerKilled,
            )

            for spec in self.fault_plan.fire(
                OP_COMPUTE, key=job.job_id, worker=self.worker_id
            ):
                if spec.kind == KIND_KILL:
                    raise WorkerKilled(
                        f"injected death of {self.worker_id!r} computing "
                        f"{job.job_id}"
                    )
                if spec.kind == KIND_POISON:
                    raise InjectedFault(
                        f"injected poison on segment {job.job_id}"
                    )
        ctx = self._context(job.sweep_id)
        if job.kind == JOB_KIND_SEGMENT:
            computed, seconds = self._store_run(ctx, job)
            self.stats.computed += computed
            self.stats.reused += len(job.payload["segments"]) - computed
            self.stats.compute_seconds += seconds
        elif job.kind == JOB_KIND_REDUCE:
            self._run_reduce(ctx, job)
        else:
            raise ValueError(f"unknown job kind {job.kind!r}")

    # ------------------------------------------------------------------
    def run_one(self, sweep_id: str | None = None) -> bool:
        """Claim and process a single job; ``False`` when none pending."""
        with self._heartbeat:
            return self._claim_and_run(sweep_id)

    def _claim_and_run(self, sweep_id: str | None) -> bool:
        job = self.queue.claim(self.worker_id, sweep_id=sweep_id)
        if job is None:
            return False
        self.stats.claimed += 1
        self._heartbeat.hold(job)
        try:
            self._run_job(job)
        except (KeyboardInterrupt, SystemExit):
            # A killed worker must stop, not eat the signal — hand the
            # job straight back (the interruption is not the job's
            # fault, so the attempt is not charged against it).
            job.attempts = max(0, job.attempts - 1)
            self.queue.fail(job, "worker interrupted", requeue=True)
            raise
        except Exception as exc:
            state = self.queue.fail(
                job,
                repr(exc),
                requeue=not isinstance(exc, JobFormatError),
                exc=exc,
            )
            if state == "failed":
                self.stats.failed += 1
                self.stats.errors[job.job_id] = repr(exc)
            return True
        finally:
            self._heartbeat.hold(None)
        self.queue.complete(job)
        return True

    def speculate_one(self, sweep_id: str | None = None) -> bool:
        """Store one straggling peer's run of segments.

        Picks the oldest claimed run job (not this worker's own, not
        one already speculated on) whose lease age passed
        ``speculation_age_fraction`` of the lease, and stores its
        missing segments as the owner would — under the run's
        exclusive hold, without touching the queue state at all.  If
        the owner was merely slow, whichever of the two takes the hold
        second finds the members stored; if the owner is dead, the
        requeued claim finds them stored.  Returns whether a
        speculation ran.
        """
        if not self.speculate:
            return False
        for job in self.queue.stragglers(
            self.speculation_age_fraction, sweep_id=sweep_id
        ):
            if job.kind != JOB_KIND_SEGMENT:
                continue
            if job.owner == self.worker_id:
                continue
            if job.job_id in self._speculated_ids:
                continue
            self._speculated_ids.add(job.job_id)
            try:
                computed, seconds = self._store_run(
                    self._context(job.sweep_id), job
                )
            except Exception:
                return False  # speculation is best-effort by definition
            # Counted separately from ``computed``: a speculative
            # produce is work the *owner's* claim will reuse.
            self.stats.speculated += computed
            self.stats.compute_seconds += seconds
            return True
        return False

    def run(
        self,
        sweep_id: str | None = None,
        max_jobs: int | None = None,
        drain: bool = True,
        poll_seconds: float = 0.05,
    ) -> WorkerStats:
        """Process jobs until the sweep (or queue) has no open work.

        ``drain=True`` keeps the worker alive while *other* workers
        still hold claims — their jobs may yet expire back to pending,
        and this worker requeues them (``requeue_expired``) and
        *speculates* on their segments (:meth:`speculate_one`) as part
        of its idle loop.  ``drain=False`` exits at the first empty
        claim.  ``max_jobs`` bounds the work taken (testing and
        fair-share scenarios).
        """
        done = 0
        with self._heartbeat:
            while max_jobs is None or done < max_jobs:
                if self._claim_and_run(sweep_id):
                    done += 1
                    continue
                self.stats.requeued_for_peers += len(
                    self.queue.requeue_expired()
                )
                if self.queue.active_count(sweep_id) == 0 or not drain:
                    break
                if not self.speculate_one(sweep_id=sweep_id):
                    time.sleep(poll_seconds)
        return self.stats
