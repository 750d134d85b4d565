"""The fleet worker: claim → compute → store → complete, forever.

Workers are deliberately dumb loops.  All coordination lives in the
queue (rename-based claims, mtime leases) and the result store
(content-addressed ``get_or_compute`` with cross-process locks); the
worker just moves jobs between them:

1. claim a pending job (optionally restricted to one sweep);
2. resolve the sweep's :class:`~repro.fleet.context.FleetContext`
   (registered in-process, or regenerated from the manifest's seeded
   workload spec);
3. run the job's result through ``store.get_or_compute`` — if another
   worker (any process in the fleet) already stored the key, this is a
   read, not a compute; a compute is the one kernel, through
   :func:`~repro.plan.execute.execute_segment_cpu`, so every worker
   writes the bytes a monolithic run would;
4. mark the job done.

One heartbeat thread per worker touches the claimed file while the
compute runs, so long segments on slow workers are not stolen; a worker
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
* an idle worker **speculates** on straggling peers' segments
  (:meth:`FleetWorker.speculate_one`): lease age past half the lease
  means the owner may be dead or stalled, so the segment is recomputed
  into the store — a harmless duplicate via ``get_or_compute`` — and
  the eventual requeue becomes a store hit.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from repro.fleet.context import FleetContext, context_from_manifest
from repro.fleet.jobs import (
    JOB_KIND_QUOTE,
    JOB_KIND_REDUCE,
    JOB_KIND_SEGMENT,
    FleetJob,
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
        self._heartbeat = _Heartbeat(queue)
        self.stats = WorkerStats(worker_id=self.worker_id)

    # ------------------------------------------------------------------
    def _count_retry(self, attempt, exc, delay) -> None:
        self.stats.store_retries += 1

    def _store_call(self, fn):
        """Run a store operation under the worker's retry policy."""
        return retry_call(
            fn, self.retry_policy, on_retry=self._count_retry
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

    def _compute_segment(self, ctx: FleetContext, task: PlanTask) -> StoreEntry:
        started = time.perf_counter()
        losses = execute_segment_cpu(
            ctx.yet,
            ctx.portfolio,
            ctx.catalog_size,
            task,
            lookup_kind=ctx.lookup_kind,
            dtype=np.dtype(ctx.dtype),
            secondary=ctx.secondary,
            secondary_seed=ctx.secondary_seed,
        )
        seconds = time.perf_counter() - started
        # End-to-end checksums in the entry *meta*: verified by the
        # assembler on read, catching damage past the backend's own CRC
        # (network tiers, injected corruption).
        return attach_checksums(
            StoreEntry(
                arrays={"losses": losses},
                meta={
                    "kind": JOB_KIND_SEGMENT,
                    "layer_id": task.layer_id,
                    "trial_start": task.trial_start,
                    "trial_stop": task.trial_stop,
                    "computed_by": self.worker_id,
                    "seconds": seconds,
                },
            )
        )

    def _ensure_segment(self, ctx: FleetContext, key: str, task: PlanTask) -> StoreEntry:
        """``get_or_compute`` one segment, counting computed vs reused."""
        computed = {}

        def produce() -> StoreEntry:
            entry = self._compute_segment(ctx, task)
            computed["seconds"] = float(entry.meta["seconds"])
            return entry

        entry = self._store_call(
            lambda: self.store.get_or_compute(key, produce)
        )
        if computed:
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
        for member in job.payload["segments"]:
            key = str(member["key"])
            task = self._task_from(member["task"])
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
            self._ensure_segment(
                ctx, job.key, self._task_from(job.payload["task"])
            )
        elif job.kind == JOB_KIND_REDUCE:
            self._run_reduce(ctx, job)
        elif job.kind == JOB_KIND_QUOTE:
            from repro.data.layer import LayerTerms  # deferred import

            service = ctx.quote_service(self.store)
            elt_ids = [int(e) for e in job.payload["elt_ids"]]
            terms = LayerTerms(*[float(t) for t in job.payload["terms"]])
            layer_id = int(job.payload.get("layer_id", 9999))
            derived = service.loss_store_key(elt_ids, terms, layer_id)
            if derived != job.key:
                # Submitter/worker config drift: computing would store
                # under the wrong address and the submitter's promised
                # replay would silently never happen.  Fail loudly.
                raise ValueError(
                    f"quote job {job.job_id}: worker-derived store key "
                    f"{derived[:16]}… != submitted {job.key[:16]}… — the "
                    "manifest's workload/config does not reproduce the "
                    "submitting service's inputs"
                )
            started = time.perf_counter()
            before = service.cache_stats()["losses"]["store_hits"]
            service.candidate_losses(elt_ids, terms, layer_id=layer_id)
            after = service.cache_stats()["losses"]["store_hits"]
            if after > before:
                self.stats.reused += 1
            else:
                self.stats.computed += 1
                self.stats.compute_seconds += time.perf_counter() - started
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
            state = self.queue.fail(job, repr(exc), exc=exc)
            if state == "failed":
                self.stats.failed += 1
                self.stats.errors[job.job_id] = repr(exc)
            return True
        finally:
            self._heartbeat.hold(None)
        self.queue.complete(job)
        return True

    def speculate_one(self, sweep_id: str | None = None) -> bool:
        """Re-execute one straggling peer's segment into the store.

        Picks the oldest claimed job (not this worker's own, not one
        already speculated on) whose lease age passed
        ``speculation_age_fraction`` of the lease, and runs its
        computation through ``get_or_compute`` — without touching the
        queue state at all.  If the owner was merely slow, the store
        dedups and one compute is wasted; if the owner is dead, the
        requeued claim finds the result already stored.  Returns
        whether a speculation ran.
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
                ctx = self._context(job.sweep_id)
                task = self._task_from(job.payload["task"])
                computed = {}

                def produce() -> StoreEntry:
                    entry = self._compute_segment(ctx, task)
                    computed["seconds"] = float(entry.meta["seconds"])
                    return entry

                self._store_call(
                    lambda: self.store.get_or_compute(job.key, produce)
                )
            except Exception:
                return False  # speculation is best-effort by definition
            if computed:
                # Counted separately from ``computed``: a speculative
                # produce is work the *owner's* claim will reuse.
                self.stats.speculated += 1
                self.stats.compute_seconds += computed["seconds"]
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
