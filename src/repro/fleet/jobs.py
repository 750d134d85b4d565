"""The durable job queue: runs of segments shared by a fleet.

A :class:`JobQueue` is a directory.  Each job is one JSON file that
moves between state subdirectories by ``rename(2)`` — the one cheap
atomic primitive POSIX gives us, and the same discipline the file store
uses for entries::

    <queue_dir>/
        pending/<job_id>.json     # submitted, unowned
        claimed/<job_id>.json     # leased to a worker (mtime = heartbeat)
        done/<job_id>.json        # completed
        failed/<job_id>.json      # exhausted max_attempts
        locks/queue.lock          # transition exclusivity (flock)
        sweeps/<sweep_id>.json    # sweep manifests (what to assemble)

Claiming is a rename from ``pending/`` to ``claimed/``: exactly one of
N racing workers (threads *or* processes on a shared filesystem) wins,
no lock required.  A claimer works through the names of one
``pending/`` listing before listing again (the instance's *backlog*),
so draining a sweep of S jobs lists the directory O(1) times, not S.
Leases are the claimed file's mtime: a worker heartbeats by touching
it, and :meth:`requeue_expired` renames files whose heartbeat is older
than ``lease_seconds`` back to ``pending/``.  Every transition out of
``claimed/`` — complete, fail, requeue — happens under the one queue
flock, as a stat plus a rename, so concurrent scanners agree on one
requeue and a lost claim cannot be completed.

A job is a *run* of contiguous segments of one layer (partition
mode: one reduce job per partition); the queue itself treats payloads
as opaque.  Exactly-once *effects* do not depend on exactly-once job
execution: a job's results land in the content-addressed result store,
probed before and again under the run's exclusive hold, so a requeued
job whose original worker already stored its segments becomes a store
hit, and two workers racing on one run compute it once per fleet (the
store's cross-process lock).  The hold is the run's, not each
segment's: sweeps that group the same segments into different runs may
both compute the segments where their runs overlap, writing the same
bytes.  A payload without ``segments`` (the older one-job-per-segment
format) fails once with :class:`JobFormatError`.  The queue only has
to guarantee that
every job is eventually completed by *someone* — which rename-based
claims plus lease expiry give.

A :class:`MemoryJobQueue` keeps the same contract in one process's
memory: the private queue of an in-process fleet, which no other
process can join, so its jobs and manifests need no files.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional, Union

from repro.io.atomic import lock_file, read_json, touch, write_json_atomic

PathLike = Union[str, Path]

#: job lifecycle states == queue subdirectory names.
JOB_STATES = ("pending", "claimed", "done", "failed")

#: job kinds the fleet worker knows how to execute.
JOB_KIND_SEGMENT = "segment"
JOB_KIND_REDUCE = "reduce"


class JobFormatError(ValueError):
    """A job whose payload this version cannot run.

    Retrying cannot fix it, so a worker retires the job to ``failed/``
    on the first attempt.
    """


@dataclass
class FleetJob:
    """One unit of queued work.

    Attributes
    ----------
    job_id:
        Queue-unique id (``<sweep_id>.t<task_id>`` of a run's first
        segment); the file name, so submission of an existing id is a
        no-op.
    sweep_id:
        The sweep manifest this job belongs to.
    kind:
        ``"segment"`` (a run of contiguous segments of one layer) or
        ``"reduce"`` (one partition of segments folded into a partial
        YLT).
    key:
        A run's first segment key (the key its exclusive hold is
        taken on), or the partial's store key.
    payload:
        The member ``segments``, each a store key and plan task.
    attempts:
        Times a worker has claimed this job (requeue increments).
    owner:
        Worker id of the current/last claimant.
    error:
        Last failure message, if any.
    history:
        Failure provenance: one record per failed attempt —
        ``{"attempt", "worker", "exc_type", "error", "chain"}`` where
        ``chain`` is the exception cause chain outermost-first.  Rides
        with the job into ``failed/``, so a poison job explains itself
        (``repro-fleet status --failed``).
    """

    job_id: str
    sweep_id: str
    kind: str
    key: str
    payload: Dict[str, Any] = field(default_factory=dict)
    attempts: int = 0
    owner: Optional[str] = None
    error: Optional[str] = None
    history: List[Dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "sweep_id": self.sweep_id,
            "kind": self.kind,
            "key": self.key,
            "payload": self.payload,
            "attempts": self.attempts,
            "owner": self.owner,
            "error": self.error,
            "history": self.history,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FleetJob":
        return cls(
            job_id=str(data["job_id"]),
            sweep_id=str(data["sweep_id"]),
            kind=str(data["kind"]),
            key=str(data["key"]),
            payload=dict(data.get("payload") or {}),
            attempts=int(data.get("attempts", 0)),
            owner=data.get("owner"),
            error=data.get("error"),
            history=list(data.get("history") or []),
        )


def exception_chain(exc: BaseException) -> List[str]:
    """The cause/context chain as ``"Type: message"`` strings,
    outermost first — what failure provenance persists in place of a
    traceback (JSON-able, stable across Python versions)."""
    chain: List[str] = []
    seen: set = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        chain.append(f"{type(current).__name__}: {current}")
        current = current.__cause__ or (
            current.__context__ if not current.__suppress_context__ else None
        )
    return chain


def _record_failure(
    job: FleetJob,
    error: str,
    requeue: bool,
    max_attempts: int,
    exc: BaseException | None,
    exc_type: str | None,
    chain: List[str] | None,
) -> str:
    """Append a failure record to ``job``; the state it should move to."""
    job.error = str(error)
    if exc is not None:
        exc_type = type(exc).__name__
        chain = exception_chain(exc)
    job.history.append(
        {
            "attempt": job.attempts,
            "worker": job.owner,
            "exc_type": exc_type,
            "error": str(error),
            "chain": list(chain or []),
        }
    )
    return "pending" if requeue and job.attempts < max_attempts else "failed"


def _revived(job: FleetJob, failed: FleetJob) -> FleetJob:
    """``job`` as resubmitted over its ``failed`` record: no attempts,
    the failure's last error and history kept."""
    return replace(
        job,
        attempts=0,
        owner=None,
        error=failed.error,
        history=list(failed.history),
    )


def _check_queue_limits(lease_seconds: float, max_attempts: int) -> None:
    if lease_seconds <= 0:
        raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")


class JobQueue:
    """Durable, multi-process work queue under one directory.

    Parameters
    ----------
    queue_dir:
        Root directory (created on first use).  Workers on any machine
        that can see this path — and the companion result store —
        cooperate on the same sweeps.
    lease_seconds:
        Heartbeat patience: a claimed job whose file mtime is older
        than this is presumed abandoned (crashed/stalled worker) and
        eligible for :meth:`requeue_expired`.
    max_attempts:
        Claims before a repeatedly failing job moves to ``failed/``
        instead of back to ``pending/``.
    """

    def __init__(
        self,
        queue_dir: PathLike,
        lease_seconds: float = 60.0,
        max_attempts: int = 5,
    ) -> None:
        _check_queue_limits(lease_seconds, max_attempts)
        self.queue_dir = Path(queue_dir).expanduser()
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        # Unclaimed names of the last ``pending/`` listing, per sweep
        # prefix.  Names are hints, not leases: the rename still
        # decides every claim.
        self._backlog: Dict[str, Deque[str]] = {}
        self._backlog_lock = threading.Lock()
        self._ensured = False

    # -- layout --------------------------------------------------------
    def state_dir(self, state: str) -> Path:
        if state not in JOB_STATES:
            raise ValueError(f"unknown state {state!r}; expected {JOB_STATES}")
        return self.queue_dir / state

    @property
    def _locks_dir(self) -> Path:
        return self.queue_dir / "locks"

    @property
    def _queue_lock(self) -> Path:
        return self._locks_dir / "queue.lock"

    @property
    def _sweeps_dir(self) -> Path:
        return self.queue_dir / "sweeps"

    def ensure(self) -> None:
        """Create the layout (once per instance: every claim and
        transition calls this, and the directories never go away)."""
        if self._ensured:
            return
        for state in JOB_STATES:
            self.state_dir(state).mkdir(parents=True, exist_ok=True)
        self._locks_dir.mkdir(parents=True, exist_ok=True)
        self._sweeps_dir.mkdir(parents=True, exist_ok=True)
        self._ensured = True

    def _job_path(self, state: str, job_id: str) -> Path:
        return self.state_dir(state) / f"{job_id}.json"

    def find(self, job_id: str) -> Optional[str]:
        """The state currently holding ``job_id``, or ``None``."""
        for state in JOB_STATES:
            if self._job_path(state, job_id).is_file():
                return state
        return None

    # -- submission ----------------------------------------------------
    def submit(self, jobs: List[FleetJob]) -> int:
        """Enqueue jobs; returns how many were actually added.

        Idempotent by ``job_id``: a job already pending, claimed or
        done is skipped, so resubmitting a sweep after a partial run
        only fills the gaps.  A job found in ``failed/`` is *revived* —
        it returns to ``pending/`` as submitted, with no attempts and
        the failed record's last error and history — so resubmission is
        the recovery path after fixing whatever exhausted its attempts,
        a payload this version cannot run included.
        """
        return len(self.submit_ids(jobs))

    def submit_ids(self, jobs: List[FleetJob]) -> List[str]:
        """:meth:`submit`, returning the ids of the jobs added."""
        self.ensure()
        added = []
        for job in jobs:
            state = self.find(job.job_id)
            if state == "failed":
                failed = read_json(self._job_path("failed", job.job_id))
                if failed is not None:
                    job = _revived(job, FleetJob.from_json(failed))
                try:
                    os.remove(self._job_path("failed", job.job_id))
                except OSError:
                    continue  # a racing submitter revived it first
            elif state is not None:
                continue
            write_json_atomic(self._job_path("pending", job.job_id), job.to_json())
            added.append(job.job_id)
        return added

    # -- sweeps --------------------------------------------------------
    def save_sweep(self, sweep_id: str, manifest: Dict[str, Any]) -> None:
        self.ensure()
        write_json_atomic(self._sweeps_dir / f"{sweep_id}.json", manifest)

    def load_sweep(self, sweep_id: str) -> Optional[Dict[str, Any]]:
        return read_json(self._sweeps_dir / f"{sweep_id}.json")

    def sweep_ids(self) -> List[str]:
        if not self._sweeps_dir.is_dir():
            return []
        return sorted(p.stem for p in self._sweeps_dir.glob("*.json"))

    # -- claim / lease / complete --------------------------------------
    def _list_state(self, state: str, sweep_id: str | None = None) -> List[Path]:
        directory = self.state_dir(state)
        if not directory.is_dir():
            return []
        paths = sorted(directory.glob("*.json"))
        if sweep_id is not None:
            prefix = f"{sweep_id}."
            paths = [p for p in paths if p.name.startswith(prefix)]
        return paths

    def _pending_names(self, prefix: str) -> List[str]:
        """Job file names in ``pending/`` starting with ``prefix``.

        Unsorted scandir: claims need *a* job, not the first job, and a
        10k-segment sweep would otherwise pay an O(n log n) sort.
        """
        try:
            with os.scandir(self.state_dir("pending")) as it:
                return [
                    entry.name
                    for entry in it
                    if entry.name.endswith(".json")
                    and entry.name.startswith(prefix)
                ]
        except OSError:
            return []

    def claim(
        self, worker_id: str | None = None, sweep_id: str | None = None
    ) -> Optional[FleetJob]:
        """Atomically take one pending job, or ``None`` if none remain.

        The claim is a ``rename(2)`` into ``claimed/`` — exactly one of
        N racing claimants wins each job.  Candidates come from the
        instance's backlog of the last ``pending/`` listing; a name a
        peer claimed meanwhile just loses its rename.  When the backlog
        runs dry the directory is listed once more, so ``None`` means
        ``pending/`` held no job for this sweep at that listing.  The
        claimed file is rewritten with owner/attempt bookkeeping (its
        mtime starts the lease).
        """
        self.ensure()
        worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        prefix = f"{sweep_id}." if sweep_id is not None else ""
        pending_dir = self.state_dir("pending")
        claimed_dir = self.state_dir("claimed")
        listed = False
        while True:
            with self._backlog_lock:
                backlog = self._backlog.get(prefix)
                if not backlog and not listed:
                    # Dry backlog: list once per call, rotated by a
                    # worker-id-derived offset so a fleet doesn't
                    # stampede the same file.
                    listed = True
                    names = self._pending_names(prefix)
                    offset = hash(worker_id) % len(names) if names else 0
                    backlog = deque(names[offset:] + names[:offset])
                    self._backlog[prefix] = backlog
                if not backlog:
                    return None
                name = backlog.popleft()
            target = claimed_dir / name
            try:
                os.rename(pending_dir / name, target)
            except OSError:
                continue  # a racing worker won this one; try the next
            # rename preserves the pending file's (stale) mtime; start
            # the lease NOW so a job that waited longer than the lease
            # in pending/ is not instantly "expired" for requeue scans.
            touch(target)
            data = read_json(target)
            if data is None:
                if not target.is_file():
                    # The file vanished: a peer's requeue scan saw the
                    # pre-touch stale mtime and sent the job back to
                    # pending.  It is still live work — move on.
                    continue
                # Present but unreadable: poison, not a crash loop.
                job_id = name[: -len(".json")]
                job = FleetJob(
                    job_id=job_id,
                    sweep_id=(sweep_id or job_id.split(".")[0]),
                    kind="unknown",
                    key="unreadable",
                )
                self.fail(job, "unreadable job file", requeue=False)
                continue
            job = FleetJob.from_json(data)
            job.attempts += 1
            job.owner = worker_id
            write_json_atomic(target, job.to_json())
            return job

    def heartbeat(self, job: FleetJob) -> bool:
        """Refresh the lease on a claimed job (``False`` if lost)."""
        return touch(self._job_path("claimed", job.job_id))

    def complete(self, job: FleetJob) -> bool:
        """Move a claimed job to ``done/`` (the terminal success state).

        ``False`` when the claim was lost meanwhile (lease expired and
        a peer requeued or finished the job) — the caller's result is
        already safe in the store either way.  One rename, no rewrite:
        the file already holds what :meth:`claim` wrote.
        """
        return self._move(job, "claimed", "done", rewrite=False)

    def fail(
        self,
        job: FleetJob,
        error: str,
        requeue: bool = True,
        exc: BaseException | None = None,
        exc_type: str | None = None,
        chain: List[str] | None = None,
    ) -> str:
        """Record a failure (with provenance); requeue or retire the job.

        Returns the state the job landed in: ``"pending"`` when it will
        be retried, ``"failed"`` once ``max_attempts`` is exhausted (or
        ``requeue=False``), ``"lost"`` when this worker no longer held
        the claim (the job lives on elsewhere; nothing was recorded).

        ``exc`` (when the failure was an exception) enriches the job's
        provenance ``history`` with the exception type and full cause
        chain; the record travels with the job through every requeue
        and into ``failed/``, where ``repro-fleet status --failed``
        reads it back.  ``exc_type``/``chain`` carry the same
        provenance pre-serialised — the network transport's path, where
        the exception object itself cannot cross the wire.
        """
        state = _record_failure(
            job, error, requeue, self.max_attempts, exc, exc_type, chain
        )
        return state if self._move(job, "claimed", state) else "lost"

    def _move(
        self, job: FleetJob, src: str, dst: str, rewrite: bool = True
    ) -> bool:
        """Transition a job this caller owns; ``False`` if it doesn't.

        Guarded by the queue flock (shared with :meth:`requeue_expired`)
        and an under-lock existence check, so a worker whose lease
        expired — its job requeued and possibly finished by a peer —
        cannot re-materialise it in another state from a stale copy.
        ``rewrite`` first replaces the file with ``job``'s current
        fields (failure provenance); without it the move is one rename.
        """
        self.ensure()
        source = self._job_path(src, job.job_id)
        with lock_file(self._queue_lock, create=False):
            if not source.is_file():
                return False  # claim lost: the job moved on without us
            if rewrite:
                write_json_atomic(source, job.to_json())
            try:
                os.replace(source, self._job_path(dst, job.job_id))
            except OSError:
                return False
        return True

    def _lease_age(self, path: Path, now: float) -> float:
        """Monotonic-safe lease age of a claimed file, in seconds.

        The heartbeat clock is the file's mtime, which may come from a
        *different machine's* wall clock on a shared filesystem.  A
        skewed (future) mtime must not make the job look fresh forever:
        the age is clamped to ``>= 0``, and an mtime further in the
        future than one lease period is normalised to *now* (one
        ``utime``), so from this scan onward the lease ages normally
        and can expire.  May raise ``OSError`` (file completed
        meanwhile) — callers skip.
        """
        age = now - path.stat().st_mtime
        if age < -self.lease_seconds:
            touch(path)  # clock skew beyond tolerance: restart the lease
            return 0.0
        return max(0.0, age)

    def requeue_expired(self, now: float | None = None) -> List[str]:
        """Return crashed/stalled workers' jobs to ``pending/``.

        A claimed file whose heartbeat (lease age, clock-skew-clamped
        by :meth:`_lease_age`) is at least ``lease_seconds`` old is
        renamed back under the queue flock — two concurrent scanners
        agree on one requeue, and a worker that heartbeats between the
        check and the rename keeps its job only if the heartbeat landed
        first (losing a heartbeat race costs a duplicate *claim*, never
        a duplicate stored result: the store dedups the compute).
        """
        now = time.time() if now is None else float(now)
        requeued: List[str] = []
        for path in self._list_state("claimed"):
            try:
                expired = self._lease_age(path, now) >= self.lease_seconds
            except OSError:
                continue  # completed meanwhile
            if not expired:
                continue
            with lock_file(self._queue_lock):
                try:
                    if self._lease_age(path, now) < self.lease_seconds:
                        continue  # heartbeat arrived while we waited
                    os.rename(path, self.state_dir("pending") / path.name)
                except OSError:
                    continue
                requeued.append(path.stem)
        return requeued

    def stragglers(
        self,
        min_age_fraction: float = 0.5,
        sweep_id: str | None = None,
        now: float | None = None,
    ) -> List[FleetJob]:
        """Claimed jobs whose lease age passed a fraction of the lease.

        The speculation feed: a job claimed long ago but not yet done
        is *probably* on a struggling worker.  Idle peers re-execute
        its computation through ``get_or_compute`` — if the owner was
        merely slow, one of the two computes is a harmless duplicate
        deduped by the store; if the owner is dead, the result is
        already stored when the lease finally expires and the requeued
        claim becomes a pure store hit.  Oldest first.
        """
        if not 0.0 < min_age_fraction <= 1.0:
            raise ValueError(
                f"min_age_fraction must be in (0, 1], got {min_age_fraction}"
            )
        now = time.time() if now is None else float(now)
        threshold = min_age_fraction * self.lease_seconds
        aged: List[tuple] = []
        for path in self._list_state("claimed", sweep_id):
            try:
                age = self._lease_age(path, now)
            except OSError:
                continue
            if age < threshold:
                continue
            data = read_json(path)
            if data is not None:
                aged.append((age, FleetJob.from_json(data)))
        aged.sort(key=lambda pair: -pair[0])
        return [job for _, job in aged]

    # -- introspection -------------------------------------------------
    def _count_state(self, state: str, sweep_id: str | None = None) -> int:
        """Unsorted scandir count of one state (the idle-loop path —
        workers poll this dozens of times a second, so no globbing or
        sorting of the ever-growing ``done/`` directory)."""
        prefix = f"{sweep_id}." if sweep_id is not None else ""
        try:
            with os.scandir(self.state_dir(state)) as it:
                return sum(
                    1
                    for entry in it
                    if entry.name.endswith(".json")
                    and entry.name.startswith(prefix)
                )
        except OSError:
            return 0

    def counts(self, sweep_id: str | None = None) -> Dict[str, int]:
        """Jobs per state (optionally restricted to one sweep)."""
        return {
            state: self._count_state(state, sweep_id)
            for state in JOB_STATES
        }

    def active_count(self, sweep_id: str | None = None) -> int:
        """Jobs still pending or claimed (the sweep's open work)."""
        return self._count_state("pending", sweep_id) + self._count_state(
            "claimed", sweep_id
        )

    def jobs(
        self, state: str, sweep_id: str | None = None
    ) -> Iterator[FleetJob]:
        """Iterate jobs currently in ``state`` (snapshot semantics)."""
        for path in self._list_state(state, sweep_id):
            data = read_json(path)
            if data is not None:
                yield FleetJob.from_json(data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobQueue({str(self.queue_dir)!r}, "
            f"lease_seconds={self.lease_seconds})"
        )


def _copy(job: FleetJob) -> FleetJob:
    """A snapshot of ``job`` (what a file queue's read-back returns)."""
    return FleetJob.from_json(job.to_json())


class MemoryJobQueue:
    """The :class:`JobQueue` contract in one process's memory.

    Claims, leases (wall-clock claim times a heartbeat refreshes),
    requeue, failure provenance and idempotent submission behave as in
    the directory queue; callers get snapshots, never the stored job.
    Only threads of this process can reach it, so an in-process fleet
    that nothing outside needs to join (``run_fleet`` without a
    ``queue_dir``) pays no file per job or sweep.
    """

    def __init__(
        self, lease_seconds: float = 60.0, max_attempts: int = 5
    ) -> None:
        _check_queue_limits(lease_seconds, max_attempts)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self._lock = threading.Lock()
        self._states: Dict[str, Dict[str, FleetJob]] = {
            state: {} for state in JOB_STATES
        }
        self._claimed_at: Dict[str, float] = {}
        self._sweeps: Dict[str, Dict[str, Any]] = {}

    def _in(self, state: str, sweep_id: str | None) -> Iterator[FleetJob]:
        """The jobs in ``state`` (of one sweep), in insertion order."""
        prefix = f"{sweep_id}." if sweep_id is not None else ""
        return (
            job
            for job_id, job in self._states[state].items()
            if job_id.startswith(prefix)
        )

    def _count(self, state: str, sweep_id: str | None) -> int:
        if sweep_id is None:
            return len(self._states[state])
        return sum(1 for _ in self._in(state, sweep_id))

    def submit(self, jobs: List[FleetJob]) -> int:
        return len(self.submit_ids(jobs))

    def submit_ids(self, jobs: List[FleetJob]) -> List[str]:
        added = []
        with self._lock:
            for job in jobs:
                if job.job_id in self._states["failed"]:
                    job = _revived(job, self._states["failed"].pop(job.job_id))
                elif any(job.job_id in held for held in self._states.values()):
                    continue
                self._states["pending"][job.job_id] = _copy(job)
                added.append(job.job_id)
        return added

    def save_sweep(self, sweep_id: str, manifest: Dict[str, Any]) -> None:
        with self._lock:
            self._sweeps[sweep_id] = manifest

    def load_sweep(self, sweep_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._sweeps.get(sweep_id)

    def claim(
        self, worker_id: str | None = None, sweep_id: str | None = None
    ) -> Optional[FleetJob]:
        worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        with self._lock:
            first = next(self._in("pending", sweep_id), None)
            if first is None:
                return None
            job = self._states["pending"].pop(first.job_id)
            job.attempts += 1
            job.owner = worker_id
            self._states["claimed"][job.job_id] = job
            self._claimed_at[job.job_id] = time.time()
            return _copy(job)

    def heartbeat(self, job: FleetJob) -> bool:
        with self._lock:
            if job.job_id not in self._states["claimed"]:
                return False
            self._claimed_at[job.job_id] = time.time()
            return True

    def complete(self, job: FleetJob) -> bool:
        return self._move(job, "done", rewrite=False)

    def fail(
        self,
        job: FleetJob,
        error: str,
        requeue: bool = True,
        exc: BaseException | None = None,
        exc_type: str | None = None,
        chain: List[str] | None = None,
    ) -> str:
        state = _record_failure(
            job, error, requeue, self.max_attempts, exc, exc_type, chain
        )
        return state if self._move(job, state) else "lost"

    def _move(self, job: FleetJob, dst: str, rewrite: bool = True) -> bool:
        """Move a claimed job to ``dst``; ``False`` if the claim was lost."""
        with self._lock:
            held = self._states["claimed"].pop(job.job_id, None)
            if held is None:
                return False
            del self._claimed_at[job.job_id]
            self._states[dst][job.job_id] = _copy(job) if rewrite else held
        return True

    def requeue_expired(self, now: float | None = None) -> List[str]:
        now = time.time() if now is None else float(now)
        with self._lock:
            expired = [
                job_id
                for job_id, claimed_at in self._claimed_at.items()
                if now - claimed_at >= self.lease_seconds
            ]
            for job_id in expired:
                del self._claimed_at[job_id]
                self._states["pending"][job_id] = self._states[
                    "claimed"
                ].pop(job_id)
        return expired

    def stragglers(
        self,
        min_age_fraction: float = 0.5,
        sweep_id: str | None = None,
        now: float | None = None,
    ) -> List[FleetJob]:
        if not 0.0 < min_age_fraction <= 1.0:
            raise ValueError(
                f"min_age_fraction must be in (0, 1], got {min_age_fraction}"
            )
        now = time.time() if now is None else float(now)
        threshold = min_age_fraction * self.lease_seconds
        with self._lock:
            aged = [
                (now - self._claimed_at[job.job_id], _copy(job))
                for job in self._in("claimed", sweep_id)
                if now - self._claimed_at[job.job_id] >= threshold
            ]
        aged.sort(key=lambda pair: -pair[0])
        return [job for _, job in aged]

    def counts(self, sweep_id: str | None = None) -> Dict[str, int]:
        with self._lock:
            return {state: self._count(state, sweep_id) for state in JOB_STATES}

    def active_count(self, sweep_id: str | None = None) -> int:
        with self._lock:
            return self._count("pending", sweep_id) + self._count(
                "claimed", sweep_id
            )

    def jobs(
        self, state: str, sweep_id: str | None = None
    ) -> Iterator[FleetJob]:
        if state not in JOB_STATES:
            raise ValueError(f"unknown state {state!r}; expected {JOB_STATES}")
        with self._lock:
            snapshot = [_copy(job) for job in self._in(state, sweep_id)]
        return iter(snapshot)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemoryJobQueue(lease_seconds={self.lease_seconds})"
