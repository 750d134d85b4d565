"""The in-memory job queue: the directory queue's contract, no files."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core.analysis import AggregateRiskAnalysis
from repro.fleet.jobs import JOB_KIND_SEGMENT, FleetJob, MemoryJobQueue
from repro.store import SharedFileStore, ylt_digest


def make_jobs(n: int, sweep_id: str = "sweep-a") -> list:
    return [
        FleetJob(
            job_id=f"{sweep_id}.t{i:06d}",
            sweep_id=sweep_id,
            kind=JOB_KIND_SEGMENT,
            key=f"key-{i:04d}",
            payload={"task": {"task_id": i}},
        )
        for i in range(n)
    ]


@pytest.fixture()
def queue():
    return MemoryJobQueue(lease_seconds=30.0, max_attempts=3)


def test_submit_is_idempotent_and_claims_are_snapshots(queue):
    jobs = make_jobs(3)
    assert queue.submit(jobs) == 3
    assert queue.submit(jobs) == 0
    claimed = queue.claim("w1")
    assert (claimed.owner, claimed.attempts) == ("w1", 1)
    assert claimed.payload == jobs[0].payload
    claimed.history.append({"tampered": True})
    [held] = list(queue.jobs("claimed"))
    assert held.history == []  # callers never hold the stored job
    queue.complete(claimed)
    assert queue.submit(jobs) == 0
    assert queue.counts() == {
        "pending": 2, "claimed": 0, "done": 1, "failed": 0,
    }


def test_threads_claim_each_job_exactly_once(queue):
    queue.submit(make_jobs(40))
    seen, lock = [], threading.Lock()

    def drain(worker: str) -> None:
        while (job := queue.claim(worker)) is not None:
            with lock:
                seen.append(job.job_id)
            queue.complete(job)

    threads = [
        threading.Thread(target=drain, args=(f"w{i}",)) for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(seen) == sorted(job.job_id for job in make_jobs(40))
    assert queue.counts()["done"] == 40
    assert queue.active_count() == 0


def test_claim_filters_by_sweep(queue):
    queue.submit(make_jobs(2, "sweep-a") + make_jobs(2, "sweep-b"))
    assert queue.claim("w1", sweep_id="sweep-b").sweep_id == "sweep-b"
    assert queue.active_count("sweep-a") == 2
    assert queue.claim("w1", sweep_id="sweep-c") is None


def test_claims_follow_submission_order(queue):
    a, b = make_jobs(3, "sweep-a"), make_jobs(3, "sweep-b")
    queue.submit([a[0], b[0], a[1], b[1], a[2], b[2]])
    first = queue.claim("w1")
    assert first.job_id == a[0].job_id
    # A failed (requeued) job goes behind everything already pending.
    assert queue.fail(first, "boom") == "pending"
    # A sweep filter skips the other sweep without reordering it.
    other = queue.claim("w1", sweep_id="sweep-b")
    assert other.job_id == b[0].job_id
    assert queue.complete(other)
    expired = queue.claim("w1")
    assert expired.job_id == a[1].job_id
    # A lease that expires also puts its job at the back.
    assert queue.requeue_expired(now=time.time() + 31.0) == [expired.job_id]
    order = []
    while (job := queue.claim("w2")) is not None:
        order.append(job.job_id)
    assert order == [
        b[1].job_id, a[2].job_id, b[2].job_id, a[0].job_id, a[1].job_id,
    ]
    assert queue.active_count() == 5
    assert queue.active_count("sweep-b") == 2


def test_fail_requeues_until_max_attempts_then_revives(queue):
    queue.submit(make_jobs(1))
    states = []
    for _ in range(queue.max_attempts):
        job = queue.claim("w1")
        states.append(queue.fail(job, "boom", exc=ValueError("boom")))
    assert states == ["pending", "pending", "failed"]
    [failed] = list(queue.jobs("failed"))
    assert failed.attempts == queue.max_attempts
    assert [h["exc_type"] for h in failed.history] == ["ValueError"] * 3
    assert queue.submit(make_jobs(1)) == 1  # resubmission revives it
    revived = queue.claim("w2")
    assert revived.attempts == 1 and revived.error == "boom"


def test_lost_claim_cannot_complete_or_fail(queue):
    queue.submit(make_jobs(1))
    job = queue.claim("w1")
    assert queue.requeue_expired(now=time.time() + 31.0) == [job.job_id]
    assert not queue.complete(job)
    assert queue.fail(job, "late") == "lost"
    assert not queue.heartbeat(job)
    assert queue.claim("w2").attempts == 2


def test_heartbeat_defends_the_lease_and_ages_stragglers():
    queue = MemoryJobQueue(lease_seconds=10.0)
    queue.submit(make_jobs(2))
    old = queue.claim("slow")
    young = queue.claim("fast")
    later = time.time() + 6.0
    assert [j.job_id for j in queue.stragglers(0.5, now=later)] == [
        old.job_id,
        young.job_id,
    ]
    assert queue.heartbeat(young)
    assert queue.requeue_expired(now=time.time() + 9.0) == []
    with pytest.raises(ValueError):
        queue.stragglers(0.0)


def test_manifest_round_trip_and_validation(queue):
    manifest = {"sweep_id": "s1", "segments": [{"key": "k"}]}
    queue.save_sweep("s1", manifest)
    assert queue.load_sweep("s1") == manifest
    assert queue.load_sweep("nope") is None
    with pytest.raises(ValueError):
        MemoryJobQueue(lease_seconds=0)
    with pytest.raises(ValueError):
        MemoryJobQueue(max_attempts=0)
    with pytest.raises(ValueError):
        list(queue.jobs("limbo"))


def test_private_fleet_writes_only_the_store(small_workload, tmp_path, monkeypatch):
    """``run_fleet`` without ``queue_dir`` keeps jobs and manifests in
    memory: every directory it makes is under the store."""
    made = []
    real_mkdir = os.mkdir

    def counted_mkdir(path, *args, **kwargs):
        made.append(os.fspath(path))
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", counted_mkdir)
    store_dir = tmp_path / "store"
    ara = AggregateRiskAnalysis(
        small_workload.portfolio, small_workload.catalog.n_events
    )
    result = ara.run_fleet(
        small_workload.yet,
        n_workers=2,
        store=SharedFileStore(store_dir),
        segment_trials=40,
    )
    monkeypatch.undo()
    assert result.meta["fleet"]["jobs_submitted"] >= 10
    assert made and all(path.startswith(str(store_dir)) for path in made)
    mono = ara.run(small_workload.yet, engine="sequential")
    assert ylt_digest(result.ylt) == ylt_digest(mono.ylt)
