"""Job-queue semantics: claims, leases, requeue, idempotence."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

import repro.fleet.jobs as jobs_module
from repro.fleet.jobs import JOB_KIND_SEGMENT, FleetJob, JobQueue


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
def queue(tmp_path):
    return JobQueue(tmp_path / "queue", lease_seconds=30.0, max_attempts=3)


class TestSubmit:
    def test_submit_enqueues_pending(self, queue):
        assert queue.submit(make_jobs(4)) == 4
        assert queue.counts() == {
            "pending": 4, "claimed": 0, "done": 0, "failed": 0,
        }

    def test_submit_is_idempotent_by_job_id(self, queue):
        jobs = make_jobs(3)
        assert queue.submit(jobs) == 3
        assert queue.submit(jobs) == 0
        # a job in any non-pending state is also skipped
        claimed = queue.claim("w1")
        queue.complete(claimed)
        assert queue.submit(jobs) == 0
        assert queue.counts()["pending"] == 2

    def test_round_trip_preserves_fields(self, queue):
        [job] = make_jobs(1)
        queue.submit([job])
        claimed = queue.claim("w1")
        assert claimed.job_id == job.job_id
        assert claimed.key == job.key
        assert claimed.payload == job.payload
        assert claimed.owner == "w1"
        assert claimed.attempts == 1


class TestClaim:
    def test_each_job_claimed_exactly_once(self, queue):
        queue.submit(make_jobs(5))
        seen = set()
        while True:
            job = queue.claim("w1")
            if job is None:
                break
            assert job.job_id not in seen
            seen.add(job.job_id)
        assert len(seen) == 5
        assert queue.counts()["claimed"] == 5

    def test_two_handles_never_share_a_job(self, queue, tmp_path):
        queue.submit(make_jobs(8))
        other = JobQueue(tmp_path / "queue")  # same dir, separate handle
        mine, theirs = set(), set()
        while True:
            a = queue.claim("w-a")
            b = other.claim("w-b")
            if a is None and b is None:
                break
            if a is not None:
                mine.add(a.job_id)
            if b is not None:
                theirs.add(b.job_id)
        assert not (mine & theirs)
        assert len(mine | theirs) == 8

    def test_claim_filters_by_sweep(self, queue):
        queue.submit(make_jobs(2, "sweep-a") + make_jobs(2, "sweep-b"))
        job = queue.claim("w1", sweep_id="sweep-b")
        assert job.sweep_id == "sweep-b"
        assert queue.counts("sweep-a")["pending"] == 2

    def test_empty_queue_claims_none(self, queue):
        assert queue.claim("w1") is None


class TestLifecycle:
    def test_complete_moves_to_done(self, queue):
        queue.submit(make_jobs(1))
        job = queue.claim("w1")
        queue.complete(job)
        assert queue.counts() == {
            "pending": 0, "claimed": 0, "done": 1, "failed": 0,
        }
        assert queue.active_count() == 0

    def test_fail_requeues_until_max_attempts(self, queue):
        queue.submit(make_jobs(1))
        states = []
        for _ in range(queue.max_attempts):
            job = queue.claim("w1")
            states.append(queue.fail(job, "boom"))
        assert states == ["pending", "pending", "failed"]
        [failed] = list(queue.jobs("failed"))
        assert failed.error == "boom"
        assert failed.attempts == queue.max_attempts

    def test_fail_without_requeue_retires_immediately(self, queue):
        queue.submit(make_jobs(1))
        job = queue.claim("w1")
        assert queue.fail(job, "poison", requeue=False) == "failed"

    def test_resubmission_revives_failed_jobs(self, queue):
        """The recovery path: after fixing whatever exhausted a job's
        attempts, resubmitting the sweep returns it to pending with a
        fresh attempt budget (last error kept)."""
        queue.submit(make_jobs(1))
        job = queue.claim("w1")
        queue.fail(job, "transient fault", requeue=False)
        assert queue.submit(make_jobs(1)) == 1
        assert queue.counts()["failed"] == 0
        revived = queue.claim("w2")
        assert revived.attempts == 1  # reset to 0, +1 for this claim
        assert revived.error == "transient fault"


class TestLeases:
    def test_expired_lease_is_requeued(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_seconds=0.05)
        queue.submit(make_jobs(2))
        job = queue.claim("crashed-worker")
        time.sleep(0.1)
        assert queue.requeue_expired() == [job.job_id]
        # the rescuer can now claim both jobs; the requeued one carries
        # its incremented attempt count
        claimed = {}
        while True:
            extra = queue.claim("rescuer")
            if extra is None:
                break
            claimed[extra.job_id] = extra.attempts
        assert set(claimed) == {j.job_id for j in make_jobs(2)}
        assert claimed[job.job_id] == 2  # original claim + re-claim

    def test_heartbeat_defends_the_lease(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_seconds=0.2)
        queue.submit(make_jobs(1))
        job = queue.claim("live-worker")
        for _ in range(3):
            time.sleep(0.1)
            assert queue.heartbeat(job)
            assert queue.requeue_expired() == []

    def test_live_lease_not_requeued(self, queue):
        queue.submit(make_jobs(1))
        queue.claim("w1")
        assert queue.requeue_expired() == []

    def test_lease_clock_starts_at_claim_not_submit(self, tmp_path):
        """A job that waited in pending/ longer than the lease must not
        be instantly 'expired' when finally claimed (rename preserves
        the stale submit-time mtime; claim re-touches)."""
        queue = JobQueue(tmp_path / "q", lease_seconds=0.2)
        queue.submit(make_jobs(1))
        pending = queue.state_dir("pending") / f"{make_jobs(1)[0].job_id}.json"
        backdated = time.time() - 100.0
        os.utime(pending, (backdated, backdated))
        queue.claim("w1")
        assert queue.requeue_expired() == []


class TestSweeps:
    def test_manifest_round_trip(self, queue):
        manifest = {"sweep_id": "s1", "segments": [{"key": "k"}]}
        queue.save_sweep("s1", manifest)
        assert queue.load_sweep("s1") == manifest
        assert queue.sweep_ids() == ["s1"]
        assert queue.load_sweep("nope") is None

    def test_counts_by_sweep(self, queue):
        queue.submit(make_jobs(3, "sweep-a") + make_jobs(1, "sweep-b"))
        queue.complete(queue.claim("w", sweep_id="sweep-a"))
        assert queue.counts("sweep-a") == {
            "pending": 2, "claimed": 0, "done": 1, "failed": 0,
        }
        assert queue.active_count("sweep-b") == 1


class TestValidation:
    def test_bad_lease_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JobQueue(tmp_path, lease_seconds=0)

    def test_bad_attempts_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JobQueue(tmp_path, max_attempts=0)

    def test_unknown_state_rejected(self, queue):
        with pytest.raises(ValueError):
            queue.state_dir("limbo")

    def test_unreadable_job_file_becomes_failed_not_a_crash_loop(
        self, queue
    ):
        queue.submit(make_jobs(1))
        path = queue.state_dir("pending") / os.listdir(
            queue.state_dir("pending")
        )[0]
        path.write_text("{not json")
        assert queue.claim("w1") is None
        assert queue.counts()["failed"] == 1


def drain(queue, worker_id="w1", sweep_id=None):
    """Claim until empty; the claimed jobs in claim order."""
    claimed = []
    while True:
        job = queue.claim(worker_id, sweep_id=sweep_id)
        if job is None:
            return claimed
        claimed.append(job)


class TestFilesystemCost:
    """What a job costs the queue directory, independent of timing."""

    def test_drained_sweep_leaves_at_most_one_lock_file(self, queue):
        queue.submit(make_jobs(12))
        for job in drain(queue):
            assert queue.complete(job)
        assert queue.counts()["done"] == 12
        assert len(os.listdir(queue.queue_dir / "locks")) <= 1

    def test_one_worker_drain_lists_pending_at_most_twice(
        self, queue, monkeypatch
    ):
        queue.submit(make_jobs(12))
        pending = os.fspath(queue.state_dir("pending"))
        listings = []
        real_scandir = os.scandir

        def counting_scandir(path="."):
            if os.fspath(path) == pending:
                listings.append(path)
            return real_scandir(path)

        monkeypatch.setattr(jobs_module.os, "scandir", counting_scandir)
        assert len(drain(queue)) == 12
        assert len(listings) <= 2


class TestBacklog:
    def test_two_threads_on_one_instance_complete_each_job_once(
        self, queue
    ):
        queue.submit(make_jobs(40))
        completed = {"t0": [], "t1": []}
        start = threading.Barrier(2)

        def worker(name):
            start.wait()
            for job in drain(queue, worker_id=name):
                assert queue.complete(job)
                completed[name].append(job.job_id)

        threads = [
            threading.Thread(target=worker, args=(name,)) for name in completed
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = completed["t0"] + completed["t1"]
        assert len(ids) == len(set(ids)) == 40
        assert queue.counts() == {
            "pending": 0, "claimed": 0, "done": 40, "failed": 0,
        }

    def test_stale_backlog_still_claims_every_remaining_job(
        self, queue, tmp_path
    ):
        """A peer instance claiming part of the sweep leaves names in
        this instance's backlog that lose their rename; the remaining
        jobs are all still claimed, and ``None`` comes only once
        ``pending/`` is empty."""
        queue.submit(make_jobs(10))
        first = queue.claim("w-a")  # lists pending/: backlog of 9
        other = JobQueue(tmp_path / "queue")
        taken = {other.claim("w-b").job_id for _ in range(4)}
        rest = []
        while True:
            job = queue.claim("w-a")
            if job is None:
                break
            rest.append(job.job_id)
        assert queue.counts()["pending"] == 0
        ids = {first.job_id} | taken | set(rest)
        assert len(rest) == 5 and len(ids) == 10

    def test_jobs_arriving_after_the_listing_are_claimed(self, queue):
        queue.submit(make_jobs(2, "sweep-a"))
        assert queue.claim("w1") is not None  # backlog: one name
        queue.submit(make_jobs(3, "sweep-b"))
        assert len(drain(queue)) == 4

    def test_requeued_job_is_claimed_from_the_next_listing(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_seconds=0.05)
        queue.submit(make_jobs(3))
        lost = queue.claim("w1")
        time.sleep(0.1)
        assert queue.requeue_expired() == [lost.job_id]
        ids = [job.job_id for job in drain(queue, "w2")]
        assert sorted(ids) == sorted(j.job_id for j in make_jobs(3))


class TestTransitions:
    def test_done_file_is_the_claimed_job(self, queue):
        queue.submit(make_jobs(1))
        job = queue.claim("w1")
        assert queue.complete(job)
        path = queue.state_dir("done") / f"{job.job_id}.json"
        done = json.loads(path.read_text())
        assert done == job.to_json()
        assert done["owner"] == "w1" and done["attempts"] == 1

    def test_fail_records_history_in_the_file(self, queue):
        queue.submit(make_jobs(1))
        job = queue.claim("w1")
        assert queue.fail(job, "boom", exc=ValueError("bad")) == "pending"
        [pending] = list(queue.jobs("pending"))
        assert pending.error == "boom"
        assert pending.history[0]["exc_type"] == "ValueError"
        assert pending.history[0]["worker"] == "w1"

    def test_lost_claim_cannot_complete(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_seconds=0.05)
        queue.submit(make_jobs(1))
        job = queue.claim("slow-worker")
        time.sleep(0.1)
        assert queue.requeue_expired() == [job.job_id]
        assert queue.complete(job) is False
        assert queue.counts() == {
            "pending": 1, "claimed": 0, "done": 0, "failed": 0,
        }


class TestLegacyLayout:
    def test_indented_job_file_still_claims(self, queue):
        """Job files written with the earlier ``indent=1`` layout."""
        [job] = make_jobs(1)
        queue.ensure()
        path = queue.state_dir("pending") / f"{job.job_id}.json"
        path.write_text(json.dumps(job.to_json(), indent=1, sort_keys=True))
        claimed = queue.claim("w1")
        assert claimed.job_id == job.job_id
        assert claimed.payload == job.payload
        assert queue.complete(claimed)
