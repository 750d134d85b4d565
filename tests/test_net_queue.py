"""``RemoteJobQueue`` against the reference server: the JobQueue
contract over RPC, server-authoritative leases, and benign wire drops."""

from __future__ import annotations

import time

import pytest

from repro.engines.registry import create_engine
from repro.faults.wire import wire_chaos_plan
from repro.fleet.jobs import JOB_KIND_SEGMENT, FleetJob, JobQueue
from repro.fleet.sweep import submit_sweep
from repro.net.queue import RemoteJobQueue
from repro.net.server import NetServer, ServerThread
from repro.store import MemoryStore
from repro.utils.retry import RetryPolicy

FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.001, max_delay=0.01, deadline_seconds=2.0
)


def job_for(n: int, sweep_id: str = "sweep-x") -> FleetJob:
    return FleetJob(
        job_id=f"{sweep_id}.t{n:06d}",
        sweep_id=sweep_id,
        kind=JOB_KIND_SEGMENT,
        key=f"{n:064d}",
        payload={"n": n},
    )


@pytest.fixture()
def served_queue(tmp_path):
    local = JobQueue(tmp_path / "q", lease_seconds=0.4, max_attempts=2)
    server = NetServer(MemoryStore(), queue=local)
    with ServerThread(server) as (host, port):
        remote = RemoteJobQueue(host, port, retry_policy=FAST_RETRY)
        yield local, remote
        remote.close()


class TestContract:
    def test_config_comes_from_the_server(self, served_queue):
        local, remote = served_queue
        assert remote.lease_seconds == local.lease_seconds
        assert remote.max_attempts == local.max_attempts
        remote.ensure()  # probes without error

    def test_submit_claim_heartbeat_complete(self, served_queue):
        local, remote = served_queue
        assert remote.submit([job_for(1), job_for(2)]) == 2
        assert remote.submit([job_for(1)]) == 0  # idempotent by id
        assert remote.counts("sweep-x")["pending"] == 2
        job = remote.claim(worker_id="w1", sweep_id="sweep-x")
        assert job is not None and job.owner == "w1"
        assert remote.heartbeat(job)
        assert remote.complete(job)
        assert remote.find(job.job_id) == "done"
        assert remote.active_count("sweep-x") == 1  # one still pending

    def test_submit_ids_names_the_jobs_added(self, served_queue):
        _local, remote = served_queue
        assert remote.submit_ids([job_for(1), job_for(2)]) == [
            job_for(1).job_id,
            job_for(2).job_id,
        ]
        assert remote.submit_ids([job_for(1), job_for(3)]) == [job_for(3).job_id]

    def test_a_sweep_of_many_runs_is_one_submit_rpc(
        self, served_queue, small_workload
    ):
        local, remote = served_queue
        args = (
            remote,
            MemoryStore(max_entries=None),
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            create_engine("sequential"),
        )
        before = remote.transport.requests
        ticket = submit_sweep(*args, segment_trials=40, n_workers=2)
        assert remote.transport.requests - before == 2  # manifest, jobs
        assert (ticket.submitted, ticket.runs) == (15, 8)
        assert local.counts(ticket.sweep_id)["pending"] == 8
        again = submit_sweep(*args, segment_trials=40, n_workers=2)
        assert (again.submitted, again.runs) == (0, 0)

    def test_fail_carries_provenance_across_the_wire(self, served_queue):
        local, remote = served_queue
        remote.submit([job_for(3)])
        job = remote.claim(worker_id="w1")
        try:
            try:
                raise OSError("disk gone")
            except OSError as cause:
                raise RuntimeError("segment compute failed") from cause
        except RuntimeError as exc:
            state = remote.fail(job, repr(exc), exc=exc)
        assert state == "pending"  # attempts remain
        (pending,) = list(remote.jobs("pending", "sweep-x"))
        record = pending.history[-1]
        assert record["exc_type"] == "RuntimeError"
        assert record["chain"] == [
            "RuntimeError: segment compute failed",
            "OSError: disk gone",
        ]

    def test_sweep_manifests_roundtrip(self, served_queue):
        _local, remote = served_queue
        manifest = {"sweep_id": "s1", "segments": [{"key": "k"}]}
        remote.save_sweep("s1", manifest)
        assert remote.load_sweep("s1") == manifest
        assert remote.load_sweep("missing") is None
        assert remote.sweep_ids() == ["s1"]


class TestServerAuthoritativeLeases:
    def test_expiry_runs_on_the_server_clock(self, served_queue):
        local, remote = served_queue
        remote.submit([job_for(4)])
        job = remote.claim(worker_id="w1")
        assert job is not None
        # A wildly skewed client "now" is NOT sent: a fresh claim must
        # not be requeued no matter what this machine's clock says.
        assert remote.requeue_expired(now=time.time() + 10_000) == []
        time.sleep(local.lease_seconds + 0.1)
        assert remote.requeue_expired() == [job.job_id]

    def test_heartbeat_keeps_the_lease_alive(self, served_queue):
        local, remote = served_queue
        remote.submit([job_for(5)])
        job = remote.claim(worker_id="w1")
        deadline = time.monotonic() + local.lease_seconds * 1.5
        while time.monotonic() < deadline:
            assert remote.heartbeat(job)
            time.sleep(local.lease_seconds / 4)
        # Heartbeats touched the server's claim file: nothing expired.
        assert remote.requeue_expired() == []
        assert remote.find(job.job_id) == "claimed"

    def test_heartbeat_race_with_requeue_is_single_winner(self, served_queue):
        local, remote = served_queue
        remote.submit([job_for(6)])
        job = remote.claim(worker_id="w1")
        time.sleep(local.lease_seconds + 0.1)
        requeued = remote.requeue_expired()
        # The worker's late heartbeat finds its claim gone …
        assert not remote.heartbeat(job)
        # … and cannot resurrect it: exactly one requeue happened.
        assert requeued == [job.job_id]
        assert remote.requeue_expired() == []
        assert remote.find(job.job_id) == "pending"


class TestWireDrops:
    def test_dropped_claim_reply_expires_back_to_pending(self, tmp_path):
        # The nastier half of the partition space: the server claims the
        # job, the reply dies on the wire.  The client retries, gets
        # nothing (the job is leased to a worker that never heard of
        # it), and the lease expires it back to pending.
        local = JobQueue(tmp_path / "q", lease_seconds=0.4, max_attempts=3)
        with ServerThread(NetServer(MemoryStore(), queue=local)) as (h, p):
            clean = RemoteJobQueue(h, p, retry_policy=FAST_RETRY)
            clean.submit([job_for(7)])
            plan = wire_chaos_plan(3, drop_every=1, drop_times=1)
            remote = RemoteJobQueue(
                h, p, retry_policy=FAST_RETRY, fault_plan=plan
            )
            job = remote.claim(worker_id="w1")  # reply #1 dropped
            assert job is None
            assert local.counts("sweep-x")["claimed"] == 1
            time.sleep(local.lease_seconds + 0.1)
            assert remote.requeue_expired() == ["sweep-x.t000007"]
            job = remote.claim(worker_id="w1")
            assert job is not None and job.attempts == 2

    def test_latency_injection_slows_but_preserves_semantics(self, tmp_path):
        local = JobQueue(tmp_path / "q", lease_seconds=5.0)
        with ServerThread(NetServer(MemoryStore(), queue=local)) as (h, p):
            plan = wire_chaos_plan(
                5, latency_seconds=0.005, latency_probability=1.0
            )
            remote = RemoteJobQueue(
                h, p, retry_policy=FAST_RETRY, fault_plan=plan
            )
            assert remote.submit([job_for(8)]) == 1
            job = remote.claim(worker_id="w1")
            assert job is not None
            assert remote.complete(job)
            assert remote.counts("sweep-x")["done"] == 1

    def test_unreachable_server_heartbeat_is_false_not_raise(self):
        remote = RemoteJobQueue(
            "127.0.0.1",
            1,
            connect_timeout=0.2,
            retry_policy=RetryPolicy(
                max_attempts=1, base_delay=0.001, deadline_seconds=0.5
            ),
        )
        assert remote.heartbeat(job_for(9)) is False
