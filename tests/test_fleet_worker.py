"""Fleet worker lifecycle: one heartbeat thread per run, never leaked."""

from __future__ import annotations

import threading

import pytest

from repro.engines.registry import create_engine
from repro.faults.plan import (
    KIND_KILL,
    KIND_POISON,
    OP_COMPUTE,
    FaultPlan,
    FaultSpec,
    WorkerKilled,
)
from repro.fleet import FleetWorker, JobQueue, context_for_engine, submit_sweep
from repro.store import MemoryStore


class CountingQueue(JobQueue):
    """A queue that counts heartbeats and signals the first one."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.beats = 0
        self.beaten = threading.Event()

    def heartbeat(self, job) -> bool:
        self.beats += 1
        self.beaten.set()
        return super().heartbeat(job)


class WaitForHeartbeat(FleetWorker):
    """A worker whose first compute holds its job until a beat lands."""

    waited = None

    def _run_job(self, job) -> None:
        if self.waited is None:
            self.waited = self.queue.beaten.wait(timeout=30.0)
        super()._run_job(job)


def new_threads(before):
    return [t for t in threading.enumerate() if t not in before]


@pytest.fixture()
def sweep(small_workload, tmp_path):
    """A submitted sweep of 200-trial segments, its context and store."""

    def make(queue_cls=JobQueue, **queue_kwargs):
        queue = queue_cls(tmp_path / "q", **queue_kwargs)
        store = MemoryStore()
        engine = create_engine("sequential")
        ticket = submit_sweep(
            queue,
            store,
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine,
            segment_trials=200,
        )
        ctx = context_for_engine(
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine,
        )
        return queue, store, {ticket.sweep_id: ctx}, ticket

    return make


class TestHeartbeatLifecycle:
    def test_one_heartbeat_thread_per_run(self, sweep, monkeypatch):
        queue, store, contexts, ticket = sweep()
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        FleetWorker(queue, store, contexts=contexts).run(
            sweep_id=ticket.sweep_id
        )
        assert ticket.submitted >= 2
        assert len(started) == 1

    def test_normal_run_leaves_no_thread(self, sweep):
        queue, store, contexts, ticket = sweep()
        before = threading.enumerate()
        stats = FleetWorker(queue, store, contexts=contexts).run(
            sweep_id=ticket.sweep_id
        )
        assert stats.computed == ticket.submitted > 0
        assert new_threads(before) == []

    def test_poisoned_job_leaves_no_thread(self, sweep):
        queue, store, contexts, ticket = sweep(max_attempts=2)
        plan = FaultPlan(
            0, [FaultSpec(kind=KIND_POISON, op=OP_COMPUTE, at=1, times=1)]
        )
        before = threading.enumerate()
        worker = FleetWorker(queue, store, contexts=contexts, fault_plan=plan)
        worker.run(sweep_id=ticket.sweep_id)
        assert len(plan.log) == 1  # one attempt poisoned, then retried
        assert queue.counts(ticket.sweep_id)["done"] == ticket.submitted
        assert new_threads(before) == []

    def test_killed_worker_leaves_no_thread(self, sweep):
        queue, store, contexts, ticket = sweep()
        plan = FaultPlan(
            0, [FaultSpec(kind=KIND_KILL, op=OP_COMPUTE, at=2, times=1)]
        )
        before = threading.enumerate()
        worker = FleetWorker(queue, store, contexts=contexts, fault_plan=plan)
        with pytest.raises(WorkerKilled):
            worker.run(sweep_id=ticket.sweep_id)
        # the killed job stays claimed for a peer's requeue scan
        assert queue.counts(ticket.sweep_id)["claimed"] == 1
        assert new_threads(before) == []

    def test_run_one_leaves_no_thread(self, sweep):
        queue, store, contexts, ticket = sweep()
        before = threading.enumerate()
        worker = FleetWorker(queue, store, contexts=contexts)
        assert worker.run_one(sweep_id=ticket.sweep_id)
        assert new_threads(before) == []

    def test_held_job_is_heartbeaten(self, sweep):
        queue, store, contexts, ticket = sweep(
            queue_cls=CountingQueue, lease_seconds=0.2
        )
        worker = WaitForHeartbeat(queue, store, contexts=contexts)
        worker.run(sweep_id=ticket.sweep_id)
        assert worker.waited is True
        assert queue.beats >= 1
        assert queue.counts(ticket.sweep_id)["done"] == ticket.submitted


def test_fleet_imports_no_pricing_or_serve():
    """Source-level guard: the fleet runs analysis segments only, so no
    fleet module reaches up into the quote layers (no import cycle)."""
    import pathlib

    import repro.fleet as fleet_pkg

    root = pathlib.Path(fleet_pkg.__file__).parent
    for path in root.rglob("*.py"):
        text = path.read_text()
        for token in ("repro.pricing", "repro.serve"):
            assert token not in text, f"{path.name} names {token}"
