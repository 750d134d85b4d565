"""Run jobs: a fleet queue job is a contiguous run of missing segments.

Segments stay the unit of storage and of delta reuse; runs are the unit
of coordination.  These tests pin how segments are grouped into runs,
that a run's one kernel call stores exactly the bytes a monolithic run
computes (primary and secondary losses), that a run re-checks its
members under its exclusive hold, and that every count keeps its
per-segment meaning.
"""

from __future__ import annotations

import threading
from dataclasses import asdict

import numpy as np
import pytest

import repro.fleet.worker as fleet_worker
from repro.core.analysis import AggregateRiskAnalysis
from repro.core.secondary import SecondaryUncertainty
from repro.engines.registry import create_engine
from repro.fleet import (
    JOB_KIND_SEGMENT,
    FleetJob,
    FleetWorker,
    MemoryJobQueue,
    context_for_engine,
)
from repro.fleet.jobs import JobFormatError
from repro.fleet.sweep import (
    DEFAULT_FLEET_WORKERS,
    MAX_RUN_SEGMENTS,
    RUNS_PER_WORKER,
    gather_sweep,
    run_length,
    segment_runs,
    submit_sweep,
)
from repro.plan.delta import SegmentRecord
from repro.plan.plan import PlanTask
from repro.store import MemoryStore, SharedFileStore, StoreEntry, ylt_digest


def record(task_id: int, layer_id: int, start: int, stop: int) -> SegmentRecord:
    task = PlanTask(
        task_id, layer_id, 0, task_id, start, stop, 10 * start, 10 * stop
    )
    return SegmentRecord(task=task, key=f"k-{task_id}", stored=False)


class TestGrouping:
    @pytest.mark.parametrize(
        "n_missing, n_workers, expected",
        [
            (0, 2, 1),
            (14, 2, 2),
            (65, 2, 9),
            (128, 2, MAX_RUN_SEGMENTS),
            (32, 4, 2),
            (16, None, 1),
            (64, None, 4),
        ],
    )
    def test_run_length_gives_each_worker_about_four_runs(
        self, n_missing, n_workers, expected
    ):
        assert run_length(n_missing, n_workers) == expected

    @pytest.mark.parametrize("n_missing", [1, 4, 14, 128])
    def test_one_worker_runs_are_as_long_as_the_cap(self, n_missing):
        """One worker has no peer to balance against or to speculate
        for it, so only contiguity and the cap end its runs."""
        assert run_length(n_missing, 1) == MAX_RUN_SEGMENTS

    def test_unknown_fleet_assumes_the_default_worker_count(self):
        for n_missing in (1, 17, 100, 1000):
            assert run_length(n_missing) == run_length(
                n_missing, DEFAULT_FLEET_WORKERS
            )

    def test_runs_are_contiguous_one_layer_and_bounded(self):
        records = [record(i, 0, 10 * i, 10 * (i + 1)) for i in range(10)]
        records += [record(10 + i, 1, 10 * i, 10 * (i + 1)) for i in range(6)]
        del records[3]  # a stored segment splits layer 0's run
        runs = segment_runs(records, n_workers=1)
        limit = run_length(len(records), 1)
        assert [r.key for run in runs for r in run] == [r.key for r in records]
        for run in runs:
            assert 1 <= len(run) <= limit
            assert len({r.task.layer_id for r in run}) == 1
            for a, b in zip(run, run[1:]):
                assert a.task.trial_stop == b.task.trial_start
        # no run straddles the gap or the layer boundary
        assert not any(
            {"k-2", "k-4"} <= {r.key for r in run} for run in runs
        )
        assert not any({"k-9", "k-10"} <= {r.key for r in run} for run in runs)

    def test_each_worker_gets_about_four_runs(self):
        records = [record(i, 0, 10 * i, 10 * (i + 1)) for i in range(48)]
        for workers in (2, 3, 4):
            runs = segment_runs(records, n_workers=workers)
            assert len(runs) >= RUNS_PER_WORKER * workers - 1
            assert max(len(run) for run in runs) > 1


@pytest.fixture()
def analysis(small_workload):
    return AggregateRiskAnalysis(
        small_workload.portfolio, small_workload.catalog.n_events
    )


class TestRunSweeps:
    def test_cold_sweep_matches_monolithic_and_counts_segments(
        self, small_workload, analysis, tmp_path
    ):
        store = SharedFileStore(tmp_path / "store")
        result = analysis.run_fleet(
            small_workload.yet, n_workers=1, store=store, segment_trials=20
        )
        fleet = result.meta["fleet"]
        assert fleet["jobs_submitted"] == fleet["n_segments"] == 30
        assert fleet["runs"] == 2  # runs of 16 and 14 segments
        (worker,) = fleet["workers"]
        assert worker["claimed"] == fleet["runs"]
        assert worker["computed"] == fleet["n_segments"]
        assert worker["reused"] == 0
        assert store.stats()["puts"] == fleet["n_segments"]
        # one lock file per run, named after the run's first segment
        locks = sorted(p.stem for p in (tmp_path / "store" / "locks").iterdir())
        assert len(locks) == fleet["runs"]
        mono = analysis.run(small_workload.yet, engine="sequential")
        assert ylt_digest(result.ylt) == ylt_digest(mono.ylt)

    def test_segment_seconds_prorate_the_run(
        self, small_workload, analysis
    ):
        store = MemoryStore(max_entries=None)
        result = analysis.run_fleet(
            small_workload.yet, n_workers=1, store=store, segment_trials=40
        )
        delta = create_engine("sequential").plan_missing(
            small_workload.yet, small_workload.portfolio, None, segment_trials=40
        )
        metas = [store.get(key).meta for key in delta.keys()]
        (worker,) = result.meta["fleet"]["workers"]
        assert sum(m["seconds"] for m in metas) == pytest.approx(
            worker["compute_seconds"]
        )
        per_trial = {
            round(m["seconds"] / (m["trial_stop"] - m["trial_start"]), 15)
            for m in metas
        }
        assert len(per_trial) <= result.meta["fleet"]["runs"]

    def test_secondary_runs_match_monolithic(self, multilayer_workload):
        ara = AggregateRiskAnalysis(
            multilayer_workload.portfolio, multilayer_workload.catalog.n_events
        )
        options = dict(
            secondary=SecondaryUncertainty(2.0, 5.0), secondary_seed=11
        )
        result = ara.run_fleet(
            multilayer_workload.yet,
            n_workers=1,
            store=MemoryStore(max_entries=None),
            segment_trials=45,
            **options,
        )
        assert result.meta["fleet"]["runs"] < result.meta["fleet"]["n_segments"]
        mono = ara.run(multilayer_workload.yet, engine="sequential", **options)
        assert ylt_digest(result.ylt) == ylt_digest(mono.ylt)

    def test_resubmission_enqueues_nothing(self, small_workload):
        queue, store = MemoryJobQueue(), MemoryStore(max_entries=None)
        engine = create_engine("sequential")
        args = (
            queue,
            store,
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine,
        )
        first = submit_sweep(*args, segment_trials=40, n_workers=2)
        again = submit_sweep(*args, segment_trials=40, n_workers=2)
        assert (first.submitted, first.runs) == (15, 8)
        assert again.sweep_id == first.sweep_id
        assert (again.submitted, again.runs) == (0, 0)
        assert queue.counts(first.sweep_id)["pending"] == 8

    def test_member_stored_after_submit_is_rechecked(
        self, small_workload, analysis, monkeypatch
    ):
        """A member a peer stored after submission is read, not
        recomputed; the run's span still covers it, so the others are
        the bytes a monolithic run computes."""
        queue, store = MemoryJobQueue(), MemoryStore(max_entries=None)
        engine = create_engine("sequential")
        ticket = submit_sweep(
            queue,
            store,
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine,
            segment_trials=40,
            n_workers=1,
        )
        ctx = context_for_engine(
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine,
        )
        job = next(queue.jobs("pending", ticket.sweep_id))
        members = job.payload["segments"]
        assert len(members) == 15
        peer = FleetWorker(MemoryJobQueue(), store, contexts={})
        middle = peer._members(job)[1]
        entries, _ = peer._compute_run(ctx, [middle])
        store.put_many(entries)

        spans = []
        real = fleet_worker.execute_segment_cpu

        def traced(yet, portfolio, catalog_size, task, **kwargs):
            spans.append((task.trial_start, task.trial_stop))
            return real(yet, portfolio, catalog_size, task, **kwargs)

        monkeypatch.setattr(fleet_worker, "execute_segment_cpu", traced)
        worker = FleetWorker(queue, store, contexts={ticket.sweep_id: ctx})
        assert worker.run_one(sweep_id=ticket.sweep_id)
        first, last = members[0]["task"], members[-1]["task"]
        assert spans == [(first["trial_start"], last["trial_stop"])]
        assert worker.stats.computed == 14 and worker.stats.reused == 1
        assert store.stats()["puts"] == 15
        worker.run(sweep_id=ticket.sweep_id)
        mono = analysis.run(small_workload.yet, engine="sequential")
        ylt = gather_sweep(queue, store, ticket.sweep_id)
        assert ylt_digest(ylt) == ylt_digest(mono.ylt)

    def test_run_spanning_two_layers_is_refused(self, multilayer_workload):
        """A job file is input from outside the process: a run whose
        members are not ascending segments of one layer fails instead
        of storing one layer's losses under another's key."""
        workload = multilayer_workload
        queue, store = MemoryJobQueue(), MemoryStore(max_entries=None)
        engine = create_engine("sequential")
        ticket = submit_sweep(
            queue,
            store,
            workload.yet,
            workload.portfolio,
            workload.catalog.n_events,
            engine,
            segment_trials=300,
            n_workers=1,
        )
        jobs = list(queue.jobs("pending", ticket.sweep_id))
        assert len(jobs) == 3  # one run per layer
        worker = FleetWorker(
            queue,
            store,
            contexts={
                ticket.sweep_id: context_for_engine(
                    workload.yet,
                    workload.portfolio,
                    workload.catalog.n_events,
                    engine,
                )
            },
        )
        mixed = jobs[0].payload["segments"][:1] + jobs[1].payload["segments"]
        jobs[0].payload["segments"] = mixed
        with pytest.raises(ValueError, match="one layer"):
            worker._store_run(worker._context(ticket.sweep_id), jobs[0])
        assert store.contains_many([m["key"] for m in mixed]) == [False] * 3

    def test_one_kernel_call_per_run(
        self, small_workload, analysis, monkeypatch
    ):
        calls = []
        real = fleet_worker.execute_segment_cpu

        def counted(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(fleet_worker, "execute_segment_cpu", counted)
        result = analysis.run_fleet(
            small_workload.yet,
            n_workers=1,
            store=MemoryStore(max_entries=None),
            segment_trials=20,
        )
        assert len(calls) == result.meta["fleet"]["runs"] == 2
        assert sum(task.n_trials for task in calls) == small_workload.yet.n_trials

    def test_single_task_payload_is_retired_with_a_format_error(
        self, small_workload
    ):
        """A job written in the older one-job-per-segment format (one
        ``task``, no ``segments``) fails once with a typed error naming
        the format, instead of retrying into ``failed/``."""
        engine = create_engine("sequential")
        (record_0, *_) = engine.plan_missing(
            small_workload.yet, small_workload.portfolio, None, segment_trials=40
        ).missing
        queue, store = MemoryJobQueue(max_attempts=3), MemoryStore()
        queue.submit(
            [
                FleetJob(
                    job_id="old.t000000",
                    sweep_id="old",
                    kind=JOB_KIND_SEGMENT,
                    key=record_0.key,
                    payload={"task": asdict(record_0.task)},
                )
            ]
        )
        ctx = context_for_engine(
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine,
        )
        worker = FleetWorker(queue, store, contexts={"old": ctx})
        assert worker.run_one(sweep_id="old")
        (failed,) = queue.jobs("failed", "old")
        assert failed.attempts == 1
        assert JobFormatError.__name__ in failed.error
        assert "one-job-per-segment" in failed.error
        assert worker.stats.failed == 1
        assert store.stats()["puts"] == 0
        # the remedy the error names: resubmitting the sweep revives
        # the job id with the run's payload, and the sweep completes
        ticket = submit_sweep(
            queue,
            store,
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine,
            segment_trials=40,
            n_workers=1,
            sweep_id="old",
        )
        (revived,) = queue.jobs("pending", "old")
        assert revived.job_id == "old.t000000"
        assert len(revived.payload["segments"]) == ticket.submitted == 15
        assert revived.attempts == 0 and "one-job-per-segment" in revived.error
        worker.run(sweep_id="old")
        mono = AggregateRiskAnalysis(
            small_workload.portfolio, small_workload.catalog.n_events
        ).run(small_workload.yet)
        ylt = gather_sweep(queue, store, "old")
        assert ylt_digest(ylt) == ylt_digest(mono.ylt)


class TestOverlappingGroupings:
    def test_differently_grouped_sweeps_compute_the_overlap_twice(
        self, small_workload, analysis, tmp_path, monkeypatch
    ):
        """Compute-once holds per run, not per segment: two sweeps of
        one input, grouped differently, share one store but not their
        run keys.  A narrow sweep (runs of 2) stalls computing its
        second run while a wide sweep (one run of 15) stores every
        segment still missing; the narrow run then writes its 2
        segments again.  The duplicates are the same bytes."""
        engine = create_engine("sequential")
        args = (
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine,
        )
        ctx = context_for_engine(*args)
        sweeps = {}
        for name, n_workers in (("narrow", 2), ("wide", 1)):
            queue = MemoryJobQueue()
            ticket = submit_sweep(
                queue,
                SharedFileStore(tmp_path / "store"),
                *args,
                segment_trials=40,
                n_workers=n_workers,
            )
            sweeps[name] = queue, ticket
        assert sweeps["narrow"][1].runs == 8 and sweeps["wide"][1].runs == 1
        sweep_id = sweeps["wide"][1].sweep_id

        computing, release = threading.Event(), threading.Event()
        real = fleet_worker.execute_segment_cpu

        def stalled(yet, portfolio, catalog_size, task, **kwargs):
            narrow = threading.current_thread().name == "narrow"
            if narrow and task.trial_start == 80:  # its second run
                computing.set()
                release.wait(timeout=30.0)
            return real(yet, portfolio, catalog_size, task, **kwargs)

        monkeypatch.setattr(fleet_worker, "execute_segment_cpu", stalled)
        workers = {
            name: FleetWorker(
                queue,
                SharedFileStore(tmp_path / "store"),
                contexts={sweep_id: ctx},
                worker_id=name,
            )
            for name, (queue, _) in sweeps.items()
        }
        narrow = threading.Thread(
            target=workers["narrow"].run, args=(sweep_id,), name="narrow"
        )
        narrow.start()
        try:
            assert computing.wait(timeout=30.0)
            assert workers["wide"].run_one(sweep_id=sweep_id)
        finally:
            release.set()
            narrow.join()

        assert workers["wide"].stats.computed == 13  # all but run 1
        assert workers["narrow"].stats.computed == 4  # runs 1 and 2
        assert workers["narrow"].stats.reused == 11
        mono = ylt_digest(analysis.run(small_workload.yet).ylt)
        store = SharedFileStore(tmp_path / "store")
        for queue, _ in sweeps.values():
            assert ylt_digest(gather_sweep(queue, store, sweep_id)) == mono


def test_put_many_default_counts_each_put():
    store = MemoryStore(max_entries=None)
    entries = {
        f"k-{i}": StoreEntry(arrays={"losses": np.arange(3.0) * i})
        for i in range(5)
    }
    store.put_many(entries)
    assert store.stats()["puts"] == 5
    assert all(store.contains(key) for key in entries)
