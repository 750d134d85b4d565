"""The chaos harness and the resilience it exercises.

Four subjects under one roof, because they were built as one PR and
verify each other:

* :mod:`repro.faults.plan` — seeded fault schedules are deterministic
  and auditable;
* :mod:`repro.faults.store` / :mod:`repro.faults.queue` — the wrappers
  inject exactly what the plan says (errors, corruption, torn writes,
  kills, stalls, duplicate claims);
* :mod:`repro.utils.retry` / :mod:`repro.store.verify` — bounded
  retries, circuit breakers and digest-checked fetches recover from
  the injected damage;
* the fleet's hardening — lease clock-skew clamps, failure provenance,
  speculative straggler re-execution, and exactly-one-compute under
  injected put latency.
"""

from __future__ import annotations

import os
import random
import threading
import time

import numpy as np
import pytest

from repro.faults import (
    KIND_CORRUPT,
    KIND_DUPLICATE_CLAIM,
    KIND_IO_ERROR,
    KIND_KILL,
    KIND_LATENCY,
    KIND_POISON,
    KIND_STALL_HEARTBEAT,
    KIND_TORN_WRITE,
    OP_CLAIM,
    OP_COMPUTE,
    OP_CONTAINS,
    OP_DELETE,
    OP_GET,
    OP_HEARTBEAT,
    OP_PUT,
    FaultPlan,
    FaultSpec,
    FaultyQueue,
    FaultyStore,
    WorkerKilled,
    no_faults,
)
from repro.fleet.cli import main as fleet_main
from repro.fleet.jobs import FleetJob, JobQueue, exception_chain
from repro.fleet.sweep import context_for_engine, submit_sweep
from repro.fleet.worker import FleetWorker
from repro.store import MemoryStore, SharedFileStore
from repro.store.base import StoreEntry
from repro.store.filestore import FileStore, TieredStore
from repro.store.verify import (
    attach_checksums,
    fetch_verified,
    verify_entry,
)
from repro.utils.retry import (
    CircuitBreaker,
    RetryPolicy,
    retry_call,
)
from tests.storefiles import replace_bytes, rewrite_header, write_v1_entry


def entry_of(values) -> StoreEntry:
    return attach_checksums(
        StoreEntry(
            arrays={"losses": np.asarray(values, dtype=np.float64)},
            meta={"kind": "test"},
        )
    )


def segment_job(i: int = 0, sweep: str = "s1") -> FleetJob:
    return FleetJob(
        job_id=f"{sweep}.t{i:06d}",
        sweep_id=sweep,
        kind="segment",
        key=f"key-{i:04d}",
    )


# ----------------------------------------------------------------------
# FaultPlan: deterministic, auditable schedules
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_at_and_every_and_times_schedules(self):
        plan = FaultPlan(
            0,
            [
                FaultSpec(kind=KIND_IO_ERROR, op=OP_GET, at=2),
                FaultSpec(kind=KIND_LATENCY, op=OP_GET, every=3, times=2),
            ],
        )
        kinds = [
            tuple(s.kind for s in plan.fire(OP_GET, key="k"))
            for _ in range(12)
        ]
        # at=2 fires exactly on the second op; every=3 fires on 3, 6 and
        # then never again (times=2).
        assert kinds[1] == (KIND_IO_ERROR,)
        assert kinds[2] == (KIND_LATENCY,)
        assert kinds[5] == (KIND_LATENCY,)
        assert kinds[8] == ()
        assert plan.n_fired() == 3
        assert plan.fired_counts() == {KIND_IO_ERROR: 1, KIND_LATENCY: 2}

    def test_probability_draws_are_seed_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan(
                seed,
                [FaultSpec(kind=KIND_CORRUPT, op=OP_GET, probability=0.5)],
            )
            return [
                bool(plan.fire(OP_GET, key=f"k{i}")) for i in range(64)
            ]

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)
        assert 10 < sum(firing_pattern(7)) < 54  # it is a real coin

    def test_key_and_worker_matching(self):
        plan = FaultPlan(
            0,
            [
                FaultSpec(
                    kind=KIND_KILL,
                    op=OP_CLAIM,
                    every=1,
                    worker_substring="victim",
                ),
                FaultSpec(
                    kind=KIND_CORRUPT,
                    op=OP_GET,
                    every=1,
                    key_substring="abc",
                ),
            ],
        )
        assert not plan.fire(OP_CLAIM, key="j1", worker="innocent")
        assert plan.fire(OP_CLAIM, key="j1", worker="victim-3")
        assert not plan.fire(OP_GET, key="xyz")
        assert plan.fire(OP_GET, key="zabcz")
        # non-matching ops never advance a spec's counter
        assert not plan.fire(OP_PUT, key="abc")
        assert plan.log[-1].op == OP_GET

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="schedule"):
            FaultSpec(kind=KIND_IO_ERROR, op=OP_GET)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind=KIND_IO_ERROR, op=OP_GET, probability=1.5)
        with pytest.raises(ValueError, match="at"):
            FaultSpec(kind=KIND_IO_ERROR, op=OP_GET, at=0)
        with pytest.raises(ValueError, match="times"):
            FaultSpec(kind=KIND_IO_ERROR, op=OP_GET, at=1, times=0)

    def test_no_faults_plan_never_fires(self):
        plan = no_faults()
        assert plan.fire(OP_GET, key="k") == []
        assert plan.fired_counts() == {}


# ----------------------------------------------------------------------
# FaultyStore: injected damage at the store boundary
# ----------------------------------------------------------------------
class TestFaultyStore:
    def test_io_error_is_injected_then_clears(self):
        plan = FaultPlan(
            0, [FaultSpec(kind=KIND_IO_ERROR, op=OP_GET, at=1, times=1)]
        )
        store = FaultyStore(MemoryStore(), plan)
        store.put("k1", entry_of([1.0, 2.0]))
        with pytest.raises(OSError, match="injected"):
            store.get("k1")
        assert store.get("k1") is not None
        assert store.injected_errors == 1

    def test_corruption_is_detected_by_end_to_end_checksums(self):
        plan = FaultPlan(
            0, [FaultSpec(kind=KIND_CORRUPT, op=OP_GET, at=1, times=1)]
        )
        store = FaultyStore(MemoryStore(), plan)
        store.put("k1", entry_of([1.0, 2.0, 3.0]))
        damaged = store.get("k1")
        assert not verify_entry(damaged)
        assert verify_entry(store.get("k1"))  # transient: next read clean
        assert store.injected_corruptions == 1

    def test_torn_write_persists_truncated_payload(self):
        plan = FaultPlan(
            0, [FaultSpec(kind=KIND_TORN_WRITE, op=OP_PUT, at=1, times=1)]
        )
        store = FaultyStore(MemoryStore(), plan)
        store.put("k1", entry_of([1.0, 2.0, 3.0]))
        torn = store.get("k1")
        assert torn.arrays["losses"].shape == (2,)
        assert not verify_entry(torn)  # meta promises 3 elements
        assert store.injected_torn_writes == 1

    def test_latency_uses_injected_sleep(self):
        plan = FaultPlan(
            0,
            [
                FaultSpec(
                    kind=KIND_LATENCY,
                    op=OP_PUT,
                    every=1,
                    latency_seconds=0.05,
                )
            ],
        )
        slept = []
        store = FaultyStore(MemoryStore(), plan, sleep=slept.append)
        store.put("k1", entry_of([1.0]))
        assert slept == [0.05]
        assert store.injected_latency_seconds == pytest.approx(0.05)


# ----------------------------------------------------------------------
# FaultyQueue: kills, stalls, duplicate claims
# ----------------------------------------------------------------------
class TestFaultyQueue:
    def test_kill_at_claim_leaves_job_claimed(self, tmp_path):
        plan = FaultPlan(
            0, [FaultSpec(kind=KIND_KILL, op=OP_CLAIM, at=1, times=1)]
        )
        queue = FaultyQueue(tmp_path / "q", plan, lease_seconds=0.2)
        queue.submit([segment_job(0)])
        with pytest.raises(WorkerKilled):
            queue.claim("victim")
        # a real crash: the claim landed, nothing cleaned it up
        assert queue.counts("s1")["claimed"] == 1
        assert queue.killed_workers == ["victim"]
        # peers recover it after the lease expires
        assert queue.requeue_expired(now=time.time() + 1.0) == ["s1.t000000"]
        survivor = queue.claim("peer")
        assert survivor is not None and survivor.owner == "peer"

    def test_duplicate_claim_hands_job_out_twice(self, tmp_path):
        plan = FaultPlan(
            0,
            [FaultSpec(kind=KIND_DUPLICATE_CLAIM, op=OP_CLAIM, at=1, times=1)],
        )
        queue = FaultyQueue(tmp_path / "q", plan, lease_seconds=60.0)
        queue.submit([segment_job(0), segment_job(1)])
        first = queue.claim("w1")
        second = queue.claim("w2")
        assert first.job_id == second.job_id  # the split-brain double claim
        third = queue.claim("w3")
        assert third.job_id != first.job_id

    def test_stalled_heartbeat_looks_dead_to_peers(self, tmp_path):
        plan = FaultPlan(
            0,
            [
                FaultSpec(
                    kind=KIND_STALL_HEARTBEAT,
                    op=OP_HEARTBEAT,
                    probability=1.0,
                )
            ],
        )
        queue = FaultyQueue(tmp_path / "q", plan, lease_seconds=0.2)
        queue.submit([segment_job(0)])
        job = queue.claim("slow")
        assert queue.heartbeat(job) is True  # the worker believes it landed
        assert queue.requeue_expired(now=time.time() + 1.0) == [job.job_id]


# ----------------------------------------------------------------------
# RetryPolicy / retry_call / CircuitBreaker
# ----------------------------------------------------------------------
class TestRetry:
    def test_retries_then_succeeds(self):
        calls = []
        retries = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        result = retry_call(
            flaky,
            RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
            sleep=lambda s: None,
            on_retry=lambda a, e, d: retries.append((a, d)),
        )
        assert result == "ok"
        assert len(calls) == 3
        assert [a for a, _ in retries] == [1, 2]

    def test_exhausted_attempts_raise_last_error(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0)
        with pytest.raises(OSError, match="always"):
            retry_call(
                lambda: (_ for _ in ()).throw(OSError("always")),
                policy,
                sleep=lambda s: None,
            )

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def bad():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_call(bad, RetryPolicy(max_attempts=5), sleep=lambda s: None)
        assert len(calls) == 1

    def test_deadline_stops_retrying_early(self):
        clock = {"t": 0.0}

        def tick():
            return clock["t"]

        def sleep(seconds):
            clock["t"] += seconds

        policy = RetryPolicy(
            max_attempts=10,
            base_delay=1.0,
            max_delay=1.0,
            deadline_seconds=2.5,
        )
        calls = []

        def failing():
            calls.append(1)
            raise OSError("down")

        with pytest.raises(OSError):
            retry_call(failing, policy, sleep=sleep, clock=tick)
        # 2 backoffs of 1s fit the 2.5s budget; the third would not.
        assert len(calls) == 3

    def test_decorrelated_jitter_schedule_is_bounded(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.01, max_delay=0.2
        )
        delays = policy.delays(random.Random(42))
        assert len(delays) == 7
        assert all(0.01 <= d <= 0.2 for d in delays)
        assert delays == policy.delays(random.Random(42))  # seeded

    def test_circuit_breaker_lifecycle(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2,
            cooldown_seconds=10.0,
            clock=lambda: clock["t"],
        )
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 1
        clock["t"] = 10.0
        assert breaker.state == "half-open" and breaker.allow()
        breaker.record_failure()  # the probe failed: open again
        assert breaker.state == "open" and breaker.trips == 2
        clock["t"] = 20.0
        breaker.record_success()
        assert breaker.state == "closed" and breaker.consecutive_failures == 0


# ----------------------------------------------------------------------
# fetch_verified: retry transient damage, delete durable damage
# ----------------------------------------------------------------------
class TestFetchVerified:
    FAST = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)

    def test_clean_entry_served_first_try(self):
        store = MemoryStore()
        store.put("k1", entry_of([1.0, 2.0]))
        fetched = fetch_verified(store, "k1", policy=self.FAST)
        assert fetched is not None and verify_entry(fetched)
        assert store.contains("k1")

    def test_transient_corruption_heals_on_retry_without_deleting(self):
        plan = FaultPlan(
            0, [FaultSpec(kind=KIND_CORRUPT, op=OP_GET, at=1, times=1)]
        )
        store = FaultyStore(MemoryStore(), plan)
        store.put("k1", entry_of([1.0, 2.0]))
        fetched = fetch_verified(store, "k1", policy=self.FAST)
        assert fetched is not None and verify_entry(fetched)
        assert store.contains("k1")  # transient damage must NOT delete
        assert store.corrupt_misses == 0

    def test_durable_damage_is_deleted_and_counted(self):
        # torn write: the stored bytes themselves are short, so every
        # read verifies bad and the entry is durably corrupt.
        plan = FaultPlan(
            0, [FaultSpec(kind=KIND_TORN_WRITE, op=OP_PUT, at=1, times=1)]
        )
        store = FaultyStore(MemoryStore(), plan)
        store.put("k1", entry_of([1.0, 2.0, 3.0]))
        assert fetch_verified(store, "k1", policy=self.FAST) is None
        assert not store.contains("k1")  # deleted: replanning recomputes
        assert store.corrupt_misses == 1

    def test_damage_mixed_with_transient_errors_still_deletes(self):
        # A durably torn entry whose retry budget is burned by an
        # interleaved transient IO error: the last exception is the
        # *transient* one, but the entry must still be deleted —
        # otherwise store-aware replanning sees the key as present and
        # the sweep can never converge.
        plan = FaultPlan(
            0,
            [
                FaultSpec(kind=KIND_TORN_WRITE, op=OP_PUT, at=1, times=1),
                FaultSpec(kind=KIND_IO_ERROR, op=OP_GET, at=2, times=1),
            ],
        )
        store = FaultyStore(MemoryStore(), plan)
        store.put("k1", entry_of([1.0, 2.0, 3.0]))
        short = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0)
        # attempt 1 reads damaged bytes, attempt 2 dies on the injected
        # IO error — budget exhausted with a transient as last failure.
        assert fetch_verified(store, "k1", policy=short) is None
        assert not store.contains("k1")
        assert store.corrupt_misses == 1

    def test_exhausted_transient_errors_return_none(self):
        plan = FaultPlan(
            0, [FaultSpec(kind=KIND_IO_ERROR, op=OP_GET, every=1)]
        )
        store = FaultyStore(MemoryStore(), plan)
        store.put("k1", entry_of([1.0]))
        assert fetch_verified(store, "k1", policy=self.FAST) is None
        assert store.injected_errors == 3  # one per attempt

    def test_missing_key_is_a_plain_none(self):
        assert fetch_verified(MemoryStore(), "nope", policy=self.FAST) is None


# ----------------------------------------------------------------------
# FileStore self-heal: always counted, always logged
# ----------------------------------------------------------------------
class TestFileStoreSelfHeal:
    def test_garbled_header_counts_and_logs_the_key(self, tmp_path, caplog):
        store = FileStore(tmp_path)
        store.put("k1", entry_of([1.0, 2.0]))
        rewrite_header(store.entry_path("k1"), b"{not json")
        with caplog.at_level("WARNING", logger="repro.store"):
            assert store.get("k1") is None
        assert store.stats()["corrupt_misses"] == 1
        assert any("k1" in record.message for record in caplog.records)
        assert not store.entry_path("k1").exists()  # healed away

    def test_emptied_entry_file_counts_and_logs(self, tmp_path, caplog):
        store = FileStore(tmp_path)
        store.put("k1", entry_of([1.0]))
        replace_bytes(store.entry_path("k1"), b"")
        with caplog.at_level("WARNING", logger="repro.store"):
            assert store.get("k1") is None
        assert store.stats()["corrupt_misses"] == 1
        assert any("k1" in r.message for r in caplog.records)
        assert not store.entry_path("k1").exists()

    def test_truncated_array_counts_once_per_damaged_read(self, tmp_path):
        store = FileStore(tmp_path)
        store.put("k1", entry_of([1.0, 2.0, 3.0]))
        path = store.entry_path("k1")
        replace_bytes(path, path.read_bytes()[:-8])
        assert store.get("k1") is None
        assert store.stats()["corrupt_misses"] == 1
        # the entry healed into a miss: the key is simply absent now
        assert store.get("k1") is None
        assert store.stats()["corrupt_misses"] == 1
        assert not path.exists()

    # -- v1 entry directories ------------------------------------------
    def test_garbled_meta_counts_and_logs_the_key(self, tmp_path, caplog):
        store = FileStore(tmp_path)
        path = write_v1_entry(store, "k1", entry_of([1.0, 2.0]))
        (path / "meta.json").write_text("{not json")
        with caplog.at_level("WARNING", logger="repro.store"):
            assert store.get("k1") is None
        assert store.stats()["corrupt_misses"] == 1
        assert any("k1" in record.message for record in caplog.records)
        assert not path.exists()  # healed away

    def test_lost_meta_json_counts_and_logs(self, tmp_path, caplog):
        store = FileStore(tmp_path)
        path = write_v1_entry(store, "k1", entry_of([1.0]))
        os.remove(path / "meta.json")
        with caplog.at_level("WARNING", logger="repro.store"):
            assert store.get("k1") is None
        assert store.stats()["corrupt_misses"] == 1
        assert any("meta.json" in r.message for r in caplog.records)
        assert not path.exists()

    def test_truncated_array_counts_once_per_damaged_read_v1(self, tmp_path):
        store = FileStore(tmp_path)
        path = write_v1_entry(store, "k1", entry_of([1.0, 2.0, 3.0]))
        npy = path / "losses.npy"
        npy.write_bytes(npy.read_bytes()[:-8])
        assert store.get("k1") is None
        assert store.stats()["corrupt_misses"] == 1
        assert store.get("k1") is None
        assert store.stats()["corrupt_misses"] == 1
        assert not path.exists()


# ----------------------------------------------------------------------
# TieredStore circuit breaking: quarantine and fall-through
# ----------------------------------------------------------------------
class _BrokenStore(MemoryStore):
    """A tier that raises on every backend op."""

    def _get(self, key):
        raise OSError("tier down")

    def _put(self, key, entry):
        raise OSError("tier down")


class TestTieredStoreBreaker:
    def test_failing_tier_is_quarantined_and_traffic_falls_through(self):
        clock = {"t": 0.0}
        tiered = TieredStore(
            [_BrokenStore(), MemoryStore()],
            breaker_threshold=2,
            breaker_cooldown_seconds=100.0,
            clock=lambda: clock["t"],
        )
        entry = entry_of([1.0, 2.0])
        tiered.put("k1", entry)  # healthy tier accepts; broken one fails
        assert tiered.get("k1") is not None  # served around the bad tier
        stats = tiered.stats()
        assert stats["tier_errors"] >= 2
        assert stats["breaker_trips"] == 1
        assert stats["tiers"][0]["breaker"]["state"] == "open"
        assert stats["tiers"][1]["breaker"]["state"] == "closed"
        # while quarantined, ops no longer touch the broken tier
        errors_before = tiered.stats()["tier_errors"]
        assert tiered.get("k1") is not None
        assert tiered.stats()["tier_errors"] == errors_before

    def test_delete_respects_quarantine_and_feeds_the_breaker(self):
        # Regression: _delete used to bypass the breakers entirely —
        # hammering a quarantined tier and swallowing its errors
        # without scoring them.
        class BrokenDelete(MemoryStore):
            def _delete(self, key):
                raise OSError("tier down")

        clock = {"t": 0.0}
        broken = BrokenDelete()
        tiered = TieredStore(
            [MemoryStore(), broken],
            breaker_threshold=2,
            breaker_cooldown_seconds=100.0,
            clock=lambda: clock["t"],
        )
        tiered.put("k1", entry_of([1.0]))
        tiered.put("k2", entry_of([2.0]))
        tiered.put("k3", entry_of([3.0]))
        assert tiered.delete("k1")  # memory tier deleted; broken counted
        assert tiered.stats()["tier_errors"] >= 1
        tiered.delete("k2")  # second consecutive failure trips it
        assert tiered.stats()["tiers"][1]["breaker"]["state"] == "open"
        # quarantined: further deletes skip the broken tier entirely
        calls = {"n": 0}
        original = broken._delete
        broken._delete = lambda key: calls.__setitem__("n", calls["n"] + 1) or original(key)
        tiered.delete("k3")
        assert calls["n"] == 0

    def test_put_raises_only_when_no_tier_accepts(self):
        tiered = TieredStore([_BrokenStore()], breaker_threshold=5)
        with pytest.raises(OSError):
            tiered.put("k1", entry_of([1.0]))

    def test_probe_after_cooldown_closes_the_breaker(self):
        clock = {"t": 0.0}

        class Flaky(MemoryStore):
            broken = True

            def _get(self, key):
                if self.broken:
                    raise OSError("down")
                return super()._get(key)

        flaky = Flaky()
        tiered = TieredStore(
            [flaky, MemoryStore()],
            breaker_threshold=1,
            breaker_cooldown_seconds=5.0,
            clock=lambda: clock["t"],
        )
        tiered.put("k1", entry_of([1.0]))
        tiered.get("k1")
        assert tiered.stats()["tiers"][0]["breaker"]["state"] == "open"
        flaky.broken = False
        clock["t"] = 5.0  # cooldown over: one probe allowed through
        assert tiered.get("k1") is not None
        assert tiered.stats()["tiers"][0]["breaker"]["state"] == "closed"


# ----------------------------------------------------------------------
# Lease clock-skew hardening (requeue_expired)
# ----------------------------------------------------------------------
class TestLeaseClockSkew:
    def test_future_mtime_is_normalised_then_expires(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_seconds=1.0)
        queue.submit([segment_job(0)])
        job = queue.claim("w1")
        path = queue._job_path("claimed", job.job_id)
        # a peer's skewed wall clock stamped the heartbeat far ahead
        future = time.time() + 3600.0
        os.utime(path, (future, future))
        # without the clamp this job would look fresh for an hour
        assert queue.requeue_expired() == []
        assert path.stat().st_mtime < time.time() + 10.0  # normalised
        # from the normalised lease onward, expiry works normally
        assert queue.requeue_expired(now=time.time() + 2.0) == [job.job_id]

    def test_small_future_skew_is_tolerated_without_touch(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_seconds=10.0)
        queue.submit([segment_job(0)])
        job = queue.claim("w1")
        path = queue._job_path("claimed", job.job_id)
        ahead = time.time() + 2.0  # within one lease period
        os.utime(path, (ahead, ahead))
        assert queue.requeue_expired() == []
        assert path.stat().st_mtime == pytest.approx(ahead, abs=0.5)
        assert queue.counts("s1")["claimed"] == 1

    def test_negative_age_never_counts_toward_expiry(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_seconds=0.5)
        queue.submit([segment_job(0)])
        job = queue.claim("w1")
        path = queue._job_path("claimed", job.job_id)
        assert queue._lease_age(path, now=time.time() - 0.3) == 0.0


# ----------------------------------------------------------------------
# Failure provenance: poison jobs explain themselves
# ----------------------------------------------------------------------
class TestFailureProvenance:
    def test_exception_chain_walks_causes(self):
        try:
            try:
                raise OSError("root cause")
            except OSError as inner:
                raise RuntimeError("wrapper") from inner
        except RuntimeError as exc:
            chain = exception_chain(exc)
        assert chain == ["RuntimeError: wrapper", "OSError: root cause"]

    @pytest.fixture()
    def poisoned_queue(self, tmp_path, tiny_workload):
        from repro.engines.registry import create_engine

        plan = FaultPlan(
            0, [FaultSpec(kind=KIND_POISON, op=OP_COMPUTE, every=1)]
        )
        queue = JobQueue(tmp_path / "q", lease_seconds=30.0, max_attempts=2)
        store = MemoryStore()
        engine = create_engine("sequential")
        ticket = submit_sweep(
            queue,
            store,
            tiny_workload.yet,
            tiny_workload.portfolio,
            tiny_workload.catalog.n_events,
            engine,
            segment_trials=30,
        )
        ctx = context_for_engine(
            tiny_workload.yet,
            tiny_workload.portfolio,
            tiny_workload.catalog.n_events,
            engine,
        )
        worker = FleetWorker(
            queue,
            store,
            contexts={ticket.sweep_id: ctx},
            worker_id="prov-w0",
            fault_plan=plan,
        )
        worker.run(sweep_id=ticket.sweep_id, drain=False)
        return queue, ticket

    def test_failed_jobs_carry_attempt_history(self, poisoned_queue):
        queue, ticket = poisoned_queue
        failed = list(queue.jobs("failed", ticket.sweep_id))
        assert failed, "poisoned segments must exhaust their attempts"
        job = failed[0]
        assert len(job.history) == 2  # one record per attempt
        for attempt_index, record in enumerate(job.history, start=1):
            assert record["attempt"] == attempt_index
            assert record["worker"] == "prov-w0"
            assert record["exc_type"] == "InjectedFault"
            assert record["chain"][0].startswith("InjectedFault:")

    def test_status_failed_prints_provenance(self, poisoned_queue, capsys):
        queue, ticket = poisoned_queue
        rc = fleet_main(
            ["status", "--queue", str(queue.queue_dir), "--failed"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "failed" in out
        assert "attempt 1 on prov-w0" in out
        assert "InjectedFault" in out

    def test_status_without_flag_stays_terse(self, poisoned_queue, capsys):
        queue, _ = poisoned_queue
        fleet_main(["status", "--queue", str(queue.queue_dir)])
        assert "attempt" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# Speculative re-execution of stragglers
# ----------------------------------------------------------------------
class TestSpeculation:
    def test_idle_worker_backfills_a_dead_peers_segment(
        self, tmp_path, tiny_workload
    ):
        from repro.engines.registry import create_engine

        queue = JobQueue(tmp_path / "q", lease_seconds=0.4)
        store = MemoryStore()
        engine = create_engine("sequential")
        ticket = submit_sweep(
            queue,
            store,
            tiny_workload.yet,
            tiny_workload.portfolio,
            tiny_workload.catalog.n_events,
            engine,
            segment_trials=30,
        )
        ctx = context_for_engine(
            tiny_workload.yet,
            tiny_workload.portfolio,
            tiny_workload.catalog.n_events,
            engine,
        )
        dead_job = queue.claim("dead-worker", sweep_id=ticket.sweep_id)
        assert dead_job is not None
        time.sleep(0.25)  # past speculation_age_fraction * lease

        helper = FleetWorker(
            queue,
            store,
            contexts={ticket.sweep_id: ctx},
            worker_id="helper",
        )
        assert helper.speculate_one(sweep_id=ticket.sweep_id) is True
        assert helper.stats.speculated == 1
        assert store.contains(dead_job.key)
        # the job itself was not touched: recovery stays the queue's job
        assert queue.counts(ticket.sweep_id)["claimed"] == 1
        # a second speculation pass finds nothing new to do
        assert helper.speculate_one(sweep_id=ticket.sweep_id) is False

        # once the lease expires, the requeued claim is a pure store hit
        queue.requeue_expired(now=time.time() + 1.0)
        helper.run(sweep_id=ticket.sweep_id, drain=False)
        assert helper.stats.reused >= 1

    def test_speculation_skips_own_and_fresh_claims(
        self, tmp_path, tiny_workload
    ):
        from repro.engines.registry import create_engine

        queue = JobQueue(tmp_path / "q", lease_seconds=60.0)
        store = MemoryStore()
        engine = create_engine("sequential")
        ticket = submit_sweep(
            queue,
            store,
            tiny_workload.yet,
            tiny_workload.portfolio,
            tiny_workload.catalog.n_events,
            engine,
            segment_trials=30,
        )
        worker = FleetWorker(queue, store, worker_id="only")
        queue.claim("only", sweep_id=ticket.sweep_id)
        # fresh lease (far under the age threshold): nothing to speculate
        assert worker.speculate_one(sweep_id=ticket.sweep_id) is False


# ----------------------------------------------------------------------
# SharedFileStore exactly-once under injected put latency
# ----------------------------------------------------------------------
class TestSharedStoreContention:
    N_THREADS = 6

    def test_exactly_one_compute_per_key_under_put_latency(self, tmp_path):
        """Each thread gets its *own* store instance over one cache dir,
        so dedup rests entirely on the cross-process flock — and a 50ms
        injected put latency holds the lock long enough that every
        other thread piles up on it."""
        computes = []
        compute_lock = threading.Lock()
        barrier = threading.Barrier(self.N_THREADS)
        results = []
        errors = []

        def produce() -> StoreEntry:
            with compute_lock:
                computes.append(threading.get_ident())
            return entry_of([1.0, 2.0, 3.0])

        def hammer(i: int) -> None:
            plan = FaultPlan(
                i,
                [
                    FaultSpec(
                        kind=KIND_LATENCY,
                        op=OP_PUT,
                        every=1,
                        latency_seconds=0.05,
                    )
                ],
            )
            store = FaultyStore(SharedFileStore(tmp_path / "cache"), plan)
            barrier.wait()
            try:
                entry = store.get_or_compute("contended-key", produce)
                results.append(entry.arrays["losses"].shape)
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(results) == self.N_THREADS
        assert len(computes) == 1, (
            f"{len(computes)} computes for one key: the cross-process "
            "lock failed to serialise the miss path"
        )
        assert all(shape == (3,) for shape in results)


# ----------------------------------------------------------------------
# FaultyStore: injection on existence probes and invalidations
# ----------------------------------------------------------------------
class TestFaultyStoreProbesAndDeletes:
    """The serving tier rides ``contains`` (store-aware admission) and
    ``delete`` (corrupt-entry retirement); chaos must reach both."""

    def test_latency_injected_on_contains_and_delete(self):
        plan = FaultPlan(
            3,
            [
                FaultSpec(
                    kind=KIND_LATENCY,
                    op=OP_CONTAINS,
                    every=1,
                    latency_seconds=0.05,
                ),
                FaultSpec(
                    kind=KIND_LATENCY,
                    op=OP_DELETE,
                    every=1,
                    latency_seconds=0.07,
                ),
            ],
        )
        slept = []
        store = FaultyStore(MemoryStore(), plan, sleep=slept.append)
        store.put("k1", entry_of([1.0, 2.0]))
        assert store.contains("k1")
        assert store.delete("k1") is True
        assert not store.contains("k1")
        assert slept == [0.05, 0.07, 0.05]
        assert store.stats()["injected_latency_seconds"] == pytest.approx(
            0.17
        )

    def test_io_error_on_contains_then_clears(self):
        plan = FaultPlan(
            3,
            [FaultSpec(kind=KIND_IO_ERROR, op=OP_CONTAINS, at=1, times=1)],
        )
        store = FaultyStore(MemoryStore(), plan)
        store.put("k1", entry_of([1.0]))
        with pytest.raises(OSError):
            store.contains("k1")
        assert store.contains("k1")  # the schedule's `times` is spent
        assert store.stats()["injected_errors"] == 1

    def test_io_error_on_delete_leaves_entry(self):
        plan = FaultPlan(
            3, [FaultSpec(kind=KIND_IO_ERROR, op=OP_DELETE, at=1, times=1)]
        )
        store = FaultyStore(MemoryStore(), plan)
        store.put("k1", entry_of([1.0]))
        with pytest.raises(OSError):
            store.delete("k1")
        assert store.contains("k1")  # failed invalidation removed nothing
        assert store.delete("k1") is True

    def test_tiered_contains_degrades_around_probe_errors(self):
        """A tier whose existence probes keep failing is routed around,
        exactly like a tier whose reads fail."""
        plan = FaultPlan(
            5,
            [
                FaultSpec(
                    kind=KIND_IO_ERROR, op=OP_CONTAINS, probability=1.0
                )
            ],
        )
        tiered = TieredStore(
            [FaultyStore(MemoryStore(), plan), MemoryStore()],
            breaker_threshold=2,
        )
        tiered.put("k1", entry_of([1.0]))
        assert tiered.contains("k1")  # tier 1 answers despite tier 0
        assert tiered.stats()["tier_errors"] >= 1
