"""Batched store reads: ``contains_many`` / ``get_many`` on every
backend, the RKV1 ``contains_many``/``get_many`` ops, and the sweep
paths that ride them (a warm ``tcp://`` replay in O(1) round trips, a
damaged entry inside a batch healed by recompute)."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.net.server as net_server
from repro.core.analysis import AggregateRiskAnalysis
from repro.engines.registry import create_engine
from repro.faults.plan import (
    KIND_DROP,
    OP_RECV,
    FaultPlan,
    FaultSpec,
    no_faults,
)
from repro.faults.store import FaultyStore
from repro.fleet import JobQueue, gather_sweep, submit_sweep
from repro.net.client import RemoteStore
from repro.net.protocol import WireProtocolError
from repro.net.queue import RemoteJobQueue
from repro.net.server import NetServer, ServerThread
from repro.store import (
    FileStore,
    MemoryStore,
    SharedFileStore,
    StoreEntry,
    TieredStore,
    ylt_digest,
)
from repro.store.base import BATCH_KEYS
from repro.utils.retry import RetryPolicy

FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.001, max_delay=0.01, deadline_seconds=5.0
)


def entry_for(seed: int, n: int = 8) -> StoreEntry:
    return StoreEntry(
        arrays={"losses": np.arange(n, dtype=np.float64) * seed},
        meta={"seed": seed},
    )


def same_entry(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return (
        sorted(a.arrays) == sorted(b.arrays)
        and all(np.array_equal(a.arrays[n], b.arrays[n]) for n in a.arrays)
        and dict(a.meta) == dict(b.meta)
    )


@pytest.fixture()
def server():
    backing = MemoryStore(max_entries=None)
    with ServerThread(NetServer(backing)) as (host, port):
        yield backing, host, port


BACKENDS = ["memory", "file", "shared", "tiered", "faulty", "remote"]


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    kind = request.param
    if kind == "remote":
        with ServerThread(NetServer(MemoryStore(max_entries=None))) as (h, p):
            remote = RemoteStore(h, p, retry_policy=FAST_RETRY)
            yield remote
            remote.close()
        return
    yield {
        "memory": lambda: MemoryStore(max_entries=None),
        "file": lambda: FileStore(tmp_path / "file"),
        "shared": lambda: SharedFileStore(tmp_path / "shared"),
        "tiered": lambda: TieredStore(
            [MemoryStore(max_entries=None), FileStore(tmp_path / "tier")]
        ),
        "faulty": lambda: FaultyStore(
            MemoryStore(max_entries=None), no_faults()
        ),
    }[kind]()


class TestContract:
    KEYS = ["k-0", "k-missing", "k-2", "k-0", "k-3"]

    def test_batches_equal_the_per_key_loop(self, store):
        for seed in (0, 2, 3):
            store.put(f"k-{seed}", entry_for(seed + 1))
        assert store.contains_many(self.KEYS) == [
            store.contains(k) for k in self.KEYS
        ]
        batch = store.get_many(self.KEYS)
        assert len(batch) == len(self.KEYS)
        for key, got in zip(self.KEYS, batch):
            assert same_entry(got, store.get(key)), key

    def test_get_many_counts_hits_and_misses_like_get(self, store):
        store.put("k-0", entry_for(1))
        before = store.stats()
        store.get_many(["k-0", "k-none", "k-0"])
        after = store.stats()
        assert after["hits"] - before["hits"] == 2
        assert after["misses"] - before["misses"] == 1

    def test_empty_batches(self, store):
        assert store.contains_many([]) == []
        assert store.get_many([]) == []

    @pytest.mark.parametrize(
        "keys", [["ok", "not a key!"], ["ok", ""], ["ok", None], "k-0"]
    )
    def test_invalid_keys_raise_valueerror(self, store, keys):
        with pytest.raises(ValueError):
            store.contains_many(keys)
        with pytest.raises(ValueError):
            store.get_many(keys)


class TestRemoteBatches:
    def test_one_round_trip_per_chunk(self, server):
        backing, host, port = server
        keys = [f"k-{i}" for i in range(BATCH_KEYS + 5)]
        for i, key in enumerate(keys[::2]):
            backing.put(key, entry_for(i))
        store = RemoteStore(host, port, retry_policy=FAST_RETRY)
        expected = [i % 2 == 0 for i in range(len(keys))]
        assert store.contains_many(keys) == expected
        assert store.transport.requests == 2
        entries = store.get_many(keys)
        assert store.transport.requests == 4
        for key, got in zip(keys, entries):
            assert same_entry(got, backing.get(key)), key

    def test_invalid_key_costs_no_round_trip(self, server):
        _backing, host, port = server
        store = RemoteStore(host, port, retry_policy=FAST_RETRY)
        with pytest.raises(ValueError):
            store.get_many(["k-0", "bad key"])
        assert store.transport.requests == 0

    def test_reply_byte_budget_splits_a_chunk(self, server, monkeypatch):
        backing, host, port = server
        keys = [f"k-{i}" for i in range(5)]
        for i, key in enumerate(keys):
            backing.put(key, entry_for(i + 1, n=64))  # 512 B per entry
        monkeypatch.setattr(net_server, "BATCH_REPLY_BYTES", 1024)
        store = RemoteStore(host, port, retry_policy=FAST_RETRY)
        entries = store.get_many(keys)
        # two entries reach the budget, so three requests carry five
        assert store.transport.requests == 3
        for key, got in zip(keys, entries):
            assert same_entry(got, backing.get(key)), key

    @pytest.mark.parametrize(
        "header",
        [
            {"op": "get_many", "keys": "k-0", "n": 3},
            {"op": "contains_many", "keys": {"k-0": 1}, "n": 1},
            {"op": "get_many", "keys": ["k-0", "bad key"], "n": 2},
            {"op": "contains_many", "keys": ["k-0", "k-1"], "n": 3},
            {"op": "get_many", "keys": ["k-0"]},
            {
                "op": "contains_many",
                "keys": ["k"] * (BATCH_KEYS + 1),
                "n": BATCH_KEYS + 1,
            },
        ],
        ids=[
            "keys-str",
            "keys-dict",
            "bad-key",
            "n-mismatch",
            "no-n",
            "too-many",
        ],
    )
    def test_malformed_batch_frames_are_bad_requests(self, server, header):
        _backing, host, port = server
        store = RemoteStore(host, port, retry_policy=FAST_RETRY)
        with pytest.raises(ValueError, match="rejected by server"):
            store._rpc(header)
        assert store.transport.requests == 1  # never retried
        # the server is still up and answering
        assert store.contains_many(["k-0"]) == [False]

    @pytest.mark.parametrize(
        "reply",
        [
            {"ok": True, "found": [True]},
            {"ok": True, "found": None},
            {"ok": True, "entries": []},
            {"ok": True, "entries": [None, None, None]},
        ],
    )
    def test_reply_length_mismatch_is_a_wire_error(self, reply):
        store = RemoteStore("127.0.0.1", 1, retry_policy=FAST_RETRY)
        store._rpc = lambda header, blobs=None: (reply, {})
        call = store.contains_many if "found" in reply else store.get_many
        with pytest.raises(WireProtocolError):
            call(["k-0", "k-1"])

    def test_undecodable_slot_is_a_counted_miss(self):
        store = RemoteStore("127.0.0.1", 1, retry_policy=FAST_RETRY)
        reply = {"ok": True, "entries": [{"arrays": ["losses"], "meta": {}}]}
        store._rpc = lambda header, blobs=None: (reply, {})
        assert store.get_many(["k-0"]) == [None]
        assert store.stats()["corrupt_misses"] == 1

    def test_key_targeted_wire_faults_fire_per_batched_key(self, server):
        backing, host, port = server
        backing.put("k-target", entry_for(1))
        plan = FaultPlan(
            3,
            [
                FaultSpec(
                    kind=KIND_DROP,
                    op=OP_RECV,
                    every=1,
                    times=1,
                    key_substring="target",
                )
            ],
        )
        store = RemoteStore(
            host, port, retry_policy=FAST_RETRY, fault_plan=plan
        )
        got = store.get_many(["k-a", "k-target", "k-b"])
        assert same_entry(got[1], backing.get("k-target"))
        assert [e.key for e in plan.log] == ["k-target"]
        assert store.stats()["rpc_retries"] == 1


class TestFaultPlanBatches:
    def test_unkeyed_specs_fire_once_per_batch(self):
        plan = FaultPlan(0, [FaultSpec(kind=KIND_DROP, op=OP_RECV, every=1)])
        assert len(plan.fire(OP_RECV, keys=["a", "b", "c"])) == 1

    def test_keyed_specs_fire_per_matching_key(self):
        spec = FaultSpec(
            kind=KIND_DROP, op=OP_RECV, every=1, key_substring="x"
        )
        plan = FaultPlan(0, [spec])
        fired = plan.fire(OP_RECV, keys=["x1", "y", "x2"])
        assert fired == [spec, spec]
        assert [e.key for e in plan.log] == ["x1", "x2"]


class TestWarmRemoteSweep:
    def _submit(self, queue, store, wl, engine):
        return submit_sweep(
            queue,
            store,
            wl.yet,
            wl.portfolio,
            wl.catalog.n_events,
            engine,
            segment_trials=20,
        )

    def test_warm_replay_costs_constant_round_trips(
        self, small_workload, tmp_path
    ):
        wl = small_workload
        ara = AggregateRiskAnalysis(wl.portfolio, wl.catalog.n_events)
        stored = ara.run_fleet(
            wl.yet,
            n_workers=1,
            store=SharedFileStore(tmp_path / "cache"),
            queue_dir=tmp_path / "q",
            segment_trials=20,
        )
        engine = create_engine("sequential")
        server = NetServer(
            SharedFileStore(tmp_path / "cache"), queue=JobQueue(tmp_path / "q")
        )
        with ServerThread(server) as (host, port):
            store = RemoteStore(host, port, retry_policy=FAST_RETRY)
            queue = RemoteJobQueue(transport=store.transport)
            ticket = self._submit(queue, store, wl, engine)
            ylt = gather_sweep(queue, store, ticket.sweep_id)
            requests = store.transport.requests
            store.close()
        n_segments = ticket.delta.n_segments
        assert ticket.submitted == 0
        assert ylt_digest(ylt) == ylt_digest(stored.ylt)
        assert requests <= 2 + 2 * math.ceil(n_segments / BATCH_KEYS)

    def test_damaged_entry_in_a_batch_is_deleted_then_recomputed(
        self, tiny_workload, tmp_path
    ):
        wl = tiny_workload
        ara = AggregateRiskAnalysis(wl.portfolio, wl.catalog.n_events)
        mono = ara.run(wl.yet, engine="sequential")
        backing = MemoryStore(max_entries=None)
        with ServerThread(NetServer(backing)) as (host, port):
            store = RemoteStore(host, port, retry_policy=FAST_RETRY)
            first = ara.run_fleet(
                wl.yet, n_workers=1, store=store, segment_trials=10
            )
            victim = create_engine("sequential").plan_missing(
                wl.yet, wl.portfolio, None, segment_trials=10
            ).segments[2].key
            # same meta (and so the same recorded checksums), wrong bytes
            good = backing.get(victim)
            backing.put(
                victim,
                StoreEntry(
                    arrays={"losses": good.arrays["losses"] + 1.0},
                    meta=good.meta,
                ),
            )
            healed = ara.run_fleet(
                wl.yet, n_workers=1, store=store, segment_trials=10
            )
            assert store.stats()["corrupt_misses"] >= 1
            assert healed.meta["fleet"]["gather_retries"] == 1
            assert np.array_equal(  # recomputed: right bytes again
                backing.get(victim).arrays["losses"], good.arrays["losses"]
            )
            store.close()
        assert ylt_digest(first.ylt) == ylt_digest(mono.ylt)
        assert ylt_digest(healed.ylt) == ylt_digest(mono.ylt)
