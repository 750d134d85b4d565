"""``RemoteStore`` against the reference server: round trips, retries
under injected wire faults, breaker fail-fast, and tier slotting."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.faults.wire import wire_chaos_plan
from repro.net.client import RemoteStore, WireTransport
from repro.net.server import NetServer, ServerThread
from repro.store import MemoryStore, StoreEntry, TieredStore
from repro.utils.retry import CircuitBreaker, RetryPolicy

KEY = "a" * 64
FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.001, max_delay=0.01, deadline_seconds=2.0
)


def entry_for(seed: int) -> StoreEntry:
    return StoreEntry(
        arrays={"losses": np.arange(8, dtype=np.float64) * seed},
        meta={"seed": seed},
    )


@pytest.fixture()
def served_store():
    backing = MemoryStore(max_entries=None)
    with ServerThread(NetServer(backing)) as (host, port):
        yield backing, host, port


class TestRoundTrips:
    def test_put_get_contains_delete_len(self, served_store):
        backing, host, port = served_store
        store = RemoteStore(host, port, retry_policy=FAST_RETRY)
        assert store.get(KEY) is None
        assert not store.contains(KEY)
        store.put(KEY, entry_for(3))
        assert store.contains(KEY)
        assert len(store) == 1
        got = store.get(KEY)
        assert np.array_equal(got.arrays["losses"], entry_for(3).arrays["losses"])
        assert got.meta["seed"] == 3
        # the server's backing store holds the same bytes
        assert backing.contains(KEY)
        assert store.delete(KEY)
        assert not store.contains(KEY)
        assert not store.delete(KEY)
        store.close()

    def test_get_or_compute_computes_once_across_clients(self, served_store):
        _backing, host, port = served_store
        a = RemoteStore(host, port, retry_policy=FAST_RETRY)
        b = RemoteStore(host, port, retry_policy=FAST_RETRY)
        calls = []

        def produce():
            calls.append(1)
            return entry_for(5)

        first = a.get_or_compute(KEY, produce)
        second = b.get_or_compute(KEY, produce)
        assert len(calls) == 1
        assert np.array_equal(
            first.arrays["losses"], second.arrays["losses"]
        )

    def test_bad_key_rejected_client_side_without_a_round_trip(
        self, served_store
    ):
        _backing, host, port = served_store
        store = RemoteStore(host, port, retry_policy=FAST_RETRY)
        with pytest.raises(ValueError):
            store.get("not a valid key!")
        assert store.transport.requests == 0

    def test_server_rejection_is_valueerror_not_retried(self, served_store):
        _backing, host, port = served_store
        store = RemoteStore(host, port, retry_policy=FAST_RETRY)
        with pytest.raises(ValueError, match="rejected by server"):
            store._rpc({"op": "no_such_op"})
        # bad_request is not retried: exactly one round trip
        assert store.transport.requests == 1

    def test_server_stats_and_client_stats(self, served_store):
        _backing, host, port = served_store
        store = RemoteStore(host, port, retry_policy=FAST_RETRY)
        store.put(KEY, entry_for(1))
        store.get(KEY)
        remote = store.server_stats()
        assert remote["server"]["requests"] >= 2
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["requests"] >= 2
        assert stats["breaker"]["state"] == "closed"


class TestWireFaults:
    def test_injected_io_errors_are_retried_transparently(self, served_store):
        _backing, host, port = served_store
        plan = wire_chaos_plan(7, io_error_every=2, io_error_times=3)
        store = RemoteStore(
            host, port, retry_policy=FAST_RETRY, fault_plan=plan
        )
        store.put(KEY, entry_for(2))
        for _ in range(4):
            assert store.get(KEY) is not None
        assert store.stats()["rpc_retries"] >= 1

    def test_dropped_connections_redial(self, served_store):
        _backing, host, port = served_store
        plan = wire_chaos_plan(11, drop_every=3, drop_times=2)
        store = RemoteStore(
            host, port, retry_policy=FAST_RETRY, fault_plan=plan
        )
        store.put(KEY, entry_for(4))
        for _ in range(6):
            assert store.contains(KEY)
        stats = store.stats()
        assert stats["rpc_retries"] >= 2
        assert stats["reconnects"] >= 3  # initial dial + redials

    def test_wire_latency_only_slows_never_corrupts(self, served_store):
        _backing, host, port = served_store
        plan = wire_chaos_plan(
            13, latency_seconds=0.005, latency_probability=1.0
        )
        store = RemoteStore(
            host, port, retry_policy=FAST_RETRY, fault_plan=plan
        )
        store.put(KEY, entry_for(9))
        got = store.get(KEY)
        assert np.array_equal(
            got.arrays["losses"], entry_for(9).arrays["losses"]
        )
        assert store.stats()["rpc_retries"] == 0


class TestBreaker:
    def test_unreachable_server_opens_breaker_then_fails_fast(self):
        # A port nobody listens on: connect is refused immediately.
        dead = RemoteStore(
            "127.0.0.1",
            1,  # reserved port, never bound in tests
            connect_timeout=0.2,
            retry_policy=RetryPolicy(
                max_attempts=1, base_delay=0.001, deadline_seconds=0.5
            ),
            breaker=CircuitBreaker(
                failure_threshold=2, cooldown_seconds=60.0
            ),
        )
        for _ in range(2):
            with pytest.raises(OSError):
                dead.contains(KEY)
        assert dead.breaker.state == "open"
        with pytest.raises(OSError, match="breaker open"):
            dead.contains(KEY)
        assert dead.breaker_rejections == 1
        # stats() itself probes the server for a size hint, which the
        # open breaker also rejects — counted, not raised.
        assert dead.stats()["breaker_rejections"] >= 1


class TestTierSlotting:
    def test_remote_store_slots_under_tiered_store(self, served_store):
        backing, host, port = served_store
        backing.put(KEY, entry_for(6))
        remote = RemoteStore(host, port, retry_policy=FAST_RETRY)
        tiered = TieredStore([MemoryStore(), remote])
        got = tiered.get(KEY)
        assert got is not None and got.meta["seed"] == 6
        # the hit promoted the entry into the local memory tier
        assert tiered.stores[0].contains(KEY)

    def test_dead_remote_tier_degrades_not_fails(self):
        dead = RemoteStore(
            "127.0.0.1",
            1,
            connect_timeout=0.2,
            retry_policy=RetryPolicy(
                max_attempts=1, base_delay=0.001, deadline_seconds=0.5
            ),
        )
        tiered = TieredStore([MemoryStore(), dead])
        tiered.put(KEY, entry_for(8))  # memory accepts; remote errors
        got = tiered.get(KEY)
        assert got is not None and got.meta["seed"] == 8
        assert tiered.stats()["tier_errors"] >= 1


class TestSharedTransport:
    def test_one_transport_pools_for_many_requests(self, served_store):
        _backing, host, port = served_store
        transport = WireTransport(host, port, pool_size=1)
        store = RemoteStore(
            host, port, transport=transport, retry_policy=FAST_RETRY
        )
        for i in range(5):
            store.put(f"{i:064d}", entry_for(i + 1))
        # sequential requests reuse the single pooled socket
        assert transport.reconnects == 1


class TestServerThreadLifecycle:
    def test_start_stop_pairs_leak_no_threads(self):
        """Stop right after start (the race window between startup and
        ``run_forever``) must end the loop every time: no pair may wait
        out its timeout, and no thread may outlive its owner."""
        baseline = set(threading.enumerate())
        for _ in range(200):
            with ServerThread(NetServer(MemoryStore())):
                pass
        assert set(threading.enumerate()) - baseline == set()

    def test_stop_is_idempotent_and_safe_before_start(self):
        thread = ServerThread(NetServer(MemoryStore()))
        thread.stop()  # never started: a no-op
        thread.start()
        thread.stop()
        thread.stop()
        assert not any(
            t.name == "repro-kv-server" for t in threading.enumerate()
        )
