"""SLO-grade serving: deadlines, admission, brownout, hedges, front-end."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.data.generator import generate_catalog, generate_elt, generate_yet
from repro.data.layer import LayerTerms
from repro.faults import (
    KIND_CORRUPT,
    KIND_LATENCY,
    OP_GET,
    FaultPlan,
    FaultSpec,
    FaultyStore,
)
from repro.plan.cache import PlanResultCache
from repro.pricing.realtime import QuoteService
from repro.serve import (
    LANE_BATCH,
    LANE_INTERACTIVE,
    AdmissionGate,
    BrownoutController,
    Overloaded,
    QuoteFrontEnd,
    TokenBucket,
    run_open_loop,
)
from repro.serve.brownout import STATE_BROWNOUT, STATE_NORMAL, STATE_PAUSED
from repro.store import MemoryStore, SharedFileStore, TieredStore
from repro.store.base import StoreEntry
from repro.store.health import format_health, health_from_stats, store_health
from repro.store.verify import attach_checksums, fetch_verified, verify_entry
from repro.utils.latency import LatencyTracker, percentile
from repro.utils.retry import (
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    retry_call,
)


class Clock:
    """Manually advanced monotonic clock for deterministic tests."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


def entry_of(values):
    return StoreEntry(arrays={"x": np.asarray(values, dtype=np.float64)})


# ----------------------------------------------------------------------
# Deadline + retry integration
# ----------------------------------------------------------------------
class TestDeadline:
    def test_remaining_counts_down_and_expires(self):
        clock = Clock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired
        with pytest.raises(DeadlineExceeded, match="quote"):
            deadline.check("quote")

    def test_clamp_bounds_nested_waits(self):
        clock = Clock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.clamp(5.0) == pytest.approx(1.0)
        assert deadline.clamp(0.25) == pytest.approx(0.25)

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    def test_deadline_exceeded_is_a_timeout(self):
        # Callers catching TimeoutError see deadline misses too.
        assert issubclass(DeadlineExceeded, TimeoutError)

    def test_retry_call_never_sleeps_past_deadline(self):
        clock = Clock()
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            clock.advance(seconds)

        calls = []

        def failing():
            calls.append(1)
            clock.advance(0.4)
            raise OSError("down")

        with pytest.raises(OSError):
            retry_call(
                failing,
                RetryPolicy(max_attempts=10, base_delay=1.0, max_delay=1.0),
                sleep=sleep,
                clock=clock,
                deadline=Deadline(2.0, clock=clock),
            )
        # attempt(0.4) + sleep(1.0) + attempt(0.4) leaves 0.2s: the next
        # 1.0s backoff would overrun, so the loop stops there.
        assert len(calls) == 2
        assert len(slept) == 1

    def test_nested_retries_share_one_budget(self):
        clock = Clock()
        deadline = Deadline(1.0, clock=clock)
        policy = RetryPolicy(max_attempts=5, base_delay=0.3, max_delay=0.3)

        def sleep(seconds):
            clock.advance(seconds)

        def inner():
            raise OSError("inner down")

        def outer():
            return retry_call(
                inner, policy, sleep=sleep, clock=clock, deadline=deadline
            )

        with pytest.raises(OSError):
            retry_call(
                outer, policy, sleep=sleep, clock=clock, deadline=deadline
            )
        assert clock.t <= 1.0 + 0.3  # never slept meaningfully past it

    def test_expired_deadline_refuses_the_call(self):
        clock = Clock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        calls = []
        with pytest.raises(DeadlineExceeded):
            retry_call(
                lambda: calls.append(1),
                RetryPolicy(max_attempts=3),
                sleep=lambda s: None,
                deadline=deadline,
            )
        assert calls == []  # expired work is cancelled, not computed

    def test_deadline_exceeded_is_never_retried(self):
        # TimeoutError subclasses OSError, the default retry_on — a
        # nested DeadlineExceeded must still propagate immediately.
        calls = []

        def expired():
            calls.append(1)
            raise DeadlineExceeded("inner budget gone")

        with pytest.raises(DeadlineExceeded):
            retry_call(
                expired,
                RetryPolicy(max_attempts=5, base_delay=0.0, max_delay=0.0),
                sleep=lambda s: None,
            )
        assert len(calls) == 1


class TestDeadlineThroughCaches:
    def test_cache_wait_on_inflight_compute_is_bounded(self):
        cache = PlanResultCache(maxsize=4)
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            release.wait(5.0)
            return "value"

        leader = threading.Thread(
            target=lambda: cache.get_or_compute("k", slow)
        )
        leader.start()
        assert started.wait(5.0)
        with pytest.raises(DeadlineExceeded):
            cache.get_or_compute(
                "k", lambda: "other", deadline=Deadline.after(0.05)
            )
        release.set()
        leader.join()
        assert cache.get_or_compute("k", lambda: "other") == "value"

    def test_expired_deadline_gates_fresh_compute(self):
        clock = Clock()
        cache = PlanResultCache(maxsize=4)
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        calls = []
        with pytest.raises(DeadlineExceeded):
            cache.get_or_compute(
                "fresh", lambda: calls.append(1), deadline=deadline
            )
        assert calls == []
        # The pending claim was released: the key is computable again.
        assert cache.get_or_compute("fresh", lambda: "ok") == "ok"

    def test_store_get_or_compute_respects_deadline(self):
        clock = Clock()
        store = MemoryStore()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded):
            store.get_or_compute(
                "k1", lambda: entry_of([1.0]), deadline=deadline
            )
        entry = store.get_or_compute("k1", lambda: entry_of([1.0]))
        assert list(entry.arrays["x"]) == [1.0]

    def test_fetch_verified_propagates_deadline_typed(self):
        clock = Clock()
        store = MemoryStore()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded):
            fetch_verified(
                store, "missing", deadline=deadline, sleep=lambda s: None
            )

    def test_quote_service_refuses_expired_work(self):
        catalog = generate_catalog(n_events=2_000, total_annual_rate=30.0)
        yet = generate_yet(catalog, n_trials=200, events_per_trial=15, seed=5)
        elts = [
            generate_elt(catalog, elt_id=i, n_losses=150, seed=30 + i)
            for i in range(3)
        ]
        clock = Clock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with QuoteService(yet, elts, catalog.n_events, max_workers=1) as svc:
            with pytest.raises(DeadlineExceeded):
                svc.quote(
                    (0, 1), LayerTerms(occ_limit=500.0), deadline=deadline
                )
            # The pool survives and serves fresh-budget quotes.
            record = svc.quote((0, 1), LayerTerms(occ_limit=500.0))
            assert record.quote is not None


# ----------------------------------------------------------------------
# Admission: token bucket, gate, lanes
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = Clock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        clock.advance(0.1)  # one token refilled at 10/s
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = Clock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(60.0)
        taken = sum(1 for _ in range(10) if bucket.try_take())
        assert taken == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=5.0, burst=0.5)


class TestAdmissionGate:
    def test_depth_sheds_typed(self):
        gate = AdmissionGate(max_inflight=2)
        gate.try_acquire()
        gate.try_acquire()
        with pytest.raises(Overloaded) as excinfo:
            gate.try_acquire()
        assert excinfo.value.reason == "depth"
        assert gate.stats()["shed"] == {"depth": 1}
        gate.release(LANE_INTERACTIVE)
        assert gate.try_acquire() == LANE_INTERACTIVE

    def test_batch_lane_capped_at_share(self):
        gate = AdmissionGate(max_inflight=4, batch_share=0.5)
        gate.try_acquire(LANE_BATCH)
        gate.try_acquire(LANE_BATCH)
        with pytest.raises(Overloaded) as excinfo:
            gate.try_acquire(LANE_BATCH)
        assert excinfo.value.reason == "batch-depth"
        assert excinfo.value.lane == LANE_BATCH
        # Interactive still has the other half of the gate.
        gate.try_acquire(LANE_INTERACTIVE)
        gate.try_acquire(LANE_INTERACTIVE)

    def test_brownout_factor_squeezes_batch(self):
        factor = {"value": 1.0}
        gate = AdmissionGate(
            max_inflight=8, batch_share=0.5, batch_factor=lambda: factor["value"]
        )
        assert gate.batch_limit() == 4
        factor["value"] = 0.25
        assert gate.batch_limit() == 1
        factor["value"] = 0.0
        assert gate.batch_limit() == 0
        with pytest.raises(Overloaded):
            gate.try_acquire(LANE_BATCH)
        gate.try_acquire(LANE_INTERACTIVE)  # interactive unaffected

    def test_rate_shed_consumes_no_depth(self):
        clock = Clock()
        gate = AdmissionGate(
            max_inflight=10, bucket=TokenBucket(1.0, burst=1.0, clock=clock)
        )
        gate.try_acquire()
        with pytest.raises(Overloaded) as excinfo:
            gate.try_acquire()
        assert excinfo.value.reason == "rate"
        assert gate.inflight() == 1

    def test_release_without_acquire_is_a_bug(self):
        gate = AdmissionGate(max_inflight=2)
        with pytest.raises(RuntimeError):
            gate.release(LANE_INTERACTIVE)

    def test_unknown_lane_rejected(self):
        gate = AdmissionGate(max_inflight=2)
        with pytest.raises(ValueError):
            gate.try_acquire("bulk")

    def test_peak_inflight_tracked(self):
        gate = AdmissionGate(max_inflight=4)
        for _ in range(3):
            gate.try_acquire()
        gate.release(LANE_INTERACTIVE)
        assert gate.stats()["peak_inflight"] == 3


# ----------------------------------------------------------------------
# Brownout ladder
# ----------------------------------------------------------------------
def make_brownout(clock, **overrides):
    kwargs = dict(
        window_seconds=10.0,
        enter_threshold=0.5,
        exit_threshold=0.1,
        min_dwell_seconds=1.0,
        min_samples=4,
        clock=clock,
    )
    kwargs.update(overrides)
    return BrownoutController(**kwargs)


class TestBrownout:
    def test_escalates_one_rung_at_a_time(self):
        clock = Clock()
        ctl = make_brownout(clock)
        clock.advance(2.0)
        for _ in range(4):
            ctl.observe(shed=True)
        assert ctl.state == STATE_BROWNOUT  # one rung, not straight to pause
        assert ctl.batch_factor() == 0.25
        clock.advance(2.0)  # dwell, still shedding
        ctl.observe(shed=True)
        assert ctl.state == STATE_PAUSED
        assert ctl.batch_factor() == 0.0

    def test_min_samples_guard(self):
        clock = Clock(10.0)
        ctl = make_brownout(clock, min_samples=8)
        for _ in range(7):
            ctl.observe(shed=True)
        assert ctl.state == STATE_NORMAL  # too few outcomes to judge

    def test_dwell_blocks_instant_escalation(self):
        clock = Clock()
        ctl = make_brownout(clock)  # created at t=0, dwell 1s
        for _ in range(6):
            ctl.observe(shed=True)
        assert ctl.state == STATE_NORMAL  # hasn't dwelled yet

    def test_recovery_needs_hysteresis_band(self):
        clock = Clock()
        ctl = make_brownout(clock, window_seconds=2.0)
        clock.advance(2.0)
        for _ in range(4):
            ctl.observe(shed=True)
        assert ctl.state == STATE_BROWNOUT
        # Pressure clears (the shed burst ages out of the window) and
        # the dwell has passed: the next judged outcome steps down.
        clock.advance(2.5)
        for _ in range(20):
            ctl.observe(shed=False)
        assert ctl.state == STATE_NORMAL
        stats = ctl.stats()
        assert [t["to"] for t in stats["transitions"]] == [
            STATE_BROWNOUT,
            STATE_NORMAL,
        ]

    def test_stats_surface_state_and_rate(self):
        clock = Clock(5.0)
        ctl = make_brownout(clock)
        for shed in (True, False, True, False):
            ctl.observe(shed=shed)
        stats = ctl.stats()
        assert stats["state"] == STATE_NORMAL
        assert stats["shed_rate_window"] == pytest.approx(0.5)
        assert stats["window_samples"] == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutController(enter_threshold=0.2, exit_threshold=0.5)
        with pytest.raises(ValueError):
            BrownoutController(window_seconds=0.0)


# ----------------------------------------------------------------------
# Hedged reads + latency tracking
# ----------------------------------------------------------------------
class TestLatencyTracker:
    def test_nearest_rank_percentile(self):
        samples = [0.01 * i for i in range(1, 101)]
        assert percentile(samples, 0.50) == pytest.approx(0.50)
        assert percentile(samples, 0.99) == pytest.approx(0.99)
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_tracker_window_and_summary(self):
        tracker = LatencyTracker(maxlen=4)
        assert tracker.quantile(0.99) is None
        for v in (0.1, 0.2, 0.3, 0.4, 0.5):
            tracker.record(v)
        assert len(tracker) == 4  # 0.1 aged out
        summary = tracker.summary()
        assert summary["count"] == 5  # lifetime recordings
        assert summary["window"] == 4  # retained ring
        assert summary["max_seconds"] == pytest.approx(0.5)
        assert summary["p50_seconds"] == pytest.approx(0.3)


def latency_faulty(inner, seconds=0.2, seed=7):
    return FaultyStore(
        inner,
        FaultPlan(
            seed,
            [
                FaultSpec(
                    kind=KIND_LATENCY,
                    op=OP_GET,
                    every=1,
                    latency_seconds=seconds,
                )
            ],
        ),
    )


class TestHedgedReads:
    def test_hedge_wins_when_tier0_stalls(self):
        tiered = TieredStore(
            [latency_faulty(MemoryStore()), MemoryStore()],
            hedge=True,
            hedge_min_delay=0.01,
            hedge_max_delay=0.01,
        )
        tiered.put("k1", entry_of([1.0, 2.0]))
        started = time.perf_counter()
        entry = tiered.hedged_get("k1")
        elapsed = time.perf_counter() - started
        assert entry is not None
        assert list(entry.arrays["x"]) == [1.0, 2.0]
        assert elapsed < 0.15  # did not eat the 0.2s injected stall
        hedge = tiered.stats()["hedge"]
        assert hedge["enabled"] and hedge["issued"] == 1
        assert hedge["wins"] == 1 and hedge["losses"] == 0

    def test_both_miss_counts_a_miss_not_a_loss(self):
        # Regression: a hedged lookup where neither waterfall finds the
        # key used to tick ``losses`` — inflating the "primary beat the
        # hedge" signal with events where nobody won anything.
        tiered = TieredStore(
            [latency_faulty(MemoryStore()), MemoryStore()],
            hedge=True,
            hedge_min_delay=0.01,
            hedge_max_delay=0.01,
        )
        assert tiered.hedged_get("absent") is None
        hedge = tiered.stats()["hedge"]
        assert hedge["issued"] == 1
        assert hedge["misses"] == 1
        assert hedge["losses"] == 0 and hedge["wins"] == 0
        health = health_from_stats(tiered.stats())
        assert health["hedge"]["misses"] == 1

    def test_fast_primary_never_hedges(self):
        tiered = TieredStore(
            [MemoryStore(), MemoryStore()],
            hedge=True,
            hedge_min_delay=0.05,
            hedge_max_delay=0.05,
        )
        tiered.put("k1", entry_of([3.0]))
        assert tiered.hedged_get("k1") is not None
        assert tiered.stats()["hedge"]["issued"] == 0

    def test_hedge_delay_clamps_to_tracked_percentile(self):
        tiered = TieredStore(
            [MemoryStore(), MemoryStore()],
            hedge=True,
            hedge_quantile=0.95,
            hedge_min_delay=0.002,
            hedge_max_delay=0.25,
        )
        assert tiered.hedge_delay() == pytest.approx(0.002)  # cold: floor
        for _ in range(32):
            tiered._trackers[0].record(0.5)  # slow tier 0
        assert tiered.hedge_delay() == pytest.approx(0.25)  # ceiling
        tiered2 = TieredStore(
            [MemoryStore(), MemoryStore()], hedge=True
        )
        for _ in range(32):
            tiered2._trackers[0].record(0.01)
        assert tiered2.hedge_delay() == pytest.approx(0.01)

    def test_single_tier_store_never_hedges(self):
        tiered = TieredStore([MemoryStore()], hedge=True)
        assert tiered.hedge is False
        tiered.put("k1", entry_of([1.0]))
        assert tiered.hedged_get("k1") is not None

    def test_hedged_miss_counts_a_miss(self):
        tiered = TieredStore(
            [MemoryStore(), MemoryStore()], hedge=True
        )
        assert tiered.hedged_get("absent") is None
        assert tiered.stats()["misses"] == 1

    def test_fetch_verified_takes_first_verified_tier(self):
        # Tier 0 returns damaged bytes (and stalls); the waterfall keeps
        # scanning and fetch_verified serves tier 1's verified replica.
        corrupting = FaultyStore(
            MemoryStore(),
            FaultPlan(
                11,
                [FaultSpec(kind=KIND_CORRUPT, op=OP_GET, every=1)],
            ),
        )
        tiered = TieredStore(
            [corrupting, MemoryStore()],
            hedge=True,
            hedge_min_delay=0.005,
            hedge_max_delay=0.005,
        )
        tiered.put("k1", attach_checksums(entry_of([5.0, 6.0])))
        entry = fetch_verified(tiered, "k1", sleep=lambda s: None)
        assert entry is not None and verify_entry(entry)
        assert list(entry.arrays["x"]) == [5.0, 6.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TieredStore([MemoryStore()], hedge_quantile=0.0)
        with pytest.raises(ValueError):
            TieredStore(
                [MemoryStore()], hedge_min_delay=0.5, hedge_max_delay=0.1
            )


# ----------------------------------------------------------------------
# Store health: one place for breakers, hedges, corruption
# ----------------------------------------------------------------------
class TestStoreHealth:
    def test_plain_backend_summarises_flat(self):
        store = MemoryStore()
        store.put("k1", entry_of([1.0]))
        store.get("k1")
        store.get("absent")
        health = store_health(store)
        assert health["hits"] == 1 and health["misses"] == 1
        assert health["breakers"] == [] and health["open_breakers"] == 0
        assert health["hedge"]["enabled"] is False

    def test_tiered_health_reports_breakers_and_hedges(self):
        tiered = TieredStore(
            [MemoryStore(), MemoryStore()],
            hedge=True,
            hedge_min_delay=0.001,
            hedge_max_delay=0.001,
        )
        tiered.put("k1", entry_of([1.0]))
        health = store_health(tiered)
        assert [b["state"] for b in health["breakers"]] == [
            "closed",
            "closed",
        ]
        assert health["hedge"]["enabled"] is True
        lines = format_health(health)
        assert any("breaker=closed" in line for line in lines)
        assert any("hedged reads" in line for line in lines)

    def test_roundtrips_through_json_shaped_dicts(self):
        health = health_from_stats(
            {
                "hits": 3,
                "tiers": [{"breaker": {"state": "open", "trips": 2}}],
                "hedge": {"enabled": True, "issued": 4, "wins": 3},
            }
        )
        assert health["open_breakers"] == 1
        assert health["breakers"][0]["trips"] == 2
        assert health["hedge"]["wins"] == 3


# ----------------------------------------------------------------------
# The asyncio front-end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_data():
    catalog = generate_catalog(n_events=3_000, total_annual_rate=30.0)
    yet = generate_yet(catalog, n_trials=400, events_per_trial=20, seed=9)
    elts = [
        generate_elt(catalog, elt_id=i, n_losses=200, seed=70 + i)
        for i in range(4)
    ]
    return catalog, yet, elts


def terms_for(k: int) -> LayerTerms:
    return LayerTerms(
        occ_retention=10.0 * k, occ_limit=900.0 + k, agg_limit=9_000.0
    )


class TestQuoteFrontEnd:
    def test_serves_and_records_latency(self, serve_data):
        catalog, yet, elts = serve_data
        with QuoteService(yet, elts, catalog.n_events, max_workers=2) as svc:
            frontend = QuoteFrontEnd(svc)

            async def scenario():
                return await frontend.quote((0, 1), terms_for(1))

            record = asyncio.run(scenario())
        assert record.quote is not None
        assert frontend.served == 1
        assert frontend.stats()["latency"]["count"] == 1
        assert frontend.gate.inflight() == 0  # lease released

    def test_overload_sheds_typed_and_releases(self, serve_data):
        catalog, yet, elts = serve_data
        with QuoteService(yet, elts, catalog.n_events, max_workers=1) as svc:
            frontend = QuoteFrontEnd(svc, max_inflight=1)

            async def scenario():
                first = asyncio.ensure_future(
                    frontend.quote((0, 1), terms_for(2))
                )
                await asyncio.sleep(0)  # let the leader admit
                shed = None
                try:
                    await frontend.quote((0, 2), terms_for(3))
                except Overloaded as exc:
                    shed = exc
                record = await first
                return shed, record

            shed, record = asyncio.run(scenario())
        assert shed is not None and shed.reason == "depth"
        assert record.quote is not None
        # After the in-flight quote finished, capacity is back.
        assert frontend.gate.inflight() == 0
        assert frontend.stats()["gate"]["shed"] == {"depth": 1}

    def test_identical_candidates_coalesce(self, serve_data):
        catalog, yet, elts = serve_data
        with QuoteService(yet, elts, catalog.n_events, max_workers=2) as svc:
            frontend = QuoteFrontEnd(svc, max_inflight=1)

            async def scenario():
                # One admission slot, five identical requests: four join
                # the leader instead of being shed.
                return await asyncio.gather(
                    *[
                        frontend.quote((0, 1), terms_for(4))
                        for _ in range(5)
                    ]
                )

            records = asyncio.run(scenario())
        assert len(records) == 5
        assert frontend.coalesced == 4
        assert frontend.gate.stats()["admitted"][LANE_INTERACTIVE] == 1
        premiums = {r.quote.premium for r in records}
        assert len(premiums) == 1

    def test_deadline_miss_is_typed_not_silent(self, serve_data):
        catalog, yet, elts = serve_data
        clock = Clock()
        with QuoteService(yet, elts, catalog.n_events, max_workers=1) as svc:
            frontend = QuoteFrontEnd(svc, clock=clock)
            expired = Deadline(0.2, clock=clock)
            clock.advance(1.0)

            async def scenario():
                await frontend.quote((0, 1), terms_for(5), deadline=expired)

            with pytest.raises(DeadlineExceeded):
                asyncio.run(scenario())
        assert frontend.deadline_misses >= 1
        assert frontend.errors == 0

    def test_timeout_and_deadline_are_exclusive(self, serve_data):
        catalog, yet, elts = serve_data
        with QuoteService(yet, elts, catalog.n_events, max_workers=1) as svc:
            frontend = QuoteFrontEnd(svc)

            async def scenario():
                await frontend.quote(
                    (0, 1),
                    terms_for(6),
                    deadline=Deadline.after(1.0),
                    timeout=1.0,
                )

            with pytest.raises(ValueError):
                asyncio.run(scenario())

    def test_paused_brownout_sheds_batch_quotes(self, serve_data):
        """The paused rung closes the batch lane (factor 0.0) while
        interactive quotes are still served."""
        catalog, yet, elts = serve_data
        clock = Clock()
        brownout = BrownoutController(
            window_seconds=10.0,
            min_dwell_seconds=0.5,
            min_samples=4,
            clock=clock,
        )
        with QuoteService(yet, elts, catalog.n_events, max_workers=1) as svc:
            frontend = QuoteFrontEnd(svc, brownout=brownout, clock=clock)
            clock.advance(1.0)
            for _ in range(4):
                brownout.observe(shed=True)
            clock.advance(1.0)
            brownout.observe(shed=True)
            assert brownout.state == STATE_PAUSED

            async def scenario():
                with pytest.raises(Overloaded) as excinfo:
                    await frontend.quote(
                        (0, 1), terms_for(4), lane=LANE_BATCH
                    )
                record = await frontend.quote((0, 1), terms_for(4))
                return excinfo.value, record

            shed, record = asyncio.run(scenario())
        assert shed.reason == "batch-depth"
        assert shed.lane == LANE_BATCH
        assert record.quote is not None

    def test_stats_are_the_one_place(self, serve_data, tmp_path):
        catalog, yet, elts = serve_data
        tiered = TieredStore(
            [MemoryStore(), SharedFileStore(tmp_path / "cache")],
            hedge=True,
        )
        with QuoteService(
            yet, elts, catalog.n_events, max_workers=2, store=tiered
        ) as svc:
            frontend = QuoteFrontEnd(svc)

            async def scenario():
                await frontend.quote((0, 1), terms_for(7))

            asyncio.run(scenario())
            stats = frontend.stats()
        assert stats["requests"]["served"] == 1
        assert stats["brownout"]["state"] == STATE_NORMAL
        assert "losses" in stats["cache"]
        health = stats["store_health"]
        assert [b["state"] for b in health["breakers"]] == [
            "closed",
            "closed",
        ]
        assert health["hedge"]["enabled"] is True

    def test_open_loop_underload_serves_all(self, serve_data):
        catalog, yet, elts = serve_data
        from repro.pricing.realtime import QuoteRequest

        with QuoteService(yet, elts, catalog.n_events, max_workers=2) as svc:
            frontend = QuoteFrontEnd(svc, max_inflight=8)
            requests = [
                QuoteRequest(elt_ids=(0, 1), terms=terms_for(10 + k))
                for k in range(10)
            ]
            report = run_open_loop(frontend, requests, rate_qps=50.0)
        assert report.offered == 10
        assert report.served == 10
        assert report.shed == 0 and report.errored == 0
        row = report.as_row()
        assert row["p99_seconds"] >= row["p50_seconds"]
        assert row["goodput_qps"] > 0
