"""The asyncio quote front-end: SLO-grade serving over ``QuoteService``.

:class:`QuoteFrontEnd` is the layer a network server would mount: it
wraps a :class:`~repro.pricing.realtime.QuoteService` (and, through it,
the plan cache, the tiered store and the fleet queue) with the serving
disciplines that keep an overloaded service *predictable*:

* **admission control** — every request passes the
  :class:`~repro.serve.admission.AdmissionGate` before touching a
  worker; excess load is refused with the typed
  :class:`~repro.serve.admission.Overloaded`, never queued into
  oblivion;
* **deadline propagation** — a request's budget
  (:class:`~repro.utils.retry.Deadline`) rides from the front door
  through the quote pool, the plan caches, the store fetches and the
  retry loops; expired work is cancelled where it stands, not computed;
* **request coalescing** — identical in-flight candidates
  ``(elt_ids, terms, layer_id)`` share one computation; joiners await
  the leader's future (each bounded by its *own* deadline) on top of
  the plan-level cache's in-flight dedup;
* **brownout** — sustained shedding walks the
  :class:`~repro.serve.brownout.BrownoutController` ladder: batch lanes
  throttle first, then sweep submission pauses, every transition
  visible in :meth:`stats`.

The front-end never changes what a quote *is*: admitted requests
produce records bit-for-bit identical to a direct
:meth:`~repro.pricing.realtime.QuoteService.quote` (and therefore to a
sequential engine run).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Iterable, Sequence, Tuple

from repro.data.layer import LayerTerms
from repro.pricing.realtime import QuoteRecord, QuoteRequest, QuoteService
from repro.serve.admission import (
    LANE_BATCH,
    LANE_INTERACTIVE,
    AdmissionGate,
    Overloaded,
    TokenBucket,
)
from repro.serve.brownout import BrownoutController
from repro.store.health import health_from_stats
from repro.utils.latency import LatencyTracker
from repro.utils.retry import Deadline, DeadlineExceeded


class QuoteFrontEnd:
    """Admission-controlled, deadline-aware asyncio facade over a
    :class:`~repro.pricing.realtime.QuoteService`.

    Parameters
    ----------
    service:
        The quote service doing the actual pricing (owns the worker
        pool, the plan caches and the optional store).
    max_inflight:
        Depth bound of the admission gate (default: twice the service's
        worker count — one computing, one on deck per worker).
    rate / burst:
        Optional sustained-rate bound (a
        :class:`~repro.serve.admission.TokenBucket`); ``None`` gates on
        depth alone.
    batch_share:
        Fraction of ``max_inflight`` the batch lane may hold in normal
        operation (brownout scales it down from there).
    brownout:
        A :class:`~repro.serve.brownout.BrownoutController`; the default
        is tuned for test/benchmark time scales (2 s window).
    clock:
        Injectable monotonic clock shared with deadlines and latency
        accounting.
    """

    def __init__(
        self,
        service: QuoteService,
        max_inflight: int | None = None,
        rate: float | None = None,
        burst: float | None = None,
        batch_share: float = 0.5,
        brownout: BrownoutController | None = None,
        clock=time.monotonic,
    ) -> None:
        self.service = service
        self._clock = clock
        self.brownout = brownout or BrownoutController(clock=clock)
        if max_inflight is None:
            max_inflight = 2 * service.max_workers
        bucket = (
            TokenBucket(rate, burst, clock=clock) if rate is not None else None
        )
        self.gate = AdmissionGate(
            max_inflight=max_inflight,
            batch_share=batch_share,
            bucket=bucket,
            batch_factor=self.brownout.batch_factor,
        )
        self.latency = LatencyTracker(maxlen=4096)
        #: in-flight shared futures keyed by candidate identity.
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        self.served = 0
        self.coalesced = 0
        self.deadline_misses = 0
        self.errors = 0
        self.sweeps_rejected = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _key(
        elt_ids: Sequence[int], terms: LayerTerms, layer_id: int
    ) -> Tuple:
        return (
            tuple(int(e) for e in elt_ids),
            terms.as_tuple(),
            int(layer_id),
        )

    async def _await_shared(
        self, shared: asyncio.Future, deadline: Deadline | None
    ) -> QuoteRecord:
        """Await the shared computation, bounded by *this* request's
        budget.  ``shield`` keeps a joiner's timeout from cancelling the
        leader's computation (other requesters still want it)."""
        if deadline is None:
            return await asyncio.shield(shared)
        try:
            return await asyncio.wait_for(
                asyncio.shield(shared), timeout=deadline.remaining()
            )
        except asyncio.TimeoutError:
            self.deadline_misses += 1
            raise DeadlineExceeded(
                "quote missed its deadline awaiting the shared computation"
            ) from None

    async def quote(
        self,
        elt_ids: Sequence[int],
        terms: LayerTerms,
        layer_id: int = 9999,
        lane: str = LANE_INTERACTIVE,
        deadline: Deadline | None = None,
        timeout: float | None = None,
    ) -> QuoteRecord:
        """Price one candidate under admission control and a deadline.

        Raises :class:`~repro.serve.admission.Overloaded` when shed at
        the gate (typed, immediate — the request consumed no worker
        time) and :class:`~repro.utils.retry.DeadlineExceeded` when the
        budget (``deadline``, or ``timeout`` seconds from now) expires
        first.  An identical candidate already in flight is *coalesced*:
        no new admission, no new work, just an awaited share of the
        leader's result.
        """
        if timeout is not None:
            if deadline is not None:
                raise ValueError("pass deadline or timeout, not both")
            deadline = Deadline.after(timeout, clock=self._clock)
        key = self._key(elt_ids, terms, layer_id)
        shared = self._inflight.get(key)
        if shared is not None and not shared.done():
            self.coalesced += 1
            return await self._await_shared(shared, deadline)

        try:
            lease = self.gate.try_acquire(lane)
        except Overloaded:
            self.brownout.observe(shed=True)
            raise
        self.brownout.observe(shed=False)

        started = self._clock()
        shared = asyncio.wrap_future(
            self.service.quote_async(
                list(key[0]), terms, layer_id=layer_id, deadline=deadline
            )
        )
        self._inflight[key] = shared

        def _settle(fut: asyncio.Future) -> None:
            # Runs on the event loop when the *computation* finishes —
            # that, not the leader's await, is when gate capacity frees.
            self.gate.release(lease)
            if self._inflight.get(key) is fut:
                del self._inflight[key]
            if fut.cancelled():
                self.errors += 1
                return
            exc = fut.exception()
            if exc is None:
                self.served += 1
                self.latency.record(self._clock() - started)
            elif isinstance(exc, DeadlineExceeded):
                self.deadline_misses += 1
            else:
                self.errors += 1

        shared.add_done_callback(_settle)
        return await self._await_shared(shared, deadline)

    async def quote_request(
        self,
        request: QuoteRequest,
        lane: str = LANE_INTERACTIVE,
        deadline: Deadline | None = None,
        timeout: float | None = None,
    ) -> QuoteRecord:
        """:meth:`quote` over a prepared :class:`QuoteRequest`."""
        return await self.quote(
            request.elt_ids,
            request.terms,
            layer_id=request.layer_id,
            lane=lane,
            deadline=deadline,
            timeout=timeout,
        )

    # ------------------------------------------------------------------
    def enqueue_quotes(
        self,
        queue,
        requests: Iterable[QuoteRequest | Tuple],
        **kwargs: Any,
    ):
        """Brownout-gated fleet offload.

        Delegates to
        :meth:`~repro.pricing.realtime.QuoteService.enqueue_quotes`
        unless the brownout controller has escalated to ``paused`` — the
        last rung of the degradation ladder stops feeding the fleet new
        sweeps while interactive traffic is being shed.
        """
        if not self.brownout.allow_sweep_submission():
            self.sweeps_rejected += 1
            raise Overloaded("sweeps-paused", LANE_BATCH)
        return self.service.enqueue_quotes(queue, requests, **kwargs)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The whole serving picture in one dict.

        Gate occupancy and sheds, brownout
        state and transitions, request outcomes and admitted-latency
        percentiles, the plan caches, and — when store-backed — the flattened
        store health (breaker states, degradation counters, hedged-read
        wins/losses via :func:`repro.store.health.health_from_stats`).
        """
        cache = self.service.cache_stats()
        out: Dict[str, object] = {
            "gate": self.gate.stats(),
            "brownout": self.brownout.stats(),
            "requests": {
                "served": self.served,
                "coalesced": self.coalesced,
                "deadline_misses": self.deadline_misses,
                "errors": self.errors,
                "sweeps_rejected": self.sweeps_rejected,
            },
            "latency": self.latency.summary(),
            "cache": cache,
        }
        if self.service.store is not None:
            out["store_health"] = health_from_stats(cache["store"])
        return out
