"""Admission control: shed early, shed typed, protect the interactive lane.

The quote service melts gracefully only if overload is refused at the
*front door*: once requests queue unboundedly, every request's latency
grows without bound and the SLO is lost for all of them.  The gate here
implements the standard discipline:

* a **token bucket** bounds sustained request *rate* (burst-tolerant);
* an **in-flight cap** bounds queue depth (admitted-but-unfinished
  requests), which — by Little's law — bounds the latency of every
  admitted request at roughly ``depth / service_rate``;
* **priority lanes**: interactive quotes may use the whole gate, while
  batch work (bulk re-pricing) is capped at a
  configurable share, scaled down further by the brownout controller —
  so interactive traffic preempts batch work under pressure instead of
  queueing behind it.

Rejections raise :class:`Overloaded` — a *typed* response carrying the
reason and lane, never a silent timeout: the client learns immediately
that it should back off, and the shed is counted per reason in
:meth:`AdmissionGate.stats`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

#: the two admission lanes.
LANE_INTERACTIVE = "interactive"
LANE_BATCH = "batch"
LANES = (LANE_INTERACTIVE, LANE_BATCH)


class Overloaded(Exception):
    """Typed early-shed response: the service refused this request.

    Carries why (``reason``: ``"rate"``, ``"depth"``, ``"batch-depth"``)
    and for which lane, so clients and load generators can distinguish
    shed-by-policy from failure.
    """

    def __init__(self, reason: str, lane: str = LANE_INTERACTIVE) -> None:
        super().__init__(f"overloaded ({reason}, lane={lane})")
        self.reason = reason
        self.lane = lane


class TokenBucket:
    """Sustained-rate limiter: ``rate`` tokens/second, ``burst`` capacity.

    ``try_take`` is non-blocking (admission never queues — that is the
    point); ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate)
        if self.burst < 1.0:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        self._clock = clock
        self._tokens = self.burst
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def try_take(self, n: float = 1.0) -> bool:
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._refilled_at) * self.rate
            )
            self._refilled_at = now
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens


class AdmissionGate:
    """Token-bucket + depth admission with priority lanes.

    Parameters
    ----------
    max_inflight:
        Total admitted-but-unfinished requests across both lanes (the
        queue-depth bound).
    batch_share:
        Fraction of ``max_inflight`` the batch lane may occupy (at
        least one slot when > 0).  The effective share is further
        multiplied by ``batch_factor()`` — the brownout controller's
        throttle, 1.0 in normal operation, smaller (down to 0.0) under
        sustained overload.
    bucket:
        Optional :class:`TokenBucket` bounding sustained rate; ``None``
        leaves rate unbounded (depth alone gates).
    batch_factor:
        Zero-argument callable polled at batch admission time.
    """

    def __init__(
        self,
        max_inflight: int,
        batch_share: float = 0.5,
        bucket: TokenBucket | None = None,
        batch_factor: Callable[[], float] | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if not 0.0 <= batch_share <= 1.0:
            raise ValueError(
                f"batch_share must be in [0, 1], got {batch_share}"
            )
        self.max_inflight = int(max_inflight)
        self.batch_share = float(batch_share)
        self.bucket = bucket
        self._batch_factor = batch_factor or (lambda: 1.0)
        self._lock = threading.Lock()
        self._inflight: Dict[str, int] = {lane: 0 for lane in LANES}
        self.admitted: Dict[str, int] = {lane: 0 for lane in LANES}
        self.shed: Dict[str, int] = {}
        self.peak_inflight = 0

    # ------------------------------------------------------------------
    def batch_limit(self) -> int:
        """Current batch-lane depth cap (brownout-scaled)."""
        factor = max(0.0, min(1.0, float(self._batch_factor())))
        raw = self.max_inflight * self.batch_share * factor
        if raw <= 0.0:
            return 0
        return max(1, int(raw))

    def _shed(self, reason: str, lane: str) -> "Overloaded":
        with self._lock:
            self.shed[reason] = self.shed.get(reason, 0) + 1
        return Overloaded(reason, lane)

    def try_acquire(self, lane: str = LANE_INTERACTIVE) -> str:
        """Admit one request on ``lane`` or raise :class:`Overloaded`.

        Returns the lane (the "lease") to pass back to :meth:`release`.
        Rate is checked first — a rate-shed consumes no depth — then
        lane depth.  The token bucket only meters the batch lane when
        interactive traffic alone is within rate, i.e. batch requests
        draw tokens but an interactive request is never rate-shed in
        favour of earlier batch work beyond the bucket's burst.
        """
        if lane not in self._inflight:
            raise ValueError(f"unknown lane {lane!r} (use one of {LANES})")
        if self.bucket is not None and not self.bucket.try_take():
            raise self._shed("rate", lane)
        with self._lock:
            total = sum(self._inflight.values())
            if total >= self.max_inflight:
                pass  # fall through to the shed below (outside the lock)
            elif lane == LANE_BATCH and (
                self._inflight[LANE_BATCH] >= self.batch_limit()
            ):
                raise self._shed_locked("batch-depth", lane)
            else:
                self._inflight[lane] += 1
                self.admitted[lane] += 1
                self.peak_inflight = max(
                    self.peak_inflight, total + 1
                )
                return lane
        raise self._shed("depth", lane)

    def _shed_locked(self, reason: str, lane: str) -> "Overloaded":
        # already holding self._lock
        self.shed[reason] = self.shed.get(reason, 0) + 1
        return Overloaded(reason, lane)

    def release(self, lease: str) -> None:
        with self._lock:
            if self._inflight.get(lease, 0) < 1:
                raise RuntimeError(
                    f"release without acquire on lane {lease!r}"
                )
            self._inflight[lease] -= 1

    # ------------------------------------------------------------------
    def inflight(self, lane: str | None = None) -> int:
        with self._lock:
            if lane is not None:
                return self._inflight[lane]
            return sum(self._inflight.values())

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "inflight": dict(self._inflight),
                "peak_inflight": self.peak_inflight,
                "admitted": dict(self.admitted),
                "shed": dict(self.shed),
                "batch_limit": self.batch_limit(),
                "tokens": (
                    self.bucket.tokens if self.bucket is not None else None
                ),
            }
