"""Brownout: degrade deliberately, in stages, and visibly.

Under sustained overload the service sheds in a fixed order — the
cheapest traffic first, the freshest last:

``normal``
    everything runs; batch lanes get their full configured share.
``brownout``
    the shed rate over the sliding window crossed ``enter_threshold``:
    batch admission is throttled to ``brownout_batch_factor`` of its
    share (interactive quotes are untouched).
``paused``
    pressure persisted a full window *while already browned out*:
    batch admission stops entirely (batch factor 0.0) until pressure
    clears.

Recovery runs the ladder in reverse with hysteresis: the shed rate must
fall below ``exit_threshold`` (< ``enter_threshold``) for a full
``min_dwell_seconds`` before stepping down one stage, so the controller
never flaps on a noisy boundary.

Every admission outcome is reported to :meth:`observe`; every state
change lands in :attr:`transitions` (and the counters in
:meth:`stats`), so a load test can assert not just *that* the service
degraded but that it degraded in the documented order.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

STATE_NORMAL = "normal"
STATE_BROWNOUT = "brownout"
STATE_PAUSED = "paused"
STATES = (STATE_NORMAL, STATE_BROWNOUT, STATE_PAUSED)

#: escalation order (index = severity).
_LADDER = {state: rank for rank, state in enumerate(STATES)}


class BrownoutController:
    """Sliding-window shed-rate state machine with hysteresis.

    Parameters
    ----------
    window_seconds:
        Width of the sliding window over which the shed rate is
        measured.
    enter_threshold / exit_threshold:
        Shed-rate fractions: escalate one stage when the windowed rate
        reaches ``enter_threshold``; de-escalate one stage only after
        the rate has stayed below ``exit_threshold`` for
        ``min_dwell_seconds``.  ``exit < enter`` gives the hysteresis
        band.
    min_dwell_seconds:
        Minimum time in a stage before moving (either direction), so a
        single burst cannot ratchet straight to ``paused`` and a single
        quiet tick cannot un-pause.
    brownout_batch_factor:
        Batch-share multiplier while browned out (1.0 when normal,
        0.0 when paused).
    min_samples:
        Admission outcomes required in the window before the rate is
        trusted (an empty window is not "0% shed").
    clock:
        Injectable monotonic clock for deterministic tests.
    """

    def __init__(
        self,
        window_seconds: float = 2.0,
        enter_threshold: float = 0.5,
        exit_threshold: float = 0.1,
        min_dwell_seconds: float = 1.0,
        brownout_batch_factor: float = 0.25,
        min_samples: int = 10,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        if not 0.0 < exit_threshold < enter_threshold <= 1.0:
            raise ValueError(
                "need 0 < exit_threshold < enter_threshold <= 1, got "
                f"exit={exit_threshold}, enter={enter_threshold}"
            )
        if not 0.0 <= brownout_batch_factor <= 1.0:
            raise ValueError(
                f"brownout_batch_factor must be in [0, 1], "
                f"got {brownout_batch_factor}"
            )
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.window_seconds = float(window_seconds)
        self.enter_threshold = float(enter_threshold)
        self.exit_threshold = float(exit_threshold)
        self.min_dwell_seconds = float(min_dwell_seconds)
        self.brownout_batch_factor = float(brownout_batch_factor)
        self.min_samples = int(min_samples)
        self._clock = clock
        self._lock = threading.Lock()
        #: (timestamp, was_shed) admission outcomes inside the window.
        self._events: Deque[Tuple[float, bool]] = deque()
        self._state = STATE_NORMAL
        self._entered_at = clock()
        #: (timestamp, from_state, to_state, shed_rate) history.
        self.transitions: List[Tuple[float, str, str, float]] = []

    # ------------------------------------------------------------------
    def _trim(self, now: float) -> None:
        cutoff = now - self.window_seconds
        while self._events and self._events[0][0] < cutoff:
            self._events.popleft()

    def _shed_rate(self, now: float) -> float | None:
        """Windowed shed fraction, or ``None`` below ``min_samples``."""
        self._trim(now)
        if len(self._events) < self.min_samples:
            return None
        shed = sum(1 for _, was_shed in self._events if was_shed)
        return shed / len(self._events)

    def _move(self, to_state: str, now: float, rate: float) -> None:
        self.transitions.append((now, self._state, to_state, rate))
        self._state = to_state
        self._entered_at = now

    def observe(self, shed: bool) -> str:
        """Record one admission outcome; returns the (possibly new) state.

        Escalation and recovery both require ``min_dwell_seconds`` in
        the current stage, and move exactly one rung per call — the
        ladder is walked, never jumped.
        """
        with self._lock:
            now = self._clock()
            self._events.append((now, bool(shed)))
            rate = self._shed_rate(now)
            if rate is None:
                return self._state
            dwelled = (now - self._entered_at) >= self.min_dwell_seconds
            rank = _LADDER[self._state]
            if rate >= self.enter_threshold and dwelled and rank < len(STATES) - 1:
                self._move(STATES[rank + 1], now, rate)
            elif rate < self.exit_threshold and dwelled and rank > 0:
                self._move(STATES[rank - 1], now, rate)
            return self._state

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def batch_factor(self) -> float:
        """Multiplier for the batch lane's admission share.

        This is what :class:`~repro.serve.admission.AdmissionGate`
        polls: 1.0 normal, ``brownout_batch_factor`` browned out, 0.0
        paused — batch lanes throttle first.
        """
        state = self.state
        if state == STATE_NORMAL:
            return 1.0
        if state == STATE_BROWNOUT:
            return self.brownout_batch_factor
        return 0.0

    def stats(self) -> Dict[str, object]:
        with self._lock:
            now = self._clock()
            rate = self._shed_rate(now)
            return {
                "state": self._state,
                "batch_factor": (
                    1.0
                    if self._state == STATE_NORMAL
                    else self.brownout_batch_factor
                    if self._state == STATE_BROWNOUT
                    else 0.0
                ),
                "shed_rate_window": rate,
                "window_samples": len(self._events),
                "seconds_in_state": now - self._entered_at,
                "transitions": [
                    {
                        "at": at,
                        "from": src,
                        "to": dst,
                        "shed_rate": round(shed_rate, 4),
                    }
                    for at, src, dst, shed_rate in self.transitions
                ],
            }
