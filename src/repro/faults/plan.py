"""Seeded fault plans: reproducible schedules of injected failures.

A :class:`FaultPlan` is the chaos harness's source of truth: a seed
plus a list of :class:`FaultSpec` rules describing *which* operations
fail, *how*, and *when*.  Decisions are a pure function of
``(seed, rule, operation name, operation count, key, worker)`` — a
SHA-256 draw, never wall-clock or a shared RNG — so the same plan
replays the same fault schedule on every run regardless of thread
interleaving: a chaos failure is a reproducible test case, not a
flake.

The plan itself injects nothing; the wrappers do —
:class:`~repro.faults.store.FaultyStore` consults it on store ops,
:class:`~repro.faults.queue.FaultyQueue` on claims/heartbeats, and the
:class:`~repro.fleet.worker.FleetWorker` on computes (poison/kill
hooks).  Every firing is appended to :attr:`FaultPlan.log`, so tests
can assert a fault actually happened (a chaos run whose faults never
fired proves nothing).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: fault kinds (what goes wrong)
KIND_IO_ERROR = "io_error"  # raise OSError (transient unless unbounded)
KIND_CORRUPT = "corrupt"  # damage the payload handed to the reader
KIND_TORN_WRITE = "torn_write"  # persist a truncated payload
KIND_LATENCY = "latency"  # sleep before the operation proceeds
KIND_KILL = "kill"  # the worker dies on the spot (no cleanup)
KIND_STALL_HEARTBEAT = "stall_heartbeat"  # heartbeats stop landing
KIND_DUPLICATE_CLAIM = "duplicate_claim"  # a claimed job is handed out again
KIND_POISON = "poison"  # the compute raises
KIND_DROP = "drop"  # the connection is severed mid-RPC

#: operations fault specs can attach to
OP_GET = "get"
OP_PUT = "put"
OP_CONTAINS = "contains"
OP_DELETE = "delete"
OP_CLAIM = "claim"
OP_HEARTBEAT = "heartbeat"
OP_COMPUTE = "compute"
OP_SEND = "send"  # wire: client about to transmit a request
OP_RECV = "recv"  # wire: client about to read a response


class InjectedFault(RuntimeError):
    """A deliberately injected failure (poison computes, forced errors)."""


class WorkerKilled(BaseException):
    """An injected worker death.

    Deliberately **not** an :class:`Exception`: a killed worker must
    not be caught by the worker's normal job-failure handling (which
    would requeue the job and keep the worker alive).  It unwinds the
    worker loop like a real crash — the claimed job stays claimed, the
    heartbeat stops, and recovery is entirely the *peers'* job (lease
    expiry + requeue), exactly as with a SIGKILLed process.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: what fires, on which operations, how often.

    Scheduling fields (combine freely; all present must agree):

    * ``at`` — fire on exactly the Nth matching operation (1-based);
    * ``every`` — fire on every Nth matching operation;
    * ``probability`` — seeded per-operation coin flip;
    * ``times`` — stop after this many firings (bounds transient
      faults; ``None`` means unbounded — durable damage).

    Matching fields restrict which operations the rule sees at all:
    ``op`` (required), ``key_substring`` (store key / job id) and
    ``worker_substring`` (worker id).
    """

    kind: str
    op: str
    at: Optional[int] = None
    every: Optional[int] = None
    probability: float = 0.0
    times: Optional[int] = None
    key_substring: Optional[str] = None
    worker_substring: Optional[str] = None
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.at is not None and self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if (
            self.at is None
            and self.every is None
            and self.probability == 0.0
        ):
            raise ValueError(
                "a FaultSpec needs a schedule: at=, every= or probability="
            )

    def matches(self, op: str, key: str | None, worker: str | None) -> bool:
        if op != self.op:
            return False
        if self.key_substring is not None and (
            key is None or self.key_substring not in key
        ):
            return False
        if self.worker_substring is not None and (
            worker is None or self.worker_substring not in worker
        ):
            return False
        return True


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (the plan's audit log row)."""

    kind: str
    op: str
    count: int
    key: Optional[str]
    worker: Optional[str]
    spec_index: int


class FaultPlan:
    """A seeded, thread-safe schedule of fault events.

    ``fire(op, key=..., worker=...)`` advances each matching spec's
    operation counter, decides deterministically whether it fires, logs
    what fired and returns the fired specs — the wrappers translate
    them into raised errors, damaged payloads, sleeps or deaths.

    Thread safety: counters and the log sit behind one lock, so a fleet
    of worker threads sees a single global operation order.  (That
    order can vary across runs when threads race — the *per-count*
    decisions stay deterministic, which is what `at=`/`every=`/seeded
    probability schedules key on.)
    """

    def __init__(self, seed: int, specs: List[FaultSpec]) -> None:
        self.seed = int(seed)
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._lock = threading.Lock()
        self._counts: Dict[int, int] = {i: 0 for i in range(len(self.specs))}
        self._fired: Dict[int, int] = {i: 0 for i in range(len(self.specs))}
        self.log: List[FaultEvent] = []

    # ------------------------------------------------------------------
    def _draw(self, spec_index: int, op: str, count: int, key: str | None) -> float:
        """Deterministic uniform [0, 1) for one (spec, operation) event."""
        material = f"{self.seed}:{spec_index}:{op}:{count}:{key or ''}"
        digest = hashlib.sha256(material.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def fire(
        self,
        op: str,
        key: str | None = None,
        worker: str | None = None,
        keys: Sequence[str] | None = None,
    ) -> List[FaultSpec]:
        """Advance counters for ``op`` and return the specs that fire.

        ``keys`` describes a batch operation: each key-targeted spec is
        evaluated once per key it carries (as on the per-key operations
        the batch replaces), every other spec once for the operation.
        """
        fired: List[FaultSpec] = []
        with self._lock:
            for i, spec in enumerate(self.specs):
                keyed = keys is not None and spec.key_substring is not None
                for target in keys if keyed else [key]:
                    if spec.matches(op, target, worker) and self._hit(
                        i, spec, op, target
                    ):
                        fired.append(spec)
                        self.log.append(
                            FaultEvent(
                                kind=spec.kind,
                                op=op,
                                count=self._counts[i],
                                key=target,
                                worker=worker,
                                spec_index=i,
                            )
                        )
        return fired

    def _hit(self, i: int, spec: FaultSpec, op: str, key: str | None) -> bool:
        """Count one matching operation for spec ``i``; does it fire?"""
        self._counts[i] += 1
        count = self._counts[i]
        if spec.times is not None and self._fired[i] >= spec.times:
            return False
        hit = (
            (spec.at is not None and count == spec.at)
            or (spec.every is not None and count % spec.every == 0)
            or (
                spec.probability > 0.0
                and self._draw(i, op, count, key) < spec.probability
            )
        )
        if hit:
            self._fired[i] += 1
        return hit

    # ------------------------------------------------------------------
    def fired_counts(self) -> Dict[str, int]:
        """Total firings by fault kind (chaos-report bookkeeping)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for event in self.log:
                counts[event.kind] = counts.get(event.kind, 0) + 1
            return counts

    def n_fired(self, kind: str | None = None) -> int:
        with self._lock:
            return sum(
                1 for e in self.log if kind is None or e.kind == kind
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(seed={self.seed}, specs={len(self.specs)}, "
            f"fired={len(self.log)})"
        )


def no_faults(seed: int = 0) -> FaultPlan:
    """An empty plan (the fault-free baseline runs through the same code)."""
    return FaultPlan(seed, [])
