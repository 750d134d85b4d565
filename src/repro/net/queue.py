"""``RemoteJobQueue``: the ``JobQueue`` contract over the wire.

A drop-in duck type for :class:`~repro.fleet.jobs.JobQueue` — every
method a :class:`~repro.fleet.worker.FleetWorker`, sweep submitter or
CLI touches exists here with the same signature and semantics, but each
is one RPC to the reference server's queue front instead of a
filesystem operation.

What the transport must preserve (and how it does):

* **Atomic claims** — the rename(2) race happens *on the server*
  against its local directory queue; N workers claiming over N sockets
  contend exactly like N processes on a shared filesystem.
* **Server-authoritative leases** — ``heartbeat`` and ``requeue_expired``
  carry no timestamps; the server touches and ages claim files on its
  own clock, so a worker machine's skewed wall clock cannot distort
  lease arithmetic (the clamp in ``JobQueue._lease_age`` remains as
  defence for the server's *own* mtime anomalies).
* **Benign drops** — a reply lost after the server acted is always
  safe: a dropped claim reply leaves the job leased to a worker that
  never heard of it, and the lease expires it back to ``pending/``; a
  dropped complete reply at worst re-runs a job whose result is
  already a store hit.  Exactly-once *effects* still come from the
  store, never the queue.
* **Failure provenance** — ``fail`` serialises the exception type and
  cause chain client-side (exception objects cannot cross the wire)
  and the server appends the same history record the local queue
  would.

Retry/breaker behaviour mirrors :class:`~repro.net.client.RemoteStore`;
pass the *same* :class:`~repro.net.client.WireTransport` to share one
socket pool with the store client when both point at one server.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.fleet.jobs import FleetJob, exception_chain
from repro.net.client import WIRE_RETRY_POLICY, WireTransport
from repro.utils.retry import CircuitBreaker, RetryPolicy, retry_call


class RemoteJobQueue:
    """A network client speaking the server's queue ops.

    Parameters mirror :class:`~repro.net.client.RemoteStore`; pass
    ``transport`` to share a socket pool with a store client.
    ``lease_seconds`` / ``max_attempts`` are the *server's* values,
    fetched once and cached — workers derive heartbeat cadence and
    speculation ages from them, so they must agree fleet-wide.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9410,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        retry_policy: RetryPolicy = WIRE_RETRY_POLICY,
        breaker: Optional[CircuitBreaker] = None,
        transport: Optional[WireTransport] = None,
        fault_plan=None,
    ) -> None:
        self.transport = transport or WireTransport(
            host,
            port,
            connect_timeout=connect_timeout,
            request_timeout=request_timeout,
            fault_plan=fault_plan,
        )
        self.retry_policy = retry_policy
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=5, cooldown_seconds=15.0
        )
        self._mutex = threading.Lock()
        self._config: Optional[Tuple[float, int]] = None
        self.rpc_retries = 0

    # -- plumbing ------------------------------------------------------
    def _rpc(self, header: Dict[str, Any]) -> Dict[str, Any]:
        with self._mutex:
            if not self.breaker.allow():
                raise OSError(
                    f"remote queue breaker open for "
                    f"{self.transport.host}:{self.transport.port}"
                )

        def count_retry(attempt: int, exc: BaseException, delay: float) -> None:
            with self._mutex:
                self.rpc_retries += 1

        try:
            reply, _ = retry_call(
                lambda: self.transport.request(header),
                self.retry_policy,
                on_retry=count_retry,
            )
        except OSError:
            with self._mutex:
                self.breaker.record_failure()
            raise
        with self._mutex:
            self.breaker.record_success()
        return reply

    def _get_config(self) -> Tuple[float, int]:
        with self._mutex:
            cached = self._config
        if cached is not None:
            return cached
        reply = self._rpc({"op": "qconfig"})
        config = (float(reply["lease_seconds"]), int(reply["max_attempts"]))
        with self._mutex:
            self._config = config
        return config

    @property
    def lease_seconds(self) -> float:
        return self._get_config()[0]

    @property
    def max_attempts(self) -> int:
        return self._get_config()[1]

    def ensure(self) -> None:
        """Directory creation is the server's concern; this probes it."""
        self._get_config()

    # -- submission / sweeps -------------------------------------------
    def submit(self, jobs: List[FleetJob]) -> int:
        return len(self.submit_ids(jobs))

    def submit_ids(self, jobs: List[FleetJob]) -> List[str]:
        reply = self._rpc(
            {"op": "qsubmit", "jobs": [job.to_json() for job in jobs]}
        )
        return [str(job_id) for job_id in reply.get("added_ids") or []]

    def save_sweep(self, sweep_id: str, manifest: Dict[str, Any]) -> None:
        self._rpc(
            {"op": "qsave_sweep", "sweep_id": sweep_id, "manifest": manifest}
        )

    def load_sweep(self, sweep_id: str) -> Optional[Dict[str, Any]]:
        reply = self._rpc({"op": "qload_sweep", "sweep_id": sweep_id})
        return reply.get("manifest")

    def sweep_ids(self) -> List[str]:
        return list(self._rpc({"op": "qsweep_ids"}).get("sweep_ids") or [])

    # -- claim / lease / complete --------------------------------------
    def claim(
        self, worker_id: str | None = None, sweep_id: str | None = None
    ) -> Optional[FleetJob]:
        reply = self._rpc(
            {"op": "qclaim", "worker_id": worker_id, "sweep_id": sweep_id}
        )
        data = reply.get("job")
        return None if data is None else FleetJob.from_json(data)

    def heartbeat(self, job: FleetJob) -> bool:
        # A heartbeat that cannot reach the server is a *failed*
        # heartbeat, not an error: the worker keeps computing and the
        # lease question resolves on the server (peer requeue at worst
        # duplicates a claim; the store dedups the compute).
        try:
            reply = self._rpc({"op": "qheartbeat", "job": job.to_json()})
        except OSError:
            return False
        return bool(reply.get("alive"))

    def complete(self, job: FleetJob) -> bool:
        reply = self._rpc({"op": "qcomplete", "job": job.to_json()})
        return bool(reply.get("completed"))

    def fail(
        self,
        job: FleetJob,
        error: str,
        requeue: bool = True,
        exc: BaseException | None = None,
    ) -> str:
        reply = self._rpc(
            {
                "op": "qfail",
                "job": job.to_json(),
                "error": str(error),
                "requeue": bool(requeue),
                # provenance crosses the wire pre-serialised
                "exc_type": type(exc).__name__ if exc is not None else None,
                "chain": exception_chain(exc) if exc is not None else [],
            }
        )
        return str(reply.get("state", "lost"))

    def requeue_expired(self, now: float | None = None) -> List[str]:
        # ``now`` is accepted for signature compatibility but NOT sent:
        # expiry is judged on the server's clock, which is the point.
        reply = self._rpc({"op": "qrequeue"})
        return list(reply.get("requeued") or [])

    # -- introspection -------------------------------------------------
    def find(self, job_id: str) -> Optional[str]:
        return self._rpc({"op": "qfind", "job_id": job_id}).get("state")

    def counts(self, sweep_id: str | None = None) -> Dict[str, int]:
        reply = self._rpc({"op": "qcounts", "sweep_id": sweep_id})
        return dict(reply.get("counts") or {})

    def active_count(self, sweep_id: str | None = None) -> int:
        reply = self._rpc({"op": "qactive", "sweep_id": sweep_id})
        return int(reply.get("active", 0))

    def jobs(
        self, state: str, sweep_id: str | None = None
    ) -> Iterator[FleetJob]:
        reply = self._rpc(
            {"op": "qjobs", "state": state, "sweep_id": sweep_id}
        )
        for data in reply.get("jobs") or []:
            yield FleetJob.from_json(data)

    def stragglers(
        self,
        min_age_fraction: float = 0.5,
        sweep_id: str | None = None,
        now: float | None = None,
    ) -> List[FleetJob]:
        reply = self._rpc(
            {
                "op": "qstragglers",
                "min_age_fraction": min_age_fraction,
                "sweep_id": sweep_id,
            }
        )
        return [FleetJob.from_json(d) for d in reply.get("jobs") or []]

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.transport.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RemoteJobQueue({self.transport.host}:{self.transport.port}, "
            f"breaker={self.breaker.state})"
        )
