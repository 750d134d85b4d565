"""The client side: a pooled wire transport and ``RemoteStore``.

:class:`WireTransport` owns the sockets: a small pool of connections to
one server, connect/request timeouts, and the chaos hook — a seeded
:class:`~repro.faults.plan.FaultPlan` consulted before every send
(``OP_SEND``) and receive (``OP_RECV``), so wire latency, connection
drops and IO errors replay deterministically like every other injected
fault in the stack.

:class:`RemoteStore` is a full :class:`~repro.store.base.ResultStore`
over that transport.  Design choices worth naming:

* **Every RPC is retried** under a bounded
  :class:`~repro.utils.retry.RetryPolicy` and scored against one
  per-server :class:`~repro.utils.retry.CircuitBreaker`.  The breaker
  opening makes the store fail fast with ``OSError`` — which is
  exactly what :class:`~repro.store.filestore.TieredStore` expects
  from a sick tier, so slotting a ``RemoteStore`` into a tier list
  buys hedged reads, quarantine and graceful degradation with no new
  code.
* **Retries are safe by construction.**  GET/CONTAINS/STATS and the
  batched GET_MANY/CONTAINS_MANY are pure reads; PUT/PUT_MANY/DELETE
  are idempotent because keys are content-addressed (two puts of one key
  carry identical bytes).  A dropped connection mid-RPC therefore
  costs one reconnect-and-retry, never a wrong state.
* **Bulk paths are batched.**  ``contains_many``/``get_many``/
  ``put_many`` carry :data:`~repro.store.base.BATCH_KEYS` keys per
  round trip, so a warm sweep's probe and gather, and a fleet run's
  writes, cost O(1) RPCs, not one per segment.
* **Cross-machine ``get_or_compute`` dedup** uses the server's
  lease-based LOCK op: ``_exclusive`` polls for the lock and releases
  it on exit.  When the server is unreachable the guard degrades to a
  pass-through — the same trade :func:`~repro.io.atomic.lock_file`
  makes on filesystems without flock: a duplicate compute deduped by
  content-addressed keys, never a stalled fleet.
"""

from __future__ import annotations

import contextlib
import logging
import socket
import threading
import time
import uuid
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import (
    KIND_DROP,
    KIND_IO_ERROR,
    KIND_LATENCY,
    OP_RECV,
    OP_SEND,
    FaultPlan,
)
from repro.net.protocol import (
    WireProtocolError,
    decode_entry,
    encode_entries,
    encode_entry,
    pack_message,
    raise_for_header,
    read_frame_size,
    unpack_payload,
)
from repro.store.base import (
    BATCH_KEYS,
    ResultStore,
    StoreEntry,
    check_entries,
    check_keys,
)
from repro.utils.retry import CircuitBreaker, RetryPolicy, retry_call

logger = logging.getLogger("repro.net.client")

#: wire flavour of the stack default: one more attempt than local disk
#: (a dropped connection is routine, not alarming), bounded overall.
WIRE_RETRY_POLICY = RetryPolicy(
    max_attempts=4, base_delay=0.02, max_delay=0.5, deadline_seconds=10.0
)


class WireTransport:
    """A pool of framed connections to one ``repro-kv-server``.

    ``request(header, blobs)`` is the whole API: borrow a socket, send
    one frame, read one frame back, return the socket to the pool.  Any
    socket that saw an error is closed, not pooled — the next request
    dials fresh.  Thread-safe; one transport is shared by a
    ``RemoteStore`` and a ``RemoteJobQueue`` talking to the same
    server.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        pool_size: int = 4,
        fault_plan: Optional[FaultPlan] = None,
        worker_id: Optional[str] = None,
    ) -> None:
        if connect_timeout <= 0 or request_timeout <= 0:
            raise ValueError("transport timeouts must be > 0")
        self.host = str(host)
        self.port = int(port)
        self.connect_timeout = float(connect_timeout)
        self.request_timeout = float(request_timeout)
        self.pool_size = int(pool_size)
        self.fault_plan = fault_plan
        self.worker_id = worker_id
        self._pool: List[socket.socket] = []
        self._mutex = threading.Lock()
        self.requests = 0
        self.reconnects = 0

    # -- socket pool ---------------------------------------------------
    def _checkout(self) -> socket.socket:
        with self._mutex:
            if self._pool:
                return self._pool.pop()
        self.reconnects += 1
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.request_timeout)
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._mutex:
            if len(self._pool) < self.pool_size:
                self._pool.append(sock)
                return
        sock.close()

    def close(self) -> None:
        with self._mutex:
            pool, self._pool = self._pool, []
        for sock in pool:
            with contextlib.suppress(OSError):
                sock.close()

    # -- chaos hook ----------------------------------------------------
    def _inject(
        self,
        op: str,
        key: Optional[str],
        sock: socket.socket,
        keys: Optional[Sequence[str]] = None,
    ) -> None:
        """Apply any scheduled wire fault for ``op`` (send/recv).

        A batch request passes its ``keys``: key-targeted fault specs
        then fire for each key it carries, as they would on the per-key
        requests the batch replaces.
        """
        if self.fault_plan is None:
            return
        fired = self.fault_plan.fire(
            op, key=key, worker=self.worker_id, keys=keys
        )
        for spec in fired:
            if spec.kind == KIND_LATENCY:
                time.sleep(spec.latency_seconds)
            elif spec.kind == KIND_DROP:
                # Sever the connection the way a mid-RPC network
                # partition would.  On OP_RECV the request is already
                # on the wire — the server acts, the reply is lost —
                # and raising here (rather than letting the pending
                # read race the in-flight reply) makes the loss
                # deterministic; the retry path dials fresh.
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)
                raise WireProtocolError(
                    f"injected connection drop on {op} of {key!r}"
                )
            elif spec.kind == KIND_IO_ERROR:
                raise WireProtocolError(
                    f"injected wire fault on {op} of {key!r}"
                )

    # -- one RPC -------------------------------------------------------
    def request(
        self,
        header: Dict[str, Any],
        blobs: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """One framed round trip.  Raises ``OSError`` flavours on any
        transport trouble (retryable), ``ValueError`` on server-rejected
        requests (not retryable)."""
        key = header.get("key") or header.get("job_id")
        keys = header.get("keys")
        frame = pack_message(header, blobs)
        sock = self._checkout()
        try:
            self._inject(OP_SEND, key, sock, keys)
            sock.sendall(frame)
            self._inject(OP_RECV, key, sock, keys)
            prefix = self._read_exact(sock, 8)
            payload = self._read_exact(sock, read_frame_size(prefix))
        except BaseException:
            with contextlib.suppress(OSError):
                sock.close()
            raise
        else:
            self._checkin(sock)
        finally:
            with self._mutex:
                self.requests += 1
        reply_header, reply_blobs = unpack_payload(payload)
        raise_for_header(reply_header)
        return reply_header, reply_blobs

    @staticmethod
    def _read_exact(sock: socket.socket, n: int) -> bytes:
        chunks: List[bytes] = []
        remaining = n
        while remaining > 0:
            chunk = sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise WireProtocolError(
                    f"connection closed {remaining} bytes short of a frame"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)


class _ServerLockGuard:
    """``_exclusive`` over the server's lease-based LOCK op.

    Polls ``lock`` until granted (bounded by ``acquire_timeout``), then
    releases on exit.  Degrades to a pass-through when the server
    cannot be reached or the wait times out — the
    :func:`~repro.io.atomic.lock_file` trade: duplicate compute beats
    stalled fleet.
    """

    def __init__(
        self,
        store: "RemoteStore",
        key: str,
        acquire_timeout: float,
        poll_interval: float = 0.05,
    ) -> None:
        self.store = store
        self.key = key
        self.acquire_timeout = acquire_timeout
        self.poll_interval = poll_interval
        self.owner = f"{store.client_id}:{uuid.uuid4().hex[:8]}"
        self.acquired = False

    def __enter__(self) -> bool:
        deadline = time.monotonic() + self.acquire_timeout
        while True:
            try:
                header, _ = self.store._rpc(
                    {"op": "lock", "key": self.key, "owner": self.owner}
                )
            except OSError:
                return False  # degraded: proceed unlocked
            if header.get("acquired"):
                self.acquired = True
                return True
            if time.monotonic() >= deadline:
                return False  # holder outlived our patience; proceed
            time.sleep(self.poll_interval)

    def __exit__(self, *exc) -> bool:
        if self.acquired:
            with contextlib.suppress(OSError):
                self.store._rpc(
                    {"op": "unlock", "key": self.key, "owner": self.owner}
                )
        return False


class RemoteStore(ResultStore):
    """A :class:`ResultStore` whose backend is a ``repro-kv-server``.

    Parameters
    ----------
    host / port:
        The server address (or pass a ready-made ``transport``).
    retry_policy:
        Per-RPC retry bounds (:data:`WIRE_RETRY_POLICY` by default).
    breaker:
        Injectable :class:`CircuitBreaker`; by default 5 consecutive
        failed RPCs open it for 15 s, during which every call fails
        fast with ``OSError`` — the signal ``TieredStore`` interprets
        as "skip this tier".
    lock_timeout:
        Patience for the server-side ``get_or_compute`` lock before
        proceeding unlocked.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9410,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        retry_policy: RetryPolicy = WIRE_RETRY_POLICY,
        breaker: Optional[CircuitBreaker] = None,
        fault_plan: Optional[FaultPlan] = None,
        transport: Optional[WireTransport] = None,
        lock_timeout: float = 120.0,
        client_id: Optional[str] = None,
    ) -> None:
        super().__init__()
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
        self.lock_timeout = float(lock_timeout)
        self.client_id = client_id or f"client-{uuid.uuid4().hex[:8]}"
        self.rpc_retries = 0
        self.breaker_rejections = 0

    # -- the one RPC path ----------------------------------------------
    def _rpc(
        self,
        header: Dict[str, Any],
        blobs: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """A breaker-guarded, retried round trip.

        The breaker scores the *retried* outcome, not each attempt: a
        request that succeeds on its second try is a success (the
        server works), not half a failure.
        """
        with self._lock:
            if not self.breaker.allow():
                self.breaker_rejections += 1
                raise OSError(
                    f"remote store breaker open for "
                    f"{self.transport.host}:{self.transport.port}"
                )

        def count_retry(attempt: int, exc: BaseException, delay: float) -> None:
            with self._lock:
                self.rpc_retries += 1

        try:
            result = retry_call(
                lambda: self.transport.request(header, blobs),
                self.retry_policy,
                on_retry=count_retry,
            )
        except OSError:
            with self._lock:
                self.breaker.record_failure()
            raise
        with self._lock:
            self.breaker.record_success()
        return result

    # -- ResultStore backend hooks --------------------------------------
    def _get(self, key: str) -> Optional[StoreEntry]:
        header, blobs = self._rpc({"op": "get", "key": key})
        slot = header if header.get("found") else None
        return self._decode(key, slot, blobs)

    def _put(self, key: str, entry: StoreEntry) -> None:
        header, blobs = encode_entry({"op": "put", "key": key}, entry)
        self._rpc(header, blobs)

    def put_many(self, entries: Mapping[str, StoreEntry]) -> None:
        """One ``put_many`` round trip per :data:`BATCH_KEYS` entries."""
        keys = check_entries(entries)
        for start in range(0, len(keys), BATCH_KEYS):
            chunk = keys[start : start + BATCH_KEYS]
            header, blobs = encode_entries([entries[key] for key in chunk])
            header.update(op="put_many", keys=chunk, n=len(chunk))
            self._rpc(header, blobs)
            with self._lock:
                self.puts += len(chunk)

    def contains(self, key: str) -> bool:
        header, _ = self._rpc({"op": "contains", "key": key})
        return bool(header.get("found"))

    def contains_many(self, keys: Sequence[str]) -> List[bool]:
        """One ``contains_many`` round trip per :data:`BATCH_KEYS` keys."""
        keys = check_keys(keys)
        found: List[bool] = []
        for start in range(0, len(keys), BATCH_KEYS):
            chunk = keys[start : start + BATCH_KEYS]
            header, _ = self._rpc(
                {"op": "contains_many", "keys": chunk, "n": len(chunk)}
            )
            reply = header.get("found")
            if not isinstance(reply, list) or len(reply) != len(chunk):
                raise WireProtocolError(
                    f"contains_many answered {reply!r} for {len(chunk)} keys"
                )
            found.extend(bool(f) for f in reply)
        return found

    def get_many(self, keys: Sequence[str]) -> List[Optional[StoreEntry]]:
        """Counted batch fetch: one ``get_many`` round trip per chunk.

        The server answers a prefix of each request (it stops at a
        byte budget) and the rest is asked for again, so a chunk of
        large entries costs a few more round trips, never a giant
        frame.  An entry whose blobs do not decode is counted corrupt
        and comes back ``None``, as from :meth:`get`.
        """
        keys = check_keys(keys)
        entries: List[Optional[StoreEntry]] = []
        while len(entries) < len(keys):
            chunk = keys[len(entries) : len(entries) + BATCH_KEYS]
            header, blobs = self._rpc(
                {"op": "get_many", "keys": chunk, "n": len(chunk)}
            )
            slots = header.get("entries")
            answered = len(slots) if isinstance(slots, list) else 0
            if not 1 <= answered <= len(chunk):
                raise WireProtocolError(
                    f"get_many answered {slots!r} for {len(chunk)} keys"
                )
            for index, (key, slot) in enumerate(zip(chunk, slots)):
                entries.append(self._decode(key, slot, blobs, f"{index}/"))
        with self._lock:
            hits = sum(entry is not None for entry in entries)
            self.hits += hits
            self.misses += len(entries) - hits
        return entries

    def _decode(self, key, slot, blobs, prefix="") -> Optional[StoreEntry]:
        """The entry encoded in ``slot`` (``None`` for a miss); one that
        does not decode is counted corrupt and treated as a miss."""
        if slot is None:
            return None
        try:
            if not isinstance(slot, dict):
                raise WireProtocolError(f"entry slot {prefix!r} is {slot!r}")
            return decode_entry(slot, blobs, prefix=prefix)
        except (WireProtocolError, ValueError, TypeError) as exc:
            self.note_corrupt(key, str(exc))
            return None

    def _delete(self, key: str) -> bool:
        header, _ = self._rpc({"op": "delete", "key": key})
        return bool(header.get("deleted"))

    def _exclusive(self, key: str):
        return _ServerLockGuard(self, key, self.lock_timeout)

    # -- introspection --------------------------------------------------
    def server_stats(self) -> Dict[str, Any]:
        """The *server's* store counters (this client's live in
        :meth:`stats` like every other ``ResultStore``)."""
        header, _ = self._rpc({"op": "stats"})
        return dict(header.get("stats") or {})

    def _size_hint(self) -> Optional[int]:
        try:
            header, _ = self._rpc({"op": "stats"})
        except (OSError, ValueError):
            return None
        return header.get("size")

    def stats(self) -> Dict[str, int]:
        stats = super().stats()
        with self._lock:
            stats["rpc_retries"] = self.rpc_retries
            stats["breaker_rejections"] = self.breaker_rejections
            stats["breaker"] = self.breaker.as_dict()
        stats["requests"] = self.transport.requests
        stats["reconnects"] = self.transport.reconnects
        return stats

    def __len__(self) -> int:
        size = self._size_hint()
        return 0 if size is None else int(size)

    def clear(self) -> None:
        raise NotImplementedError(
            "RemoteStore does not clear the shared server; clear the "
            "server's backing store directly"
        )

    def close(self) -> None:
        self.transport.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RemoteStore({self.transport.host}:{self.transport.port}, "
            f"breaker={self.breaker.state})"
        )
