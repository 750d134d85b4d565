"""The reference KV + queue server (``repro-kv-server``).

One asyncio server fronts two contracts over the framing in
:mod:`repro.net.protocol`:

* a **store front**: GET/PUT/CONTAINS/DELETE/STATS, the batched
  CONTAINS_MANY/GET_MANY and lease-based LOCK/UNLOCK, delegating to
  any local :class:`~repro.store.base.ResultStore` (a ``FileStore`` in
  production, a ``MemoryStore`` in tests);
* a **queue front**: submit/claim/heartbeat/complete/fail/requeue and
  the introspection calls, delegating to a server-local
  :class:`~repro.fleet.jobs.JobQueue`.

Two properties matter more than throughput here:

* **Server-authoritative clocks.**  Every lease — job heartbeats *and*
  ``get_or_compute`` locks — is stamped and aged on the server's clock
  (heartbeats ``touch(2)`` files on the server's disk), so worker
  machines with skewed wall clocks cannot make a dead peer's job look
  fresh or a live peer's look expired.  The client never sends a
  timestamp.
* **Lease-based locks.**  The store's cross-machine ``get_or_compute``
  exclusivity is a lock *lease*: an owner that vanishes (crashed
  worker, dropped connection) blocks peers only until the lease
  expires, never forever.  Losing a lock race costs a duplicate
  compute deduped by content-addressed keys — the same trade every
  layer of the fleet already makes.

The implementation is deliberately small and sequential per
connection: it is the executable spec a Redis/S3-style adapter must
match, and the double every net test runs against — not a tuned
production daemon.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.fleet.jobs import FleetJob, JobQueue
from repro.net.protocol import (
    BATCH_REPLY_BYTES,
    batch_keys,
    decode_entry,
    encode_entries,
    encode_entry,
    error_header,
    pack_message,
    read_frame_size,
    unpack_payload,
)
from repro.store.base import ResultStore, StoreEntry, check_key

logger = logging.getLogger("repro.net.server")


class _LockTable:
    """Lease-based advisory locks for cross-machine ``get_or_compute``.

    ``acquire`` is idempotent per owner (re-acquiring refreshes the
    lease), mirroring flock semantics within one holder.  Expired
    leases are stolen silently: the previous owner is presumed dead,
    and the worst outcome of presuming wrong is one duplicate compute.
    """

    def __init__(self, lease_seconds: float) -> None:
        if lease_seconds <= 0:
            raise ValueError(
                f"lock lease_seconds must be > 0, got {lease_seconds}"
            )
        self.lease_seconds = float(lease_seconds)
        self._held: Dict[str, Tuple[str, float]] = {}
        self._mutex = threading.Lock()

    def acquire(self, key: str, owner: str) -> bool:
        now = time.monotonic()
        with self._mutex:
            holder = self._held.get(key)
            if holder is not None and holder[0] != owner and holder[1] > now:
                return False
            self._held[key] = (owner, now + self.lease_seconds)
            return True

    def release(self, key: str, owner: str) -> bool:
        with self._mutex:
            holder = self._held.get(key)
            if holder is None or holder[0] != owner:
                return False
            del self._held[key]
            return True


class NetServer:
    """The asyncio front over a local store and (optionally) a queue.

    Parameters
    ----------
    store:
        The backing :class:`ResultStore` every store op delegates to.
    queue:
        The server-local :class:`JobQueue` queue ops delegate to; when
        ``None``, queue ops answer ``bad_request`` (a pure-KV server).
    host / port:
        Bind address.  ``port=0`` asks the OS for a free port —
        :attr:`bound_port` reports the choice once serving.
    lock_lease_seconds:
        Lease on LOCK grants (see :class:`_LockTable`).
    """

    def __init__(
        self,
        store: ResultStore,
        queue: Optional[JobQueue] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lock_lease_seconds: float = 30.0,
    ) -> None:
        self.store = store
        self.queue = queue
        self.host = host
        self.port = int(port)
        self.locks = _LockTable(lock_lease_seconds)
        self.bound_port: Optional[int] = None
        self.requests = 0
        self.errors = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        logger.info("repro-kv-server listening on %s:%d", self.host, self.bound_port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- connection loop -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    prefix = await reader.readexactly(8)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # clean (or abrupt) client disconnect
                except asyncio.CancelledError:
                    break  # server shutdown; swallowed so the stream
                    # wrapper's done-callback stays quiet
                try:
                    payload = await reader.readexactly(read_frame_size(prefix))
                    header, blobs = unpack_payload(payload)
                    reply = self._dispatch(header, blobs)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except ValueError as exc:
                    self.errors += 1
                    reply = pack_message(error_header(str(exc), "bad_request"))
                except Exception as exc:  # noqa: BLE001 - server must answer
                    self.errors += 1
                    logger.warning("request failed: %r", exc)
                    reply = pack_message(error_header(repr(exc)))
                try:
                    writer.write(reply)
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            # Only now: stop() awaits every task still listed, so a
            # handler closing its stream is never left pending.
            if task is not None:
                self._connections.discard(task)

    # -- dispatch ------------------------------------------------------
    def _dispatch(
        self, header: Dict[str, Any], blobs: Dict[str, np.ndarray]
    ) -> bytes:
        op = header.get("op")
        if not isinstance(op, str):
            raise ValueError(f"request has no op: {header!r}")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ValueError(f"unknown op {op!r}")
        self.requests += 1
        return handler(header, blobs)

    @staticmethod
    def _reply(
        header: Optional[Dict[str, Any]] = None,
        blobs: Optional[Dict[str, np.ndarray]] = None,
    ) -> bytes:
        merged = {"ok": True}
        merged.update(header or {})
        return pack_message(merged, blobs)

    # -- store ops -----------------------------------------------------
    def _op_get(self, header, blobs) -> bytes:
        key = check_key(str(header.get("key")))
        entry = self.store.get(key)
        if entry is None:
            return self._reply({"found": False})
        reply_header, reply_blobs = encode_entry({"found": True}, entry)
        return self._reply(reply_header, reply_blobs)

    def _op_put(self, header, blobs) -> bytes:
        key = check_key(str(header.get("key")))
        self.store.put(key, decode_entry(header, blobs))
        return self._reply()

    def _op_contains(self, header, blobs) -> bytes:
        key = check_key(str(header.get("key")))
        return self._reply({"found": bool(self.store.contains(key))})

    def _op_contains_many(self, header, blobs) -> bytes:
        found = self.store.contains_many(batch_keys(header))
        return self._reply({"found": [bool(f) for f in found]})

    def _op_get_many(self, header, blobs) -> bytes:
        # Answers a prefix of the keys: entries stop once their arrays
        # reach BATCH_REPLY_BYTES, and the client asks for the rest.
        entries = []
        nbytes = 0
        for key in batch_keys(header):
            if entries and nbytes >= BATCH_REPLY_BYTES:
                break
            entry = self.store.get(key)
            entries.append(entry)
            nbytes += 0 if entry is None else entry.nbytes
        return self._reply(*encode_entries(entries))

    def _op_delete(self, header, blobs) -> bytes:
        key = check_key(str(header.get("key")))
        return self._reply({"deleted": bool(self.store.delete(key))})

    def _op_stats(self, header, blobs) -> bytes:
        stats = dict(self.store.stats())
        stats["server"] = {"requests": self.requests, "errors": self.errors}
        return self._reply({"stats": stats, "size": len(self.store)})

    def _op_lock(self, header, blobs) -> bytes:
        key = check_key(str(header.get("key")))
        owner = str(header.get("owner") or "")
        if not owner:
            raise ValueError("lock requests must name an owner")
        return self._reply({"acquired": self.locks.acquire(key, owner)})

    def _op_unlock(self, header, blobs) -> bytes:
        key = check_key(str(header.get("key")))
        owner = str(header.get("owner") or "")
        return self._reply({"released": self.locks.release(key, owner)})

    # -- queue ops -----------------------------------------------------
    def _require_queue(self) -> JobQueue:
        if self.queue is None:
            raise ValueError("this server exposes no job queue")
        return self.queue

    def _op_qconfig(self, header, blobs) -> bytes:
        queue = self._require_queue()
        return self._reply(
            {
                "lease_seconds": queue.lease_seconds,
                "max_attempts": queue.max_attempts,
            }
        )

    def _op_qsubmit(self, header, blobs) -> bytes:
        queue = self._require_queue()
        jobs = [FleetJob.from_json(j) for j in header.get("jobs") or []]
        return self._reply({"added": queue.submit(jobs)})

    def _op_qclaim(self, header, blobs) -> bytes:
        queue = self._require_queue()
        job = queue.claim(
            worker_id=header.get("worker_id"), sweep_id=header.get("sweep_id")
        )
        return self._reply({"job": None if job is None else job.to_json()})

    def _op_qheartbeat(self, header, blobs) -> bytes:
        queue = self._require_queue()
        job = FleetJob.from_json(header["job"])
        # touch(2) on the server's disk: the lease clock is OURS, so a
        # worker machine's skewed wall clock cannot alter lease aging.
        return self._reply({"alive": bool(queue.heartbeat(job))})

    def _op_qcomplete(self, header, blobs) -> bytes:
        queue = self._require_queue()
        job = FleetJob.from_json(header["job"])
        return self._reply({"completed": bool(queue.complete(job))})

    def _op_qfail(self, header, blobs) -> bytes:
        queue = self._require_queue()
        job = FleetJob.from_json(header["job"])
        state = queue.fail(
            job,
            str(header.get("error", "")),
            requeue=bool(header.get("requeue", True)),
            exc_type=header.get("exc_type"),
            chain=header.get("chain"),
        )
        return self._reply({"state": state})

    def _op_qrequeue(self, header, blobs) -> bytes:
        # No client timestamp accepted: expiry is judged *here*.
        return self._reply({"requeued": self._require_queue().requeue_expired()})

    def _op_qcounts(self, header, blobs) -> bytes:
        queue = self._require_queue()
        return self._reply({"counts": queue.counts(header.get("sweep_id"))})

    def _op_qactive(self, header, blobs) -> bytes:
        queue = self._require_queue()
        return self._reply({"active": queue.active_count(header.get("sweep_id"))})

    def _op_qjobs(self, header, blobs) -> bytes:
        queue = self._require_queue()
        state = str(header.get("state"))
        jobs = queue.jobs(state, header.get("sweep_id"))
        return self._reply({"jobs": [job.to_json() for job in jobs]})

    def _op_qstragglers(self, header, blobs) -> bytes:
        queue = self._require_queue()
        jobs = queue.stragglers(
            min_age_fraction=float(header.get("min_age_fraction", 0.5)),
            sweep_id=header.get("sweep_id"),
        )
        return self._reply({"jobs": [job.to_json() for job in jobs]})

    def _op_qfind(self, header, blobs) -> bytes:
        queue = self._require_queue()
        return self._reply({"state": queue.find(str(header.get("job_id")))})

    def _op_qsave_sweep(self, header, blobs) -> bytes:
        queue = self._require_queue()
        sweep_id = str(header.get("sweep_id"))
        queue.save_sweep(sweep_id, dict(header.get("manifest") or {}))
        return self._reply()

    def _op_qload_sweep(self, header, blobs) -> bytes:
        queue = self._require_queue()
        return self._reply(
            {"manifest": queue.load_sweep(str(header.get("sweep_id")))}
        )

    def _op_qsweep_ids(self, header, blobs) -> bytes:
        return self._reply({"sweep_ids": self._require_queue().sweep_ids()})


class ServerThread:
    """Run a :class:`NetServer` on a daemon thread (the test harness).

    ::

        with ServerThread(NetServer(store, queue)) as address:
            client = RemoteStore(*address)

    ``address`` is the bound ``(host, port)`` — pass ``port=0`` to the
    server and read the OS's choice here.
    """

    def __init__(self, server: NetServer, startup_timeout: float = 10.0) -> None:
        self.server = server
        self.startup_timeout = float(startup_timeout)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        if self.server.bound_port is None:
            raise RuntimeError("server not started")
        return self.server.host, self.server.bound_port

    def start(self) -> Tuple[str, int]:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-kv-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(self.startup_timeout):
            raise RuntimeError("repro-kv-server failed to start in time")
        return self.address

    def _run(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
            # Signalled from inside run_forever, so once start() returns
            # the loop is running and stop()'s loop.stop reaches it.
            self._loop.call_soon(self._started.set)
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def stop(self) -> None:
        loop = self._loop
        if loop is not None:
            # Scheduled even when the loop is not running yet: the
            # callback then ends run_forever on its first pass.
            with contextlib.suppress(RuntimeError):  # loop already closed
                loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=self.startup_timeout)
        self._loop = None
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
