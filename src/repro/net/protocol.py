"""The wire format: length-prefixed frames, JSON headers, CRC'd blobs.

One framing for every RPC both directions::

    frame   := magic(4) | u32 frame_len | payload(frame_len)
    payload := u32 header_len | header_json | blob_0 | blob_1 | ...

The header is a small JSON object.  Requests carry ``{"op": ..., ...}``;
responses carry ``{"ok": true, ...}`` or ``{"ok": false, "error": ...,
"kind": "bad_request" | "server_error"}``.  Binary array payloads ride
as *blobs* after the header: the header's ``"blobs"`` list records each
one's name, dtype, shape, byte length and CRC32 (the same
:func:`~repro.io.atomic.array_crc32` checksum the file store keeps on
disk), and the raw bytes follow in list order.  Decoding verifies every
CRC, so a frame damaged anywhere between the peers surfaces as a typed
:class:`WireProtocolError` — an ``OSError``, i.e. *transient* to every
retry policy in the stack — never as silently wrong numbers.

All integers are big-endian.  ``MAX_FRAME_BYTES`` bounds what either
side will buffer, so a garbled length prefix fails loudly instead of
attempting a multi-terabyte allocation.

:func:`encode_entry` / :func:`decode_entry` map a
:class:`~repro.store.base.StoreEntry` onto this shape (meta in the
header, one blob per array) — the network analogue of the file store's
entry file (a header with the meta, then the array bytes).
:func:`encode_entries` carries a batch of them in one frame, each
entry's blobs under a per-index name prefix
(``decode_entry(slot, blobs, prefix=...)`` reads one back).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.io.atomic import array_crc32
from repro.store.base import BATCH_KEYS, StoreEntry, check_keys

#: protocol magic + version; bump on incompatible framing changes.
MAGIC = b"RKV1"

#: refuse to buffer frames beyond this (a garbled length prefix must
#: fail loudly, not allocate).  Generous for YLT segments: 1 GiB.
MAX_FRAME_BYTES = 1 << 30

_U32 = struct.Struct(">I")


class WireProtocolError(OSError):
    """A malformed, truncated or checksum-failing frame.

    Subclasses :class:`OSError` deliberately: wire damage is transient
    to every retry policy in the stack (:data:`~repro.utils.retry.
    DEFAULT_RETRY_POLICY` retries ``OSError``), so a flipped bit on the
    wire costs a retry, never a wrong answer and never a crash path of
    its own.
    """


class RemoteServerError(OSError):
    """The server answered ``ok=false`` with ``kind="server_error"``.

    Also an ``OSError``: the server's transient failures (its disk, its
    own store tiers) should look exactly like a flaky local disk to the
    caller's retry/breaker machinery.  Client-side *usage* errors
    (``kind="bad_request"``) raise :class:`ValueError` instead and are
    never retried.
    """


def pack_message(
    header: Mapping[str, Any],
    blobs: Optional[Mapping[str, np.ndarray]] = None,
) -> bytes:
    """Serialise one message (header + named array blobs) into a frame."""
    blobs = blobs or {}
    specs: List[Dict[str, Any]] = []
    payloads: List[bytes] = []
    for name, array in blobs.items():
        data = np.ascontiguousarray(array)
        raw = data.tobytes()
        specs.append(
            {
                "name": str(name),
                "dtype": str(data.dtype.str),
                "shape": [int(n) for n in data.shape],
                "nbytes": len(raw),
                "crc32": array_crc32(data),
            }
        )
        payloads.append(raw)
    full_header = dict(header)
    if specs:
        full_header["blobs"] = specs
    header_bytes = json.dumps(full_header, sort_keys=True).encode("utf-8")
    body = b"".join([_U32.pack(len(header_bytes)), header_bytes, *payloads])
    if len(body) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return b"".join([MAGIC, _U32.pack(len(body)), body])


def read_frame_size(prefix: bytes) -> int:
    """Validate the 8-byte frame prefix; return the payload length."""
    if len(prefix) != 8:
        raise WireProtocolError(
            f"truncated frame prefix ({len(prefix)} of 8 bytes)"
        )
    if prefix[:4] != MAGIC:
        raise WireProtocolError(
            f"bad magic {prefix[:4]!r} (expected {MAGIC!r}) — not a "
            "repro-kv peer, or a corrupted stream"
        )
    (size,) = _U32.unpack(prefix[4:8])
    if size > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"declared frame of {size} bytes exceeds MAX_FRAME_BYTES"
        )
    return size


def unpack_payload(
    payload: bytes,
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Parse a frame payload into ``(header, blobs)``, verifying CRCs.

    Returned arrays are detached read-only copies — safe to hand to
    store consumers directly (the :class:`~repro.store.base.StoreEntry`
    immutability contract).
    """
    if len(payload) < 4:
        raise WireProtocolError("frame too short for a header length")
    (header_len,) = _U32.unpack(payload[:4])
    if 4 + header_len > len(payload):
        raise WireProtocolError(
            f"declared header of {header_len} bytes overruns the frame"
        )
    try:
        header = json.loads(payload[4 : 4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireProtocolError(f"garbled frame header: {exc!r}") from exc
    if not isinstance(header, dict):
        raise WireProtocolError(f"frame header is not an object: {header!r}")

    blobs: Dict[str, np.ndarray] = {}
    offset = 4 + header_len
    for spec in header.pop("blobs", []):
        nbytes = int(spec["nbytes"])
        raw = payload[offset : offset + nbytes]
        if len(raw) != nbytes:
            raise WireProtocolError(
                f"blob {spec.get('name')!r} truncated on the wire "
                f"({len(raw)} of {nbytes} bytes)"
            )
        offset += nbytes
        array = np.frombuffer(raw, dtype=np.dtype(str(spec["dtype"])))
        array = array.reshape([int(n) for n in spec["shape"]]).copy()
        if array_crc32(array) != int(spec["crc32"]):
            raise WireProtocolError(
                f"blob {spec.get('name')!r} failed its CRC32 — damaged "
                "in flight"
            )
        array.flags.writeable = False
        blobs[str(spec["name"])] = array
    if offset != len(payload):
        raise WireProtocolError(
            f"{len(payload) - offset} trailing bytes after the last blob"
        )
    return header, blobs


# -- store entry codec ----------------------------------------------------


def encode_entry(
    header: Mapping[str, Any], entry: StoreEntry
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Fold a :class:`StoreEntry` into a message: meta in the header,
    one CRC'd blob per array."""
    merged = dict(header)
    merged["meta"] = dict(entry.meta)
    merged["arrays"] = sorted(entry.arrays)
    return merged, dict(entry.arrays)


def decode_entry(
    header: Mapping[str, Any],
    blobs: Mapping[str, np.ndarray],
    prefix: str = "",
) -> StoreEntry:
    """Rebuild the :class:`StoreEntry` encoded by :func:`encode_entry`
    (its blobs named ``prefix + array name``)."""
    names = header.get("arrays")
    if not isinstance(names, list) or not names:
        raise WireProtocolError(f"entry frame lists no arrays: {names!r}")
    arrays = {}
    for name in names:
        array = blobs.get(prefix + str(name))
        if array is None:
            raise WireProtocolError(
                f"entry frame promises array {name!r} but carries no "
                "such blob"
            )
        arrays[str(name)] = array
    return StoreEntry(arrays=arrays, meta=dict(header.get("meta") or {}))


# -- batched ops -----------------------------------------------------------

#: the server stops adding entries to one ``get_many`` reply once their
#: arrays reach this many bytes; the client asks again for the rest, so
#: a reply stays this size plus at most one entry.
BATCH_REPLY_BYTES = 16 << 20


def batch_keys(header: Mapping[str, Any]) -> List[str]:
    """The validated ``keys`` of a batch request.

    ``keys`` must be a list of valid store keys, of at most
    :data:`BATCH_KEYS`, whose length equals the declared ``n`` — a
    request failing any check is the caller's bug (``ValueError``,
    answered ``bad_request``).
    """
    keys = header.get("keys")
    if not isinstance(keys, list):
        raise ValueError(f"batch request keys must be a list, got {keys!r}")
    if header.get("n") != len(keys):
        raise ValueError(
            f"batch request declares n={header.get('n')!r} but carries "
            f"{len(keys)} keys"
        )
    if len(keys) > BATCH_KEYS:
        raise ValueError(
            f"batch of {len(keys)} keys exceeds BATCH_KEYS={BATCH_KEYS}"
        )
    return check_keys(keys)


def encode_entries(
    entries: List[Optional[StoreEntry]],
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Fold a batch of optional entries into one message.

    The header's ``"entries"`` holds one slot per entry — ``None`` for
    a miss, else the entry's meta and array names — and entry ``i``'s
    arrays ride as CRC'd blobs named ``"{i}/{array name}"``.
    """
    slots: List[Optional[Dict[str, Any]]] = []
    blobs: Dict[str, np.ndarray] = {}
    for index, entry in enumerate(entries):
        if entry is None:
            slots.append(None)
            continue
        slot, arrays = encode_entry({}, entry)
        slots.append(slot)
        blobs.update((f"{index}/{name}", a) for name, a in arrays.items())
    return {"entries": slots}, blobs


def error_header(error: str, kind: str = "server_error") -> Dict[str, Any]:
    """The failure response shape both sides agree on."""
    return {"ok": False, "error": str(error), "kind": str(kind)}


def raise_for_header(header: Mapping[str, Any]) -> None:
    """Convert a failure response into the typed client-side exception.

    ``bad_request`` (malformed op, bad key, unknown state name) raises
    :class:`ValueError` — caller bugs are not transient and must never
    be retried; anything else raises :class:`RemoteServerError`, which
    the retry/breaker machinery treats exactly like local disk trouble.
    """
    if header.get("ok", False):
        return
    error = str(header.get("error", "unspecified server failure"))
    if header.get("kind") == "bad_request":
        raise ValueError(f"rejected by server: {error}")
    raise RemoteServerError(error)
