"""The on-disk format of one file-store entry.

An entry is one file (format v2)::

    prefix   16-byte ``repro-store-v2`` tag, header length (u32 LE),
             header CRC32 (u32 LE)
    header   compact JSON: ``{"meta": {...}, "arrays": [{"name",
             "dtype", "shape", "offset", "crc32"}, ...]}``
    arrays   raw C-order bytes, each starting on a 64-byte boundary;
             ``offset`` counts from the first boundary after the header

:func:`encode` turns a :class:`~repro.store.base.StoreEntry` into the
file's pieces and :func:`decode` parses one back from an ``mmap`` (or
bytes), raising on any damage.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Dict, List

import numpy as np

from repro.store.base import StoreEntry, check_key

_TAG = b"repro-store-v2".ljust(16, b"\0")
#: file prefix: format tag, header length, header CRC32
_PREFIX = struct.Struct("<16sII")
_ALIGN = 64


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _raw_bytes(array: np.ndarray) -> np.ndarray:
    """``array``'s bytes as a flat uint8 view (any dtype, any shape)."""
    return np.ascontiguousarray(array).reshape(-1).view(np.uint8)


def encode(entry: StoreEntry) -> List[object]:
    """The pieces of one entry file, in order: the prefix, the header,
    then per array its zero padding and its raw bytes (a view)."""
    specs = []
    raws = []
    offset = 0
    for name, array in entry.arrays.items():
        check_key(name)
        dtype = array.dtype
        if dtype.hasobject or np.dtype(dtype.str) != dtype:
            raise ValueError(f"array {name!r}: unsupported dtype {dtype}")
        raw = _raw_bytes(array)
        offset = _aligned(offset)
        specs.append(
            {
                "name": name,
                "dtype": dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "crc32": zlib.crc32(raw),
            }
        )
        raws.append((offset, raw))
        offset += raw.nbytes
    header = json.dumps(
        {"meta": dict(entry.meta), "arrays": specs}, separators=(",", ":")
    ).encode()
    pieces = [_PREFIX.pack(_TAG, len(header), zlib.crc32(header)), header]
    position = _PREFIX.size + len(header)
    base = _aligned(position)
    for offset, raw in raws:
        start = base + offset
        pieces.append(bytes(start - position))
        pieces.append(raw)
        position = start + raw.nbytes
    return pieces


def decode(buffer, verify: bool = True) -> StoreEntry:
    """Parse one entry file held in ``buffer`` (an mmap or bytes).

    Arrays are ``np.frombuffer`` views onto ``buffer``; they are
    read-only because ``buffer`` is.  Raises ``ValueError`` (or
    ``KeyError``/``TypeError`` for a malformed header) on any damage.
    """
    size = len(buffer)
    if size < _PREFIX.size:
        raise ValueError(f"{size}-byte file is shorter than the prefix")
    tag, header_len, header_crc = _PREFIX.unpack_from(buffer, 0)
    if tag != _TAG:
        raise ValueError(f"bad format tag: {tag!r}")
    header_end = _PREFIX.size + header_len
    if header_end > size:
        raise ValueError(f"header ends at {header_end}, past {size} bytes")
    header = buffer[_PREFIX.size:header_end]
    if zlib.crc32(header) != header_crc:
        raise ValueError("header checksum mismatch")
    manifest = json.loads(header.decode())
    base = _aligned(header_end)
    arrays: Dict[str, np.ndarray] = {}
    for spec in manifest["arrays"]:
        name = spec["name"]
        dtype = np.dtype(spec["dtype"])
        if dtype.hasobject:
            raise ValueError(f"array {name!r}: object dtype")
        shape = tuple(int(n) for n in spec["shape"])
        if any(n < 0 for n in shape):
            raise ValueError(f"array {name!r}: negative shape {shape}")
        count = math.prod(shape)
        start = base + int(spec["offset"])
        end = start + count * dtype.itemsize
        if start < base or end > size:
            raise ValueError(
                f"array {name!r}: bytes [{start}, {end}) past {size} bytes"
            )
        array = np.frombuffer(buffer, dtype, count, start).reshape(shape)
        if verify and zlib.crc32(_raw_bytes(array)) != int(spec["crc32"]):
            raise ValueError(f"array {name!r}: checksum mismatch")
        arrays[name] = array
    return StoreEntry(arrays=arrays, meta=manifest["meta"])

