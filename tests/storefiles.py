"""Test helpers that write and damage file-store entries on disk.

Stated independently of :mod:`repro.store.filestore`, so the tests pin
the on-disk formats rather than reuse the code under test:

* :func:`header_of` / :func:`rewrite_header` read and replace the JSON
  header of a single-file (v2) entry, re-sealing its checksum, so a
  test can damage one field and nothing else;
* :func:`replace_bytes` swaps a file's bytes in by rename, so a damaged
  file never truncates pages that a live mapping of the old file still
  refers to.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

#: v2 prefix: 16-byte format tag, header length, header CRC32
PREFIX = struct.Struct("<16sII")
TAG = b"repro-store-v2".ljust(16, b"\0")
ALIGN = 64


def aligned(offset: int) -> int:
    return -(-offset // ALIGN) * ALIGN


def replace_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".damaged")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def header_of(path: Path) -> dict:
    blob = path.read_bytes()
    tag, length, crc = PREFIX.unpack_from(blob)
    assert tag == TAG
    header = blob[PREFIX.size : PREFIX.size + length]
    assert zlib.crc32(header) == crc
    return json.loads(header)


def rewrite_header(path: Path, header) -> None:
    """Replace the entry file's header (a dict, or raw bytes) and keep
    every array at its offset from the data section's start."""
    blob = path.read_bytes()
    tag, length, _ = PREFIX.unpack_from(blob)
    data = blob[aligned(PREFIX.size + length) :]
    if not isinstance(header, bytes):
        header = json.dumps(header, indent=1).encode()
    out = PREFIX.pack(tag, len(header), zlib.crc32(header)) + header
    out += bytes(aligned(len(out)) - len(out)) + data
    replace_bytes(path, out)
