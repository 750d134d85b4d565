"""Serialisation and memory accounting for analysis inputs/outputs.

The paper stresses that the algorithm "must ingest large amounts of data"
and that organising it in limited memory is a core challenge; this
subpackage provides the npz/CSV round-trips used by examples and tools,
plus the memory-footprint estimator behind the Section III direct-access
table arithmetic.
"""

from repro.io.atomic import array_crc32
from repro.io.binary import (
    load_elt,
    load_portfolio,
    load_yet,
    load_ylt,
    save_elt,
    save_portfolio,
    save_yet,
    save_ylt,
)
from repro.io.csvio import elt_from_csv, elt_to_csv, ylt_to_csv
from repro.io.memory import MemoryEstimate, estimate_workload_memory

__all__ = [
    "array_crc32",
    "load_elt",
    "load_portfolio",
    "load_yet",
    "load_ylt",
    "save_elt",
    "save_portfolio",
    "save_yet",
    "save_ylt",
    "elt_from_csv",
    "elt_to_csv",
    "ylt_to_csv",
    "MemoryEstimate",
    "estimate_workload_memory",
]
