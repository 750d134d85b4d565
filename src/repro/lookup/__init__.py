"""ELT lookup structures.

The paper's key implementation decision (Section III) is how to represent
an Event Loss Table for fast random key lookup:

* :class:`~repro.lookup.direct.DirectAccessTable` — the paper's choice: a
  dense loss array over the whole event catalogue.  Exactly **one memory
  access per lookup** at the cost of extreme sparsity (2M slots for ~20K
  non-zero losses; 15 ELTs → 30M event-loss pairs in memory).
* :class:`~repro.lookup.sorted_table.SortedLookupTable` — the compact
  alternative with O(log n) binary search.
* :class:`~repro.lookup.hashtable.OpenAddressingTable` — expected O(1)
  linear-probing hash table (expected ~1/(1-α) probes at load factor α).
* :class:`~repro.lookup.cuckoo.CuckooTable` — the constant-worst-case
  hashing scheme the paper cites (Pagh & Rodler): at most two probes.
* :class:`~repro.lookup.combined.StackedDirectTable` — the paper's second
  design variant: the 15 ELTs of a layer form one combined, event-major
  table and whole rows are fetched at a time.  The kernel's only layer
  table: it keeps each event's net loss summed over the ELTs, with each
  ELT's terms applied.  The other structures are compared on their own
  (DS-TABLE) and never reach the kernel.
* :class:`~repro.lookup.compressed.CompressedBlockTable` — the paper's §VI
  future work: a delta-compressed, block-indexed representation sitting
  between the direct table and binary search on both axes.

Every structure maps the null event id (0) and any absent id to a loss of
0.0, and reports its memory footprint and per-lookup memory-access count —
the two quantities the paper's analysis (and our GPU cost model) trade off.
"""

from repro.lookup.base import LossLookup
from repro.lookup.direct import DirectAccessTable
from repro.lookup.sorted_table import SortedLookupTable
from repro.lookup.hashtable import OpenAddressingTable
from repro.lookup.cuckoo import CuckooTable
from repro.lookup.combined import StackedDirectTable
from repro.lookup.compressed import CompressedBlockTable
from repro.lookup.factory import (
    LOOKUP_KINDS,
    LookupCache,
    build_lookup,
    build_layer_lookups,
    build_stacked_table,
    clear_lookup_cache,
    get_lookup_cache,
    memory_report,
)

__all__ = [
    "LossLookup",
    "DirectAccessTable",
    "SortedLookupTable",
    "OpenAddressingTable",
    "CuckooTable",
    "StackedDirectTable",
    "CompressedBlockTable",
    "LOOKUP_KINDS",
    "LookupCache",
    "build_lookup",
    "build_layer_lookups",
    "build_stacked_table",
    "clear_lookup_cache",
    "get_lookup_cache",
    "memory_report",
]
