"""Content-addressed result store: plan persistence and replay.

The plan layer made every analysis deterministic and fingerprintable;
this package makes those fingerprints *addresses*.  A
:class:`~repro.store.base.ResultStore` maps content keys (derived from
plan + YET + portfolio + numeric configuration by
:mod:`repro.store.keys`) to stored results, so:

* re-running an identical analysis is a hash lookup, not an engine run
  (``AggregateRiskAnalysis.run(..., store=...)`` /
  ``Engine.run(..., store=...)`` — whole-analysis memoisation);
* the :class:`~repro.pricing.realtime.QuoteService`'s base combined
  occurrence-loss vectors survive process restarts and are shared
  across worker processes
  (:class:`~repro.plan.cache.PlanResultCache` ``store=`` backing);
* parameter sweeps and many-user serving pay for each distinct
  computation once per fleet, not once per process.

Backends: :class:`~repro.store.base.MemoryStore` (process-local LRU),
:class:`~repro.store.filestore.FileStore` (durable, atomic writes,
mmap reads), :class:`~repro.store.filestore.SharedFileStore` (adds
cross-process compute dedup via advisory locks) and
:class:`~repro.store.filestore.TieredStore` (fast-over-durable
composition; :func:`~repro.store.filestore.default_store` is the
standard memory-over-shared-file stack honouring ``$REPRO_CACHE_DIR``).
"""

from repro.store.base import MemoryStore, ResultStore, StoreEntry, check_key
from repro.store.codec import (
    array_from_entry,
    entry_from_array,
    entry_from_ylt,
    ylt_from_entry,
)
from repro.store.filestore import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    FileStore,
    SharedFileStore,
    TieredStore,
    default_store,
    resolve_cache_dir,
)
from repro.store.gc import GCReport, collect_garbage, scan_entries
from repro.store.verify import (
    attach_checksums,
    entry_checksums,
    fetch_verified,
    verify_entry,
)
from repro.store.keys import (
    KEY_SCHEMA,
    SEGMENT_SCHEMA,
    analysis_key,
    canonical_bytes,
    fingerprint_digest,
    layer_fingerprint,
    portfolio_fingerprint,
    secondary_fingerprint,
    segment_key,
    ylt_digest,
)

__all__ = [
    "ResultStore",
    "StoreEntry",
    "MemoryStore",
    "FileStore",
    "SharedFileStore",
    "TieredStore",
    "default_store",
    "resolve_cache_dir",
    "DEFAULT_CACHE_DIR",
    "CACHE_DIR_ENV",
    "check_key",
    "entry_from_ylt",
    "ylt_from_entry",
    "entry_from_array",
    "array_from_entry",
    "analysis_key",
    "fingerprint_digest",
    "canonical_bytes",
    "portfolio_fingerprint",
    "secondary_fingerprint",
    "segment_key",
    "layer_fingerprint",
    "ylt_digest",
    "KEY_SCHEMA",
    "SEGMENT_SCHEMA",
    "GCReport",
    "collect_garbage",
    "scan_entries",
    "attach_checksums",
    "entry_checksums",
    "fetch_verified",
    "verify_entry",
]
