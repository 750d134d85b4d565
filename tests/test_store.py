"""Property-style invariants of the content-addressed result store.

Three families, mirroring the store's contract:

* **round-trip exactness** — random payloads survive every backend
  bit-for-bit (dtype, shape, byte pattern);
* **key separation** — any perturbation of an analysis input (ELT
  bytes, terms, YET, seed, dtype, lookup kind, secondary stream) produces a
  distinct key, and canonical serialisation never conflates values that
  merely compare equal;
* **damage tolerance** — truncated, corrupted or garbled entries are
  detected and demoted to misses (then recomputed), never returned.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.secondary import SecondaryUncertainty
from repro.data.generator import generate_workload
from repro.data.layer import LayerTerms
from repro.store import (
    FileStore,
    MemoryStore,
    SharedFileStore,
    StoreEntry,
    TieredStore,
    analysis_key,
    canonical_bytes,
    default_store,
    entry_from_ylt,
    fingerprint_digest,
    resolve_cache_dir,
    ylt_from_entry,
)
from repro.store.base import check_key
from tests.conftest import TINY_SPEC
from tests.storefiles import (
    PREFIX,
    header_of,
    replace_bytes,
    rewrite_header,
    write_v1_entry,
)

BACKENDS = ["memory", "file", "file-nommap", "shared", "tiered"]


def make_store(kind: str, tmp_path):
    if kind == "memory":
        return MemoryStore()
    if kind == "file":
        return FileStore(tmp_path / "cache")
    if kind == "file-nommap":
        return FileStore(tmp_path / "cache", mmap=False)
    if kind == "shared":
        return SharedFileStore(tmp_path / "cache")
    if kind == "tiered":
        return TieredStore(
            [MemoryStore(), SharedFileStore(tmp_path / "cache")]
        )
    raise AssertionError(kind)


def random_entry(rng: np.random.Generator) -> StoreEntry:
    dtype = rng.choice([np.float64, np.float32, np.int64, np.int32])
    shape_kind = rng.integers(0, 3)
    if shape_kind == 0:
        shape = (int(rng.integers(1, 200)),)
    elif shape_kind == 1:
        shape = (int(rng.integers(1, 8)), int(rng.integers(1, 50)))
    else:
        shape = (1,)
    if np.issubdtype(np.dtype(dtype), np.floating):
        data = rng.standard_normal(shape).astype(dtype)
        # exercise non-finite and signed-zero bit patterns too
        flat = data.reshape(-1)
        if flat.size >= 3:
            flat[0], flat[1], flat[2] = np.inf, -0.0, np.nan
    else:
        data = rng.integers(-(2**31), 2**31 - 1, size=shape).astype(dtype)
    return StoreEntry(
        arrays={"value": data, "aux": np.arange(3, dtype=np.int64)},
        meta={"tag": int(rng.integers(0, 1000))},
    )


# ----------------------------------------------------------------------
# Round-trip exactness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", BACKENDS)
def test_random_entries_round_trip_bitwise(kind, tmp_path, rng):
    store = make_store(kind, tmp_path)
    expected = {}
    for i in range(20):
        key = fingerprint_digest("round-trip", i)
        entry = random_entry(rng)
        store.put(key, entry)
        expected[key] = entry
    for key, entry in expected.items():
        got = store.get(key)
        assert got is not None
        assert set(got.arrays) == set(entry.arrays)
        for name, array in entry.arrays.items():
            stored = got.arrays[name]
            assert stored.dtype == array.dtype
            assert stored.shape == array.shape
            # bitwise, not allclose: NaNs and -0.0 must survive exactly
            assert (
                np.asarray(stored).tobytes() == np.asarray(array).tobytes()
            )
        assert got.meta["tag"] == entry.meta["tag"]
    assert len(store) == len(expected)


@pytest.mark.parametrize("kind", ["memory", "shared", "tiered"])
def test_seeded_ylt_round_trips_bitwise(kind, tmp_path, tiny_workload):
    from repro.core.analysis import AggregateRiskAnalysis

    result = AggregateRiskAnalysis(
        tiny_workload.portfolio, tiny_workload.catalog.n_events
    ).run(tiny_workload.yet, engine="sequential")
    store = make_store(kind, tmp_path)
    store.put("ylt", entry_from_ylt(result.ylt, meta={"engine": "sequential"}))
    back = ylt_from_entry(store.get("ylt"))
    assert back.layer_ids == result.ylt.layer_ids
    np.testing.assert_array_equal(back.losses, result.ylt.losses)
    assert back.losses.tobytes() == result.ylt.losses.tobytes()


def test_overwrite_same_key_keeps_latest(tmp_path):
    store = FileStore(tmp_path)
    a = StoreEntry(arrays={"value": np.zeros(4)})
    b = StoreEntry(arrays={"value": np.ones(4)})
    store.put("k", a)
    store.put("k", b)
    np.testing.assert_array_equal(store.get("k").arrays["value"], np.ones(4))
    assert len(store) == 1


# ----------------------------------------------------------------------
# Key separation
# ----------------------------------------------------------------------
def test_canonical_bytes_distinguishes_lookalike_values():
    lookalikes = [
        1,
        1.0,
        "1",
        True,
        b"1",
        (1,),
        [1, None],
        {"a": 1},
        {"a": "1"},
        -0.0,
        0.0,
        None,
        "",
        (),
    ]
    blobs = {canonical_bytes(v) for v in lookalikes}
    assert len(blobs) == len(lookalikes)


def test_canonical_bytes_rejects_unserialisable():
    with pytest.raises(TypeError):
        canonical_bytes(object())


def test_analysis_keys_separate_every_perturbation(tmp_path):
    """Distinct fingerprints on every (ELT set, YET, seed, dtype,
    secondary) perturbation: the no-collision property the store's
    hit-is-the-answer design rests on."""
    from repro.core.analysis import AggregateRiskAnalysis

    def key_for(spec, dtype="<f8", secondary=None, seed=0,
                lookup_kind="direct"):
        workload = generate_workload(spec)
        ara = AggregateRiskAnalysis(
            workload.portfolio, workload.catalog.n_events
        )
        plan = ara.plan(workload.yet, engine="sequential")
        return analysis_key(
            plan,
            workload.yet,
            workload.portfolio,
            dtype=dtype,
            lookup_kind=lookup_kind,
            secondary=secondary,
            secondary_seed=seed,
        )

    su = SecondaryUncertainty(4.0, 4.0)
    keys = [
        key_for(TINY_SPEC),
        key_for(TINY_SPEC.with_(seed=999)),            # different workload
        key_for(TINY_SPEC.with_(n_trials=61)),         # different YET shape
        key_for(TINY_SPEC.with_(losses_per_elt=81)),   # different ELT bytes
        key_for(TINY_SPEC, dtype="<f4"),               # different precision
        key_for(TINY_SPEC, lookup_kind="sorted"),      # different lookup
        key_for(TINY_SPEC, secondary=su),              # secondary on
        key_for(TINY_SPEC, secondary=su, seed=1),      # different stream
        key_for(TINY_SPEC, secondary=SecondaryUncertainty(2.0, 2.0)),
    ]
    assert len(set(keys)) == len(keys)


def test_analysis_key_separates_layer_terms(tiny_workload):
    from repro.core.analysis import AggregateRiskAnalysis
    from repro.data.layer import Portfolio

    base = tiny_workload.portfolio
    elts = base.elts_of(base.layers[0])
    plain = Portfolio.single_layer(elts)
    tweaked = Portfolio.single_layer(
        elts, terms=LayerTerms(occ_retention=1.0)
    )
    keys = set()
    for portfolio in (plain, tweaked):
        plan = AggregateRiskAnalysis(
            portfolio, tiny_workload.catalog.n_events
        ).plan(tiny_workload.yet, engine="sequential")
        keys.add(
            analysis_key(
                plan, tiny_workload.yet, portfolio,
                dtype="<f8", lookup_kind="direct",
            )
        )
    assert len(keys) == 2


def test_store_key_validation():
    for bad in ("", "a/b", "a b", "x" * 201, 42):
        with pytest.raises((ValueError, TypeError)):
            check_key(bad)
    assert check_key("Abc-12_3.z") == "Abc-12_3.z"


# ----------------------------------------------------------------------
# Damage tolerance
# ----------------------------------------------------------------------
# Every damaged entry reads as a miss, is counted once, and is removed
# by the read that saw it, so the next compute repairs it.  Entry files
# (the current format) come first; each v1 directory test below them
# seeds the older layout through ``tests.storefiles.write_v1_entry``.
VALUE = np.arange(64, dtype=np.float64)


@pytest.fixture()
def damaged_setup(tmp_path):
    store = SharedFileStore(tmp_path)
    key = fingerprint_digest("damage")
    store.put(key, StoreEntry(arrays={"value": VALUE}))
    return store, key, store.entry_path(key)


@pytest.fixture()
def v1_setup(tmp_path):
    store = SharedFileStore(tmp_path)
    key = fingerprint_digest("damage")
    path = write_v1_entry(store, key, StoreEntry(arrays={"value": VALUE}))
    return store, key, path


def assert_healed_miss(store, key, path):
    assert store.get(key) is None
    assert store.corrupt_misses == 1
    assert not path.exists()


def test_entry_is_one_file(damaged_setup):
    store, key, path = damaged_setup
    assert path.is_file()
    assert header_of(path)["arrays"][0]["name"] == "value"
    assert list((store.cache_dir / "tmp").iterdir()) == []


@pytest.mark.parametrize("cut", [40, -8])
def test_truncated_entry_file_is_a_miss(damaged_setup, cut):
    store, key, path = damaged_setup
    replace_bytes(path, path.read_bytes()[:cut])
    assert_healed_miss(store, key, path)


def test_empty_entry_file_is_a_miss(damaged_setup):
    store, key, path = damaged_setup
    replace_bytes(path, b"")
    assert_healed_miss(store, key, path)


def test_flipped_bytes_fail_checksum(damaged_setup):
    store, key, path = damaged_setup
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF  # an array byte; the header stays valid
    replace_bytes(path, bytes(blob))
    assert_healed_miss(store, key, path)


def test_garbled_header_is_a_miss(damaged_setup):
    store, key, path = damaged_setup
    rewrite_header(path, b"{not json")  # with a matching header CRC
    assert_healed_miss(store, key, path)


def test_header_checksum_mismatch_is_a_miss(damaged_setup):
    store, key, path = damaged_setup
    blob = bytearray(path.read_bytes())
    blob[PREFIX.size + 3] ^= 0x01  # a header byte, CRC left stale
    replace_bytes(path, bytes(blob))
    assert_healed_miss(store, key, path)


def test_header_offset_past_eof_is_a_miss(damaged_setup):
    store, key, path = damaged_setup
    header = header_of(path)
    header["arrays"][0]["offset"] = path.stat().st_size
    rewrite_header(path, header)
    assert_healed_miss(store, key, path)


def test_indented_header_still_loads(damaged_setup):
    """The reader depends on the header's content, not its layout."""
    store, key, path = damaged_setup
    rewrite_header(path, header_of(path))  # re-sealed with indent=1
    entry = store.get(key)
    assert entry is not None
    np.testing.assert_array_equal(entry.arrays["value"], VALUE)
    assert not entry.arrays["value"].flags.writeable
    assert store.corrupt_misses == 0


def test_wrong_format_tag_is_a_miss(damaged_setup):
    store, key, path = damaged_setup
    blob = path.read_bytes()
    replace_bytes(path, b"someone-elses-v9" + blob[16:])
    assert_healed_miss(store, key, path)


def test_entry_published_mid_read_is_not_damage(damaged_setup, monkeypatch):
    """A put that renames a fresh file over the entry while a reader
    holds the old one open: the reader still gets the complete old
    entry, and nothing is counted or deleted."""
    import os

    store, key, path = damaged_setup
    real_fstat = os.fstat
    published = []

    def fstat_racing_a_put(fd):
        if not published:
            published.append(fd)
            store.put(key, StoreEntry(arrays={"value": VALUE}))
        return real_fstat(fd)

    monkeypatch.setattr(os, "fstat", fstat_racing_a_put)
    entry = store.get(key)
    monkeypatch.undo()
    assert published
    np.testing.assert_array_equal(entry.arrays["value"], VALUE)
    assert store.corrupt_misses == 0
    assert store.get(key) is not None


def test_damaged_file_replaced_mid_read_keeps_the_fresh_entry(
    damaged_setup, monkeypatch
):
    """Self-heal removes only the file it read: a good entry renamed
    over the damaged one meanwhile survives."""
    import os

    store, key, path = damaged_setup
    replace_bytes(path, b"")
    real_fstat = os.fstat
    published = []

    def fstat_racing_a_put(fd):
        if not published:
            published.append(fd)
            store.put(key, StoreEntry(arrays={"value": VALUE}))
        return real_fstat(fd)

    monkeypatch.setattr(os, "fstat", fstat_racing_a_put)
    assert store.get(key) is None  # the damaged file it opened
    monkeypatch.undo()
    assert store.corrupt_misses == 1
    np.testing.assert_array_equal(store.get(key).arrays["value"], VALUE)


def test_corrupt_entry_is_recomputed_not_served(damaged_setup):
    store, key, path = damaged_setup
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    replace_bytes(path, bytes(blob))
    assert_recomputed(store, key)


def assert_recomputed(store, key):
    fresh = np.arange(64, dtype=np.float64)
    computes = []

    def compute():
        computes.append(1)
        return StoreEntry(arrays={"value": fresh})

    entry = store.get_or_compute(key, compute)
    assert computes == [1]
    np.testing.assert_array_equal(entry.arrays["value"], fresh)
    # repaired: the next get is a clean hit
    assert store.get(key) is not None
    assert store.entry_path(key).is_file()


# -- the same damage on v1 entry directories ---------------------------
def test_v1_entry_reads_back(v1_setup):
    store, key, entry_dir = v1_setup
    assert store.contains(key)
    assert len(store) == 1
    entry = store.get(key)
    np.testing.assert_array_equal(entry.arrays["value"], VALUE)
    assert not entry.arrays["value"].flags.writeable
    assert store.corrupt_misses == 0


def test_truncated_npy_is_a_miss(v1_setup):
    store, key, entry_dir = v1_setup
    npy = entry_dir / "value.npy"
    npy.write_bytes(npy.read_bytes()[:40])
    assert store.get(key) is None
    assert store.corrupt_misses == 1
    # and the bad entry was removed so the next compute repairs it
    assert not entry_dir.exists()


def test_flipped_bytes_fail_checksum_v1(v1_setup):
    store, key, entry_dir = v1_setup
    npy = entry_dir / "value.npy"
    blob = bytearray(npy.read_bytes())
    blob[-5] ^= 0xFF  # corrupt payload, keep the npy header valid
    npy.write_bytes(bytes(blob))
    assert_healed_miss(store, key, entry_dir)


def test_garbled_meta_json_is_a_miss(v1_setup):
    store, key, entry_dir = v1_setup
    (entry_dir / "meta.json").write_text("{not json")
    assert_healed_miss(store, key, entry_dir)


def test_entry_published_mid_read_is_not_damage_v1(v1_setup, monkeypatch):
    """A reader whose manifest stat precedes the manifest's appearance
    (and whose directory stat follows it) sees a miss; it must not
    delete the entry as a directory without a manifest."""
    from pathlib import Path

    store, key, entry_dir = v1_setup
    real_is_file = Path.is_file
    first = []

    def is_file_before_publish(path):
        if path == entry_dir / "meta.json" and not first:
            first.append(path)
            return False
        return real_is_file(path)

    monkeypatch.setattr(Path, "is_file", is_file_before_publish)
    assert store.get(key) is None
    assert store.corrupt_misses == 0
    assert store.get(key) is not None


def test_missing_array_file_is_a_miss(v1_setup):
    store, key, entry_dir = v1_setup
    (entry_dir / "value.npy").unlink()
    assert_healed_miss(store, key, entry_dir)


def test_indented_meta_json_still_loads(v1_setup):
    """Entries written with the earlier ``indent=1`` manifest layout."""
    store, key, entry_dir = v1_setup
    meta = json.loads((entry_dir / "meta.json").read_text())
    (entry_dir / "meta.json").write_text(json.dumps(meta, indent=1))
    entry = store.get(key)
    assert entry is not None
    np.testing.assert_array_equal(entry.arrays["value"], VALUE)
    assert store.corrupt_misses == 0


def test_wrong_format_tag_is_a_miss_v1(v1_setup):
    store, key, entry_dir = v1_setup
    meta = json.loads((entry_dir / "meta.json").read_text())
    meta["format"] = "someone-elses-cache-v9"
    (entry_dir / "meta.json").write_text(json.dumps(meta))
    assert_healed_miss(store, key, entry_dir)


def test_corrupt_entry_is_recomputed_not_served_v1(v1_setup):
    store, key, entry_dir = v1_setup
    npy = entry_dir / "value.npy"
    blob = bytearray(npy.read_bytes())
    blob[-1] ^= 0x01
    npy.write_bytes(bytes(blob))
    assert_recomputed(store, key)  # rewritten as an entry file


def test_put_replaces_a_v1_entry_of_the_same_key(v1_setup):
    store, key, entry_dir = v1_setup
    store.put(key, StoreEntry(arrays={"value": VALUE + 1}))
    assert entry_dir.is_file()
    np.testing.assert_array_equal(store.get(key).arrays["value"], VALUE + 1)
    assert len(store) == 1


# ----------------------------------------------------------------------
# Bounds, eviction, tiering, configuration
# ----------------------------------------------------------------------
def test_memory_store_lru_eviction_counts():
    store = MemoryStore(max_entries=3)
    for i in range(6):
        store.put(f"k{i}", StoreEntry(arrays={"value": np.zeros(2)}))
    assert len(store) == 3
    assert store.evictions == 3
    assert store.get("k0") is None
    assert store.get("k5") is not None
    assert store.stats()["evictions"] == 3


def test_memory_store_byte_budget():
    store = MemoryStore(max_entries=None, max_bytes=100 * 8)
    for i in range(10):
        store.put(f"k{i}", StoreEntry(arrays={"value": np.zeros(30)}))
    assert store.nbytes <= 100 * 8
    assert store.evictions > 0


def test_memory_store_detaches_from_caller_buffers():
    store = MemoryStore()
    scratch = np.arange(8, dtype=np.float64)
    store.put("k", StoreEntry(arrays={"value": scratch}))
    scratch[:] = -1.0
    np.testing.assert_array_equal(
        store.get("k").arrays["value"], np.arange(8, dtype=np.float64)
    )
    with pytest.raises(ValueError):
        store.get("k").arrays["value"][0] = 5.0  # frozen


def test_tiered_store_promotes_file_hits_to_memory(tmp_path):
    file_store = SharedFileStore(tmp_path)
    file_store.put("k", StoreEntry(arrays={"value": np.ones(4)}))
    memory = MemoryStore()
    tiered = TieredStore([memory, file_store])
    assert tiered.get("k") is not None
    assert memory._get("k") is not None  # promoted
    assert tiered.stats()["hits"] == 1


def test_default_store_honours_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from-env"))
    assert resolve_cache_dir() == tmp_path / "from-env"
    store = default_store()
    store.put("k", StoreEntry(arrays={"value": np.ones(2)}))
    assert (tmp_path / "from-env" / "objects").is_dir()
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"


def test_plan_result_cache_eviction_stats_and_store_backing(tmp_path):
    from repro.plan.cache import PlanResultCache

    backing = SharedFileStore(tmp_path)
    cache = PlanResultCache(maxsize=2, store=backing, namespace="t")
    for i in range(5):
        cache.get_or_compute(("key", i), lambda i=i: np.full(4, float(i)))
    stats = cache.stats()
    assert stats["size"] == 2
    assert stats["evictions"] == 3
    assert stats["store_puts"] == 5
    # evicted keys come back from the backing store, not a recompute
    value = cache.get_or_compute(
        ("key", 0), lambda: pytest.fail("should not recompute")
    )
    np.testing.assert_array_equal(np.asarray(value), np.zeros(4))
    assert cache.stats()["store_hits"] == 1

    # a fresh cache (new process) over the same backing store hits too
    fresh = PlanResultCache(maxsize=2, store=SharedFileStore(tmp_path), namespace="t")
    value = fresh.get_or_compute(
        ("key", 3), lambda: pytest.fail("should not recompute")
    )
    np.testing.assert_array_equal(np.asarray(value), np.full(4, 3.0))
