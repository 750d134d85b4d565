"""REPLAY-ABLATE benchmark: the persistent result store, measured.

Runs the ``REPLAY-ABLATE`` experiment (cold sequential analysis vs warm
replays from the memory and file tiers of a
:class:`~repro.store.TieredStore`, plus the cross-process quote-reuse
rows where a *child process* warms a shared file store) and writes a
``BENCH_replay.json`` artifact to the git-ignored ``.bench_build/``
(see :func:`~repro.bench.runner.bench_artifact`) to track the replay
win across the repository's history.

Guards:

* warm replay (memory **and** file tier) must be at least **5x** faster
  than the cold run — the headline claim of the persistence layer
  (typically ~20-35x in this container);
* replayed YLTs must be **bit-identical** to the cold run's (digest
  equality) and must execute **zero** engine tasks;
* the fleet-warmed quote batch must compute **zero** base vectors (the
  base pass came from another process's store entry) and never be
  slower than the storeless service; the fully-warm replay batch must
  clear a 1.5x floor.

The gates on measured speedups carry the ``wallclock`` marker: they
flip with machine load, so tier-1 leaves them out and CI's replay-bench
job runs them at the same bounds.  The digest, execution-count and
cache-hit gates stay in tier-1.
"""

import json

import pytest

from repro.bench.experiments import replay_ablation
from repro.bench.runner import bench_artifact

ARTIFACT = bench_artifact("BENCH_replay.json")
N_CANDIDATES = 8

#: the CI floor for warm whole-analysis replay over a cold run.
WARM_REPLAY_FLOOR = 5.0


@pytest.fixture(scope="module")
def replay_report(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("replay-store")
    return replay_ablation(n_candidates=N_CANDIDATES, cache_dir=cache_dir)


@pytest.fixture(scope="module")
def rows_by_mode(replay_report):
    return {row["mode"]: row for row in replay_report.rows}


@pytest.fixture(scope="module")
def artifact_data(replay_report):
    artifact = {
        "benchmark": "replay_ablate",
        "experiment": replay_report.exp_id,
        "n_candidates": N_CANDIDATES,
        "warm_replay_floor": WARM_REPLAY_FLOOR,
        "rows": replay_report.rows,
        "notes": replay_report.notes,
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def test_artifact_written(artifact_data):
    data = json.loads(ARTIFACT.read_text())
    assert data["benchmark"] == "replay_ablate"
    modes = {row["mode"] for row in data["rows"]}
    assert modes == {
        "cold",
        "warm-memory",
        "warm-file",
        "quote-cold",
        "quote-warm-xproc",
        "quote-replay",
    }


@pytest.mark.wallclock
def test_warm_replay_clears_5x_floor(rows_by_mode):
    """Hard CI gate: replaying an identical analysis from the store
    must beat re-running it by at least 5x — from the in-memory tier
    *and* from the file tier (a restarted process's first hit)."""
    for mode in ("warm-memory", "warm-file"):
        assert rows_by_mode[mode]["speedup_vs_cold"] >= WARM_REPLAY_FLOOR, (
            rows_by_mode[mode]
        )


def test_replay_is_bit_identical_with_zero_executions(rows_by_mode):
    """A store hit is the stored YLT byte-for-byte, produced without
    executing a single engine task."""
    cold_digest = rows_by_mode["cold"]["ylt_digest"]
    for mode in ("warm-memory", "warm-file"):
        row = rows_by_mode[mode]
        assert row["ylt_digest"] == cold_digest, row
        assert row["executions"] == 0, row
        assert row["replay_hit"] is True, row


def test_cross_process_quote_reuse(rows_by_mode):
    """The fleet shape: a separate process persisted the base vector;
    this process's batch must reuse it (one base-cache store hit, zero
    base computations)."""
    row = rows_by_mode["quote-warm-xproc"]
    base = row["base_cache"]
    # The single cache-level miss was satisfied by the store: compute
    # avoided entirely.
    assert base["misses"] == 1, row
    assert base["store_hits"] == 1, row


@pytest.mark.wallclock
def test_cross_process_quote_reuse_never_slower(rows_by_mode):
    """The store-warmed batch never loses to the storeless service."""
    row = rows_by_mode["quote-warm-xproc"]
    assert row["speedup_vs_cold"] >= 1.0, row


def test_fully_warm_quote_replay(rows_by_mode):
    """Steady-state serving: every loss vector of the batch comes from
    the store."""
    row = rows_by_mode["quote-replay"]
    assert row["loss_cache"]["store_hits"] == N_CANDIDATES, row


@pytest.mark.wallclock
def test_fully_warm_quote_replay_clears_1_5x(rows_by_mode):
    """A fully persisted batch replays well clear of recomputation."""
    row = rows_by_mode["quote-replay"]
    assert row["speedup_vs_cold"] >= 1.5, row
