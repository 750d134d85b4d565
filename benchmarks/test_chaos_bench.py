"""CHAOS-ABLATE benchmark: fleet sweeps under injected faults, guarded.

Runs the ``CHAOS-ABLATE`` experiment (fault-free baseline, a worker
kill, a store-fault cocktail, a split-brain cocktail — all through the
same chaos harness) and merges its rows under the ``"chaos"`` key of
``BENCH_fleet.json``, so the fleet artifact carries both the scaling
story and the robustness story.

Marked ``chaos`` — excluded from the default (tier-1) pytest run via
``addopts`` and executed by CI's dedicated chaos-bench job with
``-m chaos``.

Guards (hard CI gates):

* **digest equality** — every chaos run assembles the byte-identical
  YLT of the fault-free baseline, under worker kills and under store
  corruption;
* **bounded inflation** — killing 1 of 4 workers at its first claim
  inflates the sweep's makespan at most **2x** (lease expiry + peer
  requeue + speculation must actually recover, not merely eventually);
* **zero duplicate-compute leaks** — every compute beyond the initial
  missing set is accounted to an invalidated (durably damaged, deleted)
  entry or a dropped put; the exactly-once machinery never double-runs
  a segment in-process.
"""

import json

import pytest

from repro.bench.experiments import chaos_ablation
from repro.bench.runner import bench_artifact

pytestmark = pytest.mark.chaos

ARTIFACT = bench_artifact("BENCH_fleet.json")

N_WORKERS = 4

#: CI ceiling for makespan inflation with 1 of 4 workers killed.
KILL_INFLATION_CEILING = 2.0


@pytest.fixture(scope="module")
def chaos_report(tmp_path_factory):
    base_dir = tmp_path_factory.mktemp("chaos-bench")
    return chaos_ablation(n_workers=N_WORKERS, base_dir=base_dir)


@pytest.fixture(scope="module")
def rows_by_mode(chaos_report):
    return {row["mode"]: row for row in chaos_report.rows}


@pytest.fixture(scope="module")
def artifact_data(chaos_report):
    data = {}
    if ARTIFACT.exists():
        try:
            data = json.loads(ARTIFACT.read_text())
        except (ValueError, OSError):
            data = {}
    data.setdefault("benchmark", "fleet_ablate")
    data["chaos"] = {
        "experiment": chaos_report.exp_id,
        "n_workers": N_WORKERS,
        "kill_inflation_ceiling": KILL_INFLATION_CEILING,
        "rows": chaos_report.rows,
        "notes": chaos_report.notes,
    }
    ARTIFACT.write_text(json.dumps(data, indent=2) + "\n")
    return data


def test_artifact_carries_chaos_rows(artifact_data):
    data = json.loads(ARTIFACT.read_text())
    modes = {row["mode"] for row in data["chaos"]["rows"]}
    assert modes == {"baseline", "kill-1", "store-faults", "split-brain"}


def test_digest_equality_under_worker_kill(rows_by_mode):
    """Hard CI gate: a killed worker changes wall-clock, never bytes —
    and the fault must actually have fired for the run to prove it."""
    row = rows_by_mode["kill-1"]
    assert row["digest_matches_baseline"], row
    assert row["workers_killed"] == 1, row
    assert row["fault_counts"].get("kill") == 1, row


def test_digest_equality_under_store_corruption(rows_by_mode):
    """Hard CI gate: torn writes, read corruption and IO errors are
    retried/healed/recomputed into the byte-identical YLT."""
    row = rows_by_mode["store-faults"]
    assert row["digest_matches_baseline"], row
    assert row["fault_counts"].get("torn_write", 0) >= 1, row
    assert row["fault_counts"].get("corrupt", 0) >= 1, row
    assert row["fault_counts"].get("io_error", 0) >= 1, row
    # the torn entry was detected end-to-end and deleted (healed).
    assert row["invalidated"] >= 1, row


def test_digest_equality_under_split_brain(rows_by_mode):
    row = rows_by_mode["split-brain"]
    assert row["digest_matches_baseline"], row
    assert row["fault_counts"].get("duplicate_claim", 0) >= 1, row


def test_kill_inflation_is_bounded(rows_by_mode):
    """Hard CI gate: losing 1 of 4 workers at its first claim costs at
    most 2x wall-clock — recovery (lease requeue + speculation) works
    within the sweep, not merely eventually."""
    row = rows_by_mode["kill-1"]
    assert row["inflation_vs_baseline"] <= KILL_INFLATION_CEILING, row


def test_zero_duplicate_compute_leaks(rows_by_mode):
    """Hard CI gate: computes beyond the initial missing set must be
    exactly the invalidated entries + dropped puts — the store's
    exactly-once dedup holds under every injected fault plan."""
    for mode, row in rows_by_mode.items():
        if "duplicate_compute_leaks" in row:
            assert row["duplicate_compute_leaks"] == 0, (mode, row)
