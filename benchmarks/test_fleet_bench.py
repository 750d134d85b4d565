"""FLEET-ABLATE benchmark: distributed sweeps, measured and guarded.

Runs the ``FLEET-ABLATE`` experiment (cold fleet sweeps at 1 and 4
workers, then a 10%-delta re-sweep against the warmed store) and writes
a ``BENCH_fleet.json`` artifact to the git-ignored ``.bench_build/``
(see :func:`~repro.bench.runner.bench_artifact`) to track the fleet's
scaling and delta-reuse wins.

Guards:

* the **modeled 4-worker makespan** (measured per-job seconds, LPT onto
  4 workers — the fleet analogue of the simulated-GPU cost models) must
  beat the single-worker makespan by at least **2x**; on hosts with
  >= 4 usable cores the *measured* wall-clock must additionally show
  real overlap (threads share nothing but the queue and store);
* a **10%-delta re-sweep** against the warmed store must beat a cold
  sweep of the same extended input by at least **5x**, and must enqueue
  only the new tail's segments;
* every fleet-assembled YLT must be **bit-identical** (digest equality)
  to the monolithic sequential run of the same input.

The gates on measured wall-clock ratios (the measured scale-out, the 5x
delta re-sweep and the fleet overhead bound) carry the ``wallclock``
marker: they flip with machine load, so tier-1 leaves them out and
CI's fleet-bench job runs them at the same bounds.  The digest,
enqueue-count and modeled-makespan gates stay in tier-1.
"""

import json

import pytest

from repro.bench.experiments import fleet_ablation
from repro.bench.runner import bench_artifact
from repro.utils.parallel import available_cpu_count

ARTIFACT = bench_artifact("BENCH_fleet.json")

N_WORKERS = 4

#: CI floor for the modeled 4-worker makespan over 1 worker.
MODELED_SCALEOUT_FLOOR = 2.0

#: CI floor for measured wall overlap, only meaningful with >= 4 cores.
MEASURED_SCALEOUT_FLOOR = 1.5

#: CI floor for the 10%-delta re-sweep over a cold extended sweep.
DELTA_RESWEEP_FLOOR = 5.0


@pytest.fixture(scope="module")
def fleet_report(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("fleet-bench")
    return fleet_ablation(n_workers=N_WORKERS, cache_dir=cache_dir)


@pytest.fixture(scope="module")
def rows_by_mode(fleet_report):
    return {row["mode"]: row for row in fleet_report.rows}


@pytest.fixture(scope="module")
def artifact_data(fleet_report):
    artifact = {
        "benchmark": "fleet_ablate",
        "experiment": fleet_report.exp_id,
        "n_workers": N_WORKERS,
        "modeled_scaleout_floor": MODELED_SCALEOUT_FLOOR,
        "delta_resweep_floor": DELTA_RESWEEP_FLOOR,
        "available_cpus": available_cpu_count(),
        "rows": fleet_report.rows,
        "notes": fleet_report.notes,
    }
    # The chaos bench (test_chaos_bench.py, ``-m chaos``) shares this
    # artifact: preserve its rows when they were written first.
    if ARTIFACT.exists():
        try:
            previous = json.loads(ARTIFACT.read_text())
        except (ValueError, OSError):
            previous = {}
        if "chaos" in previous:
            artifact["chaos"] = previous["chaos"]
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def test_artifact_written(artifact_data):
    data = json.loads(ARTIFACT.read_text())
    assert data["benchmark"] == "fleet_ablate"
    modes = {row["mode"] for row in data["rows"]}
    assert modes == {
        "monolithic",
        "fleet-1",
        f"fleet-{N_WORKERS}",
        "delta-cold",
        "delta-resweep",
    }


def test_modeled_fleet_scaleout_clears_2x_floor(rows_by_mode):
    """Hard CI gate: a 4-worker fleet's modeled makespan (measured
    per-job seconds, LPT-scheduled) must beat a single worker's by at
    least 2x — the jobs are balanced enough, and numerous enough, that
    anything less means the decomposition is broken."""
    row = rows_by_mode[f"fleet-{N_WORKERS}"]
    assert row["modeled_speedup"] >= MODELED_SCALEOUT_FLOOR, row


@pytest.mark.wallclock
@pytest.mark.skipif(
    available_cpu_count() < N_WORKERS,
    reason="measured thread overlap needs >= 4 usable cores "
    "(the modeled-makespan guard runs everywhere)",
)
def test_measured_fleet_scaleout_on_multicore_hosts(rows_by_mode):
    row = rows_by_mode[f"fleet-{N_WORKERS}"]
    assert row["measured_speedup_vs_1"] >= MEASURED_SCALEOUT_FLOOR, row


@pytest.mark.wallclock
def test_delta_resweep_clears_5x_floor(rows_by_mode):
    """Hard CI gate: re-sweeping a 10%-extended input against the
    warmed store must beat a cold sweep of the same input by at least
    5x — the store-aware planner's reason to exist."""
    row = rows_by_mode["delta-resweep"]
    assert row["speedup_vs_cold"] >= DELTA_RESWEEP_FLOOR, row


def test_delta_resweep_enqueues_only_the_tail(rows_by_mode):
    """The 10% extension adds two tail segments per layer (the last
    stride boundary splits); everything else must be store reuse."""
    resweep = rows_by_mode["delta-resweep"]
    cold = rows_by_mode["delta-cold"]
    assert cold["reused"] == 0
    assert resweep["jobs"] + resweep["reused"] == cold["jobs"]
    assert resweep["jobs"] == 4  # 2 layers x 2 new tail segments
    assert resweep["reused"] == 32


def test_fleet_assembly_is_bit_identical(rows_by_mode):
    """Assembled fleet YLTs equal the monolithic sequential run's
    digest — at every worker count, and for the delta re-sweep against
    its own monolithic baseline."""
    mono_digest = rows_by_mode["monolithic"]["ylt_digest"]
    assert rows_by_mode["fleet-1"]["ylt_digest"] == mono_digest
    assert rows_by_mode[f"fleet-{N_WORKERS}"]["ylt_digest"] == mono_digest
    resweep = rows_by_mode["delta-resweep"]
    assert resweep["ylt_digest"] == resweep["monolithic_extended_digest"]
    assert rows_by_mode["delta-cold"]["ylt_digest"] == resweep["ylt_digest"]


@pytest.mark.wallclock
def test_fleet_overhead_is_bounded(rows_by_mode):
    """Queue + store coordination may tax a single-worker sweep, but a
    blowup over the monolithic run means something regressed (sanity
    bound, deliberately loose: disk speed varies across CI hosts)."""
    mono = rows_by_mode["monolithic"]["measured_seconds"]
    fleet_1 = rows_by_mode["fleet-1"]["measured_seconds"]
    assert fleet_1 <= 5.0 * mono, (fleet_1, mono)
