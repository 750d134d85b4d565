"""SCENARIO-ABLATE benchmark: what-if campaigns, guarded.

Runs the ``SCENARIO-ABLATE`` experiment (a baseline + crisis-overlay
scenario set campaigned twice against fresh stores, priced
monolithically for reference, and re-campaigned under an early-stop
policy) and writes its rows to ``BENCH_scenarios.json``.

Marked ``scenario`` — excluded from the default (tier-1) pytest run via
``addopts`` and executed by CI's dedicated scenario-bench job with
``-m scenario``.

Guards (hard CI gates):

* **determinism** — same scenario spec + seed → bit-identical YLT
  digests across independent campaign runs *and* vs a monolithic
  ``Engine.run`` on the compiled inputs (local-vs-fleet equality);
* **delta reuse** — the 10%-window overlay re-sweep computes at most
  2x its perturbed fraction of segments, the rest served from the
  baseline's stored segments;
* **early-stop soundness** — scenarios stopped by the policy report
  PML/TVaR within the policy's declared tolerance of their exact
  full-trial metrics (and the staging actually saves compute).
"""

import json

import pytest

from repro.bench.experiments import scenario_ablation
from repro.bench.runner import bench_artifact

pytestmark = pytest.mark.scenario

ARTIFACT = bench_artifact("BENCH_scenarios.json")

N_WORKERS = 2
SEGMENT_TRIALS = 100
OVERLAY_WINDOW = 200

#: the delta gate: executed fraction ≤ this multiple of the perturbed
#: fraction (2x leaves room for stride-rounding at window edges).
DELTA_SLACK = 2.0


@pytest.fixture(scope="module")
def scenario_report(tmp_path_factory):
    base_dir = tmp_path_factory.mktemp("scenario-bench")
    return scenario_ablation(
        n_workers=N_WORKERS,
        segment_trials=SEGMENT_TRIALS,
        overlay_window=OVERLAY_WINDOW,
        base_dir=base_dir,
    )


@pytest.fixture(scope="module")
def rows_by_mode(scenario_report):
    return {row["mode"]: row for row in scenario_report.rows}


@pytest.fixture(scope="module")
def artifact_data(scenario_report):
    data = {
        "benchmark": "scenario_ablate",
        "experiment": scenario_report.exp_id,
        "n_workers": N_WORKERS,
        "segment_trials": SEGMENT_TRIALS,
        "overlay_window": OVERLAY_WINDOW,
        "delta_slack": DELTA_SLACK,
        "rows": scenario_report.rows,
        "notes": scenario_report.notes,
    }
    ARTIFACT.write_text(json.dumps(data, indent=2) + "\n")
    return data


def test_artifact_carries_all_rows(artifact_data):
    data = json.loads(ARTIFACT.read_text())
    modes = {row["mode"] for row in data["rows"]}
    assert modes == {
        "campaign-baseline",
        "campaign-hurricane-surge",
        "early-stop-baseline",
        "early-stop-hurricane-surge",
    }


def test_campaign_digests_are_deterministic(rows_by_mode):
    """Hard CI gate (a): same spec + seed → bit-identical YLTs across
    independent campaign runs and vs local monolithic execution."""
    for mode in ("campaign-baseline", "campaign-hurricane-surge"):
        row = rows_by_mode[mode]
        assert row["rerun_digest_equal"] is True, row
        assert row["mono_digest_equal"] is True, row


def test_overlay_recomputes_only_its_delta(rows_by_mode):
    """Hard CI gate (b): a 10%-perturbation overlay executes ≤ 2x its
    perturbed fraction of segments, with the baseline served from the
    store."""
    baseline = rows_by_mode["campaign-baseline"]
    overlay = rows_by_mode["campaign-hurricane-surge"]
    # the baseline was a cold sweep (everything computed) …
    assert baseline["computed"] == baseline["segments"], baseline
    # … and the overlay genuinely reused stored baseline segments
    assert overlay["reused"] > 0, overlay
    assert 0.0 < overlay["perturbed_fraction"] < 1.0, overlay
    assert (
        overlay["executed_fraction"]
        <= DELTA_SLACK * overlay["perturbed_fraction"]
    ), overlay
    # well under cold: the overlay computed a strict minority
    assert overlay["computed"] < overlay["segments"] / 2, overlay


def test_early_stop_is_sound(rows_by_mode):
    """Hard CI gate (c): stopped scenarios' PML/TVaR sit within the
    policy's declared tolerance of their exact full-trial metrics."""
    stopped = 0
    for mode in ("early-stop-baseline", "early-stop-hurricane-surge"):
        row = rows_by_mode[mode]
        assert row["pml_rel_diff"] <= row["tolerance"], row
        assert row["tvar_rel_diff"] <= row["tolerance"], row
        if row["early_stopped"]:
            stopped += 1
            assert row["trials_used"] < row["n_trials"], row
    # the policy must actually have stopped something, or the gate is vacuous
    assert stopped >= 1


def test_early_stopped_overlay_still_reuses_delta(rows_by_mode):
    """Staging composes with delta reuse: the overlay's early-stopped
    run computes only its perturbed window within the stages it ran."""
    row = rows_by_mode["early-stop-hurricane-surge"]
    full = rows_by_mode["campaign-hurricane-surge"]
    assert row["computed"] <= full["computed"], (row, full)
