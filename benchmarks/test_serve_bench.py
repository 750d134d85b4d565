"""SERVE-ABLATE benchmark: SLO-grade quote serving, guarded.

Runs the ``SERVE-ABLATE`` experiment — closed-loop capacity anchor,
open-loop offered load at 0.5x/1x/2x capacity through the admission-
controlled front-end, and store-backed quoting under injected tier-0
latency with hedged reads off/on — and writes ``BENCH_serve.json``.

Marked ``serve`` — excluded from the default (tier-1) pytest run via
``addopts`` and executed by CI's dedicated serve-bench job with
``-m serve``.

Guards (hard CI gates):

* **typed sheds, no silent timeouts** — at 2x capacity the excess is
  refused with typed ``Overloaded``; errors stay zero;
* **SLO holds for the admitted** — p99 of admitted requests stays under
  the per-request deadline even at 2x offered load (deadline
  enforcement makes this structural, the gate proves it stayed so);
* **goodput under overload** — at 2x the service still completes at
  least 70% of its measured closed-loop capacity (admission protects
  throughput instead of collapsing it);
* **hedged reads cut the tail** — with 50 ms latency injected into
  every 3rd tier-0 read, hedging must win at least once and cut p99 to
  at most half the unhedged p99;
* **digest equality** — served loss vectors are bit-for-bit equal to a
  direct sequential-engine run, hedging and injected latency included.
"""

import json

import pytest

from repro.bench.experiments import serve_ablation
from repro.bench.runner import bench_artifact

pytestmark = pytest.mark.serve

ARTIFACT = bench_artifact("BENCH_serve.json")

#: CI floor: goodput at 2x offered load, as a fraction of capacity.
GOODPUT_FLOOR = 0.70

#: CI ceiling: hedged p99 as a fraction of unhedged p99.
HEDGE_P99_CEILING = 0.5


@pytest.fixture(scope="module")
def serve_report(tmp_path_factory):
    base_dir = tmp_path_factory.mktemp("serve-bench")
    return serve_ablation(base_dir=base_dir)


@pytest.fixture(scope="module")
def rows_by_mode(serve_report):
    return {row["mode"]: row for row in serve_report.rows}


@pytest.fixture(scope="module")
def artifact_data(serve_report):
    data = {
        "benchmark": "serve_ablate",
        "experiment": serve_report.exp_id,
        "goodput_floor": GOODPUT_FLOOR,
        "hedge_p99_ceiling": HEDGE_P99_CEILING,
        "rows": serve_report.rows,
        "notes": serve_report.notes,
    }
    ARTIFACT.write_text(json.dumps(data, indent=2) + "\n")
    return data


def test_artifact_written(artifact_data):
    data = json.loads(ARTIFACT.read_text())
    modes = {row["mode"] for row in data["rows"]}
    assert {
        "capacity",
        "open-loop-0.5x",
        "open-loop-1x",
        "open-loop-2x",
        "store-hedge-off",
        "store-hedge-on",
        "digest-check",
    } <= modes


def test_underload_serves_everything(rows_by_mode):
    """At half capacity nothing is shed and nothing errors — admission
    control is invisible until it is needed."""
    row = rows_by_mode["open-loop-0.5x"]
    assert row["errored"] == 0, row
    assert row["shed_rate"] <= 0.02, row
    assert row["served"] >= 0.95 * row["offered"], row


def test_overload_sheds_typed_never_silent(rows_by_mode):
    """Hard CI gate: at 2x capacity the excess load is refused with
    typed ``Overloaded`` (reasons recorded), not absorbed into silent
    timeouts or errors."""
    row = rows_by_mode["open-loop-2x"]
    assert row["shed"] > 0, row
    assert row["shed_reasons"], row
    assert sum(row["shed_reasons"].values()) == row["shed"], row
    assert row["errored"] == 0, row


def test_admitted_p99_holds_slo_at_2x(rows_by_mode):
    """Hard CI gate: the requests the gate admits finish inside the
    SLO even at 2x offered load — overload degrades *acceptance*, not
    the latency of accepted work."""
    row = rows_by_mode["open-loop-2x"]
    assert row["served"] > 0, row
    assert row["p99_seconds"] is not None, row
    assert row["p99_seconds"] <= row["slo_seconds"], row


def test_goodput_floor_at_2x(rows_by_mode):
    """Hard CI gate: at 2x offered load the service still completes at
    least 70% of its measured capacity — shedding protects throughput
    instead of collapsing it."""
    capacity = rows_by_mode["capacity"]["capacity_qps"]
    row = rows_by_mode["open-loop-2x"]
    assert row["goodput_qps"] >= GOODPUT_FLOOR * capacity, (row, capacity)


def test_hedged_reads_cut_p99(rows_by_mode):
    """Hard CI gate: under 50 ms injected tier-0 latency, hedging must
    actually fire, win, and cut p99 to at most half of unhedged."""
    off = rows_by_mode["store-hedge-off"]
    on = rows_by_mode["store-hedge-on"]
    assert off["hedges_issued"] == 0, off
    assert on["hedges_issued"] >= 1, on
    assert on["hedge_wins"] >= 1, on
    assert on["p99_seconds"] <= HEDGE_P99_CEILING * off["p99_seconds"], (
        off,
        on,
    )


def test_served_bytes_equal_direct_engine_run(rows_by_mode):
    """Hard CI gate: hedged/unhedged served quotes are bit-for-bit the
    sequential engine's, injected latency included (the experiment
    raises if any mode diverges; this asserts the check ran)."""
    row = rows_by_mode["digest-check"]
    assert row["digests_match_direct"] is True, row
    assert (
        rows_by_mode["store-hedge-on"]["losses_crc32"]
        == rows_by_mode["store-hedge-off"]["losses_crc32"]
        == row["losses_crc32"]
    )
