"""NET-ABLATE benchmark: the fleet over the wire, guarded.

Runs the ``NET-ABLATE`` experiment (warm replay against the local file
tier vs the same directory served over the wire protocol; cold sweeps
assembled per-segment vs via partition/shuffle partials; a chaotic
sweep with wire latency, connection drops and a killed worker) and
writes its rows to ``BENCH_net.json``.

Marked ``net`` — excluded from the default (tier-1) pytest run via
``addopts`` and executed by CI's dedicated net-bench job with
``-m net``.

Guards (hard CI gates):

* **digest equality** — every sweep that crossed the wire (warm
  replays, both cold assemblies, the faulted run) produces the
  byte-identical YLT of the monolithic sequential run;
* **sublinear assembly** — gather of a partition/shuffle sweep reads
  O(P) store entries, not O(S): at 64+ segments and 8 partitions the
  partial-assembly entry count must be at most a quarter of the
  per-segment entry count (and within slack of P itself);
* **O(1) round trips** — a warm remote replay and both gathers carry
  their probes and fetches in ``contains_many``/``get_many`` batches:
  at most 2 + 2·⌈S/BATCH_KEYS⌉ RPCs per replay, and one manifest load
  plus ⌈entries/BATCH_KEYS⌉ fetches per gather;
* **recovery under faults** — the wire-faults row actually killed a
  worker and still drained every job with zero failures and exactly
  one compute per segment fleet-wide.
"""

import json
import math

import pytest

from repro.bench.experiments import net_ablation
from repro.bench.runner import bench_artifact
from repro.store.base import BATCH_KEYS

pytestmark = pytest.mark.net

ARTIFACT = bench_artifact("BENCH_net.json")

N_WORKERS = 3
N_PARTITIONS = 8

#: Partial assembly must beat per-segment assembly by at least this
#: factor in store entries read at gather time.
FETCH_RATIO_FLOOR = 4.0


def max_replay_rpcs(n_segments: int) -> int:
    """RPC ceiling of one warm remote replay: the manifest save and
    load, plus one ``contains_many`` and one ``get_many`` per chunk."""
    return 2 + 2 * math.ceil(n_segments / BATCH_KEYS)


@pytest.fixture(scope="module")
def net_report(tmp_path_factory):
    base_dir = tmp_path_factory.mktemp("net-bench")
    return net_ablation(
        n_workers=N_WORKERS, n_partitions=N_PARTITIONS, base_dir=base_dir
    )


@pytest.fixture(scope="module")
def rows_by_mode(net_report):
    return {row["mode"]: row for row in net_report.rows}


@pytest.fixture(scope="module")
def artifact_data(net_report):
    data = {
        "benchmark": "net_ablate",
        "experiment": net_report.exp_id,
        "n_workers": N_WORKERS,
        "n_partitions": N_PARTITIONS,
        "fetch_ratio_floor": FETCH_RATIO_FLOOR,
        "rows": net_report.rows,
        "notes": net_report.notes,
    }
    ARTIFACT.write_text(json.dumps(data, indent=2) + "\n")
    return data


def test_artifact_carries_all_rows(artifact_data):
    data = json.loads(ARTIFACT.read_text())
    modes = {row["mode"] for row in data["rows"]}
    assert modes == {
        "monolithic",
        "warm-local",
        "warm-remote",
        "assemble-segments",
        "assemble-partials",
        "wire-faults",
    }


def test_warm_replay_submits_no_jobs(rows_by_mode):
    """A fully stored sweep replays without recompute on either tier."""
    assert rows_by_mode["warm-local"]["jobs"] == 0
    assert rows_by_mode["warm-remote"]["jobs"] == 0
    remote = rows_by_mode["warm-remote"]
    assert 1 <= remote["rpc_requests"] <= max_replay_rpcs(remote["segments"])


def test_digest_equality_over_the_wire(rows_by_mode):
    """Hard CI gate: serialization, framing and retries never change
    bytes — every wire row assembles the monolithic YLT."""
    reference = rows_by_mode["monolithic"]["ylt_digest"]
    for mode in (
        "warm-local",
        "warm-remote",
        "assemble-segments",
        "assemble-partials",
        "wire-faults",
    ):
        assert rows_by_mode[mode]["ylt_digest"] == reference, mode


def test_partition_assembly_is_sublinear_in_segments(rows_by_mode):
    """Hard CI gate: gather fetches O(P) partials, not O(S) segments."""
    segs = rows_by_mode["assemble-segments"]
    parts = rows_by_mode["assemble-partials"]
    assert segs["segments"] >= 64, segs
    # per-segment assembly really reads one entry per segment …
    assert segs["assembly_entries"] >= segs["segments"], segs
    # … while partial assembly reads one per partition (small slack
    # for a manifest-shaped probe), 4x+ fewer than the segment path.
    assert parts["assembly_entries"] <= N_PARTITIONS + 2, parts
    ratio = segs["assembly_entries"] / parts["assembly_entries"]
    assert ratio >= FETCH_RATIO_FLOOR, (segs, parts)
    # either way the entries ride get_many batches: the manifest load
    # plus one round trip per BATCH_KEYS entries
    for row, entries in ((segs, segs["segments"]), (parts, N_PARTITIONS)):
        ceiling = 1 + math.ceil(entries / BATCH_KEYS)
        assert row["assembly_fetches"] <= ceiling, row


def test_wire_faults_row_recovered_fully(rows_by_mode):
    """Hard CI gate: the kill fired, recovery drained every job, and
    the store's dedup kept computes at exactly one per segment."""
    row = rows_by_mode["wire-faults"]
    assert row["workers_killed"] == 1, row
    assert row["computed"] == row["segments"], row
