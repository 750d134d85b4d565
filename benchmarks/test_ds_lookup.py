"""DS-TABLE: the §III data-structure study as a benchmark.

Times random lookups through each ELT representation; the direct access
table must win (the paper's core data-structure argument), with the
memory price attached in extra_info.
"""

import numpy as np
import pytest

from repro.bench.experiments import data_structures
from repro.lookup.combined import StackedDirectTable
from repro.lookup.factory import LOOKUP_KINDS, build_lookup

N_QUERIES = 500_000


@pytest.fixture(scope="module")
def queries(workload):
    rng = np.random.default_rng(42)
    return rng.integers(
        1, workload.catalog.n_events + 1, size=N_QUERIES
    ).astype(np.int64)


@pytest.mark.parametrize("kind", LOOKUP_KINDS)
def test_lookup_throughput(benchmark, workload, queries, kind):
    elt = workload.portfolio.elts_of(workload.portfolio.layers[0])[0]
    lookup = build_lookup(elt, workload.catalog.n_events, kind=kind)
    out = benchmark(lookup.lookup, queries)
    benchmark.extra_info["kind"] = kind
    benchmark.extra_info["nbytes"] = lookup.nbytes
    benchmark.extra_info["accesses_per_lookup"] = (
        lookup.mean_accesses_per_lookup()
    )
    assert out.shape == queries.shape


def test_combined_table_row_fetch(benchmark, workload, queries):
    elts = workload.portfolio.elts_of(workload.portfolio.layers[0])
    combined = StackedDirectTable(elts, workload.catalog.n_events)
    combined.gather_gross(queries[:1])  # build the gross rows untimed
    out = benchmark(combined.gather_gross, queries[:100_000])
    benchmark.extra_info["nbytes"] = combined.nbytes
    benchmark.extra_info["row_nbytes"] = combined.row_nbytes
    assert out.shape == (100_000, len(elts))


def test_ds_report_direct_is_fastest(benchmark, spec, print_report):
    report = benchmark.pedantic(
        lambda: data_structures(
            measured_spec=spec, measure=True, n_queries=200_000
        ),
        rounds=1,
        iterations=1,
    )
    print_report(report)
    rows = {r["kind"]: r for r in report.rows}
    # The paper's trade: most memory, fewest accesses, fastest lookups.
    assert rows["direct"]["measured_ns_per_lookup"] == min(
        r["measured_ns_per_lookup"] for r in rows.values()
    )
    assert rows["direct"]["total_bytes"] == max(
        r["total_bytes"] for r in rows.values()
    )
