#!/usr/bin/env python
"""The Section III data-structure study: direct access tables vs the rest.

Builds every lookup structure over the same ELTs and measures what the
paper argues analytically: the direct access table spends the most memory
to get the fewest (exactly one) memory accesses per lookup, and wins on
lookup throughput; compact structures (binary search, linear-probing
hash, the cuckoo hashing the paper cites) trade that away.  Also shows
the combined-table variant and the memory arithmetic of the paper's
worked example (15 ELTs x 2M slots = 30M event-loss pairs).

Run:  python examples/data_structures.py
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.data.presets import PAPER
from repro.io.memory import estimate_workload_memory
from repro.lookup import StackedDirectTable, build_lookup
from repro.lookup.factory import LOOKUP_KINDS


def main() -> None:
    workload = repro.generate_workload(repro.BENCH_DEFAULT)
    catalog_size = workload.catalog.n_events
    layer = workload.portfolio.layers[0]
    elts = workload.portfolio.elts_of(layer)
    rng = np.random.default_rng(99)
    queries = rng.integers(1, catalog_size + 1, size=1_000_000)

    print(f"{len(elts)} ELTs over a {catalog_size:,}-event catalogue; "
          f"timing 1M random lookups per structure\n")
    print(f"{'structure':10s} {'memory/ELT':>12s} {'accesses':>9s} "
          f"{'ns/lookup':>10s} {'checks out':>10s}")

    oracle = elts[0].to_dict()
    for kind in LOOKUP_KINDS:
        lookup = build_lookup(elts[0], catalog_size, kind=kind)
        started = time.perf_counter()
        losses = lookup.lookup(queries)
        elapsed = time.perf_counter() - started
        # Verify against the plain-dict oracle on a sample.
        sample = queries[:2000]
        ok = all(
            losses[i] == oracle.get(int(sample[i]), 0.0)
            for i in range(sample.size)
        )
        print(
            f"{kind:10s} {lookup.nbytes:>12,} "
            f"{lookup.mean_accesses_per_lookup():>9.2f} "
            f"{1e9 * elapsed / queries.size:>10.1f} {'yes' if ok else 'NO':>10s}"
        )

    combined = StackedDirectTable(elts, catalog_size)
    combined.gather_gross(queries[:1])  # builds the gross rows
    started = time.perf_counter()
    combined.gather_gross(queries[:100_000])
    elapsed = time.perf_counter() - started
    print(f"\ncombined table: {combined.nbytes:,} bytes total, "
          f"{combined.row_nbytes} B/row, "
          f"{1e9 * elapsed / 100_000:.1f} ns per row fetch "
          f"({combined.n_elts} ELT losses per row)")

    print("\n=== the paper's worked example, at full scale ===")
    estimate = estimate_workload_memory(PAPER)
    slots = (PAPER.catalog_size + 1) * PAPER.elts_per_layer
    print(f"direct tables: {slots:,} loss slots "
          f"({estimate.direct_tables_bytes / 2**30:.2f} GiB at 8 B) for "
          f"{PAPER.losses_per_elt * PAPER.elts_per_layer:,} non-zero losses")
    print(f"compact tables would need only "
          f"{estimate.compact_tables_bytes / 2**20:.1f} MiB "
          f"({estimate.direct_overhead_factor:.0f}x less memory, "
          f"log(n) or hashed accesses instead of 1)")
    print(f"YET of {PAPER.n_trials:,} trials x {PAPER.events_per_trial} "
          f"events: {estimate.yet_bytes / 2**30:.2f} GiB (ids only)")


if __name__ == "__main__":
    main()
