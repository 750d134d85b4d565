#!/usr/bin/env python
"""Quickstart: generate a workload, run aggregate risk analysis, read metrics.

This walks the full pipeline of the paper in under a minute:

1. synthesise an event catalogue, Year Event Table and portfolio,
2. run Algorithm 1 with two engines (sequential and multicore),
3. verify they agree, and
4. derive the portfolio metrics (PML, TVaR) that motivate the analysis.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import repro


def main() -> None:
    # 1. A paper-shaped workload, scaled to run in seconds:
    #    1 layer covering 15 ELTs, 20k trials x 100 events, 200k-event
    #    catalogue (the paper's full scale is 1M trials x 1000 events over
    #    a 2M-event catalogue — same shape, 750x the volume).
    spec = repro.BENCH_DEFAULT
    print(f"generating workload {spec.name!r} "
          f"({spec.n_trials:,} trials x {spec.events_per_trial} events, "
          f"{spec.elts_per_layer} ELTs, {spec.n_lookups:,} lookups)...")
    workload = repro.generate_workload(spec)

    # 2. Configure the analysis and run two engines.
    ara = repro.AggregateRiskAnalysis(
        workload.portfolio,
        catalog_size=workload.catalog.n_events,
    )
    seq = ara.run(workload.yet, engine="sequential")
    multi = ara.run(workload.yet, engine="multicore")
    print(f"sequential: {seq.wall_seconds:.2f} s wall")
    print(f"multicore:  {multi.wall_seconds:.2f} s wall "
          f"({multi.meta['n_cores']} cores)")

    # 3. Engines must agree: same algorithm, different schedule.
    assert seq.ylt.allclose(multi.ylt), "engines disagree!"
    print("engines agree on the Year Loss Table")

    # 4. What the YLT is for: portfolio risk metrics.
    layer_id = workload.portfolio.layers[0].layer_id
    summary = repro.ylt_summary(seq.ylt, layer_id=layer_id)
    print(f"\nlayer {layer_id} annual loss summary:")
    print(f"  expected loss: {summary['mean']:>16,.0f}")
    print(f"  std deviation: {summary['std']:>16,.0f}")
    print(f"  1-in-100 VaR:  {summary['var_99']:>16,.0f}")
    print(f"  99% TVaR:      {summary['tvar_99']:>16,.0f}")
    print(f"  1-in-250 PML:  {summary['pml_250']:>16,.0f}")
    print(f"  loss-free years: {summary['zero_fraction']:.1%}")

    # Per-activity profile: the paper's Figure 6 for this run.
    print("\nwhere the sequential time went (Figure 6 categories):")
    for activity, fraction in seq.profile.fractions().items():
        if fraction > 0:
            print(f"  {activity:16s} {fraction:6.1%}")


if __name__ == "__main__":
    main()
