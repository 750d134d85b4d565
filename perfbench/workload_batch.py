"""``batch``: the paper's own analysis shape, multicore against one thread.

``PAPER`` at 50,000 trials x 100 events: a 2M-event catalog and 15 ELTs of
20,000 losses, so the stacked direct table of the layer is 240 MB, far
past the L2 and the last-level cache this process gets.  That is the
memory-bound gather the paper is about.  Each round runs the analysis on
the multicore engine (one slot per CPU), the primary operation, and on
the sequential engine, the secondary one: the single-thread baseline.
Store, fleet, net and serve do no work here.
"""

from __future__ import annotations

from harness import build_tables

SPEC_CHANGES = dict(n_trials=50_000, events_per_trial=100)


def run(bench) -> None:
    import repro
    import repro.data.generator as generator
    from repro.store import ylt_digest

    spec = repro.PAPER.with_(name="perfbench-batch", seed=bench.seed, **SPEC_CHANGES)

    def prepare():
        workload = generator.generate_workload(spec)
        build_tables(workload)
        return workload

    workload = bench.setup(prepare)
    ara = repro.AggregateRiskAnalysis(workload.portfolio, workload.catalog.n_events)
    engines = {
        "analysis": dict(engine="multicore", n_cores=bench.nproc),
        "analysis_1t": dict(engine="sequential"),
    }
    with bench.once():
        reference = {
            kind: ylt_digest(ara.run(workload.yet, **options).ylt)
            for kind, options in engines.items()
        }
    bench.check(
        reference["analysis"] == reference["analysis_1t"],
        "multicore and sequential YLT digests differ",
    )
    expected = reference["analysis_1t"]

    for _ in bench.rounds():
        for kind, options in engines.items():
            bench.attempted += 1
            with bench.op(kind):
                result = ara.run(workload.yet, **options)
            with bench.untimed():
                bench.check(
                    ylt_digest(result.ylt) == expected,
                    f"{kind}: YLT digest differs from the first sequential run",
                )

    bench.metric("primary_ms", 1e3 * bench.median("analysis"), "ms")
    bench.metric("secondary_ms", 1e3 * bench.median("analysis_1t"), "ms")
    if bench.trace:
        bench.info["tracing_overhead_pct"] = bench.tracing_overhead_pct(engines)
