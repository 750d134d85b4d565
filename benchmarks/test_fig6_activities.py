"""FIG-6: percentage of time per activity, per implementation.

Regenerates the per-activity breakdown (event fetch / loss lookup /
financial terms / layer terms) for all five implementations, modeled at
paper scale and measured at bench scale, and checks the paper's headline
shares: sequential lookup >65%, multi-GPU lookup >90%.
"""

import pytest

from repro.bench.experiments import fig6
from repro.core.secondary import SecondaryUncertainty
from repro.data.presets import PAPER
from repro.engines.sequential import SequentialEngine
from repro.perfmodel.activities import activity_breakdown_table


def test_fig6_breakdown_table(benchmark):
    rows = benchmark.pedantic(
        lambda: activity_breakdown_table(PAPER), rounds=1, iterations=1
    )
    by_impl = {r["implementation"]: r for r in rows}
    # §IV.A: sequential lookup >65%, numeric ~31%.
    assert by_impl["sequential"]["loss_lookup_pct"] > 65
    numeric = (
        by_impl["sequential"]["financial_terms_pct"]
        + by_impl["sequential"]["layer_terms_pct"]
    )
    assert numeric == pytest.approx(31, abs=1.0)
    # §V: multi-GPU is lookup-dominated (paper: 97.54%).
    assert by_impl["multi-gpu"]["loss_lookup_pct"] > 90


def test_fig6_measured_profile(benchmark, workload):
    engine = SequentialEngine()
    result = benchmark(
        engine.run, workload.yet, workload.portfolio, workload.catalog.n_events
    )
    fractions = result.profile.fractions()
    benchmark.extra_info["measured_fractions"] = {
        k: round(v, 4) for k, v in fractions.items()
    }
    # The plain path reads each occurrence's net loss, summed over the
    # ELTs when the layer table was built: lookup and layer time show,
    # and no per-occurrence financial-term work is left to charge.
    assert fractions["loss_lookup"] > 0.1
    assert fractions["layer_terms"] > 0
    # With secondary uncertainty the terms apply per (occurrence, ELT)
    # after the multiplier draws, so they are a visible share again.
    secondary = SequentialEngine(
        secondary=SecondaryUncertainty(4.0, 4.0), secondary_seed=3
    ).run(workload.yet, workload.portfolio, workload.catalog.n_events)
    shares = secondary.profile.fractions()
    benchmark.extra_info["measured_fractions_secondary"] = {
        k: round(v, 4) for k, v in shares.items()
    }
    assert shares["loss_lookup"] > 0
    assert shares["financial_terms"] > 0.1


def test_fig6_report(benchmark, spec, print_report):
    report = benchmark.pedantic(
        lambda: fig6(measured_spec=spec, measure=True), rounds=1, iterations=1
    )
    print_report(report)
    assert len(report.rows) == 10  # 5 modeled + 5 measured
