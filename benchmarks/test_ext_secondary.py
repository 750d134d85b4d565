"""EXT-SECONDARY: secondary uncertainty inside the kernel (§VI future work).

Benchmarks the per-(occurrence, ELT) damage-ratio sampling variant against
the deterministic kernel and regenerates the statistical-effect table.
"""

import numpy as np
import pytest

from repro.bench.experiments import ext_secondary
from repro.core.kernels import build_layer_tables, layer_trial_batch_ragged
from repro.core.secondary import SecondaryUncertainty, layer_stream_key


@pytest.fixture(scope="module")
def kernel_inputs(workload):
    layer = workload.portfolio.layers[0]
    lookups, stacked, _ = build_layer_tables(
        workload.portfolio.elts_of(layer),
        workload.catalog.n_events,
        "direct",
        np.float64,
    )
    yet = workload.yet
    return (yet.event_ids, yet.offsets, lookups, layer.terms), stacked, layer


def test_deterministic_kernel(benchmark, kernel_inputs):
    args, stacked, _ = kernel_inputs
    year = benchmark(layer_trial_batch_ragged, *args, stacked=stacked)
    assert np.all(year >= 0)


def test_secondary_uncertainty_kernel(benchmark, kernel_inputs):
    args, stacked, layer = kernel_inputs
    su = SecondaryUncertainty(4.0, 4.0)
    year = benchmark(
        layer_trial_batch_ragged,
        *args,
        stacked=stacked,
        secondary=su,
        stream_key=layer_stream_key(42, layer.layer_id),
    )
    benchmark.extra_info["multiplier_cv"] = su.multiplier_cv
    assert np.all(year >= 0)


def test_ext_secondary_report(benchmark, spec, print_report):
    report = benchmark.pedantic(
        lambda: ext_secondary(measured_spec=spec, measure=True),
        rounds=1,
        iterations=1,
    )
    print_report(report)
    rows = {r["uncertainty"]: r for r in report.rows}
    # Wider damage-ratio distributions cost more time than none and
    # change the loss distribution's spread.
    assert rows["beta(2,2)"]["measured_seconds"] > 0
    assert rows["beta(2,2)"]["multiplier_cv"] > rows["beta(4,4)"][
        "multiplier_cv"
    ]
