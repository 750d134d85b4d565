"""Cross-engine equivalence: the central correctness claim.

Every implementation of Algorithm 1 must produce the same YLT on the same
inputs — exactly (float64 engines) or within float32 tolerance (reduced-
precision engines).  This is checked on fixtures and, with hypothesis, on
randomly generated portfolios/YETs.  The degenerate cases of the kernel
differential test also run on a per-ELT lookup kind and through the
quote service's split of the kernel (combine, then finish).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.algorithm import aggregate_risk_analysis_reference
from repro.core.kernels import (
    build_layer_tables,
    combined_occurrence_losses,
    finish_layer_losses,
)
from repro.core.secondary import layer_stream_key, resolve_secondary_seed
from repro.data.elt import ELTFinancialTerms, EventLossTable
from repro.data.layer import Layer, LayerTerms, Portfolio
from repro.data.yet import YearEventTable
from repro.engines.registry import available_engines, create_engine
from repro.engines.sequential import ReferenceEngine, SequentialEngine
from tests.test_kernel_differential import CATALOG as DIFF_CATALOG
from tests.test_kernel_differential import SU, random_case

EXACT_ENGINES = ("sequential", "multicore", "gpu")
FLOAT32_ENGINES = ("gpu-optimized", "multi-gpu")


@pytest.mark.parametrize("engine", EXACT_ENGINES)
def test_exact_engines_match_reference(engine, tiny_workload, reference_ylt):
    result = create_engine(engine).run(
        tiny_workload.yet,
        tiny_workload.portfolio,
        tiny_workload.catalog.n_events,
    )
    assert reference_ylt.allclose(result.ylt, rtol=1e-9, atol=1e-6)


@pytest.mark.parametrize("engine", FLOAT32_ENGINES)
def test_reduced_precision_engines_match_within_tolerance(
    engine, tiny_workload, reference_ylt
):
    result = create_engine(engine).run(
        tiny_workload.yet,
        tiny_workload.portfolio,
        tiny_workload.catalog.n_events,
    )
    scale = max(float(np.abs(reference_ylt.losses).max()), 1.0)
    assert reference_ylt.allclose(result.ylt, rtol=1e-4, atol=1e-5 * scale)


def test_all_engines_registered():
    assert set(available_engines()) == {
        "reference",
        "sequential",
        "multicore",
        "gpu",
        "gpu-optimized",
        "multi-gpu",
    }


# ----------------------------------------------------------------------
# Randomised equivalence (hypothesis)
# ----------------------------------------------------------------------
CATALOG = 120


@st.composite
def random_problem(draw):
    """A random small YET + single-layer portfolio."""
    n_elts = draw(st.integers(1, 3))
    elts = []
    for elt_id in range(n_elts):
        mapping = draw(
            st.dictionaries(
                st.integers(1, CATALOG),
                st.floats(0.0, 1e6, allow_nan=False),
                min_size=1,
                max_size=25,
            )
        )
        terms = ELTFinancialTerms(
            retention=draw(st.floats(0, 100.0)),
            limit=draw(st.floats(100.0, 1e7)),
            share=draw(st.floats(0.1, 1.0)),
        )
        elts.append(EventLossTable.from_dict(elt_id, mapping, terms=terms))
    layer_terms = LayerTerms(
        occ_retention=draw(st.floats(0, 1e4)),
        occ_limit=draw(st.floats(1.0, 1e6)),
        agg_retention=draw(st.floats(0, 1e5)),
        agg_limit=draw(st.floats(1.0, 1e7)),
    )
    portfolio = Portfolio.single_layer(elts, terms=layer_terms)

    n_trials = draw(st.integers(1, 8))
    trials = []
    for _ in range(n_trials):
        events = draw(
            st.lists(
                st.tuples(
                    st.integers(1, CATALOG), st.floats(0.0, 1.0, width=32)
                ),
                min_size=0,
                max_size=15,
            )
        )
        trials.append(events)
    yet = YearEventTable.from_trials(trials)
    return yet, portfolio


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(problem=random_problem())
def test_engines_agree_on_random_problems(problem):
    yet, portfolio = problem
    reference = aggregate_risk_analysis_reference(yet, portfolio)
    scale = max(float(np.abs(reference.losses).max()), 1.0)
    for engine in EXACT_ENGINES:
        result = create_engine(engine, n_cores=2).run(yet, portfolio, CATALOG)
        assert reference.allclose(result.ylt, rtol=1e-9, atol=1e-6), engine
    for engine in FLOAT32_ENGINES:
        result = create_engine(engine, n_devices=2).run(
            yet, portfolio, CATALOG
        )
        assert reference.allclose(
            result.ylt, rtol=1e-3, atol=1e-4 * scale
        ), engine


@settings(max_examples=10, deadline=None)
@given(problem=random_problem(), kind=st.sampled_from(
    ["direct", "sorted", "hash", "cuckoo", "compressed"]
))
def test_lookup_kind_never_changes_results(problem, kind):
    yet, portfolio = problem
    reference = aggregate_risk_analysis_reference(yet, portfolio)
    result = create_engine("sequential", lookup_kind=kind).run(
        yet, portfolio, CATALOG
    )
    assert reference.allclose(result.ylt, rtol=1e-9, atol=1e-6)


@pytest.mark.parametrize("lookup_kind", ["direct", "sorted"])
@pytest.mark.parametrize("secondary", [False, True], ids=["primary", "secondary"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", [0, 1])
def test_lookup_kinds_and_quote_split_match_reference(
    seed, dtype, secondary, lookup_kind
):
    """Every lookup kind, with and without secondary uncertainty, agrees
    with the scalar reference; the quote service's combined vector keeps
    the working dtype, and finishing it gives the engine's bytes."""
    yet, portfolio = random_case(seed, 3)
    options = dict(secondary=SU, secondary_seed=seed) if secondary else {}
    expected = ReferenceEngine(**options).run(yet, portfolio, DIFF_CATALOG)
    expected = expected.ylt.losses[0]
    engine = SequentialEngine(lookup_kind=lookup_kind, dtype=dtype, **options)
    losses = engine.run(yet, portfolio, DIFF_CATALOG).ylt.losses[0]
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    scale = max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(losses, expected, rtol=rtol, atol=rtol * scale)

    layer = portfolio.layers[0]
    lookups, stacked, _ = build_layer_tables(
        portfolio.elts_of(layer), DIFF_CATALOG, lookup_kind, dtype
    )
    stream = {}
    if secondary:
        base_seed = resolve_secondary_seed(seed)
        stream = dict(
            secondary=SU, stream_key=layer_stream_key(base_seed, layer.layer_id)
        )
    combined = combined_occurrence_losses(
        yet.event_ids, lookups, stacked, dtype=dtype, **stream
    )
    assert combined.dtype == np.dtype(dtype)
    year = finish_layer_losses(combined, yet.offsets, layer.terms)
    assert year.tobytes() == losses.tobytes()
