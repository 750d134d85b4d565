"""Differential test: the fused kernel against the scalar ReferenceEngine.

Tiny random workloads with degenerate shapes — trials without events,
a single-ELT layer, the null event 0 and the last catalogue id
``catalog_size``, an ELT limit of zero, shares below one and float32
tables — run through the vectorised engines and the scalar
:class:`~repro.engines.sequential.ReferenceEngine`, with and without
secondary uncertainty.  The reference sums in float64 in plain loop
order, so agreement is to rounding, not to the bit.  The plain path's
per-event vector is also checked directly: a float32 table summed in
float64, events no ELT covers, and duplicate ids within one ELT.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import layer_trial_batch_ragged
from repro.core.secondary import SecondaryUncertainty
from repro.data.elt import ELTFinancialTerms, EventLossTable
from repro.data.layer import LayerTerms, Portfolio
from repro.data.yet import YearEventTable
from repro.engines.multicore import MulticoreEngine
from repro.engines.sequential import ReferenceEngine, SequentialEngine
from repro.lookup.combined import StackedDirectTable

CATALOG = 40
SU = SecondaryUncertainty(3.0, 3.0)


def random_case(seed: int, n_elts: int):
    rng = np.random.default_rng(seed)
    elts = []
    for elt_id in range(n_elts):
        size = int(rng.integers(1, CATALOG // 2))
        ids = rng.choice(np.arange(1, CATALOG + 1), size=size, replace=False)
        if elt_id == 0:
            ids[0] = CATALOG  # the last catalogue id carries a loss
        ids = np.unique(ids)
        terms = ELTFinancialTerms(
            retention=float(rng.uniform(0, 200)),
            # ELT 1 pays nothing: a zero limit
            limit=0.0 if elt_id == 1 else float(rng.uniform(500, 3000)),
            share=float(rng.uniform(0.2, 1.0)),
            currency_rate=float(rng.uniform(0.5, 1.5)),
        )
        elts.append(
            EventLossTable(elt_id, ids, rng.lognormal(6, 1, ids.size), terms)
        )
    trials = []
    for t in range(12):
        # every third trial is empty; others mix in the null event 0 and
        # the catalogue's last id
        k = 0 if t % 3 == 0 else int(rng.integers(1, 14))
        ids = rng.integers(0, CATALOG + 1, size=k)
        if k:
            ids[0] = 0 if t % 2 else CATALOG
        trials.append([(int(e), float(x)) for e, x in zip(ids, rng.random(k))])
    yet = YearEventTable.from_trials(trials)
    layer_terms = LayerTerms(
        occ_retention=float(rng.uniform(0, 50)),
        occ_limit=float(rng.uniform(1000, 3000)),
        agg_retention=float(rng.uniform(0, 200)),
        agg_limit=float(rng.uniform(4000, 8000)),
    )
    portfolio = Portfolio.single_layer(elts, layer_terms)
    return yet, portfolio


@pytest.mark.parametrize("secondary", [False, True], ids=["primary", "secondary"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n_elts", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_kernel_matches_reference(seed, n_elts, dtype, secondary):
    yet, portfolio = random_case(seed, n_elts)
    options = dict(secondary=SU, secondary_seed=seed) if secondary else {}
    oracle = ReferenceEngine(**options).run(yet, portfolio, CATALOG)
    expected = oracle.ylt.losses[0]
    assert np.all(expected[::3] == 0.0)  # the empty trials
    assert np.any(expected > 0.0)
    scale = max(1.0, float(np.abs(expected).max()))
    # float64 differs from the scalar loops only in summation order;
    # float32 rounds every table word and term step
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    for engine in (
        SequentialEngine(dtype=dtype, **options),
        MulticoreEngine(n_cores=2, dtype=dtype, **options),
    ):
        losses = engine.run(yet, portfolio, CATALOG).ylt.losses[0]
        np.testing.assert_allclose(losses, expected, rtol=rtol, atol=rtol * scale)


# ----------------------------------------------------------------------
# The plain path's per-event vector
# ----------------------------------------------------------------------
def vector_path(yet, portfolio, table_dtype, work_dtype):
    """The plain kernel over a fresh layer table of ``table_dtype``."""
    layer = portfolio.layers[0]
    stacked = StackedDirectTable(
        portfolio.elts_of(layer), CATALOG, dtype=table_dtype
    )
    ids, offsets = yet.csr_block(0, yet.n_trials)
    losses = layer_trial_batch_ragged(
        ids, offsets, layer.terms, dtype=work_dtype, stacked=stacked
    )
    return stacked, losses


@pytest.mark.parametrize("n_elts", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vector_path_float32_table_float64_work(seed, n_elts):
    yet, portfolio = random_case(seed, n_elts)
    expected = ReferenceEngine().run(yet, portfolio, CATALOG).ylt.losses[0]
    stacked, losses = vector_path(yet, portfolio, np.float32, np.float64)
    # The run built its float64 vector from the float32 net losses.
    assert stacked.has_net_sums(np.float64)
    scale = max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(losses, expected, rtol=1e-5, atol=1e-5 * scale)
    # Bit-identity with the old net-row sums rests on the vector holding
    # no -0.0: 0.0 + -0.0 is +0.0, where a copied first column kept -0.0.
    for work in (np.float32, np.float64):
        assert not np.signbit(stacked.net_sums(work)).any()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_vector_path_absent_events_read_zero(dtype):
    yet, portfolio = random_case(0, 3)
    elts = portfolio.elts_of(portfolio.layers[0])
    present = np.zeros(CATALOG + 1, dtype=bool)
    for elt in elts:
        present[elt.event_ids] = True
    absent = np.flatnonzero(~present)
    assert 0 in absent and absent.size > 1
    # one trial of absent events only, one of absent and present events
    hit = int(elts[0].event_ids[0])
    only_absent = [(int(e), 0.5) for e in absent]
    mixed = only_absent + [(hit, 0.5)]
    yet = YearEventTable.from_trials([only_absent, mixed, []])
    expected = ReferenceEngine().run(yet, portfolio, CATALOG).ylt.losses[0]
    stacked, losses = vector_path(yet, portfolio, dtype, dtype)
    assert losses[0] == 0.0 and not np.signbit(losses[0])
    assert losses[1] > 0.0 and losses[2] == 0.0
    np.testing.assert_allclose(losses, expected, rtol=1e-5)
    assert np.all(stacked.net_sums(dtype)[absent] == 0.0)


def test_vector_path_duplicate_ids_last_value_wins():
    yet, portfolio = random_case(1, 3)
    elt = portfolio.elts_of(portfolio.layers[0])[2]
    # The ELT constructor rejects duplicates; reassigned arrays are not
    # checked.  The oracle's dict and the table both keep the last loss.
    elt.event_ids = np.array([2, 7, 7, 7, CATALOG], dtype=np.int32)
    elt.losses = np.array([400.0, 100.0, 2500.0, 900.0, 300.0])
    yet = YearEventTable.from_trials(
        [[(7, 0.1)], [(7, 0.2), (2, 0.3)], [(CATALOG, 0.4), (7, 0.5)]]
    )
    expected = ReferenceEngine().run(yet, portfolio, CATALOG).ylt.losses[0]
    assert np.any(expected > 0.0)
    _, losses = vector_path(yet, portfolio, np.float64, np.float64)
    np.testing.assert_allclose(losses, expected, rtol=1e-12)
    engine = SequentialEngine().run(yet, portfolio, CATALOG).ylt.losses[0]
    assert np.array_equal(engine, losses)
