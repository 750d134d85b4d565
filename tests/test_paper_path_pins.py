"""Literal pins of the basic GPU engine, its model and the OEP path.

The basic GPU engine is the optimised engine with no optimisation
applied, its analytic model prices the optimised ledger with no flags,
and the per-occurrence (OEP) statistics run on the ragged kernel's
prefix.  These literals were recorded from the earlier dedicated
implementations (a separate basic kernel and ledger, a padded OEP
gather), so any drift in modeled seconds, modeled activity split or
OEP bytes fails here even when the new code is self-consistent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.occurrence import max_occurrence_losses
from repro.data.generator import generate_workload
from repro.data.presets import PAPER
from repro.engines import GPUBasicEngine
from repro.perfmodel.gpu import predict_gpu_basic
from repro.store import ylt_digest
from tests.conftest import SMALL_SPEC

#: (traffic, dtype) -> (modeled seconds, modeled activity seconds)
GPU_PINS = {
    ("fused", "<f8"): (
        0.00025206404876926616,
        {
            "fetch_events": 6.008888888888888e-07,
            "financial_terms": 4.531823085221143e-05,
            "layer_terms": 9.151024811218985e-06,
            "loss_lookup": 8.888888888888888e-05,
            "other": 0.00010810501532805799,
        },
    ),
    ("fused", "<f4"): (
        0.00023539404876926618,
        {
            "fetch_events": 6.008888888888888e-07,
            "financial_terms": 4.488133764832794e-05,
            "layer_terms": 9.019956850053937e-06,
            "loss_lookup": 8.888888888888888e-05,
            "other": 9.200297649310653e-05,
        },
    ),
    ("paper", "<f8"): (
        0.0003275745672877847,
        {
            "fetch_events": 5.558518518518519e-07,
            "financial_terms": 8.976267529665587e-05,
            "layer_terms": 4.02621359223301e-05,
            "loss_lookup": 8.888888888888888e-05,
            "other": 0.00010810501532805799,
        },
    ),
    ("paper", "<f4"): (
        0.0003109045672877847,
        {
            "fetch_events": 5.558518518518519e-07,
            "financial_terms": 8.932578209277237e-05,
            "layer_terms": 4.013106796116505e-05,
            "loss_lookup": 8.888888888888888e-05,
            "other": 9.200297649310655e-05,
        },
    ),
}

#: ylt_digest of max_occurrence_losses on SMALL_SPEC (recorded when the
#: kernel also took the four compact lookup kinds; each read this digest)
OEP_DIGEST = "c5b202c0c4bb7f1a28e1bd77fcbc09796e5b04e83cbfef05b5b8b49da67de892"


@pytest.fixture(scope="module")
def workload():
    return generate_workload(SMALL_SPEC)


@pytest.mark.parametrize("traffic, dtype", sorted(GPU_PINS))
def test_gpu_modeled_seconds_and_activities(workload, traffic, dtype):
    result = GPUBasicEngine(traffic=traffic, dtype=np.dtype(dtype)).run(
        workload.yet, workload.portfolio, workload.catalog.n_events
    )
    seconds, activities = GPU_PINS[traffic, dtype]
    assert result.modeled_seconds == seconds
    assert dict(result.profile.seconds) == activities


def test_predict_gpu_basic_paper_seconds():
    assert predict_gpu_basic(PAPER).total_seconds == 38.96747115457557


def test_max_occurrence_losses_digest(workload):
    table = max_occurrence_losses(
        workload.yet, workload.portfolio, workload.catalog.n_events
    )
    assert ylt_digest(table) == OEP_DIGEST
