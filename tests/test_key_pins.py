"""Literal pins of the store's key formats on ``SMALL_SPEC``.

Stores written by older code must keep replaying: a segment key,
analysis key or fleet manifest ``config`` block that moves by one bit
orphans every entry already persisted under the old value, and a plan
fingerprint that moves renames sweeps and plan-cache entries.  The
analysis key names a result, not a plan, so one literal per (dtype,
secondary) row serves every engine.  The values below are literals,
not recomputed expectations, so any change to key composition fails
here even when it is self-consistent.

Every value goes through the public engine API (``plan_for``,
``plan_missing``, ``analysis_key``, the fleet context helpers), so the
pins hold across refactors of the helpers underneath.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.secondary import SecondaryUncertainty
from repro.data.generator import generate_workload
from repro.data.layer import LayerTerms
from repro.engines.registry import create_engine
from repro.fleet.context import config_from_context
from repro.fleet.sweep import context_for_engine
from repro.pricing import QuoteService
from tests.conftest import SMALL_SPEC

#: stride of the fixed segmentation the segment keys are pinned on
SEGMENT_TRIALS = 250

#: plan fingerprint of the single-task plan (sequential, basic GPU)
WHOLE_FINGERPRINT = 8683890594511307251

#: plan fingerprint of the 250-trial fixed segmentation
SEGMENT_FINGERPRINT = 7974242925530977342

#: ``QuoteService.loss_store_key`` of a primary candidate over ELTs 0-2
PRIMARY_QUOTE_KEY = (
    "8852c81d3168f7b4073d4ca87a9dc4f62d879e5e7cc46886e86ab0a2955a84c7"
)

PINS = {
    ("<f8", False): (
        [
            "8ecab3756622f39b0b030cdce1bde71178a2e6746e04cc7b0b8bcdc56f300345",
            "ee1b6910b622e29b507473e235d705d9da22656301e2709262980acc845c547b",
            "517b843e167952c28a3eb4d828d407a76e1856231e5b9443974db82045eb8dc6",
        ],
        "f3cabbd72efb0348f6847644d257138770dffd6eda811bad122efacb95ea9a52",
    ),
    ("<f8", True): (
        [
            "7d903ec41419826cdb19eeb20d274745d2367d7cdbd8acd46bdc6eb9c693746a",
            "7da9c47ef03b051519666d258f570a637cadba9da41409e91d8372ae69705033",
            "4d2785de701cb873958ac93c48ef21cb0b70981e3ad0e62b8f33c5df552657ca",
        ],
        "3cf9ef20ceab3b05c307959ba71aedd4938b2b753d128ff85ce9b13850d6db71",
    ),
    ("<f4", False): (
        [
            "ea7d4e711093ee0a339d260d4879ca2bfe7a9aaa7019404c5fd5be38750d6cde",
            "0a264b76e59fba592fdaa23ef248cbe1d8b33512004eb23aad6955c170105a1e",
            "7dacea18a470ab8c98e8edcf304a249107f2cad2fcd516a59c1add31265eba63",
        ],
        "610f503f94a849981c156a8de325ee771ee11a880da18170d7969eb4b75875ec",
    ),
    ("<f4", True): (
        [
            "3719da251073c8140842b515b130c886619a5aaa6432c87291b735d22c0ec0ae",
            "f5eef2a0d9aefffb9666900893718615f35b885a7cb8af19378530da4b1b1ae5",
            "aec9d906c1561d1c2379867b481cde77d9d47c7a7b17fa6f339555cea181ce4e",
        ],
        "6da00544cce030d48c5c0c76a43442706f0809d43f8f315b4cc738b221d5f104",
    ),
}


@pytest.fixture(scope="module")
def workload():
    return generate_workload(SMALL_SPEC)


def _engine(dtype: str, secondary: bool):
    options = {"dtype": np.dtype(dtype)}
    if secondary:
        options.update(
            secondary=SecondaryUncertainty(4.0, 4.0), secondary_seed=7
        )
    return create_engine("sequential", **options)


@pytest.mark.parametrize(
    "dtype,secondary", sorted(PINS), ids=lambda v: str(v)
)
def test_segment_and_analysis_keys(workload, dtype, secondary):
    keys, analysis = PINS[(dtype, secondary)]
    engine = _engine(dtype, secondary)
    delta = engine.plan_missing(
        workload.yet, workload.portfolio, None, segment_trials=SEGMENT_TRIALS
    )
    assert delta.plan.fingerprint() == SEGMENT_FINGERPRINT
    assert [r.key for r in delta.segments] == keys
    plan = engine.plan_for(workload.yet, workload.portfolio)
    assert plan.fingerprint() == WHOLE_FINGERPRINT
    assert engine.analysis_key(workload.yet, workload.portfolio) == analysis


def test_engine_plan_fingerprints(workload):
    expected = {
        "multicore": (dict(n_cores=2), 2537012023618769757),
        "gpu": ({}, WHOLE_FINGERPRINT),
        "multi-gpu": (dict(n_devices=2), 195785440253916845),
    }
    for name, (options, fingerprint) in expected.items():
        plan = create_engine(name, **options).plan_for(
            workload.yet, workload.portfolio
        )
        assert plan.fingerprint() == fingerprint, name


def test_primary_quote_key(workload):
    """A primary quote service's store key of a candidate's losses."""
    elts = list(workload.portfolio.elts.values())
    terms = LayerTerms(occ_retention=100.0, occ_limit=5_000.0)
    with QuoteService(
        workload.yet, elts, workload.catalog.n_events, max_workers=1
    ) as service:
        key = service.loss_store_key((0, 1, 2), terms)
    assert key == PRIMARY_QUOTE_KEY


@pytest.mark.parametrize("secondary", [False, True])
def test_manifest_config_block(workload, secondary):
    ctx = context_for_engine(
        workload.yet,
        workload.portfolio,
        workload.catalog.n_events,
        _engine("<f8", secondary),
    )
    assert config_from_context(ctx) == {
        "kernel": "ragged",
        "dtype": "<f8",
        "lookup_kind": "direct",
        "catalog_size": 5000,
        "secondary": [4.0, 4.0] if secondary else None,
        "secondary_seed": 7 if secondary else 0,
    }
