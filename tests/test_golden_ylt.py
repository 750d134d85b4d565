"""Golden-YLT regression net: pinned digests for every configuration.

The PR 3 hash-diff check — run every engine x secondary configuration
on a seeded preset and compare YLT hashes against the
previous revision — made permanent: the digests live in
``tests/golden_ylt.json`` and any future refactor that changes a single
bit of any configuration's output fails here, even if it would slip
through the tolerance-based equivalence tests.

Determinism scope: digests pin *exact float bit patterns*, which are
stable for a given NumPy major.minor (distribution sampling such as the
Beta quantile table is allowed to change between NumPy feature
releases).  The golden file records the NumPy version it was generated
under; on a different major.minor the suite skips rather than cry wolf
— the in-container tier-1 run (and any CI lane matching the recorded
version) always enforces it.

Regenerate after an *intentional* numerics change with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_golden_ylt.py

and commit the updated ``golden_ylt.json`` alongside the change that
explains it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.analysis import AggregateRiskAnalysis
from repro.core.secondary import SecondaryUncertainty
from repro.store.keys import ylt_digest

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_ylt.json"
UPDATE_ENV = "REPRO_UPDATE_GOLDEN"

SECONDARY_SEED = 20130812

#: engines with machine-dependent default decompositions are pinned, so
#: every host runs the same plans.
ENGINE_OPTIONS = {
    "sequential": {},
    "multicore": {"n_cores": 4},
    "gpu": {},
    "gpu-optimized": {},
    "multi-gpu": {"n_devices": 4},
}

CONFIGS = [
    (engine, secondary)
    for engine in ENGINE_OPTIONS
    for secondary in (False, True)
]


def config_id(engine: str, secondary: bool) -> str:
    # "ragged" is the kernel name the digest keys were first recorded
    # under; it stays so the golden file keeps its keys.
    return f"{engine}|ragged|{'secondary' if secondary else 'primary'}"


def run_config(workload, engine: str, secondary: bool):
    ara = AggregateRiskAnalysis(
        workload.portfolio,
        workload.catalog.n_events,
        secondary=SecondaryUncertainty(4.0, 4.0) if secondary else None,
        secondary_seed=SECONDARY_SEED if secondary else None,
    )
    return ara.run(
        workload.yet, engine=engine, **ENGINE_OPTIONS[engine]
    )


def numpy_tag() -> str:
    return ".".join(np.__version__.split(".")[:2])


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.is_file():
        if os.environ.get(UPDATE_ENV):
            return None  # update mode will create it
        pytest.fail(
            f"{GOLDEN_PATH} is missing - run with {UPDATE_ENV}=1 to "
            "generate it"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def computed_digests(small_workload):
    return {
        config_id(*config): ylt_digest(run_config(small_workload, *config).ylt)
        for config in CONFIGS
    }


def test_golden_file_covers_every_config(golden, computed_digests):
    if os.environ.get(UPDATE_ENV):
        GOLDEN_PATH.write_text(
            json.dumps(
                {
                    "numpy": numpy_tag(),
                    "workload": "tests/conftest.py::SMALL_SPEC",
                    "digests": computed_digests,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        pytest.skip(f"golden digests regenerated at {GOLDEN_PATH}")
    assert set(golden["digests"]) == set(computed_digests)


@pytest.mark.parametrize(
    "config", CONFIGS, ids=[config_id(*c) for c in CONFIGS]
)
def test_ylt_digest_matches_golden(golden, computed_digests, config):
    if os.environ.get(UPDATE_ENV):
        pytest.skip("update mode: digests regenerated, not compared")
    if golden["numpy"] != numpy_tag():
        pytest.skip(
            f"golden digests pinned under numpy {golden['numpy']}, "
            f"running {numpy_tag()} (float sampling streams may differ)"
        )
    key = config_id(*config)
    assert computed_digests[key] == golden["digests"][key], (
        f"{key}: YLT bytes changed - if intentional, regenerate with "
        f"{UPDATE_ENV}=1 and justify in the commit"
    )


def test_ragged_digests_agree_across_cpu_engines(computed_digests):
    """Decomposition invariance, digest-strength: the kernel's
    sequential and multicore YLTs are byte-identical (same dtype), with
    and without secondary uncertainty."""
    for secondary in ("primary", "secondary"):
        assert (
            computed_digests[f"sequential|ragged|{secondary}"]
            == computed_digests[f"multicore|ragged|{secondary}"]
        )


@pytest.mark.parametrize("engine", ["gpu", "gpu-optimized", "multi-gpu"])
def test_traffic_ledger_changes_pricing_only(golden, small_workload, engine):
    """``traffic=`` picks the ledger the simulated device prices: the
    paper's padded CUDA traffic and the fused kernel's traffic give the
    same (golden) YLT bytes at different modeled seconds."""
    if golden["numpy"] != numpy_tag():
        pytest.skip(f"golden digests pinned under numpy {golden['numpy']}")
    runs = {
        traffic: AggregateRiskAnalysis(
            small_workload.portfolio, small_workload.catalog.n_events
        ).run(
            small_workload.yet,
            engine=engine,
            traffic=traffic,
            **ENGINE_OPTIONS[engine],
        )
        for traffic in ("fused", "paper")
    }
    digests = {ylt_digest(r.ylt) for r in runs.values()}
    assert digests == {golden["digests"][config_id(engine, False)]}
    assert runs["fused"].modeled_seconds != runs["paper"].modeled_seconds
    assert runs["paper"].meta["traffic"] == "paper"
    with pytest.raises(ValueError, match="traffic"):
        AggregateRiskAnalysis(
            small_workload.portfolio, small_workload.catalog.n_events
        ).run(small_workload.yet, engine=engine, traffic="padded")
