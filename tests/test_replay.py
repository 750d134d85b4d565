"""Whole-analysis memoisation: result-key replay through the store.

The acceptance contract of the persistence layer: a run whose result
key (inputs, working dtype, secondary stream) is stored returns a
**bit-identical** YLT with **zero** engine task executions, whatever
engine or plan asked — measured here with the process-wide execution
counter of :mod:`repro.engines.base`, not with timing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import AggregateRiskAnalysis
from repro.core.secondary import SecondaryUncertainty
from repro.engines.base import execution_count
from repro.engines.registry import create_engine
from repro.store import (
    MemoryStore,
    SharedFileStore,
    TieredStore,
    ylt_digest,
)


@pytest.fixture()
def store():
    return MemoryStore()


def make_ara(workload, **kwargs) -> AggregateRiskAnalysis:
    return AggregateRiskAnalysis(
        workload.portfolio, workload.catalog.n_events, **kwargs
    )


def test_replay_is_bitwise_with_zero_executions(tiny_workload, store):
    ara = make_ara(tiny_workload)
    before = execution_count()
    cold = ara.run(tiny_workload.yet, engine="sequential", store=store)
    assert execution_count() == before + 1
    assert cold.meta["replay"] == {
        "hit": False,
        "key": cold.meta["replay"]["key"],
    }

    warm = ara.run(tiny_workload.yet, engine="sequential", store=store)
    assert execution_count() == before + 1  # zero additional executions
    assert warm.meta["replay"]["hit"] is True
    assert warm.meta["replay"]["key"] == cold.meta["replay"]["key"]
    assert warm.meta["replay"]["computed_by"] == "sequential"
    assert warm.ylt.layer_ids == cold.ylt.layer_ids
    assert warm.ylt.losses.tobytes() == cold.ylt.losses.tobytes()


def test_replay_reports_no_modeled_seconds(small_workload, store):
    """A replay priced nothing: the computing run's modeled seconds sit
    in the replay meta, never in ``modeled_seconds``."""
    ara = make_ara(small_workload)
    fused = ara.run(small_workload.yet, engine="gpu", store=store)
    paper = ara.run(
        small_workload.yet, engine="gpu", traffic="paper", store=store
    )
    assert paper.meta["replay"]["hit"] is True
    assert paper.modeled_seconds is None
    assert paper.meta["replay"]["computed_by"] == "gpu"
    assert (
        paper.meta["replay"]["computed_modeled_seconds"]
        == fused.modeled_seconds
    )
    priced = ara.run(small_workload.yet, engine="gpu", traffic="paper")
    assert priced.modeled_seconds != fused.modeled_seconds


def test_replay_survives_process_restart(tiny_workload, tmp_path):
    ara = make_ara(tiny_workload)
    cold = ara.run(
        tiny_workload.yet,
        engine="sequential",
        store=TieredStore([MemoryStore(), SharedFileStore(tmp_path)]),
    )
    # a fresh store over the same directory simulates a new process
    fresh = TieredStore([MemoryStore(), SharedFileStore(tmp_path)])
    before = execution_count()
    warm = ara.run(tiny_workload.yet, engine="sequential", store=fresh)
    assert execution_count() == before
    assert warm.meta["replay"]["hit"] is True
    assert ylt_digest(warm.ylt) == ylt_digest(cold.ylt)


@pytest.mark.parametrize("n_cores", [1, 2, 4])
def test_replay_shares_across_engines_and_plans(
    small_workload, store, n_cores
):
    """Neither the engine name nor the plan is part of the key: a
    multicore run of any lane count replays the sequential engine's
    stored YLT without executing."""
    ara = make_ara(small_workload)
    cold = ara.run(small_workload.yet, engine="sequential", store=store)
    before = execution_count()
    warm = ara.run(
        small_workload.yet, engine="multicore", n_cores=n_cores, store=store
    )
    assert execution_count() == before
    assert warm.meta["replay"]["hit"] is True
    assert warm.meta["replay"]["computed_by"] == "sequential"
    assert warm.engine == "multicore"
    if n_cores > 1:  # a different plan, the same result
        inputs = (small_workload.yet, small_workload.portfolio)
        sequential = create_engine("sequential").plan_for(*inputs)
        multicore = create_engine("multicore", n_cores=n_cores).plan_for(
            *inputs
        )
        assert multicore.fingerprint() != sequential.fingerprint()
    assert warm.ylt.losses.tobytes() == cold.ylt.losses.tobytes()


def test_replay_does_not_plan(small_workload, store, monkeypatch):
    """The key does not depend on the plan, so a hit never builds one:
    its meta carries the replay record and no plan summary."""
    engine = create_engine("multicore", n_cores=4)
    inputs = (small_workload.yet, small_workload.portfolio)
    n_events = small_workload.catalog.n_events
    cold = engine.run(*inputs, n_events, store=store)
    assert "plan" in cold.meta

    calls = []
    plan_for = type(engine).plan_for

    def counting_plan_for(self, *args, **kwargs):
        calls.append(args)
        return plan_for(self, *args, **kwargs)

    monkeypatch.setattr(type(engine), "plan_for", counting_plan_for)
    warm = engine.run(*inputs, n_events, store=store)
    assert warm.meta["replay"]["hit"] is True
    assert calls == []
    assert "plan" not in warm.meta
    assert warm.ylt.losses.tobytes() == cold.ylt.losses.tobytes()


def test_given_plan_is_validated_before_the_lookup(small_workload, store):
    """A caller's plan for other inputs is refused even when the store
    holds the result."""
    engine = create_engine("sequential")
    inputs = (small_workload.yet, small_workload.portfolio)
    n_events = small_workload.catalog.n_events
    engine.run(*inputs, n_events, store=store)
    short = small_workload.yet.slice_trials(0, small_workload.yet.n_trials // 2)
    wrong = engine.plan_for(short, small_workload.portfolio)
    with pytest.raises(ValueError, match="trials"):
        engine.run(*inputs, n_events, plan=wrong, store=store)


MATRIX_ENGINES = [
    ("sequential", {}),
    ("multicore", {"n_cores": 1}),
    ("multicore", {"n_cores": 2}),
    ("multicore", {"n_cores": 4}),
    ("gpu", {}),
    ("gpu-optimized", {}),
    ("multi-gpu", {"n_devices": 2}),
    ("multi-gpu", {"n_devices": 4}),
]


def test_equal_result_keys_mean_equal_ylts(small_workload):
    """The key matrix guard: over every engine at each requested dtype
    and secondary setting, equal capability dtype and secondary give
    equal keys, and equal keys give equal YLT digests."""
    ara = make_ara(small_workload)
    by_config = {}
    by_key = {}
    for dtype in (np.float64, np.float32):
        for secondary in (False, True):
            options = {"dtype": dtype}
            if secondary:
                options.update(
                    secondary=SecondaryUncertainty(4.0, 4.0),
                    secondary_seed=7,
                )
            for name, engine_options in MATRIX_ENGINES:
                engine = create_engine(name, **engine_options, **options)
                key = engine.analysis_key(
                    small_workload.yet, small_workload.portfolio
                )
                config = (engine.capabilities().dtype, secondary)
                by_config.setdefault(config, set()).add(key)
                result = ara.run(
                    small_workload.yet, engine=name, **engine_options,
                    **options,
                )
                by_key.setdefault(key, set()).add(ylt_digest(result.ylt))
    assert set(by_config) == {
        (dtype, secondary)
        for dtype in ("<f8", "<f4")
        for secondary in (False, True)
    }
    assert all(len(keys) == 1 for keys in by_config.values())
    assert len(by_key) == len(by_config)
    assert all(len(digests) == 1 for digests in by_key.values())


def test_different_configurations_never_replay_each_other(
    tiny_workload, store
):
    ara = make_ara(tiny_workload)
    ara.run(tiny_workload.yet, engine="sequential", store=store)
    before = execution_count()
    variants = [
        dict(engine="sequential", dtype=np.float32),
        dict(
            engine="sequential",
            secondary=SecondaryUncertainty(4.0, 4.0),
            secondary_seed=1,
        ),
    ]
    for options in variants:
        result = ara.run(tiny_workload.yet, store=store, **options)
        assert result.meta["replay"]["hit"] is False, options
    assert execution_count() == before + len(variants)

    # and a different secondary *seed* is a different stream entirely
    su = SecondaryUncertainty(4.0, 4.0)
    first = ara.run(
        tiny_workload.yet,
        engine="sequential",
        secondary=su,
        secondary_seed=1,
        store=store,
    )
    other_seed = ara.run(
        tiny_workload.yet,
        engine="sequential",
        secondary=su,
        secondary_seed=2,
        store=store,
    )
    assert first.meta["replay"]["hit"] is True  # seed 1 was stored above
    assert other_seed.meta["replay"]["hit"] is False


def test_analysis_level_default_store(tiny_workload, store):
    """A store configured on the analysis applies to every run; a
    per-run store overrides it."""
    ara = make_ara(tiny_workload, store=store)
    ara.run(tiny_workload.yet, engine="sequential")
    warm = ara.run(tiny_workload.yet, engine="sequential")
    assert warm.meta["replay"]["hit"] is True

    override = MemoryStore()
    cold = ara.run(tiny_workload.yet, engine="sequential", store=override)
    assert cold.meta["replay"]["hit"] is False  # fresh store, fresh miss
    assert len(override) == 1


def test_run_many_replays_whole_batches(tiny_workload, multilayer_workload):
    """run_many over a warmed store executes nothing: the sweep shape
    (same portfolios re-analysed) collapses to hash lookups."""
    store = MemoryStore()
    ara = make_ara(multilayer_workload, store=store)
    portfolios = [multilayer_workload.portfolio] * 3
    first = ara.run_many(multilayer_workload.yet, portfolios, engine="sequential")
    before = execution_count()
    second = ara.run_many(multilayer_workload.yet, portfolios, engine="sequential")
    assert execution_count() == before
    for a, b in zip(first, second):
        assert b.meta["replay"]["hit"] is True
        assert a.ylt.losses.tobytes() == b.ylt.losses.tobytes()


def test_replayed_result_supports_metrics(tiny_workload, store):
    """A replayed (possibly mmap-backed) YLT behaves like a computed
    one for downstream consumers."""
    from repro.metrics.tvar import tail_value_at_risk

    ara = make_ara(tiny_workload)
    cold = ara.run(tiny_workload.yet, engine="sequential", store=store)
    warm = ara.run(tiny_workload.yet, engine="sequential", store=store)
    layer_id = tiny_workload.portfolio.layers[0].layer_id
    assert warm.ylt.expected_loss(layer_id) == cold.ylt.expected_loss(layer_id)
    assert tail_value_at_risk(
        warm.ylt.portfolio_losses(), 0.95
    ) == tail_value_at_risk(cold.ylt.portfolio_losses(), 0.95)
