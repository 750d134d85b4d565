"""Tests for the engine registry."""

import numpy as np
import pytest

from repro.engines.base import Engine
from repro.engines.registry import (
    available_engines,
    create_engine,
    engine_class,
)


class TestRegistry:
    def test_available_engines_ordered_like_paper(self):
        names = available_engines()
        assert names.index("sequential") < names.index("multicore")
        assert names.index("multicore") < names.index("gpu")
        assert names.index("gpu") < names.index("gpu-optimized")
        assert names.index("gpu-optimized") < names.index("multi-gpu")

    def test_engine_class_lookup(self):
        cls = engine_class("sequential")
        assert issubclass(cls, Engine)
        assert cls.name == "sequential"

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="available"):
            engine_class("fpga")

    def test_create_engine_filters_unknown_options(self):
        # n_devices is meaningless for sequential; must be dropped.
        engine = create_engine(
            "sequential", n_devices=4, batch_trials=32, dtype=np.float64
        )
        assert engine.batch_trials == 32

    def test_create_engine_rejects_misspelt_option(self):
        # No registered engine takes ``trafic``: a typo, not a superset.
        with pytest.raises(TypeError, match="trafic"):
            create_engine("gpu", trafic="paper")

    def test_create_engine_rejects_staging(self):
        # Every layer restages its tables; there is no other schedule.
        with pytest.raises(TypeError, match="staging"):
            create_engine("multi-gpu", staging="overlap")

    def test_run_rejects_option_no_engine_accepts(self, tiny_workload):
        from repro.core.analysis import AggregateRiskAnalysis

        ara = AggregateRiskAnalysis(
            tiny_workload.portfolio, tiny_workload.catalog.n_events
        )
        with pytest.raises(TypeError, match="kernel"):
            ara.run(tiny_workload.yet, engine="sequential", kernel="dense")
        with pytest.raises(TypeError, match="trafic"):
            ara.run(tiny_workload.yet, engine="gpu", trafic="paper")

    def test_create_engine_passes_known_options(self):
        engine = create_engine("multi-gpu", n_devices=2, threads_per_block=64)
        assert engine.n_devices == 2
        assert engine.threads_per_block == 64

    def test_option_superset_works_for_every_engine(self):
        superset = dict(
            n_cores=2,
            threads_per_core=2,
            n_devices=2,
            threads_per_block=64,
            chunk_events=16,
            batch_trials=100,
        )
        for name in available_engines():
            engine = create_engine(name, **superset)
            assert isinstance(engine, Engine)


@pytest.mark.parametrize(
    "surface", [*available_engines(), "repro-fleet worker"]
)
def test_no_backend_option(surface, tmp_path, capsys):
    """One kernel implementation: ``backend`` is an option nowhere."""
    if surface == "repro-fleet worker":
        from repro.fleet.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["worker", "--queue", str(tmp_path / "q"), "--backend", "numpy"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err
    else:
        with pytest.raises(TypeError, match="backend"):
            create_engine(surface, backend="numpy")


@pytest.mark.parametrize("engine", available_engines())
def test_no_lookup_kind_option(engine):
    """One layer table: ``lookup_kind`` is an option of no engine, not
    even at its old default."""
    with pytest.raises(TypeError, match="lookup_kind"):
        create_engine(engine, lookup_kind="direct")
