"""The benchmark's view of the program: what ``perfbench/`` imports and wraps.

``perfbench/`` lives outside ``src/`` and reaches in by name: the host
fingerprint imports from ``repro.backends``, the layer tracer replaces
module globals and methods by name, and the harness builds lookup tables
through ``repro.core.kernels``.  A change that renames or deletes one of
those names breaks every benchmark run, so this test loads the three
modules against ``src/`` and drives each entry point once.  A wrapper
whose name still exists but is no longer called reads zero instead of
failing, so one small fleet sweep runs under the wrappers and its
compute spans are counted.

The modules import each other by bare name (``import hostinfo``), as
``perfbench/run.py`` arranges with ``sys.path``.  Here each is loaded
under a unique name instead, with the bare names aliased in
``sys.modules`` only while the modules execute, so ``perfbench/`` is
never on ``sys.path`` and no bare name outlives the loading.  No
bytecode is written next to the sources.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: load order: each module's bare-name imports are loaded before it
MODULES = ("spans", "hostinfo", "layers", "harness")


@pytest.fixture(scope="module")
def perfbench():
    loaded = {}
    saved = {name: sys.modules.get(name) for name in MODULES}
    dont_write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        for name in MODULES:
            unique = f"_perfbench_surface_{name}"
            spec = importlib.util.spec_from_file_location(
                unique, PERFBENCH / f"{name}.py"
            )
            module = importlib.util.module_from_spec(spec)
            sys.modules[unique] = sys.modules[name] = module
            spec.loader.exec_module(module)
            loaded[name] = module
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        for name, previous in saved.items():
            if previous is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = previous
    return loaded


def test_nothing_left_on_import_paths(perfbench):
    assert str(PERFBENCH) not in sys.path
    assert not any(name in sys.modules for name in MODULES)


def test_host_fingerprint(perfbench):
    info = perfbench["hostinfo"].fingerprint()
    assert info["backends_available"] == ["numpy"]
    assert info["backends_registered"] == ["numpy"]


def test_layer_wrappers_install_and_uninstall(perfbench):
    import repro.plan.execute as plan_execute

    original = plan_execute.layer_trial_batch_ragged
    tracer = perfbench["spans"].Tracer()
    perfbench["layers"].install(tracer)
    try:
        assert plan_execute.layer_trial_batch_ragged is not original
    finally:
        tracer.uninstall()
    assert plan_execute.layer_trial_batch_ragged is original


def test_fleet_compute_spans_once_per_run(perfbench, small_workload):
    """The worker computes each run job through the names perfbench
    wraps: one ``fleet.compute`` span with one ``kernel.batch`` span
    inside it per run, so ``fleet.compute_s`` and the kernel counters
    measure a sweep's work."""
    from repro.core.analysis import AggregateRiskAnalysis
    from repro.store import MemoryStore

    ara = AggregateRiskAnalysis(
        small_workload.portfolio, small_workload.catalog.n_events
    )
    tracer = perfbench["spans"].Tracer()
    perfbench["layers"].install(tracer)
    try:
        result = ara.run_fleet(
            small_workload.yet,
            n_workers=1,
            store=MemoryStore(max_entries=None),
            segment_trials=20,
        )
    finally:
        tracer.uninstall()
    fleet = result.meta["fleet"]
    assert 1 < fleet["runs"] < fleet["n_segments"]
    compute = [s for s in tracer.spans if s.name == "fleet.compute"]
    kernel = [s for s in tracer.spans if s.name == "kernel.batch"]
    assert len(compute) == len(kernel) == fleet["runs"]
    assert {tracer.spans[s.parent].name for s in kernel} == {"fleet.compute"}
    submits = [s for s in tracer.spans if s.name == "fleet.submit"]
    assert [s.attrs["jobs"] for s in submits] == [fleet["n_segments"]]


def test_harness_builds_tables(perfbench, tiny_workload):
    perfbench["harness"].build_tables(tiny_workload)
