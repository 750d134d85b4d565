"""The benchmark's view of the program: what ``perfbench/`` imports and wraps.

``perfbench/`` lives outside ``src/`` and reaches in by name: the host
fingerprint imports from ``repro.backends``, the layer tracer replaces
module globals and methods by name, and the harness builds lookup tables
through ``repro.core.kernels``.  A change that renames or deletes one of
those names breaks every benchmark run, so this test loads the three
modules against ``src/`` and drives each entry point once.

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


def test_harness_builds_tables(perfbench, tiny_workload):
    perfbench["harness"].build_tables(tiny_workload)
