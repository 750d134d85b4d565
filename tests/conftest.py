"""Shared fixtures: canned workloads at test-friendly sizes, a
sequential-engine shorthand, and a check that no test leaves a
non-daemon thread running."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.data.generator import generate_workload
from repro.data.presets import BENCH_SMALL
from repro.engines.sequential import SequentialEngine

# A workload small enough for the scalar reference engine (pure Python
# loops) to stay fast, but structured enough to exercise every path:
# multiple perils, multiple ELTs, non-trivial terms.
TINY_SPEC = BENCH_SMALL.with_(
    name="tiny",
    n_trials=60,
    events_per_trial=12,
    catalog_size=800,
    losses_per_elt=80,
    elts_per_layer=4,
)

# Same shape but with identity financial/layer terms: the expected YLT is
# just the sum of raw losses, computable independently.
TINY_IDENTITY_SPEC = TINY_SPEC.with_(name="tiny-identity", identity_terms=True)

# A mid-size workload for engines that need enough trials to exercise
# batching/chunking/multi-device splits.
SMALL_SPEC = BENCH_SMALL.with_(
    name="small",
    n_trials=600,
    events_per_trial=25,
    catalog_size=5_000,
    losses_per_elt=400,
    elts_per_layer=5,
)

MULTILAYER_SPEC = SMALL_SPEC.with_(
    name="small-multilayer", n_layers=3, shared_elt_pool=True
)


@pytest.fixture(scope="session")
def tiny_workload():
    return generate_workload(TINY_SPEC)


@pytest.fixture(scope="session")
def tiny_identity_workload():
    return generate_workload(TINY_IDENTITY_SPEC)


@pytest.fixture(scope="session")
def small_workload():
    return generate_workload(SMALL_SPEC)


@pytest.fixture(scope="session")
def multilayer_workload():
    return generate_workload(MULTILAYER_SPEC)


@pytest.fixture(scope="session")
def reference_ylt(tiny_workload):
    """Oracle YLT of the tiny workload (computed once per session)."""
    from repro.core.algorithm import aggregate_risk_analysis_reference

    return aggregate_risk_analysis_reference(
        tiny_workload.yet, tiny_workload.portfolio
    )


def run_sequential(yet, portfolio, catalog, batch_trials=None, **options):
    """YLT of a sequential-engine run (autotuned batches by default)."""
    engine = SequentialEngine(batch_trials=batch_trials, **options)
    return engine.run(yet, portfolio, catalog).ylt


@pytest.fixture()
def rng():
    return np.random.default_rng(20130812)


#: how long a test's leftover non-daemon threads get to finish on their own
THREAD_JOIN_SECONDS = 5.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that starts a non-daemon thread and leaves it alive.

    Such a thread keeps the interpreter from exiting.  Threads that are
    merely finishing get a bounded join first.
    """
    before = set(threading.enumerate())
    yield
    leaked = [
        t
        for t in threading.enumerate()
        if t not in before and not t.daemon and t.is_alive()
    ]
    deadline = time.monotonic() + THREAD_JOIN_SECONDS
    for thread in leaked:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = sorted(t.name for t in leaked if t.is_alive())
    if alive:
        pytest.fail(f"non-daemon threads outlived the test: {alive}")
