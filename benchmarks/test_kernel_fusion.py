"""KERNEL-BACKENDS microbenchmark: the fused ragged pass per backend.

Runs the kernel on the ``BENCH_SMALL``-shaped workload through every
available kernel backend and writes a ``BENCH_kernels.json`` artifact
to the git-ignored ``.bench_build/`` (see
:func:`~repro.bench.runner.bench_artifact`) to track each backend's
speedup over the numpy oracle across the repository's history.  (The
committed ``benchmarks/BENCH_kernels.json`` also records the rows of
the retired dense-vs-ragged comparison.)
"""

import json
import os
import time

import numpy as np
import pytest

from repro.backends import available_backends, get_backend
from repro.bench.runner import bench_artifact
from repro.core.kernels import run_ragged
from repro.utils.bufpool import ScratchBufferPool

ARTIFACT = bench_artifact("BENCH_kernels.json")
REPEATS = 5

#: pinned occurrence-chunk cache budget: the artifact tracks numbers
#: across machines/PRs, so the measurement geometry must not float with
#: the host's detected L2 size.
PINNED_L2_BYTES = 1 * 2**20


@pytest.fixture(scope="module", autouse=True)
def pinned_l2_budget():
    old = os.environ.get("REPRO_L2_CACHE_BYTES")
    os.environ["REPRO_L2_CACHE_BYTES"] = str(PINNED_L2_BYTES)
    yield
    if old is None:
        os.environ.pop("REPRO_L2_CACHE_BYTES", None)
    else:
        os.environ["REPRO_L2_CACHE_BYTES"] = old


def _best_seconds(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def backend_rows(workload, spec):
    """KERNEL-BACKENDS: the fused ragged pass per kernel backend.

    One row per (backend, dtype) with the speedup over the numpy
    oracle's ragged time measured in the same process.  On a numpy-only
    install this is a single-backend table — the artifact's shape is
    stable either way, so the CI floor below can key off it.
    """
    yet, portfolio = workload.yet, workload.portfolio
    catalog = workload.catalog.n_events
    rows = []
    for dtype_label, dtype in (("float64", np.float64), ("float32", np.float32)):
        numpy_s = None
        for name in sorted(available_backends()):
            backend = get_backend(name)
            pool = ScratchBufferPool()
            run_ragged(
                yet, portfolio, catalog, dtype=dtype, pool=pool, backend=backend
            )  # warm pool + JIT compile
            seconds = _best_seconds(
                lambda: run_ragged(
                    yet,
                    portfolio,
                    catalog,
                    dtype=dtype,
                    pool=pool,
                    backend=backend,
                )
            )
            if name == "numpy":
                numpy_s = seconds
            rows.append(
                {
                    "backend": name,
                    "compiled": bool(backend.compiled),
                    "dtype": dtype_label,
                    "ragged_seconds": seconds,
                }
            )
        for row in rows:
            if row["dtype"] == dtype_label:
                row["speedup_vs_numpy"] = numpy_s / row["ragged_seconds"]
    return rows


@pytest.fixture(scope="module")
def artifact_data(backend_rows, workload, spec):
    yet = workload.yet
    artifact = {
        "benchmark": "kernel_fusion",
        "workload": spec.name,
        "n_trials": yet.n_trials,
        "n_occurrences": yet.n_occurrences,
        "repeats": REPEATS,
        "pinned_l2_bytes": PINNED_L2_BYTES,
        "backend_rows": backend_rows,
        "backends_available": sorted(available_backends()),
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def test_artifact_written(artifact_data):
    data = json.loads(ARTIFACT.read_text())
    assert data["benchmark"] == "kernel_fusion"
    # One backend row per (available backend, dtype); numpy is always
    # available, so the table is never empty.
    assert len(data["backend_rows"]) == 2 * len(data["backends_available"])
    assert "numpy" in data["backends_available"]


def test_compiled_backend_speedup_floor(backend_rows):
    """CI floor: the numba-compiled fused pass must beat the numpy
    ragged oracle by >= 1.3x on BENCH_SMALL (the issue's acceptance
    bar).  Skips, loudly, when no compiled backend is installed — the
    tier-1 matrix runs numpy-only on purpose; the compiled-bench CI job
    installs ``repro[compiled]`` and enforces this."""
    compiled = [r for r in backend_rows if r["backend"] == "numba"]
    if not compiled:
        pytest.skip("numba not installed: compiled speedup floor not enforced")
    for row in compiled:
        assert row["speedup_vs_numpy"] >= 1.3, row
