"""Shared benchmark fixtures.

Benchmarks run the real engines on the ``BENCH_SMALL``-shaped workload
(paper shape, container-friendly volume) and attach the corresponding
paper numbers and paper-scale model predictions to each benchmark's
``extra_info`` so the JSON output carries the full comparison.

Set ``REPRO_BENCH_SCALE=default`` or ``large`` for heavier measured runs.

The autouse ``no_leaked_threads`` check of ``tests/conftest.py`` applies
here too: a benchmark that leaves a non-daemon thread alive fails.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.report import format_report
from repro.bench.runner import get_workload
from repro.data.presets import BENCH_DEFAULT, BENCH_LARGE, BENCH_SMALL
from tests.conftest import no_leaked_threads  # noqa: F401  (autouse)

_SCALES = {
    "small": BENCH_SMALL,
    "default": BENCH_DEFAULT,
    "large": BENCH_LARGE,
}


def bench_spec():
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    return _SCALES.get(scale, BENCH_SMALL)


@pytest.fixture(scope="session")
def spec():
    return bench_spec()


@pytest.fixture(scope="session")
def workload(spec):
    return get_workload(spec)


@pytest.fixture(scope="session")
def print_report():
    """Render an ExperimentReport to the terminal (shown with -s)."""

    def _print(report):
        print()
        print(format_report(report))

    return _print
