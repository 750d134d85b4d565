"""Experiment plumbing: cached workloads, engine timing, report records."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.core.analysis import AnalysisResult
from repro.data.generator import Workload, generate_workload
from repro.data.presets import WorkloadSpec
from repro.engines.registry import create_engine

# Workload generation is the expensive part of a measured experiment;
# cache instances per spec so a pytest session generates each once.
_WORKLOAD_CACHE: Dict[str, Workload] = {}


def get_workload(spec: WorkloadSpec) -> Workload:
    """Generate (or fetch the cached) workload for a spec."""
    key = repr(spec)
    if key not in _WORKLOAD_CACHE:
        _WORKLOAD_CACHE[key] = generate_workload(spec)
    return _WORKLOAD_CACHE[key]


def clear_workload_cache() -> None:
    """Drop cached workloads (memory hygiene for large sweeps)."""
    _WORKLOAD_CACHE.clear()


def bench_artifact(name: str) -> Path:
    """Where a benchmark test writes its ``BENCH_*.json`` artifact.

    ``$REPRO_BENCH_OUT`` when set, else the git-ignored ``.bench_build``
    under the working directory: running the suite never rewrites the
    committed ``benchmarks/BENCH_*.json`` baselines, which change only
    when someone copies a fresh artifact over them on purpose.
    """
    out = Path(os.environ.get("REPRO_BENCH_OUT") or ".bench_build")
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def measure_engine(
    spec: WorkloadSpec, engine: str, repeats: int = 1, **options: Any
) -> AnalysisResult:
    """Run an engine on the workload of ``spec``; keep the fastest run.

    ``repeats > 1`` re-runs and keeps the minimum wall time (the standard
    noise-reduction rule for microbenchmarks); the returned result is the
    fastest run's.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    workload = get_workload(spec)
    best: AnalysisResult | None = None
    for _ in range(repeats):
        result = create_engine(engine, **options).run(
            workload.yet, workload.portfolio, workload.catalog.n_events
        )
        if best is None or result.wall_seconds < best.wall_seconds:
            best = result
    assert best is not None
    return best


@dataclass
class ExperimentReport:
    """One regenerated table/figure.

    Attributes
    ----------
    exp_id:
        The DESIGN.md experiment id (``"FIG-2"``, ``"SEQ-SCALE"``, ...).
    title:
        Human-readable description.
    rows:
        List of column→value dicts (the regenerated series).
    notes:
        Shape verdicts and paper comparison remarks.
    """

    exp_id: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **columns: Any) -> None:
        self.rows.append(columns)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> List[Any]:
        """One column across all rows (missing values become None)."""
        return [row.get(name) for row in self.rows]
