"""Fleet contexts: how a worker reconstructs a sweep's inputs.

A sweep manifest names *what* to compute (segment keys + task
coordinates) and *under which numeric configuration* (dtype,
secondary stream); the context supplies the actual input
arrays.  Two resolution paths:

* **in-process** — the submitter registers its live
  :class:`FleetContext` (YET/portfolio objects) with the workers it
  spawns, paying nothing;
* **cross-process** — the manifest carries a serialised
  :class:`~repro.data.presets.WorkloadSpec`, and a worker in another
  process (or on another machine sharing the cache dir) regenerates the
  seeded workload deterministically — byte-identical inputs, therefore
  identical content-addressed keys.  This is the same determinism the
  REPLAY-ABLATE cross-process rows rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.core.kernels import KERNEL_RAGGED, LOOKUP_DIRECT
from repro.core.secondary import SecondaryUncertainty, resolve_secondary_seed
from repro.data.layer import Portfolio
from repro.data.presets import WorkloadSpec
from repro.data.yet import YearEventTable


@dataclass
class FleetContext:
    """Everything a worker needs to execute one sweep's jobs."""

    yet: YearEventTable
    portfolio: Portfolio
    catalog_size: int
    dtype: str = "<f8"
    secondary: Optional[SecondaryUncertainty] = None
    secondary_seed: int = 0


def config_from_context(ctx: FleetContext) -> Dict[str, Any]:
    """The manifest's ``config`` block for a context — the ONE serialisation.

    Sweep submission and the worker-side :func:`context_from_manifest`
    go through this shape; a second copy drifting by one field would
    silently shift every worker-derived key away from the submitter's.
    ``"kernel"`` and ``"lookup_kind"`` are constants that keep the block
    as it was when a second kernel and other layer tables existed;
    :func:`context_from_manifest` rejects any other value.
    """
    return {
        "kernel": KERNEL_RAGGED,
        "dtype": str(np.dtype(ctx.dtype).str),
        "lookup_kind": LOOKUP_DIRECT,
        "catalog_size": int(ctx.catalog_size),
        "secondary": (
            None
            if ctx.secondary is None
            else [float(ctx.secondary.alpha), float(ctx.secondary.beta)]
        ),
        "secondary_seed": int(ctx.secondary_seed),
    }


def spec_dict(spec) -> Dict[str, Any]:
    """A :class:`~repro.data.presets.WorkloadSpec` as manifest JSON."""
    import dataclasses

    return dataclasses.asdict(spec)


def context_from_manifest(manifest: Dict[str, Any]) -> FleetContext:
    """Rebuild a context from a manifest's workload spec + config.

    Only usable for manifests submitted with a ``workload.spec`` block
    (the CLI and example path); in-process fleets register their live
    context instead.  Workload generation is deterministic given the
    spec, so the rebuilt inputs — and every derived segment key — are
    byte-identical to the submitter's.

    A ``config.kernel`` other than ``"ragged"`` or a
    ``config.lookup_kind`` other than ``"direct"`` (absent is fine)
    raises ``ValueError`` before any input is built: such a sweep was
    submitted for a kernel or layer table this code does not have, and
    computing it anyway would store these losses under the other's keys.
    """
    config = manifest.get("config") or {}
    only_values = (("kernel", KERNEL_RAGGED), ("lookup_kind", LOOKUP_DIRECT))
    for name, only in only_values:
        value = config.get(name, only)
        if value != only:
            raise ValueError(
                f"sweep {manifest.get('sweep_id')!r} was submitted for "
                f"{name} {value!r}; only {only!r} is supported"
            )
    workload_info = manifest.get("workload") or {}
    spec_dict = workload_info.get("spec")
    if spec_dict is None:
        raise ValueError(
            f"sweep {manifest.get('sweep_id')!r} carries no workload spec; "
            "its jobs can only be executed by workers given the context "
            "in-process"
        )
    from repro.data.generator import generate_workload  # deferred import

    workload = generate_workload(WorkloadSpec(**spec_dict))
    yet, portfolio = workload.yet, workload.portfolio
    scenario_dict = workload_info.get("scenario")
    if scenario_dict is not None:
        # Compiled-scenario sweep: re-derive the perturbed inputs from
        # the declarative spec (compilation is seeded + deterministic,
        # so the rebuilt arrays — and all segment keys — match the
        # submitter's bytes).
        from repro.scenario.compiler import compile_scenario
        from repro.scenario.spec import Scenario

        compiled = compile_scenario(Scenario.from_dict(scenario_dict), workload)
        yet, portfolio = compiled.yet, compiled.portfolio
    stage_trials = workload_info.get("stage_trials")
    if stage_trials is not None and int(stage_trials) < yet.n_trials:
        yet = yet.slice_trials(0, int(stage_trials))
    secondary_params = config.get("secondary")
    secondary = (
        None
        if secondary_params is None
        else SecondaryUncertainty(*[float(v) for v in secondary_params])
    )
    return FleetContext(
        yet=yet,
        portfolio=portfolio,
        catalog_size=int(config.get("catalog_size", workload.catalog.n_events)),
        dtype=str(config.get("dtype", "<f8")),
        secondary=secondary,
        secondary_seed=resolve_secondary_seed(
            int(config.get("secondary_seed", 0))
        )
        if secondary is not None
        else 0,
    )
