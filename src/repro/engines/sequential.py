"""(i) Sequential engine — the paper's single-core C++ baseline.

One thread, executing a single-lane :class:`~repro.plan.plan.
ExecutionPlan`: the shared :class:`~repro.plan.planner.Planner` cuts the
trial space into batch tasks (a fixed depth, or the autotuner's byte
budget) and :func:`~repro.plan.execute.execute_plan_cpu` runs them
in order on the calling thread.  The per-activity wall-clock profile
directly measures the Figure 6 breakdown (the paper's finding on this
implementation: >65% of time in loss lookup, ~31% in the numerical term
computations).

``ReferenceEngine`` additionally exposes the line-by-line scalar oracle
through the same engine interface, for validation runs.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.algorithm import reference_layer_losses
from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.engines.base import Engine
from repro.plan.execute import execute_plan_cpu
from repro.plan.plan import ExecutionPlan
from repro.plan.planner import EngineCapabilities
from repro.plan.scheduler import Scheduler
from repro.utils.timer import ACTIVITY_OTHER, ActivityProfile


class SequentialEngine(Engine):
    """Single-threaded batched execution of Algorithm 1.

    Parameters
    ----------
    batch_trials:
        Trials per plan task (bounds the working block's memory).
        ``None`` lets the planner's autotuner size batches to its byte
        budget.
    """

    name = "sequential"

    def __init__(
        self,
        lookup_kind: str = "direct",
        dtype: np.dtype | type = np.float64,
        batch_trials: int | None = 8192,
        secondary=None,
        secondary_seed=None,
    ) -> None:
        super().__init__(
            lookup_kind=lookup_kind,
            dtype=dtype,
            secondary=secondary,
            secondary_seed=secondary_seed,
        )
        if batch_trials is not None and batch_trials < 1:
            raise ValueError(f"batch_trials must be >= 1, got {batch_trials}")
        self.batch_trials = None if batch_trials is None else int(batch_trials)

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            engine=self.name,
            n_slots=1,
            batch_trials=self.batch_trials,
            slot_batching="batched",
            dtype=self.dtype.str,
            secondary=self.secondary is not None,
        )

    def _execute(
        self,
        yet: YearEventTable,
        portfolio: Portfolio,
        catalog_size: int,
        plan: ExecutionPlan,
    ) -> tuple[YearLossTable, ActivityProfile, float | None, Dict[str, Any]]:
        profile = ActivityProfile()
        ylt = execute_plan_cpu(
            yet,
            portfolio,
            catalog_size,
            plan,
            lookup_kind=self.lookup_kind,
            dtype=self.dtype,
            secondary=self.secondary,
            secondary_seed=self.secondary_seed,
            profile=profile,
            scheduler=Scheduler(max_workers=1),
        )
        meta = {
            "batch_trials": self.batch_trials,
            "n_threads": 1,
            "secondary": self.secondary is not None,
        }
        return ylt, profile, None, meta


class ReferenceEngine(Engine):
    """Algorithm 1 verbatim (scalar loops) behind the engine interface.

    Pure-Python and extremely slow — the correctness oracle, not a
    performance point.  Ignores ``lookup_kind``/``dtype`` (it always uses
    dict semantics in ``float64``, the most literal reading of the
    pseudocode).  With ``secondary`` it draws the *same* counter-based
    multipliers as the kernel (addressed by global
    occurrence index), so a seeded secondary run can be cross-checked
    end to end against any vectorised engine.
    """

    name = "reference"

    def _execute(
        self,
        yet: YearEventTable,
        portfolio: Portfolio,
        catalog_size: int,
        plan: ExecutionPlan,
    ) -> tuple[YearLossTable, ActivityProfile, float | None, Dict[str, Any]]:
        profile = ActivityProfile()
        base_seed = self._secondary_base_seed()
        per_layer: Dict[int, np.ndarray] = {}
        with profile.track(ACTIVITY_OTHER):
            for layer in portfolio.layers:
                out = np.zeros(yet.n_trials, dtype=np.float64)
                # Execute the plan's tasks (a single whole-range task
                # for this engine's single-lane capabilities, but any
                # valid plan works — tasks carry global indices).
                for task in plan.layer_tasks(layer.layer_id):
                    out[task.trial_start : task.trial_stop] = (
                        reference_layer_losses(
                            yet,
                            portfolio,
                            layer,
                            trial_start=task.trial_start,
                            trial_stop=task.trial_stop,
                            secondary=self.secondary,
                            base_seed=base_seed,
                        )
                    )
                per_layer[layer.layer_id] = out
        meta = {"scalar": True, "secondary": self.secondary is not None}
        return YearLossTable.from_dict(per_layer), profile, None, meta
