"""(ii) Multicore engine — the paper's C++/OpenMP implementation.

The paper parallelises by trial: "a single thread is employed per trial"
with OpenMP scheduling threads over cores (Figure 1a), and additionally
oversubscribes each core with many threads (Figure 1b).  Here the shared
:class:`~repro.plan.planner.Planner` lays the trial space onto
``n_cores * threads_per_core`` lanes — each a logical "thread" — and the
:class:`~repro.plan.scheduler.Scheduler` runs those lanes on a pool of
``n_cores`` OS threads.  NumPy's gathers and ufuncs release the GIL, so
the lanes genuinely run in parallel; like the paper's CPU, the shared
memory bus bounds the achievable speedup — random ELT lookups have no
locality for the cache hierarchy to exploit.

Lanes are cut at equal cumulative *occurrence* counts — the multi-GPU
engine's ``balance="events"`` rule — so ragged YETs hand every worker a
near-equal share of actual lookups; inside a lane, tasks run in order
on the lane's worker thread, as in the sequential engine.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.engines.base import Engine
from repro.plan.execute import execute_plan_cpu
from repro.plan.plan import ExecutionPlan
from repro.plan.planner import EngineCapabilities
from repro.plan.scheduler import Scheduler
from repro.utils.parallel import available_cpu_count
from repro.utils.timer import ActivityProfile
from repro.utils.validation import check_positive


class MulticoreEngine(Engine):
    """Trial-parallel execution on a pool of OS threads.

    Parameters
    ----------
    n_cores:
        Worker threads mapped to cores (defaults to all available) —
        the scheduler's concurrency.  Results are bit-for-bit identical
        for any value: the plan fixes the decomposition, the scheduler
        only picks how many lanes run at once.
    threads_per_core:
        Oversubscription factor (Figure 1b's axis): the plan receives
        ``n_cores * threads_per_core`` lanes, scheduled onto the
        ``n_cores`` workers.
    """

    name = "multicore"

    def __init__(
        self,
        dtype: np.dtype | type = np.float64,
        n_cores: int | None = None,
        threads_per_core: int = 1,
        secondary=None,
        secondary_seed=None,
    ) -> None:
        super().__init__(
            dtype=dtype,
            secondary=secondary,
            secondary_seed=secondary_seed,
        )
        self.n_cores = int(n_cores) if n_cores else available_cpu_count()
        check_positive("n_cores", self.n_cores)
        check_positive("threads_per_core", threads_per_core)
        self.threads_per_core = int(threads_per_core)

    @property
    def n_logical_threads(self) -> int:
        return self.n_cores * self.threads_per_core

    def capabilities(self) -> EngineCapabilities:
        # Lanes sub-batch, as in the sequential engine.
        return EngineCapabilities(
            engine=self.name,
            n_slots=self.n_logical_threads,
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
        # Merged per-activity seconds are *CPU* seconds across workers
        # (they sum over threads); the engine's wall_seconds field
        # reports elapsed time.
        profile = ActivityProfile()
        ylt = execute_plan_cpu(
            yet,
            portfolio,
            catalog_size,
            plan,
            dtype=self.dtype,
            secondary=self.secondary,
            secondary_seed=self.secondary_seed,
            profile=profile,
            scheduler=Scheduler(max_workers=self.n_cores),
        )
        meta = {
            "n_cores": self.n_cores,
            "threads_per_core": self.threads_per_core,
            "n_logical_threads": self.n_logical_threads,
            "balance": plan.balance,
            "secondary": self.secondary is not None,
        }
        return ylt, profile, None, meta
