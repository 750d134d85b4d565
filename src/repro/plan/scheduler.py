"""The Scheduler: runs plan slot groups over a worker pool.

A :class:`Scheduler` owns one knob — ``max_workers``, how many slot
groups execute *concurrently* — and deliberately nothing else: what work
exists and where its outputs land is fixed by the
:class:`~repro.plan.plan.ExecutionPlan`, so scheduling is free to vary
without touching results.  Engines use it for their fork-join layer
barriers (multicore worker threads, the multi-GPU host-thread-per-device
scheme); the :class:`~repro.pricing.realtime.QuoteService` reuses the
same pool abstraction to run whole quote tasks side by side.

With one worker (or one group) the scheduler degenerates to an inline
loop on the calling thread — single-stream engines pay nothing for the
abstraction.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

from repro.plan.plan import ExecutionPlan, PlanTask
from repro.utils.parallel import available_cpu_count, run_threaded

T = TypeVar("T")


class Scheduler:
    """Executes callables (plan slot groups, quote tasks) on a pool.

    Parameters
    ----------
    max_workers:
        Concurrency cap.  ``None`` defaults to the machine's usable CPU
        count; ``1`` forces inline sequential execution (no pool, no
        extra threads) — results are identical either way because tasks
        write to disjoint global-index slots.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers

    def effective_workers(self, n_jobs: int) -> int:
        """Pool width actually used for ``n_jobs`` independent jobs."""
        if n_jobs <= 0:
            return 0
        cap = self.max_workers or available_cpu_count()
        return max(1, min(cap, n_jobs))

    # ------------------------------------------------------------------
    def run_jobs(self, jobs: Sequence[Callable[[], T]]) -> List[T]:
        """Run independent callables, returning results in job order.

        Inline (caller thread) when the effective pool width is 1;
        otherwise a fork-join over ``run_threaded``.  Exceptions
        propagate to the caller either way.
        """
        workers = self.effective_workers(len(jobs))
        if workers <= 1:
            return [job() for job in jobs]
        return run_threaded(jobs, max_workers=workers)

    def run_layer(
        self,
        plan: ExecutionPlan,
        layer_id: int,
        slot_runner: Callable[[int, List[PlanTask]], T],
    ) -> List[Tuple[int, T]]:
        """Execute one layer's slot groups; a fork-join layer barrier.

        ``slot_runner(slot, tasks)`` receives the slot index and its
        tasks in ``seq`` order and runs them however the engine likes
        (in order on the worker, one device launch, ...).  Returns
        ``(slot, result)`` pairs in slot order.
        """
        groups = plan.slot_groups(layer_id)
        results = self.run_jobs(
            [
                (lambda s=slot, ts=tasks: slot_runner(s, ts))
                for slot, tasks in groups
            ]
        )
        return [(slot, result) for (slot, _), result in zip(groups, results)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scheduler(max_workers={self.max_workers})"
