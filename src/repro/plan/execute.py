"""CPU plan executor: run an ExecutionPlan through the shared kernels.

This is the one place the CPU engines' task-execution mechanics live;
the sequential and multicore engines execute their plans here.  Per
layer the executor:

1. builds the layer's table once, through the shared
   :class:`~repro.lookup.factory.LookupCache` (layers sharing ELTs —
   and repeated runs — build once);
2. hands each plan slot group to the :class:`~repro.plan.scheduler.
   Scheduler` (fork-join at the layer barrier);
3. inside a slot, runs the tasks in order on the slot's thread: each
   task's fetch is a zero-copy CSR view
   (:meth:`~repro.data.yet.YearEventTable.csr_block`), so there is
   nothing to overlap and no prefetch thread;
4. computes each task with :func:`task_losses`, the one kernel call
   (the numpy kernel of :mod:`repro.core.kernels`) shared with the
   fleet worker's single-segment path.

Outputs are written at each task's *global* trial range, and the
kernels key all stochastic state by global occurrence index, so results
are bit-for-bit identical for any scheduler concurrency.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.kernels import build_layer_tables, layer_trial_batch_ragged
from repro.core.secondary import layer_stream_key, resolve_secondary_seed
from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.plan.plan import ExecutionPlan, PlanTask
from repro.plan.scheduler import Scheduler
from repro.utils.bufpool import ScratchBufferPool
from repro.utils.timer import ACTIVITY_FETCH, ActivityProfile


def execute_plan_cpu(
    yet: YearEventTable,
    portfolio: Portfolio,
    catalog_size: int,
    plan: ExecutionPlan,
    dtype: np.dtype | type = np.float64,
    secondary=None,
    secondary_seed=None,
    profile: ActivityProfile | None = None,
    scheduler: Scheduler | None = None,
    cache=None,
) -> YearLossTable:
    """Execute ``plan`` on the CPU kernels; returns the YLT.

    Parameters
    ----------
    plan:
        The decomposition to execute (from a
        :class:`~repro.plan.planner.Planner`).
    scheduler:
        Concurrency policy (default: inline, one worker).  Any value
        produces the same YLT.
    profile:
        Wall-clock activity profile.  Per-slot charges are accumulated
        in one private profile per slot and folded in after each layer
        barrier, so the sums are CPU seconds across workers.
    """
    if plan.n_trials != yet.n_trials or plan.n_occurrences != yet.n_occurrences:
        raise ValueError(
            f"plan shape ({plan.n_trials} trials, {plan.n_occurrences} occ) "
            f"does not match YET ({yet.n_trials}, {yet.n_occurrences})"
        )
    portfolio_layers = tuple(layer.layer_id for layer in portfolio.layers)
    if set(plan.layer_ids) != set(portfolio_layers):
        raise ValueError(
            f"plan was built for layers {plan.layer_ids}, portfolio has "
            f"{portfolio_layers} — a plan is only valid for the portfolio "
            "it was planned from"
        )
    profile = profile if profile is not None else ActivityProfile()
    scheduler = scheduler if scheduler is not None else Scheduler(max_workers=1)
    # one scratch pool per slot, reused across the slot's tasks and layers
    slot_pools = [ScratchBufferPool() for _ in range(max(1, plan.n_slots))]
    base_seed = (
        resolve_secondary_seed(secondary_seed) if secondary is not None else 0
    )

    per_layer: Dict[int, np.ndarray] = {}
    for layer in portfolio.layers:
        with profile.track(ACTIVITY_FETCH):
            stacked = build_layer_tables(
                portfolio.elts_of(layer), catalog_size, dtype=dtype, cache=cache
            )
        out = np.empty(plan.n_trials, dtype=np.float64)
        # One profile per slot: ActivityProfile.charge is a bare
        # read-modify-write, so concurrent slots must not share one.
        slot_profiles: List[ActivityProfile] = []

        def run_slot(slot: int, tasks: List[PlanTask]) -> None:
            wp = ActivityProfile()
            slot_profiles.append(wp)
            pool = slot_pools[slot % len(slot_pools)]
            for task in tasks:
                out[task.trial_start : task.trial_stop] = task_losses(
                    yet,
                    layer,
                    stacked,
                    task,
                    dtype=dtype,
                    secondary=secondary,
                    base_seed=base_seed,
                    pool=pool,
                    profile=wp,
                )

        scheduler.run_layer(plan, layer.layer_id, run_slot)
        for wp in slot_profiles:
            profile_merge_into(profile, wp)
        per_layer[layer.layer_id] = out
    return YearLossTable.from_dict(per_layer)


def profile_merge_into(target: ActivityProfile, source: ActivityProfile) -> None:
    """Fold ``source``'s charges into ``target`` (post-join, single thread)."""
    for activity, seconds in source.seconds.items():
        if seconds:
            target.charge(activity, seconds)


# ----------------------------------------------------------------------
# Single-task execution (the fleet worker's unit of work)
# ----------------------------------------------------------------------
def task_losses(
    yet: YearEventTable,
    layer,
    stacked,
    task: PlanTask,
    dtype: np.dtype | type = np.float64,
    secondary=None,
    base_seed: int = 0,
    pool: ScratchBufferPool | None = None,
    profile: ActivityProfile | None = None,
) -> np.ndarray:
    """Per-trial year losses of one plan task, on the CPU kernel.

    The one kernel call — arguments, stream keys, seeds — behind both
    :func:`execute_plan_cpu` and the fleet worker's
    :func:`execute_segment_cpu`, so a worker computing one segment
    produces bytes identical to a monolithic run of the containing
    plan.
    """
    profile = profile if profile is not None else ActivityProfile()
    pool = pool if pool is not None else ScratchBufferPool()
    with profile.track(ACTIVITY_FETCH):
        ids, offs = yet.csr_block(task.trial_start, task.trial_stop)
    return layer_trial_batch_ragged(
        ids,
        offs,
        layer.terms,
        stacked=stacked,
        profile=profile,
        dtype=dtype,
        pool=pool,
        secondary=secondary,
        stream_key=layer_stream_key(base_seed, layer.layer_id),
        occ_base=task.occ_start,
    )


def execute_segment_cpu(
    yet: YearEventTable,
    portfolio: Portfolio,
    catalog_size: int,
    task: PlanTask,
    dtype: np.dtype | type = np.float64,
    secondary=None,
    secondary_seed=None,
    cache=None,
    pool: ScratchBufferPool | None = None,
    profile: ActivityProfile | None = None,
) -> np.ndarray:
    """Self-contained segment execution: tables + :func:`task_losses`.

    Returns the task's per-trial losses as ``float64`` — exactly the
    bytes a monolithic executor would write into its output row for
    this trial range, and therefore exactly what the fleet stores under
    the segment's content-addressed key.
    """
    layer = portfolio.layer(task.layer_id)
    profile = profile if profile is not None else ActivityProfile()
    with profile.track(ACTIVITY_FETCH):
        stacked = build_layer_tables(
            portfolio.elts_of(layer), catalog_size, dtype=dtype, cache=cache
        )
    base_seed = (
        resolve_secondary_seed(secondary_seed) if secondary is not None else 0
    )
    out = np.empty(task.n_trials, dtype=np.float64)
    out[:] = task_losses(
        yet,
        layer,
        stacked,
        task,
        dtype=dtype,
        secondary=secondary,
        base_seed=base_seed,
        pool=pool,
        profile=profile,
    )
    return out
