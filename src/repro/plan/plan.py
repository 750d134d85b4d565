"""Execution plans: the deterministic task DAG every engine executes.

The paper decomposes one aggregate risk analysis into balanced chunks of
trials (and, for ragged YETs, of occurrences); the Hadoop follow-up
(arXiv:1311.5686) goes further and treats the analysis as a schedulable
set of (layer, trial-range) tasks.  This module is that formulation made
explicit: an :class:`ExecutionPlan` is a deterministic, validated list of
:class:`PlanTask` records — each one "run Algorithm 1 for layer ``l``
over trials ``[a, b)`` / global occurrences ``[c, d)``" — produced by
:class:`~repro.plan.planner.Planner` from a Portfolio + YET + the
executing engine's :class:`~repro.plan.planner.EngineCapabilities`.

Tasks are keyed by *global* trial and occurrence index, so any schedule
of a plan (one worker, eight workers, four simulated devices) writes
exactly the same numbers to exactly the same output slots: seeded
results are bit-for-bit invariant to scheduler concurrency by
construction.  Tasks carry a ``slot`` (the worker/device lane the
planner assigned) and a ``seq`` (their order within the lane, which the
executors preserve); tasks of different slots
have no mutual dependencies — the DAG is a forest of per-slot chains
joined at the layer barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.kernels import KERNEL_RAGGED
from repro.utils.rng import stable_hash_seed


@dataclass(frozen=True)
class PlanTask:
    """One schedulable unit: a (layer, trial-range, occurrence-range).

    Attributes
    ----------
    task_id:
        Position in the plan's deterministic task order.
    layer_id:
        The portfolio layer this task computes.
    slot:
        Worker/device lane the planner assigned (tasks of one slot run
        in ``seq`` order; distinct slots may run concurrently).
    seq:
        Order of this task within its (layer, slot) lane.
    trial_start, trial_stop:
        Global trial range ``[trial_start, trial_stop)``.
    occ_start, occ_stop:
        Global occurrence range — ``yet.offsets[trial_start]`` /
        ``yet.offsets[trial_stop]``.  This is what keys the secondary
        path's counter-based multiplier streams, making draws invariant
        to the decomposition.
    """

    task_id: int
    layer_id: int
    slot: int
    seq: int
    trial_start: int
    trial_stop: int
    occ_start: int
    occ_stop: int

    @property
    def n_trials(self) -> int:
        return self.trial_stop - self.trial_start

    @property
    def n_occurrences(self) -> int:
        return self.occ_stop - self.occ_start


@dataclass(frozen=True)
class ExecutionPlan:
    """A validated, deterministic decomposition of one analysis.

    Attributes
    ----------
    n_trials, n_occurrences:
        Shape of the YET the plan was built for (executors check it).
    layer_ids:
        Portfolio layers in execution order.
    n_slots:
        Worker/device lanes the planner laid tasks onto (actual used
        lanes may be fewer when the trial space is small).
    balance:
        Resolved partitioning rule: ``"events"`` (equal cumulative
        occurrences, the multi-GPU engine's ragged rule) or
        ``"trials"`` (the paper's equal trial counts).
    tasks:
        All tasks, ordered by (layer, slot, seq).
    meta:
        Planner-reported details (batch sizes, autotune inputs, ...).
    """

    n_trials: int
    n_occurrences: int
    layer_ids: Tuple[int, ...]
    n_slots: int
    balance: str
    tasks: Tuple[PlanTask, ...]
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def slots_used(self) -> int:
        """Distinct slots that actually received tasks."""
        return len({task.slot for task in self.tasks}) if self.tasks else 0

    def layer_tasks(self, layer_id: int) -> List[PlanTask]:
        """All tasks of one layer, in (slot, seq) order."""
        return [task for task in self.tasks if task.layer_id == layer_id]

    def slot_groups(self, layer_id: int) -> List[Tuple[int, List[PlanTask]]]:
        """One ``(slot, tasks-in-seq-order)`` group per used slot.

        This is the unit the :class:`~repro.plan.scheduler.Scheduler`
        hands to a worker: a slot's tasks run in order, distinct slots
        run concurrently.
        """
        groups: Dict[int, List[PlanTask]] = {}
        for task in self.tasks:
            if task.layer_id == layer_id:
                groups.setdefault(task.slot, []).append(task)
        return [
            (slot, sorted(tasks, key=lambda t: t.seq))
            for slot, tasks in sorted(groups.items())
        ]

    def slot_ranges(self, layer_id: int) -> List[Tuple[int, int]]:
        """Per-slot contiguous trial ranges of one layer."""
        return [
            (tasks[0].trial_start, tasks[-1].trial_stop)
            for _, tasks in self.slot_groups(layer_id)
        ]

    # ------------------------------------------------------------------
    def validate_coverage(self) -> None:
        """Check every layer covers every trial/occurrence exactly once.

        Raises ``ValueError`` on gaps, overlaps, or occurrence ranges
        inconsistent with the trial ranges.  The planner validates each
        plan it emits; tests call this directly on hand-built plans.
        """
        for layer_id in self.layer_ids:
            tasks = sorted(
                self.layer_tasks(layer_id), key=lambda t: t.trial_start
            )
            if not tasks and self.n_trials > 0:
                raise ValueError(f"layer {layer_id} has no tasks")
            cursor_t, cursor_o = 0, 0
            for task in tasks:
                if task.trial_start != cursor_t:
                    raise ValueError(
                        f"layer {layer_id}: trial coverage breaks at "
                        f"{cursor_t} (next task starts {task.trial_start})"
                    )
                if task.occ_start != cursor_o:
                    raise ValueError(
                        f"layer {layer_id}: occurrence coverage breaks at "
                        f"{cursor_o} (next task starts {task.occ_start})"
                    )
                if task.trial_stop < task.trial_start:
                    raise ValueError(f"task {task.task_id}: negative range")
                cursor_t, cursor_o = task.trial_stop, task.occ_stop
            if cursor_t != self.n_trials or cursor_o != self.n_occurrences:
                raise ValueError(
                    f"layer {layer_id} covers trials [0, {cursor_t}) / "
                    f"occurrences [0, {cursor_o}) of "
                    f"[0, {self.n_trials}) / [0, {self.n_occurrences})"
                )

    def fingerprint(self) -> int:
        """Stable 63-bit hash of the plan's full decomposition.

        Two plans with identical task layouts (and balance) hash
        equal; any change to a boundary changes the fingerprint.  Used
        in engine meta and as a component of plan-level cache keys.
        """
        # The kernel name stays a constant component, so fingerprints
        # (and every store key built on them) match older stores.
        parts: List[int | str] = [
            self.n_trials,
            self.n_occurrences,
            self.n_slots,
            KERNEL_RAGGED,
            self.balance,
        ]
        for task in self.tasks:
            parts.extend(
                (task.layer_id, task.slot, task.trial_start, task.trial_stop)
            )
        return stable_hash_seed(*parts)

    def summary(self) -> Dict[str, Any]:
        """Compact description for engine ``meta`` dictionaries."""
        return {
            "n_tasks": self.n_tasks,
            "n_slots": self.n_slots,
            "slots_used": self.slots_used,
            "balance": self.balance,
            "fingerprint": self.fingerprint(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionPlan(n_trials={self.n_trials}, "
            f"layers={len(self.layer_ids)}, slots={self.n_slots}, "
            f"tasks={self.n_tasks}, "
            f"balance={self.balance!r})"
        )
