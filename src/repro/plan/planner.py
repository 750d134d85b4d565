"""The Planner: shared decomposition policy for every engine.

Before this module, each engine owned a private copy of the same three
decisions — how to split the trial space over workers/devices
(``balanced_chunk_ranges`` vs ``chunk_ranges``), how deep to batch within
a worker (``autotune_batch_trials`` vs fixed constants), and whether to
balance on trials or occurrences.  The :class:`Planner` centralises them:
an engine declares *capabilities* (how many lanes it has, how it wants
batches cut) and receives an
:class:`~repro.plan.plan.ExecutionPlan` whose tasks it executes verbatim.

The policies reproduce the historical engines' decompositions exactly:

* lanes: ``min(n_slots, n_trials)`` contiguous ranges, cut at equal
  cumulative *occurrences* for event-balanced plans (the default,
  :func:`~repro.utils.parallel.balanced_chunk_ranges`) or equal trial
  counts (:func:`~repro.utils.parallel.chunk_ranges`);
* batches: a fixed ``batch_trials`` when the engine pins one, else the
  memory-budget :func:`~repro.core.kernels.autotune_batch_trials`;
* lanes are cut into batch tasks (``slot_batching="batched"``) or kept
  whole (``"whole"``, one launch per simulated device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.kernels import DEFAULT_BATCH_BUDGET_BYTES, autotune_batch_trials
from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.plan.plan import ExecutionPlan, PlanTask
from repro.utils.parallel import balanced_chunk_ranges, chunk_ranges
from repro.utils.validation import check_positive

#: default fixed stride of :meth:`Planner.plan_segments`.  A *constant*
#: (not autotuned) on purpose: segment boundaries must depend on nothing
#: but the stride, so extending a YET preserves every complete
#: segment's trial range — and therefore its store key.
DEFAULT_SEGMENT_TRIALS = 4096

BALANCE_MODES = ("events", "trials")
SLOT_BATCHING_MODES = ("batched", "whole")


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine tells the planner about itself.

    Attributes
    ----------
    engine:
        Engine name (recorded in plan meta; no policy effect).
    n_slots:
        Concurrent lanes the engine can execute: worker threads for the
        multicore engine, devices for the multi-GPU engine, 1 for
        single-stream engines.
    balance:
        Lane cut: ``"events"`` (equal cumulative occurrences, the
        default) or ``"trials"`` (equal trial counts); engines with an
        explicit user knob (multi-GPU ``balance=``) pass it through.
    batch_trials:
        Fixed trials-per-task within a lane; ``None`` lets the planner
        choose (the memory-budget autotuner).
    slot_batching:
        ``"batched"`` cuts each lane into batch tasks (bounding each
        kernel call's scratch to the autotuner's byte budget);
        ``"whole"`` emits one task per lane (the GPU engines'
        one-launch-per-device shape).
    dtype:
        Working precision (autotune input), as a numpy dtype string.
    secondary:
        Whether secondary-uncertainty sampling is on (autotune input:
        the multiplier block is charged beside the gather chunk).
    """

    engine: str = "generic"
    n_slots: int = 1
    balance: str = "events"
    batch_trials: int | None = None
    slot_batching: str = "batched"
    dtype: str = "<f8"
    secondary: bool = False

    def __post_init__(self) -> None:
        check_positive("n_slots", self.n_slots)
        if self.balance not in BALANCE_MODES:
            raise ValueError(
                f"balance must be one of {BALANCE_MODES}, got {self.balance!r}"
            )
        if self.slot_batching not in SLOT_BATCHING_MODES:
            raise ValueError(
                f"slot_batching must be one of {SLOT_BATCHING_MODES}, "
                f"got {self.slot_batching!r}"
            )
        if self.batch_trials is not None and self.batch_trials < 1:
            raise ValueError(
                f"batch_trials must be >= 1, got {self.batch_trials}"
            )


class Planner:
    """Builds :class:`ExecutionPlan` objects from workload + capabilities."""

    def slot_ranges(
        self, yet: YearEventTable, caps: EngineCapabilities
    ) -> List[Tuple[int, int]]:
        """Per-lane contiguous trial ranges (the engines' historical cut).

        ``min(n_slots, n_trials)`` ranges; event-balanced plans cut at
        the trial boundaries closest to equal cumulative occurrence
        counts, others at equal trial counts.  Degenerate lanes are
        dropped, so fewer ranges than ``n_slots`` may come back.
        """
        n_trials = yet.n_trials
        if n_trials == 0:
            return []
        n_chunks = min(caps.n_slots, n_trials)
        if n_chunks <= 1:
            return [(0, n_trials)]
        if caps.balance == "events":
            return balanced_chunk_ranges(yet.offsets, n_chunks)
        return chunk_ranges(n_trials, n_chunks)

    def batch_trials_for(
        self, yet: YearEventTable, n_elts: int, caps: EngineCapabilities
    ) -> int:
        """Trials per task within a lane, for a layer of ``n_elts`` ELTs."""
        if caps.batch_trials is not None:
            return max(1, int(caps.batch_trials))
        return autotune_batch_trials(
            yet.n_trials,
            yet.mean_events_per_trial,
            n_elts,
            dtype=np.dtype(caps.dtype),
            budget_bytes=DEFAULT_BATCH_BUDGET_BYTES,
            secondary=caps.secondary,
        )

    def plan(
        self,
        yet: YearEventTable,
        portfolio: Portfolio,
        caps: EngineCapabilities,
    ) -> ExecutionPlan:
        """Decompose the analysis into a validated task list."""
        if yet.n_trials == 0:
            raise ValueError("cannot plan over a YET with no trials")
        portfolio.validate()
        ranges = self.slot_ranges(yet, caps)
        offsets = yet.offsets
        tasks: List[PlanTask] = []
        batch_meta: Dict[int, int] = {}
        for layer in portfolio.layers:
            if caps.slot_batching == "whole":
                batch = None
            else:
                batch = self.batch_trials_for(yet, layer.n_elts, caps)
                batch_meta[layer.layer_id] = batch
            for slot, (start, stop) in enumerate(ranges):
                step = (stop - start) if batch is None else batch
                for seq, t0 in enumerate(range(start, stop, step)):
                    t1 = min(t0 + step, stop)
                    tasks.append(
                        PlanTask(
                            task_id=len(tasks),
                            layer_id=layer.layer_id,
                            slot=slot,
                            seq=seq,
                            trial_start=t0,
                            trial_stop=t1,
                            occ_start=int(offsets[t0]),
                            occ_stop=int(offsets[t1]),
                        )
                    )
        meta: Dict[str, Any] = {
            "engine": caps.engine,
            "slot_batching": caps.slot_batching,
            "batch_trials": batch_meta or None,
            "requested_slots": caps.n_slots,
        }
        plan = ExecutionPlan(
            n_trials=yet.n_trials,
            n_occurrences=yet.n_occurrences,
            layer_ids=tuple(layer.layer_id for layer in portfolio.layers),
            n_slots=len(ranges),
            balance=caps.balance,
            tasks=tuple(tasks),
            meta=meta,
        )
        plan.validate_coverage()
        return plan

    # ------------------------------------------------------------------
    # Store-aware planning
    # ------------------------------------------------------------------
    def plan_segments(
        self,
        yet: YearEventTable,
        portfolio: Portfolio,
        caps: EngineCapabilities,
        segment_trials: int = DEFAULT_SEGMENT_TRIALS,
    ) -> ExecutionPlan:
        """Fixed-stride decomposition: the delta-stable segmentation.

        Every layer is cut at multiples of ``segment_trials`` from
        trial 0 — boundaries depend on the stride alone, not on lane
        counts, autotuned batch depths, or the YET's total size.  Two
        consequences make this the fleet's canonical sweep shape:

        * **prefix stability** — appending trials to a YET leaves every
          complete old segment's range (and so its content-addressed
          store key) unchanged; only the new tail is new work;
        * **uniform jobs** — each task is one queue job of comparable
          size, so a fleet of workers load-balances by pulling.

        Each segment gets its own ``slot`` (they are mutually
        independent), so the plan also executes directly on any engine
        or scheduler, with results bit-for-bit identical to the
        engine's native decomposition (secondary draws are keyed by
        global occurrence index, not by task boundaries).
        """
        check_positive("segment_trials", segment_trials)
        if yet.n_trials == 0:
            raise ValueError("cannot plan over a YET with no trials")
        portfolio.validate()
        offsets = yet.offsets
        stride = int(segment_trials)
        tasks: List[PlanTask] = []
        for layer in portfolio.layers:
            for seq, t0 in enumerate(range(0, yet.n_trials, stride)):
                t1 = min(t0 + stride, yet.n_trials)
                tasks.append(
                    PlanTask(
                        task_id=len(tasks),
                        layer_id=layer.layer_id,
                        slot=seq,
                        seq=0,
                        trial_start=t0,
                        trial_stop=t1,
                        occ_start=int(offsets[t0]),
                        occ_stop=int(offsets[t1]),
                    )
                )
        n_slots = -(-yet.n_trials // stride)
        plan = ExecutionPlan(
            n_trials=yet.n_trials,
            n_occurrences=yet.n_occurrences,
            layer_ids=tuple(layer.layer_id for layer in portfolio.layers),
            n_slots=n_slots,
            balance="trials",
            tasks=tuple(tasks),
            meta={
                "engine": caps.engine,
                "slot_batching": "segments",
                "segment_trials": stride,
                "requested_slots": n_slots,
            },
        )
        plan.validate_coverage()
        return plan

    def plan_missing(
        self,
        yet: YearEventTable,
        portfolio: Portfolio,
        caps: EngineCapabilities,
        store,
        lookup_kind: str = "direct",
        secondary=None,
        secondary_seed: int = 0,
        segment_trials: int | None = None,
        plan: ExecutionPlan | None = None,
    ):
        """Store-aware delta planning: mark what is already computed.

        Derives each task's content-addressed segment key
        (:func:`repro.store.keys.segment_key`) and probes ``store`` for
        all of them with one ``contains_many`` (one round trip per chunk
        on a remote store), returning a
        :class:`~repro.plan.delta.DeltaPlan` whose
        :meth:`~repro.plan.delta.DeltaPlan.missing_plan` covers only
        the absent segments.  The plan defaults to the engine-native
        decomposition (:meth:`plan`), or the fixed-stride
        :meth:`plan_segments` when ``segment_trials`` is given — the
        delta-friendly choice for growing trial databases.

        ``secondary_seed`` is the *resolved* base seed (engines resolve
        theirs via ``_secondary_base_seed``); ``store=None`` marks every
        segment missing (a cold plan).
        """
        from repro.plan.delta import DeltaPlan, SegmentRecord
        from repro.store.keys import segment_keys  # deferred import

        if plan is None:
            if segment_trials is not None:
                plan = self.plan_segments(
                    yet, portfolio, caps, segment_trials
                )
            else:
                plan = self.plan(yet, portfolio, caps)
        keys = segment_keys(
            yet,
            portfolio,
            plan.tasks,
            dtype=caps.dtype,
            lookup_kind=lookup_kind,
            secondary=secondary,
            secondary_seed=secondary_seed,
        )
        stored = (
            [False] * len(keys) if store is None else store.contains_many(keys)
        )
        records = [
            SegmentRecord(task=task, key=key, stored=hit)
            for task, key, hit in zip(plan.tasks, keys, stored)
        ]
        delta = DeltaPlan(plan=plan, segments=tuple(records))
        delta.validate_coverage()
        return delta
