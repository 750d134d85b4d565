"""Delta plans: a decomposition annotated with what the store already has.

Store-aware planning closes the loop between the planner (PR 3) and the
result store (PR 4): before a sweep executes, every task of its
:class:`~repro.plan.plan.ExecutionPlan` is given a content-addressed
*segment key* (:func:`repro.store.keys.segment_key`) and probed against
a :class:`~repro.store.base.ResultStore`.  The result is a
:class:`DeltaPlan` — the full, coverage-validated plan plus a
per-segment ``stored`` verdict — from which callers derive the *missing
plan*: only the segments whose keys are absent.

This is what makes partial sweeps cheap: extend a YET by 10% of its
trials, or change one layer of a book, and the delta plan covers only
the new tail / the changed layer, while the assembler
(:class:`~repro.fleet.assemble.ResultAssembler`) stitches stored and
freshly computed segments into a YLT bit-for-bit identical to a
monolithic run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.plan.plan import ExecutionPlan, PlanTask


@dataclass(frozen=True)
class SegmentRecord:
    """One plan task with its store identity and presence verdict."""

    task: PlanTask
    key: str
    stored: bool


@dataclass(frozen=True)
class DeltaPlan:
    """A full plan plus the store's verdict on every segment.

    Attributes
    ----------
    plan:
        The complete decomposition (coverage-validated: stored and
        missing segments together tile every layer's trial space
        exactly once).
    segments:
        One :class:`SegmentRecord` per plan task, in task order.
    """

    plan: ExecutionPlan
    segments: Tuple[SegmentRecord, ...]

    # ------------------------------------------------------------------
    @property
    def missing(self) -> Tuple[SegmentRecord, ...]:
        """Segments whose keys the store did not have (to be computed)."""
        return tuple(r for r in self.segments if not r.stored)

    @property
    def stored(self) -> Tuple[SegmentRecord, ...]:
        """Segments already present in the store (pure reuse)."""
        return tuple(r for r in self.segments if r.stored)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_missing(self) -> int:
        return sum(1 for r in self.segments if not r.stored)

    @property
    def n_stored(self) -> int:
        return sum(1 for r in self.segments if r.stored)

    def keys(self) -> Tuple[str, ...]:
        """All segment keys, in task order."""
        return tuple(r.key for r in self.segments)

    # ------------------------------------------------------------------
    def validate_coverage(self) -> None:
        """Check the delta is a faithful partition of a valid plan.

        The underlying plan must tile every layer exactly once, the
        records must mirror its tasks one-to-one in order, and the
        stored/missing split must be a partition (it is by construction
        — each record carries one boolean — but the mirror check guards
        against records built from a different plan).
        """
        self.plan.validate_coverage()
        if len(self.segments) != len(self.plan.tasks):
            raise ValueError(
                f"{len(self.segments)} segment records for "
                f"{len(self.plan.tasks)} plan tasks"
            )
        for record, task in zip(self.segments, self.plan.tasks):
            if record.task != task:
                raise ValueError(
                    f"segment record for task {record.task.task_id} does "
                    f"not mirror plan task {task.task_id}"
                )

    def missing_plan(self) -> ExecutionPlan:
        """The partial plan covering only the missing segments.

        Deliberately *not* coverage-validated — it is a delta, the
        stored segments fill the gaps.  Shares the parent plan's shape
        fields so executors still sanity-check the YET they are handed.
        """
        return ExecutionPlan(
            n_trials=self.plan.n_trials,
            n_occurrences=self.plan.n_occurrences,
            layer_ids=self.plan.layer_ids,
            n_slots=self.plan.n_slots,
            balance=self.plan.balance,
            tasks=tuple(r.task for r in self.missing),
            meta={
                **dict(self.plan.meta),
                "delta_of": self.plan.fingerprint(),
                "n_stored": self.n_stored,
            },
        )

    def fingerprint(self) -> str:
        """Stable digest of the decomposition *and* the store verdicts.

        Two delta plans fingerprint equal iff they decompose the same
        way, derive the same segment keys, and found the same segments
        stored — the determinism contract the fleet's resubmit
        idempotence rests on.  Computed once (the plan is frozen).
        """
        if "_fingerprint" in self.__dict__:
            return self._fingerprint
        from repro.store.keys import fingerprint_digest  # deferred import

        fingerprint = fingerprint_digest(
            "delta-plan",
            self.plan.fingerprint(),
            tuple((r.key, r.stored) for r in self.segments),
        )
        object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    def summary(self) -> Dict[str, Any]:
        return {
            "n_segments": self.n_segments,
            "n_missing": self.n_missing,
            "n_stored": self.n_stored,
            "plan_fingerprint": self.plan.fingerprint(),
            "fingerprint": self.fingerprint(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaPlan(segments={self.n_segments}, "
            f"missing={self.n_missing}, stored={self.n_stored})"
        )
