"""Plan/execute split: shared decomposition policy and scheduling.

The engines' historical structure — five private copies of the same
trial/occurrence decomposition loop — is replaced by three pieces:

* :class:`~repro.plan.planner.Planner` turns a Portfolio + YET + an
  engine's :class:`~repro.plan.planner.EngineCapabilities` into a
  deterministic :class:`~repro.plan.plan.ExecutionPlan` of
  ``(layer, trial-range, occurrence-range)`` tasks;
* :class:`~repro.plan.scheduler.Scheduler` executes plans over worker
  pools (or the multi-GPU engine's simulated devices) — concurrency is
  a free knob because tasks are keyed by global trial/occurrence index;
* :class:`~repro.plan.cache.PlanResultCache` shares computed segments
  (lookup tables are already shared by the
  :class:`~repro.lookup.factory.LookupCache`; the result cache adds the
  combined per-occurrence loss vectors) across in-flight plans — the
  substrate of the concurrent
  :class:`~repro.pricing.realtime.QuoteService`.
"""

from repro.plan.cache import (
    PlanResultCache,
    elt_fingerprint,
    elt_set_fingerprint,
    yet_fingerprint,
)
from repro.plan.delta import DeltaPlan, SegmentRecord
from repro.plan.execute import (
    execute_plan_cpu,
    execute_segment_cpu,
    task_losses,
)
from repro.plan.plan import ExecutionPlan, PlanTask
from repro.plan.planner import (
    DEFAULT_SEGMENT_TRIALS,
    EngineCapabilities,
    Planner,
)
from repro.plan.scheduler import Scheduler

__all__ = [
    "ExecutionPlan",
    "PlanTask",
    "Planner",
    "EngineCapabilities",
    "Scheduler",
    "PlanResultCache",
    "DeltaPlan",
    "SegmentRecord",
    "execute_plan_cpu",
    "execute_segment_cpu",
    "task_losses",
    "elt_fingerprint",
    "elt_set_fingerprint",
    "yet_fingerprint",
    "DEFAULT_SEGMENT_TRIALS",
]
