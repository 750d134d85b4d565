"""Fleet sweeps: distributed execution over a shared queue and store.

The companion work to the paper (*Parallel Simulations for Analysing
Portfolios of Catastrophic Event Risk*, Bahl et al.) scales the same
Algorithm-1 workload out across a master–worker cluster.  This package
is that execution tier, built from the two halves earlier PRs provided:
the planner's deterministic ``(layer, trial-range, occurrence-range)``
tasks and the store's once-per-fleet compute guarantee.

* :class:`~repro.fleet.jobs.JobQueue` — a durable work queue under a
  directory: rename-atomic claims, mtime-heartbeat leases, flock-guarded
  requeue of crashed workers' jobs
  (:class:`~repro.fleet.jobs.MemoryJobQueue`: the same contract in
  memory, the private queue of an in-process fleet);
* store-aware **delta planning**
  (:meth:`~repro.plan.planner.Planner.plan_missing`) — each task gets a
  content-addressed segment key; only absent segments become jobs, so a
  partially swept input re-computes only its delta;
* :class:`~repro.fleet.worker.FleetWorker` — claim → compute (through
  ``store.get_or_compute``, so each segment is computed exactly once
  per fleet even under requeues) → complete;
* :class:`~repro.fleet.assemble.ResultAssembler` — merges stored
  segments into a YLT bit-for-bit identical to a monolithic
  ``Engine.run``;
* resilience throughout — store calls retried under
  :class:`~repro.utils.retry.RetryPolicy`, segment fetches digest-
  verified (:func:`~repro.store.verify.fetch_verified`), stragglers
  speculatively re-executed, failure provenance persisted with failed
  jobs, and the whole stack chaos-tested by :mod:`repro.faults`;
* ``repro-fleet`` (:mod:`repro.fleet.cli`) — ``submit`` / ``worker`` /
  ``status`` / ``gather`` for shell-driven fleets, and
  :meth:`repro.core.analysis.AggregateRiskAnalysis.run_fleet` for the
  API-driven ones.
"""

from repro.fleet.assemble import FleetAssemblyError, ResultAssembler
from repro.fleet.context import FleetContext, context_from_manifest
from repro.fleet.jobs import (
    JOB_KIND_SEGMENT,
    JOB_STATES,
    FleetJob,
    JobQueue,
    MemoryJobQueue,
)
from repro.fleet.sweep import (
    SweepTicket,
    context_for_engine,
    gather_sweep,
    modeled_makespan,
    run_workers,
    submit_sweep,
    wait_for_drain,
)
from repro.fleet.worker import FleetWorker, WorkerStats

__all__ = [
    "JobQueue",
    "MemoryJobQueue",
    "FleetJob",
    "JOB_STATES",
    "JOB_KIND_SEGMENT",
    "FleetWorker",
    "WorkerStats",
    "FleetContext",
    "context_from_manifest",
    "context_for_engine",
    "ResultAssembler",
    "FleetAssemblyError",
    "SweepTicket",
    "submit_sweep",
    "run_workers",
    "gather_sweep",
    "wait_for_drain",
    "modeled_makespan",
]
