"""High-level public API: configure and run an aggregate risk analysis.

Typical use::

    from repro import AggregateRiskAnalysis, generate_workload, BENCH_SMALL

    workload = generate_workload(BENCH_SMALL)
    ara = AggregateRiskAnalysis(workload.portfolio, workload.catalog.n_events)
    result = ara.run(workload.yet, engine="multicore")
    result.ylt.expected_loss(layer_id=0)

Engines are looked up by name in :mod:`repro.engines.registry`; the import
is deferred so the core package has no import-time dependency on the
engine implementations.  Every engine runs the one kernel of
:mod:`repro.core.kernels`; the engine choice sets the schedule, the
default precision and the modeled time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.utils.timer import ActivityProfile
from repro.utils.validation import check_positive


@dataclass
class AnalysisResult:
    """Outcome of one analysis run.

    Attributes
    ----------
    ylt:
        The Year Loss Table (the simulation output).
    profile:
        Per-activity timing breakdown (Figure 6 categories).  For measured
        engines these are wall-clock seconds; for simulated-GPU engines the
        *modeled* device seconds.
    engine:
        Registry name of the engine that produced the result.
    wall_seconds:
        End-to-end host wall-clock time of the run.
    modeled_seconds:
        Device-time estimate from the GPU cost model (None for CPU
        engines, whose time is measured directly).
    meta:
        Engine-specific details (thread counts, launch configuration,
        occupancy, per-device splits, ...).
    """

    ylt: YearLossTable
    profile: ActivityProfile
    engine: str
    wall_seconds: float
    modeled_seconds: float | None = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def effective_seconds(self) -> float:
        """Modeled seconds when available, else measured wall seconds.

        This is the number comparable across the five implementations:
        CPU engines are measured, simulated-GPU engines are modeled.
        """
        return (
            self.modeled_seconds
            if self.modeled_seconds is not None
            else self.wall_seconds
        )


class AggregateRiskAnalysis:
    """Configured analysis over one portfolio: the main entry point.

    Parameters
    ----------
    portfolio:
        Layers and their ELTs.
    catalog_size:
        Event-id address space (sizes the direct access tables).
    lookup_kind:
        ELT representation: ``"direct"`` (the paper's choice), ``"sorted"``,
        ``"hash"`` or ``"cuckoo"``.
    dtype:
        Working precision; ``numpy.float32`` reproduces the paper's
        reduced-precision optimisation.
    secondary:
        Optional :class:`~repro.core.secondary.SecondaryUncertainty`:
        sample per-(occurrence, ELT) damage-ratio multipliers inside the
        kernel on every engine.
    secondary_seed:
        Seed of the multiplier streams (ignored without ``secondary``).
    store:
        Optional :class:`~repro.store.base.ResultStore` memoising whole
        analyses: a run whose content-addressed
        :func:`~repro.store.keys.analysis_key` is already stored returns
        the persisted YLT bit-for-bit with zero engine task executions
        (see :meth:`run`); misses execute normally and persist their
        YLT.  Per-run ``store=`` arguments override this default.
    """

    def __init__(
        self,
        portfolio: Portfolio,
        catalog_size: int,
        lookup_kind: str = "direct",
        dtype: np.dtype | type = np.float64,
        secondary=None,
        secondary_seed=None,
        store=None,
    ) -> None:
        check_positive("catalog_size", catalog_size)
        portfolio.validate()
        self.portfolio = portfolio
        self.catalog_size = int(catalog_size)
        self.lookup_kind = lookup_kind
        self.dtype = np.dtype(dtype)
        self.secondary = secondary
        self.secondary_seed = secondary_seed
        self.store = store

    def _engine(self, engine: str, **engine_options: Any):
        from repro.engines.registry import create_engine  # deferred import

        options: Dict[str, Any] = {
            "lookup_kind": self.lookup_kind,
            "dtype": self.dtype,
            "secondary": self.secondary,
            "secondary_seed": self.secondary_seed,
        }
        options.update(engine_options)  # per-run overrides win
        return create_engine(engine, **options)

    def plan(
        self, yet: YearEventTable, engine: str = "sequential", **engine_options: Any
    ):
        """The :class:`~repro.plan.plan.ExecutionPlan` a run would execute.

        Every engine executes plans from the shared
        :class:`~repro.plan.planner.Planner`; this exposes the plan
        without running it — for inspection, tests, or passing a
        precomputed plan to :meth:`run` (``run(..., plan=plan)``).
        """
        return self._engine(engine, **engine_options).plan_for(
            yet, self.portfolio
        )

    def run(
        self,
        yet: YearEventTable,
        engine: str = "sequential",
        plan=None,
        store=None,
        **engine_options: Any,
    ) -> AnalysisResult:
        """Run the analysis with the named engine.

        ``engine`` is one of the registry names (see
        :func:`repro.engines.registry.available_engines`):
        ``"reference"``, ``"sequential"``, ``"multicore"``, ``"gpu"``,
        ``"gpu-optimized"``, ``"multi-gpu"``.  Extra keyword arguments are
        forwarded to the engine constructor (e.g. ``n_cores=8`` for
        multicore, ``threads_per_block=256`` or ``traffic="paper"`` for
        GPU engines).

        ``plan`` (an :class:`~repro.plan.plan.ExecutionPlan`, e.g. from
        :meth:`plan`) skips planning and executes the given
        decomposition; results are bit-for-bit independent of how the
        plan is scheduled, so sharing plans across runs is always safe.

        ``store`` (default: the analysis' configured store) memoises the
        whole run: a plan-fingerprint hit replays the persisted YLT
        bit-for-bit without executing a single engine task —
        ``result.meta["replay"]`` records the outcome.
        """
        engine_obj = self._engine(engine, **engine_options)
        return engine_obj.run(
            yet,
            self.portfolio,
            self.catalog_size,
            plan=plan,
            store=self.store if store is None else store,
        )

    def run_fleet(
        self,
        yet: YearEventTable,
        engine: str = "sequential",
        n_workers: int = 2,
        store=None,
        queue_dir=None,
        segment_trials: int | None = None,
        lease_seconds: float = 60.0,
        workload_spec=None,
        n_partitions: int | None = None,
        **engine_options: Any,
    ) -> AnalysisResult:
        """Run the analysis as a fleet sweep over a shared job queue.

        The analysis is delta-planned against ``store`` (only segments
        whose content-addressed keys are absent become jobs — a
        re-sweep of a partially changed input computes only the delta),
        drained by ``n_workers`` in-process worker threads, and
        assembled from the store into a YLT **bit-for-bit identical**
        to a monolithic :meth:`run` of the same numeric configuration.

        ``queue_dir`` makes the sweep durable and shareable: external
        ``repro-fleet worker`` processes pointing at the same queue and
        cache directories join the same sweep (crashed ones are
        requeued after ``lease_seconds``).  External workers rebuild
        the inputs from the sweep manifest, so joining additionally
        requires ``workload_spec`` (the seeded
        :class:`~repro.data.presets.WorkloadSpec` these inputs were
        generated from) — without it only this call's in-process
        workers can execute the jobs.  Omitted, a private throwaway
        queue directory is used.

        ``segment_trials`` switches to the fixed-stride segmentation —
        the delta-stable shape for growing trial databases.

        ``n_partitions`` runs the sweep in partition/shuffle mode
        (:mod:`repro.fleet.partition`): workers fold their segments
        into partial YLTs and gather merges the partials — the
        assembly shape for network-backed stores, bit-identical
        either way.

        ``result.meta["fleet"]`` records the sweep id, segment/job
        counts, reuse, per-worker stats, and the store's cache-
        effectiveness counters.
        """
        import tempfile
        import time as _time

        from repro.fleet.assemble import FleetAssemblyError
        from repro.fleet.jobs import JobQueue
        from repro.fleet.sweep import (
            context_for_engine,
            gather_sweep,
            run_workers,
            submit_sweep,
        )

        effective_store = self.store if store is None else store
        if effective_store is None:
            raise ValueError(
                "run_fleet needs a ResultStore (store=...) — the fleet "
                "coordinates through content-addressed segments; use "
                "repro.store.default_store() or SharedFileStore(cache_dir)"
            )
        started = _time.perf_counter()
        engine_obj = self._engine(engine, **engine_options)
        tmp_queue = None
        if queue_dir is None:
            tmp_queue = tempfile.TemporaryDirectory(prefix="repro-fleet-")
            queue_dir = tmp_queue.name
        try:
            queue = JobQueue(queue_dir, lease_seconds=lease_seconds)
            ctx = context_for_engine(
                yet, self.portfolio, self.catalog_size, engine_obj
            )
            contexts = {}
            worker_stats = []
            gather_retries = 0
            # A segment the delta plan saw as stored can vanish before
            # gather (a GC pass collected it, or a corrupt entry
            # self-healed into a miss on read).  Replanning against the
            # store's current state sees the gap as missing work, so
            # one more submit/drain round recomputes exactly the hole.
            for attempt in range(3):
                ticket = submit_sweep(
                    queue,
                    effective_store,
                    yet,
                    self.portfolio,
                    self.catalog_size,
                    engine_obj,
                    segment_trials=segment_trials,
                    workload_spec=workload_spec,
                    n_partitions=n_partitions,
                )
                contexts[ticket.sweep_id] = ctx
                worker_stats = run_workers(
                    queue,
                    effective_store,
                    contexts=contexts,
                    n_workers=n_workers,
                    sweep_id=ticket.sweep_id,
                )
                try:
                    ylt = gather_sweep(
                        queue, effective_store, ticket.sweep_id
                    )
                    break
                except FleetAssemblyError:
                    if attempt == 2:
                        raise
                    gather_retries += 1
        finally:
            if tmp_queue is not None:
                tmp_queue.cleanup()
        wall = _time.perf_counter() - started
        return AnalysisResult(
            ylt=ylt,
            profile=ActivityProfile(),
            engine=f"fleet+{engine_obj.name}",
            wall_seconds=wall,
            modeled_seconds=None,
            meta={
                "plan": ticket.delta.plan.summary(),
                "fleet": {
                    "sweep_id": ticket.sweep_id,
                    "n_workers": n_workers,
                    "n_segments": ticket.delta.n_segments,
                    "jobs_submitted": ticket.submitted,
                    "segments_reused": ticket.reused,
                    "gather_retries": gather_retries,
                    "workers": [stats.as_dict() for stats in worker_stats],
                    "store": effective_store.stats(),
                },
            },
        )

    def run_many(
        self,
        yet: YearEventTable,
        portfolios,
        engine: str = "sequential",
        max_concurrent: int | None = None,
        store=None,
        **engine_options: Any,
    ) -> list:
        """Run the same analysis over several portfolios concurrently.

        The many-concurrent-analyses entry point (the quote workload's
        shape: many candidate books over one trial database).  Each
        portfolio gets its own engine run; runs are scheduled side by
        side on a :class:`~repro.plan.scheduler.Scheduler` pool
        (``max_concurrent`` wide; NumPy kernels release the GIL, so the
        runs genuinely overlap) and share the process-wide lookup cache,
        so portfolios referencing the same ELTs build tables once.
        With a ``store`` (or a store configured on the analysis), each
        run is memoised like :meth:`run` — a re-swept portfolio is a
        hash lookup.  Returns results in portfolio order.

        For the interactive batch-quoting workflow — which additionally
        shares *partial results* across candidates — use
        :class:`repro.pricing.realtime.QuoteService`.
        """
        from repro.plan.scheduler import Scheduler  # deferred import

        portfolios = list(portfolios)
        effective_store = self.store if store is None else store

        def make_job(portfolio: Portfolio):
            def job() -> AnalysisResult:
                engine_obj = self._engine(engine, **engine_options)
                return engine_obj.run(
                    yet, portfolio, self.catalog_size, store=effective_store
                )

            return job

        return Scheduler(max_workers=max_concurrent).run_jobs(
            [make_job(p) for p in portfolios]
        )

    def run_all(
        self, yet: YearEventTable, engines: tuple = (), **shared_options: Any
    ) -> Dict[str, AnalysisResult]:
        """Run several engines on the same inputs (Figure 5 style sweep)."""
        from repro.engines.registry import available_engines

        names = engines or tuple(
            name for name in available_engines() if name != "reference"
        )
        return {name: self.run(yet, engine=name, **shared_options) for name in names}

    def ylt_reference(self, yet: YearEventTable) -> YearLossTable:
        """Oracle YLT from the line-by-line scalar reference (slow)."""
        from repro.core.algorithm import aggregate_risk_analysis_reference

        return aggregate_risk_analysis_reference(yet, self.portfolio)
