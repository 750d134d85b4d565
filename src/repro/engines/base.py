"""Engine abstract base class and shared plumbing.

Every engine computes through the one kernel of
:mod:`repro.core.kernels`; engines differ in how they decompose the
trial space, their default precision and what they model, never in
the kernel code they run.
"""

from __future__ import annotations

import abc
import threading
import time
from typing import TYPE_CHECKING, Any, Dict

import numpy as np

from repro.core.analysis import AnalysisResult
from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.plan.plan import ExecutionPlan
from repro.plan.planner import EngineCapabilities, Planner
from repro.utils.timer import ActivityProfile
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.base import ResultStore

# Process-wide count of actual engine executions (calls that reached
# ``_execute``).  Replay hits do not touch it, which is exactly what the
# memoisation tests assert: a store hit is *zero* engine task
# executions, not merely a fast one.
_EXECUTION_LOCK = threading.Lock()
_EXECUTIONS = 0


def execution_count() -> int:
    """Engine executions (``_execute`` calls) so far in this process."""
    with _EXECUTION_LOCK:
        return _EXECUTIONS


def _record_execution() -> None:
    global _EXECUTIONS
    with _EXECUTION_LOCK:
        _EXECUTIONS += 1


class Engine(abc.ABC):
    """One implementation of aggregate risk analysis.

    Engines are plan executors: :meth:`capabilities` declares how the
    engine wants the trial space decomposed (lanes, balance, batching), the shared :class:`~repro.plan.planner.Planner` turns
    that into an :class:`~repro.plan.plan.ExecutionPlan`, and
    :meth:`_execute` runs the plan's tasks — no engine owns its own
    decomposition loop.  Because tasks are keyed by global trial and
    occurrence index, a plan's results are bit-for-bit identical for any
    scheduler concurrency.

    Subclasses implement :meth:`_execute`; :meth:`run` wraps it with input
    validation, planning, and end-to-end wall timing, so every engine
    returns a uniformly shaped
    :class:`~repro.core.analysis.AnalysisResult`.

    Parameters
    ----------
    lookup_kind:
        ELT representation (``"direct"`` is the paper's choice and the
        default everywhere).
    dtype:
        Working precision of the loss accumulation.  The optimised GPU
        engines override the default to ``float32`` (the paper's
        reduced-precision optimisation) unless told otherwise.
    secondary:
        Optional :class:`~repro.core.secondary.SecondaryUncertainty`:
        per-(occurrence, ELT) damage-ratio multipliers applied inside the
        kernel, sampled with counter-based streams keyed by global
        occurrence index (reproducible for a given ``secondary_seed``
        and invariant to engine decomposition).
    secondary_seed:
        Seed of the multiplier streams (ignored without ``secondary``).
    """

    #: registry name, overridden by subclasses
    name: str = "abstract"

    def __init__(
        self,
        lookup_kind: str = "direct",
        dtype: np.dtype | type = np.float64,
        secondary=None,
        secondary_seed=None,
    ) -> None:
        self.lookup_kind = lookup_kind
        self.dtype = np.dtype(dtype)
        self.secondary = secondary
        self.secondary_seed = secondary_seed

    def _secondary_base_seed(self) -> int:
        """Resolve ``secondary_seed`` to one integer base key (or 0)."""
        from repro.core.secondary import resolve_secondary_seed

        if self.secondary is None:
            return 0
        return resolve_secondary_seed(self.secondary_seed)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def capabilities(self) -> EngineCapabilities:
        """Decomposition profile the planner builds this engine's plans
        from.  The base default is a single-lane plan; engines with real
        parallel lanes (multicore workers, multi-GPU devices) override.
        """
        return EngineCapabilities(
            engine=self.name,
            n_slots=1,
            dtype=self.dtype.str,
            secondary=self.secondary is not None,
        )

    def plan_for(
        self, yet: YearEventTable, portfolio: Portfolio
    ) -> ExecutionPlan:
        """The :class:`ExecutionPlan` this engine would execute."""
        return Planner().plan(yet, portfolio, self.capabilities())

    def plan_missing(
        self,
        yet: YearEventTable,
        portfolio: Portfolio,
        store: "ResultStore | None",
        segment_trials: int | None = None,
        plan: ExecutionPlan | None = None,
    ):
        """Store-aware delta plan under this engine's numeric config.

        Every task of the plan (the engine-native :meth:`plan_for`
        decomposition by default, or the fixed-stride segmentation when
        ``segment_trials`` is given) is assigned its content-addressed
        :func:`~repro.store.keys.segment_key` and probed against
        ``store``; the returned :class:`~repro.plan.delta.DeltaPlan`
        separates segments already computed (by any engine of the same
        numeric configuration, any process, any sweep) from the missing
        ones a fleet must execute.
        """
        return Planner().plan_missing(
            yet,
            portfolio,
            self.capabilities(),
            store,
            lookup_kind=self.lookup_kind,
            secondary=self.secondary,
            secondary_seed=self._secondary_base_seed(),
            segment_trials=segment_trials,
            plan=plan,
        )

    # ------------------------------------------------------------------
    def analysis_key(
        self,
        plan: ExecutionPlan,
        yet: YearEventTable,
        portfolio: Portfolio,
    ) -> str:
        """Whole-analysis store key of running ``plan`` on these inputs.

        Built from the plan fingerprint plus content fingerprints of
        every numeric input (see :func:`repro.store.keys.analysis_key`);
        two runs share a key exactly when their YLTs are interchangeable
        bit-for-bit.
        """
        from repro.store.keys import analysis_key  # deferred import

        return analysis_key(
            plan,
            yet,
            portfolio,
            dtype=self.capabilities().dtype,
            lookup_kind=self.lookup_kind,
            secondary=self.secondary,
            secondary_seed=self._secondary_base_seed(),
        )

    def run(
        self,
        yet: YearEventTable,
        portfolio: Portfolio,
        catalog_size: int,
        plan: ExecutionPlan | None = None,
        store: "ResultStore | None" = None,
    ) -> AnalysisResult:
        """Validate inputs, plan (unless given one), execute, and time.

        ``plan`` lets callers precompute or share a plan (the quote
        service, plan-inspection tooling); it must have been built for
        this YET/portfolio shape.

        ``store`` (a :class:`~repro.store.base.ResultStore`) memoises
        the whole analysis: when the run's
        :meth:`analysis_key` is present, the stored YLT is returned
        bit-for-bit with *zero* engine task executions (and
        ``modeled_seconds=None``: nothing was priced); otherwise the
        run executes normally and its YLT is persisted under that key.
        """
        check_positive("catalog_size", catalog_size)
        portfolio.validate()
        if yet.n_trials == 0:
            raise ValueError("YET has no trials")
        started = time.perf_counter()
        if plan is None:
            plan = self.plan_for(yet, portfolio)
        else:
            if plan.n_trials != yet.n_trials:
                raise ValueError(
                    f"plan was built for {plan.n_trials} trials, "
                    f"YET has {yet.n_trials}"
                )
            portfolio_layers = {layer.layer_id for layer in portfolio.layers}
            if set(plan.layer_ids) != portfolio_layers:
                raise ValueError(
                    f"plan was built for layers "
                    f"{sorted(set(plan.layer_ids))}, portfolio has "
                    f"{sorted(portfolio_layers)} — a plan is only valid "
                    "for the portfolio it was planned from"
                )
        if store is not None:
            return self._run_stored(
                yet, portfolio, int(catalog_size), plan, store, started
            )
        ylt, profile, modeled_seconds, meta = self._execute(
            yet, portfolio, int(catalog_size), plan
        )
        _record_execution()
        wall = time.perf_counter() - started
        meta.setdefault("plan", plan.summary())
        return AnalysisResult(
            ylt=ylt,
            profile=profile,
            engine=self.name,
            wall_seconds=wall,
            modeled_seconds=modeled_seconds,
            meta=meta,
        )

    def _run_stored(
        self,
        yet: YearEventTable,
        portfolio: Portfolio,
        catalog_size: int,
        plan: ExecutionPlan,
        store: "ResultStore",
        started: float,
    ) -> AnalysisResult:
        """The memoised execution path: replay or compute-and-persist.

        Runs through :meth:`~repro.store.base.ResultStore.get_or_compute`,
        so concurrent identical runs — other threads *and*, on a
        :class:`~repro.store.SharedFileStore`, other processes — execute
        once and everyone else replays; a failed write-through costs
        durability, never the result.
        """
        from repro.store.codec import (  # deferred imports
            entry_from_ylt,
            ylt_from_entry,
        )

        replay_key = self.analysis_key(plan, yet, portfolio)
        computed: Dict[str, Any] = {}

        def produce():
            ylt, profile, modeled_seconds, meta = self._execute(
                yet, portfolio, catalog_size, plan
            )
            _record_execution()
            computed.update(
                ylt=ylt,
                profile=profile,
                modeled_seconds=modeled_seconds,
                meta=meta,
            )
            return entry_from_ylt(
                ylt,
                meta={
                    "engine": self.name,
                    "modeled_seconds": modeled_seconds,
                },
            )

        entry = store.get_or_compute(replay_key, produce)
        if not computed:  # replay: zero engine task executions
            # The analysis key deliberately ignores engine name, traffic
            # ledger and device geometry, so the stored modeled seconds
            # are the computing run's cost, not this run's: a replay
            # reports none and records that run's figure beside it.
            return AnalysisResult(
                ylt=ylt_from_entry(entry),
                profile=ActivityProfile(),
                engine=self.name,
                wall_seconds=time.perf_counter() - started,
                modeled_seconds=None,
                meta={
                    "plan": plan.summary(),
                    "replay": {
                        "hit": True,
                        "key": replay_key,
                        "computed_by": entry.meta.get("engine"),
                        "computed_modeled_seconds": entry.meta.get(
                            "modeled_seconds"
                        ),
                        "store": type(store).__name__,
                    },
                },
            )
        meta = computed["meta"]
        meta.setdefault("replay", {"hit": False, "key": replay_key})
        meta.setdefault("plan", plan.summary())
        return AnalysisResult(
            ylt=computed["ylt"],
            profile=computed["profile"],
            engine=self.name,
            wall_seconds=time.perf_counter() - started,
            modeled_seconds=computed["modeled_seconds"],
            meta=meta,
        )

    @abc.abstractmethod
    def _execute(
        self,
        yet: YearEventTable,
        portfolio: Portfolio,
        catalog_size: int,
        plan: ExecutionPlan,
    ) -> tuple[YearLossTable, ActivityProfile, float | None, Dict[str, Any]]:
        """Execute ``plan``; produce (ylt, profile, modeled seconds, meta)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(lookup_kind={self.lookup_kind!r}, "
            f"dtype={self.dtype})"
        )
