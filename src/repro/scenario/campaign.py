"""Campaign runner: sweep a scenario set through the fleet stack.

:class:`ScenarioCampaign` evaluates every scenario of a
:class:`~repro.scenario.spec.ScenarioSet` against one baseline
workload, reusing everything the lower layers already know how to
reuse:

* **whole-scenario replay** — each scenario's final YLT is stored under
  :func:`repro.store.keys.scenario_result_key`; an unchanged spec +
  seed + baseline short-circuits to one store read;
* **delta-planned sweeps** — scenarios that do run go through
  :func:`repro.fleet.sweep.submit_sweep`, so segments whose content the
  overlay did not perturb are served from the store (the baseline
  scenario populates them; a 10% overlay recomputes ~10%);
* **staged early stopping** — with an
  :class:`~repro.scenario.adaptive.EarlyStopPolicy`, each scenario runs
  nested stride-aligned trial prefixes and stops once its PML/TVaR
  stabilise; every stage's segments are store-reused by the next.

The queue/store arguments accept anything satisfying the ``JobQueue`` /
``ResultStore`` contracts — directory-backed, in-memory, or the
``tcp://`` remote implementations — so a campaign runs unchanged from a
laptop against a shared fleet.  With ``n_workers=0`` the campaign only
submits and gathers; external ``repro-fleet worker`` processes execute
the jobs, rebuilding the compiled scenario inputs from the manifest.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.kernels import KERNEL_RAGGED, LOOKUP_DIRECT
from repro.data.ylt import YearLossTable
from repro.engines.base import Engine
from repro.engines.registry import create_engine
from repro.fleet.jobs import JobQueue
from repro.fleet.sweep import (
    context_for_engine,
    gather_sweep,
    run_workers,
    submit_sweep,
    wait_for_drain,
)
from repro.plan.cache import yet_fingerprint
from repro.plan.planner import DEFAULT_SEGMENT_TRIALS
from repro.scenario.adaptive import EarlyStopPolicy
from repro.scenario.compiler import CompiledScenario, compile_scenario
from repro.scenario.spec import Scenario, ScenarioSet
from repro.store.base import ResultStore
from repro.store.codec import entry_from_ylt, ylt_from_entry
from repro.store.keys import (
    fingerprint_digest,
    portfolio_fingerprint,
    scenario_result_key,
    secondary_fingerprint,
    ylt_digest,
)

#: campaign-fingerprint schema (bump when the identity composition changes).
CAMPAIGN_SCHEMA = "repro-scenario-campaign-v2"


@dataclass
class ScenarioOutcome:
    """One scenario's result row: YLT, tail metrics, full provenance."""

    name: str
    fingerprint: str
    digest: str
    metrics: Dict[str, float]
    trials_used: int
    n_trials: int
    early_stopped: bool
    replayed: bool
    n_segments: int
    n_computed: int
    n_reused: int
    stages: List[Dict[str, Any]]
    wall_seconds: float
    ylt: YearLossTable = field(repr=False)

    def row(self) -> Dict[str, Any]:
        """JSON-able summary (everything except the YLT itself)."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "digest": self.digest,
            "metrics": dict(self.metrics),
            "trials_used": int(self.trials_used),
            "n_trials": int(self.n_trials),
            "early_stopped": bool(self.early_stopped),
            "replayed": bool(self.replayed),
            "n_segments": int(self.n_segments),
            "n_computed": int(self.n_computed),
            "n_reused": int(self.n_reused),
            "stages": list(self.stages),
            "wall_seconds": float(self.wall_seconds),
        }


@dataclass
class CampaignResult:
    """All outcomes of one campaign run, in scenario-set order."""

    set_name: str
    set_fingerprint: str
    campaign_fingerprint: str
    outcomes: List[ScenarioOutcome]

    def outcome(self, name: str) -> ScenarioOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(f"no outcome for scenario {name!r}")

    def rows(self) -> List[Dict[str, Any]]:
        return [o.row() for o in self.outcomes]

    def summary(self) -> Dict[str, Any]:
        return {
            "set": self.set_name,
            "set_fingerprint": self.set_fingerprint,
            "campaign_fingerprint": self.campaign_fingerprint,
            "n_scenarios": len(self.outcomes),
            "n_replayed": sum(o.replayed for o in self.outcomes),
            "n_early_stopped": sum(o.early_stopped for o in self.outcomes),
            "segments_computed": sum(o.n_computed for o in self.outcomes),
            "segments_reused": sum(o.n_reused for o in self.outcomes),
            "wall_seconds": sum(o.wall_seconds for o in self.outcomes),
        }


class ScenarioCampaign:
    """Run scenario sets against one baseline through the fleet stack.

    Parameters
    ----------
    workload:
        The baseline (anything with ``catalog``/``yet``/``portfolio``,
        typically :func:`repro.data.generator.generate_workload` output).
    store:
        Segment + scenario-result store (any ``ResultStore``; a
        ``tcp://`` :class:`~repro.net.client.RemoteStore` works).
    queue:
        Job queue; ``None`` builds a private directory queue (the
        common local case).
    engine:
        Engine name (``create_engine``) or a constructed engine.
    segment_trials:
        Fixed segment stride.  This is the delta-reuse quantum: overlay
        windows and stage boundaries aligned to it maximise reuse.
    policy:
        ``EarlyStopPolicy`` to run staged trials with adaptive stopping;
        ``None`` runs every scenario's full trial set in one stage.
    n_workers:
        In-process worker threads per sweep; ``0`` relies on external
        ``repro-fleet worker`` processes attached to the same queue
        (requires ``workload_spec`` so manifests are self-describing).
    workload_spec:
        The baseline's :class:`~repro.data.presets.WorkloadSpec`, when
        it has one — embedded in manifests for cross-process workers.
    """

    def __init__(
        self,
        workload,
        store: ResultStore,
        queue: Optional[JobQueue] = None,
        engine: str | Engine = "sequential",
        engine_options: Optional[Dict[str, Any]] = None,
        segment_trials: int = DEFAULT_SEGMENT_TRIALS,
        policy: Optional[EarlyStopPolicy] = None,
        n_workers: int = 2,
        workload_spec=None,
        drain_timeout: float = 300.0,
    ) -> None:
        self.workload = workload
        self.store = store
        if queue is None:
            self._queue_tmp = tempfile.TemporaryDirectory(
                prefix="repro-scenario-queue-"
            )
            queue = JobQueue(self._queue_tmp.name)
        self.queue = queue
        if isinstance(engine, str):
            engine = create_engine(engine, **(engine_options or {}))
        self.engine = engine
        if segment_trials < 1:
            raise ValueError(
                f"segment_trials must be >= 1, got {segment_trials}"
            )
        self.segment_trials = int(segment_trials)
        self.policy = policy
        # Metrics are always reported; the default policy only supplies
        # the watched return period / confidence when no policy is set.
        self._metrics_policy = policy if policy is not None else EarlyStopPolicy()
        if n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {n_workers}")
        if n_workers == 0 and workload_spec is None:
            raise ValueError(
                "n_workers=0 (external workers) requires workload_spec so "
                "sweep manifests are self-describing"
            )
        self.n_workers = int(n_workers)
        self.workload_spec = workload_spec
        self.drain_timeout = float(drain_timeout)

    def campaign_fingerprint(self) -> str:
        """Identity of the baseline + numeric config + staging policy.

        Everything that can change a scenario's final YLT *besides* the
        scenario spec itself: baseline YET/portfolio content, the
        engine's numeric configuration (dtype, and the secondary
        stream's Beta shape and resolved seed; the kernel and
        layer-table names are constant components), the
        segment stride (stage boundaries depend on it), and the
        early-stop policy (it decides ``trials_used``).
        """
        caps = self.engine.capabilities()
        return fingerprint_digest(
            CAMPAIGN_SCHEMA,
            yet_fingerprint(self.workload.yet),
            portfolio_fingerprint(self.workload.portfolio),
            int(self.workload.catalog.n_events),
            KERNEL_RAGGED,
            str(caps.dtype),
            LOOKUP_DIRECT,
            secondary_fingerprint(
                self.engine.secondary, self.engine._secondary_base_seed()
            ),
            int(self.segment_trials),
            None if self.policy is None else self.policy.as_config(),
        )

    def _stage_counts(self, n_trials: int) -> Tuple[int, ...]:
        if self.policy is None:
            return (n_trials,)
        return self.policy.stage_counts(n_trials, self.segment_trials)

    def run_scenario(self, scenario: Scenario) -> ScenarioOutcome:
        """Compile and price one scenario (replay, sweep, early-stop)."""
        start = time.perf_counter()
        compiled = compile_scenario(scenario, self.workload)
        result_key = scenario_result_key(
            self.campaign_fingerprint(), compiled.fingerprint
        )
        entry = self.store.get(result_key)
        if entry is not None:
            meta = entry.meta
            ylt = ylt_from_entry(entry)
            return ScenarioOutcome(
                name=scenario.name,
                fingerprint=compiled.fingerprint,
                digest=ylt_digest(ylt),
                metrics=dict(meta.get("metrics", {})),
                trials_used=int(meta.get("trials_used", ylt.n_trials)),
                n_trials=compiled.n_trials,
                early_stopped=bool(meta.get("early_stopped", False)),
                replayed=True,
                n_segments=int(meta.get("n_segments", 0)),
                n_computed=0,
                n_reused=int(meta.get("n_segments", 0)),
                stages=[],
                wall_seconds=time.perf_counter() - start,
                ylt=ylt,
            )
        outcome = self._sweep_scenario(scenario, compiled, result_key)
        outcome.wall_seconds = time.perf_counter() - start
        return outcome

    def _sweep_scenario(
        self,
        scenario: Scenario,
        compiled: CompiledScenario,
        result_key: str,
    ) -> ScenarioOutcome:
        n_trials = compiled.n_trials
        history: List[Dict[str, float]] = []
        stages: List[Dict[str, Any]] = []
        n_computed = 0
        ylt: YearLossTable | None = None
        ticket = None
        trials_used = 0
        early_stopped = False
        counts = self._stage_counts(n_trials)
        for stage_index, count in enumerate(counts):
            yet_stage = (
                compiled.yet
                if count == n_trials
                else compiled.yet.slice_trials(0, count)
            )
            ticket = submit_sweep(
                self.queue,
                self.store,
                yet_stage,
                compiled.portfolio,
                self.workload.catalog.n_events,
                self.engine,
                segment_trials=self.segment_trials,
                workload_spec=self.workload_spec,
                scenario=scenario,
                stage_trials=count,
            )
            if self.n_workers > 0:
                ctx = context_for_engine(
                    yet_stage,
                    compiled.portfolio,
                    self.workload.catalog.n_events,
                    self.engine,
                )
                run_workers(
                    self.queue,
                    self.store,
                    contexts={ticket.sweep_id: ctx},
                    n_workers=self.n_workers,
                    sweep_id=ticket.sweep_id,
                )
            elif not wait_for_drain(
                self.queue, ticket.sweep_id, timeout=self.drain_timeout
            ):
                raise TimeoutError(
                    f"scenario {scenario.name!r} stage {stage_index} "
                    f"({ticket.sweep_id}) did not drain within "
                    f"{self.drain_timeout}s — are external workers running?"
                )
            ylt = gather_sweep(self.queue, self.store, ticket.sweep_id)
            metrics = self._metrics_policy.tail_metrics(
                ylt.portfolio_losses()
            )
            history.append(metrics)
            n_computed += ticket.submitted
            trials_used = count
            stages.append(
                {
                    "trials": int(count),
                    "sweep_id": ticket.sweep_id,
                    "submitted": int(ticket.submitted),
                    "reused": int(ticket.reused),
                    "metrics": metrics,
                }
            )
            if self.policy is not None and self.policy.should_stop(
                history, count
            ):
                early_stopped = count < n_trials
                break
        assert ylt is not None and ticket is not None  # counts is non-empty
        n_segments = len(ticket.delta.segments)
        metrics = history[-1]
        self.store.put(
            result_key,
            entry_from_ylt(
                ylt,
                meta={
                    "scenario": scenario.name,
                    "scenario_fingerprint": compiled.fingerprint,
                    "metrics": metrics,
                    "trials_used": int(trials_used),
                    "n_trials": int(n_trials),
                    "early_stopped": bool(early_stopped),
                    "n_segments": int(n_segments),
                },
            ),
        )
        return ScenarioOutcome(
            name=scenario.name,
            fingerprint=compiled.fingerprint,
            digest=ylt_digest(ylt),
            metrics=metrics,
            trials_used=trials_used,
            n_trials=n_trials,
            early_stopped=early_stopped,
            replayed=False,
            n_segments=n_segments,
            n_computed=n_computed,
            n_reused=ticket.delta.n_stored,
            stages=stages,
            wall_seconds=0.0,  # stamped by run_scenario
            ylt=ylt,
        )

    def run(
        self,
        scenario_set: ScenarioSet,
        progress: Optional[Callable[[ScenarioOutcome], None]] = None,
    ) -> CampaignResult:
        """Evaluate every scenario of a set, in declaration order.

        Order matters for reuse: a set that leads with its baseline
        populates the store with the segments every overlay's untouched
        trials share.
        """
        outcomes: List[ScenarioOutcome] = []
        for scenario in scenario_set:
            outcome = self.run_scenario(scenario)
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
        return CampaignResult(
            set_name=scenario_set.name,
            set_fingerprint=scenario_set.fingerprint(),
            campaign_fingerprint=self.campaign_fingerprint(),
            outcomes=outcomes,
        )
