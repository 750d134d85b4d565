"""repro — aggregate risk analysis on simulated many-core GPUs.

A from-scratch reproduction of Bahl, Baltzer, Rau-Chaplin, Varghese &
Whiteway, *Achieving Speedup in Aggregate Risk Analysis using Multiple
GPUs* (ICPP 2013, arXiv:1308.2572): the Monte-Carlo aggregate-risk
algorithm over pre-simulated Year Event Tables, its five implementations
(sequential / multicore / basic GPU / optimised GPU / multi-GPU), the
direct-access-table data-structure study, the risk metrics and the
real-time pricing workflow — with the CUDA platforms replaced by a
functional + timed GPU simulator (see DESIGN.md for the substitution
argument).

Quickstart::

    import repro

    workload = repro.generate_workload(repro.BENCH_SMALL)
    ara = repro.AggregateRiskAnalysis(
        workload.portfolio, workload.catalog.n_events
    )
    result = ara.run(workload.yet, engine="multicore")
    print(repro.ylt_summary(result.ylt, layer_id=0))
"""

from repro.core.analysis import AggregateRiskAnalysis, AnalysisResult
from repro.core.algorithm import aggregate_risk_analysis_reference
from repro.core.kernels import autotune_batch_trials, run_ragged
from repro.core.occurrence import max_occurrence_losses, occurrence_frequency
from repro.core.secondary import SecondaryUncertainty
from repro.data import (
    BENCH_DEFAULT,
    BENCH_LARGE,
    BENCH_SMALL,
    PAPER,
    SCENARIO_SMALL,
    ELTFinancialTerms,
    EventCatalog,
    EventLossTable,
    Layer,
    LayerTerms,
    Portfolio,
    WorkloadSpec,
    YearEventTable,
    YearLossTable,
    generate_catalog,
    generate_elt,
    generate_portfolio,
    generate_workload,
    generate_yet,
    scaled_paper_spec,
)
from repro.engines import OptimizationFlags, available_engines, create_engine
from repro.metrics import (
    aep_curve,
    convergence_table,
    oep_curve,
    pml,
    pml_confidence_interval,
    pml_table,
    tail_value_at_risk,
    tvar_table,
    value_at_risk,
    ylt_summary,
)
from repro.plan import (
    EngineCapabilities,
    ExecutionPlan,
    Planner,
    PlanTask,
    Scheduler,
)
from repro.pricing import (
    LayerQuote,
    PricingAssumptions,
    QuoteRequest,
    QuoteService,
    price_layer,
)
from repro.store import (
    FileStore,
    MemoryStore,
    ResultStore,
    SharedFileStore,
    StoreEntry,
    TieredStore,
    analysis_key,
    default_store,
    ylt_digest,
)
from repro.validation import assert_engines_agree, verify_engines

__version__ = "1.0.0"

__all__ = [
    "AggregateRiskAnalysis",
    "AnalysisResult",
    "aggregate_risk_analysis_reference",
    "autotune_batch_trials",
    "run_ragged",
    "SecondaryUncertainty",
    "BENCH_DEFAULT",
    "BENCH_LARGE",
    "BENCH_SMALL",
    "PAPER",
    "SCENARIO_SMALL",
    "ELTFinancialTerms",
    "EventCatalog",
    "EventLossTable",
    "Layer",
    "LayerTerms",
    "Portfolio",
    "WorkloadSpec",
    "YearEventTable",
    "YearLossTable",
    "generate_catalog",
    "generate_elt",
    "generate_portfolio",
    "generate_workload",
    "generate_yet",
    "scaled_paper_spec",
    "OptimizationFlags",
    "available_engines",
    "create_engine",
    "aep_curve",
    "oep_curve",
    "pml",
    "pml_table",
    "tail_value_at_risk",
    "tvar_table",
    "value_at_risk",
    "ylt_summary",
    "ExecutionPlan",
    "PlanTask",
    "Planner",
    "EngineCapabilities",
    "Scheduler",
    "LayerQuote",
    "PricingAssumptions",
    "QuoteRequest",
    "QuoteService",
    "price_layer",
    "ResultStore",
    "StoreEntry",
    "MemoryStore",
    "FileStore",
    "SharedFileStore",
    "TieredStore",
    "default_store",
    "analysis_key",
    "ylt_digest",
    "max_occurrence_losses",
    "occurrence_frequency",
    "convergence_table",
    "pml_confidence_interval",
    "assert_engines_agree",
    "verify_engines",
    "__version__",
]
