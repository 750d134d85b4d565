"""The paper's primary contribution: the aggregate risk analysis algorithm.

* :mod:`repro.core.terms` — the financial/occurrence/aggregate term algebra
  (steps 2–4 of Algorithm 1), scalar and vectorised.
* :mod:`repro.core.algorithm` — a line-by-line scalar reference of
  Algorithm 1, the correctness oracle for every engine.
* :mod:`repro.core.kernels` — the numeric kernel every implementation
  in :mod:`repro.engines` shares: ragged CSR execution, stacked
  multi-ELT gathers, pooled scratch buffers, one trial-batch entry
  (with or without secondary uncertainty), a fixed-size occurrence
  chunk and the memory-budget batch autotuner.
* :mod:`repro.core.analysis` — the high-level
  :class:`~repro.core.analysis.AggregateRiskAnalysis` entry point.
* :mod:`repro.core.secondary` — the paper's future-work extension:
  secondary uncertainty (per-event loss distributions) inside the
  kernel, with counter-based decomposition-invariant sampling.
"""

from repro.core.terms import (
    apply_aggregate_terms_cumulative,
    apply_occurrence_terms,
    trial_loss_from_occurrence_losses,
)
from repro.core.algorithm import aggregate_risk_analysis_reference
from repro.core.kernels import (
    autotune_batch_trials,
    layer_trial_batch_ragged,
    occ_chunk_for,
    segment_sums,
)
from repro.core.analysis import AggregateRiskAnalysis, AnalysisResult
from repro.core.secondary import SecondaryUncertainty
from repro.core.occurrence import max_occurrence_losses, occurrence_frequency

__all__ = [
    "max_occurrence_losses",
    "occurrence_frequency",
    "apply_aggregate_terms_cumulative",
    "apply_occurrence_terms",
    "trial_loss_from_occurrence_losses",
    "aggregate_risk_analysis_reference",
    "autotune_batch_trials",
    "layer_trial_batch_ragged",
    "occ_chunk_for",
    "segment_sums",
    "AggregateRiskAnalysis",
    "AnalysisResult",
    "SecondaryUncertainty",
]
