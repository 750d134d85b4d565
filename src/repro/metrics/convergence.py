"""Convergence diagnostics: how many trials do the metrics need?

The YET methodology's premise is that a *large* pre-simulated trial set
(the paper: one million years) estimates tail metrics stably.  This
module quantifies that:

* :func:`pml_confidence_interval` — a distribution-free confidence
  interval for the PML at a return period, from the binomial
  distribution of the exceedance count over order statistics (the
  standard non-parametric quantile CI).
* :func:`convergence_table` — PML/TVaR estimates on nested subsamples of
  the trial set, showing the estimate settle as trials grow (the
  empirical argument for the paper's 1M-trial runs, and hence for the
  speed its GPU implementations deliver).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.metrics.pml import pml
from repro.metrics.tvar import tail_value_at_risk
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_in_range, check_positive


def pml_confidence_interval(
    annual_losses: np.ndarray,
    return_period_years: float,
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Distribution-free CI for the PML at a return period.

    The PML at return period ``T`` is the ``q = 1 − 1/T`` quantile.  With
    ``n`` i.i.d. trials, the number of losses at or below the true
    quantile is Binomial(n, q); inverting it gives order-statistic ranks
    whose values bracket the quantile with the requested coverage.

    Needs scipy, imported here so that ``import repro`` does not: the
    package's only runtime dependency is numpy.
    """
    from scipy import stats

    check_positive("return_period_years", return_period_years)
    if return_period_years <= 1.0:
        raise ValueError("return period must exceed 1 year")
    check_in_range("confidence", confidence, 0.0, 1.0, inclusive=False)
    losses = np.sort(np.asarray(annual_losses, dtype=np.float64))
    n = losses.size
    if n == 0:
        raise ValueError("cannot build a CI from zero trials")
    q = 1.0 - 1.0 / return_period_years
    alpha = 1.0 - confidence
    lo_rank = int(stats.binom.ppf(alpha / 2, n, q))
    hi_rank = int(stats.binom.ppf(1 - alpha / 2, n, q))
    lo_rank = min(max(lo_rank, 0), n - 1)
    hi_rank = min(max(hi_rank, lo_rank), n - 1)
    return float(losses[lo_rank]), float(losses[hi_rank])


def pml_relative_error(
    annual_losses: np.ndarray,
    return_period_years: float,
    confidence: float = 0.95,
) -> float:
    """Half-width of the PML CI relative to the point estimate.

    The single-number "is my trial set big enough?" diagnostic: e.g. a
    1-in-250 PML needs far more trials than a 1-in-10 PML for the same
    relative error.
    """
    estimate = pml(annual_losses, return_period_years)
    if estimate == 0.0:
        return 0.0
    lo, hi = pml_confidence_interval(
        annual_losses, return_period_years, confidence
    )
    return (hi - lo) / (2.0 * estimate)


def convergence_table(
    annual_losses: np.ndarray,
    return_period_years: float = 100.0,
    tvar_confidence: float = 0.99,
    fractions: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 1.0),
    seed: SeedLike = 0,
) -> List[Dict[str, float]]:
    """PML and TVaR estimates on nested random subsamples of the trials.

    Rows carry the subsample size, the two tail estimates and the PML's
    relative CI half-width — the curve that flattens as the trial count
    approaches "enough".
    """
    losses = np.asarray(annual_losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("empty loss series")
    rng = default_rng(seed)
    permuted = losses[rng.permutation(losses.size)]
    rows: List[Dict[str, float]] = []
    for fraction in fractions:
        check_in_range("fraction", fraction, 0.0, 1.0)
        # Floor at 2 (a 1-trial quantile is meaningless), but never past
        # the series itself: on tiny YLTs the floor used to exceed the
        # array, silently slicing fewer trials than the row reported.
        size = min(losses.size, max(2, int(round(losses.size * fraction))))
        sample = permuted[:size]
        if size < return_period_years:
            # Quantile beyond the sample's resolution: report the max and
            # flag the row as unresolved.
            rows.append(
                {
                    "n_trials": size,
                    "pml": float(sample.max()),
                    "tvar": float(sample.max()),
                    "pml_rel_error": float("nan"),
                    "resolved": 0.0,
                }
            )
            continue
        rows.append(
            {
                "n_trials": size,
                "pml": pml(sample, return_period_years),
                "tvar": tail_value_at_risk(sample, tvar_confidence),
                "pml_rel_error": pml_relative_error(
                    sample, return_period_years
                ),
                "resolved": 1.0,
            }
        )
    return rows
