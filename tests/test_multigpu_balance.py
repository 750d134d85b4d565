"""Tests for occurrence-balanced multi-GPU decomposition."""

import numpy as np
import pytest

from repro.core.algorithm import aggregate_risk_analysis_reference
from repro.data.elt import EventLossTable
from repro.data.generator import generate_catalog, generate_yet
from repro.data.layer import Portfolio
from repro.engines.multigpu import MultiGPUEngine
from repro.utils.parallel import balanced_chunk_ranges, chunk_ranges


@pytest.fixture(scope="module")
def ragged_problem():
    """A YET whose trial sizes vary wildly (front-loaded heavy trials)."""
    catalog = generate_catalog(2_000)
    yet = generate_yet(
        catalog,
        n_trials=400,
        events_per_trial=30,
        fixed_event_count=False,
        seed=13,
    )
    # Exaggerate raggedness: concatenate a block of big trials with a
    # block of tiny ones by doubling the first half's events.
    import numpy as np

    from repro.data.yet import YearEventTable

    half = yet.n_trials // 2
    head = yet.slice_trials(0, half)
    tail = yet.slice_trials(half, yet.n_trials)
    big_ids = np.concatenate([head.event_ids, head.event_ids])
    big_times = np.concatenate([head.timestamps, head.timestamps])
    order = np.argsort(
        np.concatenate(
            [
                np.repeat(np.arange(half), np.diff(head.offsets)),
                np.repeat(np.arange(half), np.diff(head.offsets)),
            ]
        )
        * 2.0
        + big_times.astype(np.float64) / 1e6,
        kind="stable",
    )
    big = YearEventTable(
        event_ids=big_ids[order],
        timestamps=big_times[order],
        offsets=(head.offsets * 2).astype(np.int64),
    )
    merged = YearEventTable(
        event_ids=np.concatenate([big.event_ids, tail.event_ids]),
        timestamps=np.concatenate([big.timestamps, tail.timestamps]),
        offsets=np.concatenate(
            [big.offsets[:-1], big.offsets[-1] + tail.offsets]
        ).astype(np.int64),
    )
    rng = np.random.default_rng(4)
    ids = np.sort(
        rng.choice(np.arange(1, 2_001), size=300, replace=False)
    ).astype(np.int32)
    portfolio = Portfolio.single_layer(
        [
            EventLossTable(
                elt_id=0,
                event_ids=ids,
                losses=rng.lognormal(10, 1, 300),
            )
        ]
    )
    return merged, portfolio


class TestDecomposeBalanced:
    """The occurrence-balanced trial cut, as the planner's
    ``balance="events"`` lanes use it: :func:`balanced_chunk_ranges`
    over the YET's offsets, against the equal-trial :func:`chunk_ranges`."""

    def test_covers_all_trials(self, ragged_problem):
        yet, _ = ragged_problem
        spans = balanced_chunk_ranges(yet.offsets, 4)
        assert spans[0][0] == 0
        assert spans[-1][1] == yet.n_trials
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        total = sum(stop - start for start, stop in spans)
        assert total == yet.n_trials

    def test_balances_occurrences_better_than_trial_split(
        self, ragged_problem
    ):
        yet, _ = ragged_problem

        def occurrence_spread(spans):
            counts = [
                int(yet.offsets[stop] - yet.offsets[start])
                for start, stop in spans
            ]
            return max(counts) - min(counts)

        trial_split = chunk_ranges(yet.n_trials, 4)
        event_split = balanced_chunk_ranges(yet.offsets, 4)
        assert occurrence_spread(event_split) < occurrence_spread(
            trial_split
        )

    def test_fixed_counts_degenerate_to_trial_split(self, tiny_workload):
        yet = tiny_workload.yet  # fixed events per trial
        assert balanced_chunk_ranges(yet.offsets, 4) == chunk_ranges(
            yet.n_trials, 4
        )

    def test_empty_yet_falls_back(self):
        from repro.data.yet import YearEventTable

        empty = YearEventTable(
            event_ids=np.empty(0, dtype=np.int32),
            timestamps=np.empty(0, dtype=np.float32),
            offsets=np.zeros(5, dtype=np.int64),
        )
        spans = balanced_chunk_ranges(empty.offsets, 2)
        assert spans == chunk_ranges(empty.n_trials, 2)
        assert sum(stop - start for start, stop in spans) == 4


class TestBalancedEngine:
    def test_results_identical_to_trial_split(self, ragged_problem):
        yet, portfolio = ragged_problem
        by_trials = MultiGPUEngine(n_devices=4, balance="trials").run(
            yet, portfolio, 2_000
        )
        by_events = MultiGPUEngine(n_devices=4, balance="events").run(
            yet, portfolio, 2_000
        )
        assert by_trials.ylt.allclose(by_events.ylt)
        assert by_events.meta["balance"] == "events"

    def test_balanced_makespan_not_worse(self, ragged_problem):
        yet, portfolio = ragged_problem
        by_trials = MultiGPUEngine(n_devices=4, balance="trials").run(
            yet, portfolio, 2_000
        )
        by_events = MultiGPUEngine(n_devices=4, balance="events").run(
            yet, portfolio, 2_000
        )
        # On a heavily ragged YET the event-balanced split should reduce
        # (and must never increase) the modeled fork-join makespan.
        assert by_events.modeled_seconds <= by_trials.modeled_seconds * 1.02

    def test_matches_reference(self, ragged_problem):
        yet, portfolio = ragged_problem
        reference = aggregate_risk_analysis_reference(yet, portfolio)
        result = MultiGPUEngine(n_devices=3, balance="events").run(
            yet, portfolio, 2_000
        )
        scale = max(float(np.abs(reference.losses).max()), 1.0)
        assert reference.allclose(result.ylt, rtol=1e-4, atol=1e-5 * scale)

    def test_invalid_balance_rejected(self):
        with pytest.raises(ValueError):
            MultiGPUEngine(balance="magic")
