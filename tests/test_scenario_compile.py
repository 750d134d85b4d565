"""Tests for scenario compilation: determinism and byte-level invariants."""

import numpy as np
import pytest

from repro.data.generator import generate_workload
from repro.data.presets import SCENARIO_SMALL
from repro.scenario.compiler import (
    compile_scenario,
    resample_occurrences,
    scale_severities,
    select_tail_trials,
    tail_proxy,
)
from repro.scenario.spec import (
    FrequencyOverlay,
    RateAdjustment,
    Scenario,
    SeverityOverlay,
    TailSeek,
    TrialWindow,
    match_families,
)


@pytest.fixture(scope="module")
def workload():
    spec = SCENARIO_SMALL.with_(n_trials=400, catalog_size=2_000)
    return generate_workload(spec)


def _ylt_losses(workload, compiled):
    from repro.engines import SequentialEngine

    result = SequentialEngine().run(
        compiled.yet, compiled.portfolio, compiled.catalog.n_events
    )
    return result.ylt.portfolio_losses()


class TestCompileDeterminism:
    def test_same_spec_compiles_to_identical_bytes(self, workload):
        scenario = Scenario(
            name="surge",
            transforms=(
                FrequencyOverlay(
                    families=("NA-*",), factor=1.7, trial_start=0, trial_stop=100
                ),
            ),
            seed=5,
        )
        a = compile_scenario(scenario, workload)
        b = compile_scenario(scenario, workload)
        np.testing.assert_array_equal(a.yet.event_ids, b.yet.event_ids)
        np.testing.assert_array_equal(a.yet.timestamps, b.yet.timestamps)
        np.testing.assert_array_equal(a.yet.offsets, b.yet.offsets)

    def test_seed_changes_the_draws(self, workload):
        def compiled(seed):
            return compile_scenario(
                Scenario(
                    name="surge",
                    transforms=(
                        FrequencyOverlay(
                            families=("NA-*",),
                            factor=1.5,
                            trial_start=0,
                            trial_stop=200,
                        ),
                    ),
                    seed=seed,
                ),
                workload,
            )

        a, b = compiled(1), compiled(2)
        assert a.yet.n_occurrences != b.yet.n_occurrences

    def test_transform_streams_are_positional(self, workload):
        """A deterministic transform ahead of a stochastic one does not
        shift the stochastic transform's child stream."""
        overlay = FrequencyOverlay(
            families=("NA-*",), factor=1.5, trial_start=0, trial_stop=200
        )
        alone = compile_scenario(
            Scenario(name="s", transforms=(TrialWindow(0, 400), overlay), seed=9),
            workload,
        )
        # TrialWindow covering everything is an identity on this workload;
        # the overlay sits at position 1 in both scenarios.
        same_position = compile_scenario(
            Scenario(
                name="s2",
                transforms=(TrialWindow(0, 400), overlay),
                seed=9,
            ),
            workload,
        )
        np.testing.assert_array_equal(
            alone.yet.event_ids, same_position.yet.event_ids
        )

    def test_baseline_compiles_to_the_input_objects(self, workload):
        compiled = compile_scenario(Scenario.baseline(), workload)
        assert compiled.yet is workload.yet
        assert compiled.portfolio is workload.portfolio
        assert compiled.perturbed_fraction == 0.0
        assert compiled.touched == ()


class TestUntouchedBytes:
    def test_overlay_preserves_bytes_outside_its_window(self, workload):
        scenario = Scenario(
            name="surge",
            transforms=(
                FrequencyOverlay(
                    families=("NA-*",), factor=2.0, trial_start=100, trial_stop=200
                ),
            ),
            seed=3,
        )
        compiled = compile_scenario(scenario, workload)
        base, new = workload.yet, compiled.yet
        # Prefix trials [0, 100): identical bytes at identical positions.
        lo = int(base.offsets[100])
        np.testing.assert_array_equal(new.event_ids[:lo], base.event_ids[:lo])
        np.testing.assert_array_equal(new.offsets[:101], base.offsets[:101])
        # Suffix trials [200, n): identical bytes, shifted positions, and
        # identical *rebased* offsets (what the segment keys hash).
        b_hi, n_hi = int(base.offsets[200]), int(new.offsets[200])
        np.testing.assert_array_equal(
            new.event_ids[n_hi:], base.event_ids[b_hi:]
        )
        np.testing.assert_array_equal(
            new.offsets[200:] - n_hi, base.offsets[200:] - b_hi
        )

    def test_overlay_preserves_segment_keys_outside_its_window(self, workload):
        scenario = Scenario(
            name="surge",
            transforms=(
                FrequencyOverlay(
                    families=("NA-*",), factor=2.0, trial_start=100, trial_stop=200
                ),
            ),
            seed=3,
        )
        compiled = compile_scenario(scenario, workload)
        for start, stop in [(0, 100), (200, 300), (300, 400)]:
            assert compiled.yet.slice_fingerprint(
                start, stop
            ) == workload.yet.slice_fingerprint(start, stop)
        assert compiled.yet.slice_fingerprint(
            100, 200
        ) != workload.yet.slice_fingerprint(100, 200)


class TestFrequencyResampling:
    def test_expectation_tracks_the_factor(self, workload):
        factor = 1.5
        perils = match_families(workload.catalog, ("NA-*",))
        matched = {p.name for p in perils}
        lo, hi = 0, workload.yet.n_trials
        rng = np.random.default_rng(0)
        new = resample_occurrences(
            workload.yet,
            workload.catalog,
            {p.name: factor for p in perils},
            lo,
            hi,
            rng,
        )
        index = {p.name: i for i, p in enumerate(workload.catalog.perils)}
        starts = np.array(
            [p.first_event_id for p in workload.catalog.perils]
        )

        def count_matched(yet):
            peril_of = np.searchsorted(starts, yet.event_ids, "right") - 1
            return sum(
                int(np.sum(peril_of == index[name])) for name in matched
            )

        before, after = count_matched(workload.yet), count_matched(new)
        assert before > 0
        # Bernoulli thinning around the expectation: generous 10% band.
        assert after == pytest.approx(factor * before, rel=0.1)

    def test_thinning_factor_below_one_removes_occurrences(self, workload):
        perils = match_families(workload.catalog, ("EU-*",))
        rng = np.random.default_rng(0)
        new = resample_occurrences(
            workload.yet,
            workload.catalog,
            {p.name: 0.5 for p in perils},
            0,
            workload.yet.n_trials,
            rng,
        )
        assert new.n_occurrences < workload.yet.n_occurrences

    def test_offsets_stay_consistent(self, workload):
        rng = np.random.default_rng(0)
        new = resample_occurrences(
            workload.yet,
            workload.catalog,
            {workload.catalog.perils[0].name: 2.0},
            50,
            150,
            rng,
        )
        assert new.offsets[0] == 0
        assert int(new.offsets[-1]) == new.event_ids.size
        assert np.all(np.diff(new.offsets) >= 0)
        assert new.n_trials == workload.yet.n_trials

    def test_invalid_window_raises(self, workload):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="window"):
            resample_occurrences(
                workload.yet, workload.catalog, {}, 100, 100, rng
            )
        with pytest.raises(ValueError, match="window"):
            resample_occurrences(
                workload.yet,
                workload.catalog,
                {},
                0,
                workload.yet.n_trials + 1,
                rng,
            )


class TestSeverityScaling:
    def test_matched_losses_scale_and_unmatched_elts_are_shared(self, workload):
        perils = match_families(workload.catalog, ("NA-hurricane",))
        peril = perils[0]
        scaled = scale_severities(workload.portfolio, perils, 2.0)
        shared = scaled_copies = 0
        for elt_id, elt in workload.portfolio.elts.items():
            new_elt = scaled.elts[elt_id]
            mask = (elt.event_ids >= peril.first_event_id) & (
                elt.event_ids <= peril.last_event_id
            )
            if mask.any():
                scaled_copies += 1
                np.testing.assert_allclose(
                    new_elt.losses[mask], elt.losses[mask] * 2.0
                )
                np.testing.assert_array_equal(
                    new_elt.losses[~mask], elt.losses[~mask]
                )
            else:
                shared += 1
                assert new_elt is elt
        assert scaled_copies > 0
        assert len(scaled.layers) == len(workload.portfolio.layers)

    def test_rate_adjustment_multiplies_overlapping_patterns(self, workload):
        """Patterns that both match a peril compound multiplicatively."""
        scenario = Scenario(
            name="compound",
            transforms=(
                RateAdjustment(rates=(("NA-*", 2.0), ("NA-hurricane", 1.5))),
            ),
            seed=0,
        )
        compiled = compile_scenario(scenario, workload)
        # 3.0x hurricane occurrences is deterministic in its integer part;
        # just check activity rose well past the 2.0x-only outcome.
        assert compiled.yet.n_occurrences > workload.yet.n_occurrences


class TestTailSeek:
    def test_selected_trials_have_the_highest_proxy(self, workload):
        perils = match_families(workload.catalog, ("NA-*",))
        proxy = tail_proxy(workload.yet, workload.catalog, perils)
        fraction = 0.25
        selected = select_tail_trials(
            workload.yet, workload.catalog, perils, fraction
        )
        k = selected.n_trials
        assert k == max(1, round(fraction * workload.yet.n_trials))
        kept = np.sort(np.argsort(-proxy, kind="stable")[:k])
        for out_idx, trial in enumerate(kept):
            lo, hi = int(workload.yet.offsets[trial]), int(
                workload.yet.offsets[trial + 1]
            )
            o_lo, o_hi = int(selected.offsets[out_idx]), int(
                selected.offsets[out_idx + 1]
            )
            np.testing.assert_array_equal(
                selected.event_ids[o_lo:o_hi],
                workload.yet.event_ids[lo:hi],
            )

    def test_tail_seek_is_deterministic(self, workload):
        scenario = Scenario(
            name="adversarial", transforms=(TailSeek(fraction=0.1),), seed=0
        )
        a = compile_scenario(scenario, workload)
        b = compile_scenario(scenario, workload)
        np.testing.assert_array_equal(a.yet.event_ids, b.yet.event_ids)
        assert a.yet.n_trials == round(0.1 * workload.yet.n_trials)

    def test_tail_trials_dominate_random_trials(self, workload):
        """The proxy genuinely finds heavy trials: the mean annual loss of
        the seeker's selection beats the overall mean."""
        scenario = Scenario(
            name="adversarial", transforms=(TailSeek(fraction=0.1),), seed=0
        )
        compiled = compile_scenario(scenario, workload)
        tail_losses = _ylt_losses(workload, compiled)
        all_losses = _ylt_losses(
            workload, compile_scenario(Scenario.baseline(), workload)
        )
        assert tail_losses.mean() > all_losses.mean()


class TestTrialWindowTransform:
    def test_window_slices_trials(self, workload):
        compiled = compile_scenario(
            Scenario(name="recent", transforms=(TrialWindow(100, 300),)),
            workload,
        )
        assert compiled.yet.n_trials == 200
        base_lo = int(workload.yet.offsets[100])
        np.testing.assert_array_equal(
            compiled.yet.event_ids,
            workload.yet.event_ids[base_lo : int(workload.yet.offsets[300])],
        )

    def test_window_past_the_end_raises(self, workload):
        with pytest.raises(ValueError):
            compile_scenario(
                Scenario(name="bad", transforms=(TrialWindow(0, 10_000),)),
                workload,
            )
