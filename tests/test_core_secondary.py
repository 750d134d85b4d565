"""Tests for secondary uncertainty (the paper's future-work extension)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernels import (
    build_layer_tables,
    combined_occurrence_losses,
    finish_layer_losses,
    layer_trial_batch_ragged,
)
from repro.core.secondary import SecondaryUncertainty, layer_stream_key
from repro.data.layer import LayerTerms


def _draws(su: SecondaryUncertainty, n: int, seed: int = 0) -> np.ndarray:
    """``n`` counter-based multipliers of one stream."""
    return su.multipliers_for_span(seed, 0, n, 1)[0]


class TestSecondaryUncertainty:
    def test_multiplier_mean_is_one(self):
        su = SecondaryUncertainty(4.0, 4.0)
        draws = _draws(su, 200_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_multipliers_nonnegative(self):
        su = SecondaryUncertainty(2.0, 5.0)
        draws = _draws(su, 10_000)
        assert np.all(draws >= 0)

    def test_cv_decreases_with_concentration(self):
        loose = SecondaryUncertainty(2.0, 2.0)
        tight = SecondaryUncertainty(20.0, 20.0)
        assert tight.multiplier_cv < loose.multiplier_cv

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SecondaryUncertainty(alpha=0.0)
        with pytest.raises(ValueError):
            SecondaryUncertainty(beta=-1.0)

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(0.5, 20.0),
        beta=st.floats(0.5, 20.0),
    )
    def test_rescaled_mean_always_one(self, alpha, beta):
        su = SecondaryUncertainty(alpha, beta)
        draws = _draws(su, 50_000)
        assert abs(draws.mean() - 1.0) < 0.05


class TestSecondaryKernel:
    """The kernel with ``secondary=`` (:func:`layer_trial_batch_ragged`)
    over a whole YET; ``seed`` is the run's base secondary seed."""

    def _setup(self, workload):
        layer = workload.portfolio.layers[0]
        lookups, stacked, _ = build_layer_tables(
            workload.portfolio.elts_of(layer),
            workload.catalog.n_events,
            "direct",
            np.float64,
        )
        ids, offs = workload.yet.csr_block(0, workload.yet.n_trials)
        return layer, (ids, offs, lookups), stacked

    def _base(self, layer, inputs, stacked):
        return layer_trial_batch_ragged(
            *inputs, layer.terms, stacked=stacked
        )

    def _secondary(self, layer, inputs, stacked, su, seed, terms=None):
        return layer_trial_batch_ragged(
            *inputs,
            layer.terms if terms is None else terms,
            stacked=stacked,
            secondary=su,
            stream_key=layer_stream_key(seed, layer.layer_id),
        )

    def test_deterministic_given_seed(self, tiny_workload):
        setup = self._setup(tiny_workload)
        su = SecondaryUncertainty()
        a = self._secondary(*setup, su, seed=1)
        b = self._secondary(*setup, su, seed=1)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, tiny_workload):
        setup = self._setup(tiny_workload)
        su = SecondaryUncertainty()
        a = self._secondary(*setup, su, seed=1)
        b = self._secondary(*setup, su, seed=2)
        assert not np.array_equal(a, b)

    def test_mean_preserved_with_identity_layer_terms(
        self, tiny_identity_workload
    ):
        """With linear (identity) terms E[loss] is invariant to mean-1
        multipliers; check the sample mean lands close."""
        setup = self._setup(tiny_identity_workload)
        base = self._base(*setup)
        # Average many independent secondary draws.
        totals = np.zeros_like(base)
        n_draws = 30
        for seed in range(n_draws):
            totals += self._secondary(
                *setup, SecondaryUncertainty(8.0, 8.0), seed=seed
            )
        mean_secondary = totals / n_draws
        # Aggregate over trials: relative error shrinks with pooling.
        assert mean_secondary.sum() == pytest.approx(
            base.sum(), rel=0.05
        )

    def test_tight_uncertainty_converges_to_base(self, tiny_workload):
        setup = self._setup(tiny_workload)
        base = self._base(*setup)
        tight = self._secondary(
            *setup, SecondaryUncertainty(5000.0, 5000.0), seed=3
        )
        # ~1% loss multipliers can be amplified by the retention clamps
        # near thresholds, so compare with a scale-based absolute
        # tolerance rather than purely relative.
        scale = max(base.mean(), 1.0)
        assert np.allclose(tight, base, rtol=0.3, atol=0.05 * scale)
        assert tight.sum() == pytest.approx(base.sum(), rel=0.02)

    def test_rejects_2d_event_ids(self, tiny_workload):
        layer, (_, offs, lookups), stacked = self._setup(tiny_workload)
        with pytest.raises(ValueError):
            layer_trial_batch_ragged(
                np.array([[1, 2]]),
                offs,
                lookups,
                layer.terms,
                stacked=stacked,
                secondary=SecondaryUncertainty(),
            )

    def test_rejects_negative_occ_base(self, tiny_workload):
        layer, (ids, offs, lookups), stacked = self._setup(tiny_workload)
        with pytest.raises(ValueError, match="occ_base"):
            layer_trial_batch_ragged(
                ids,
                offs,
                lookups,
                layer.terms,
                stacked=stacked,
                secondary=SecondaryUncertainty(),
                occ_base=-1,
            )

    def test_batch_entry_is_combine_then_finish(self, tiny_workload):
        """The batch entry adds nothing to its two halves, bit for bit,
        at a nonzero global occurrence origin."""
        layer, (ids, offs, lookups), stacked = self._setup(tiny_workload)
        su = SecondaryUncertainty(2.0, 2.0)
        key = layer_stream_key(7, layer.layer_id)
        fused = layer_trial_batch_ragged(
            ids,
            offs,
            lookups,
            layer.terms,
            stacked=stacked,
            secondary=su,
            stream_key=key,
            occ_base=1000,
        )
        combined = combined_occurrence_losses(
            ids, lookups, stacked, secondary=su, stream_key=key, occ_base=1000
        )
        split = finish_layer_losses(combined, offs, layer.terms)
        np.testing.assert_array_equal(fused, split)

    def test_year_losses_respect_aggregate_limit(self, tiny_workload):
        setup = self._setup(tiny_workload)
        out = self._secondary(
            *setup,
            SecondaryUncertainty(2.0, 2.0),
            seed=5,
            terms=LayerTerms(agg_limit=1e7),
        )
        assert np.all(out <= 1e7 + 1e-6)
