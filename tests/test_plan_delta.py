"""Delta-planning determinism: the store-aware planner's contract.

A ``plan_missing`` delta over any input set must be (a) coverage-valid
— stored and missing segments together tile every layer exactly once;
(b) fingerprint-stable — identical inputs and store state produce an
identical delta, run to run and process to process; (c) disjoint from
the store — a segment is missing iff its key is absent; and (d)
perturbation-local — changing part of the input invalidates only the
segments that actually read the changed bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.secondary import SecondaryUncertainty
from repro.data.layer import Layer, Portfolio
from repro.data.yet import YearEventTable
from repro.engines.registry import create_engine
from repro.plan import DeltaPlan, EngineCapabilities, Planner, SegmentRecord
from repro.plan.execute import execute_segment_cpu
from repro.store import MemoryStore, StoreEntry, segment_key


@pytest.fixture()
def caps():
    return EngineCapabilities(engine="test", dtype="<f8")


def store_segments(workload, delta, store, records):
    """Compute and store the given segment records."""
    for record in records:
        losses = execute_segment_cpu(
            workload.yet,
            workload.portfolio,
            workload.catalog.n_events,
            record.task,
        )
        store.put(record.key, StoreEntry(arrays={"losses": losses}))


class TestPlanSegments:
    def test_fixed_stride_boundaries(self, small_workload, caps):
        plan = Planner().plan_segments(
            small_workload.yet, small_workload.portfolio, caps,
            segment_trials=250,
        )
        starts = [t.trial_start for t in plan.tasks]
        stops = [t.trial_stop for t in plan.tasks]
        assert starts == [0, 250, 500]
        assert stops == [250, 500, 600]
        plan.validate_coverage()

    def test_stride_must_be_positive(self, small_workload, caps):
        with pytest.raises(ValueError):
            Planner().plan_segments(
                small_workload.yet, small_workload.portfolio, caps,
                segment_trials=0,
            )

    def test_segment_plan_executes_bit_identically(self, small_workload):
        """A fixed-stride plan run monolithically equals the native
        plan's result (the kernel is decomposition-invariant)."""
        from repro.store import ylt_digest

        engine = create_engine("sequential")
        native = engine.run(
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
        )
        seg_plan = Planner().plan_segments(
            small_workload.yet,
            small_workload.portfolio,
            engine.capabilities(),
            segment_trials=130,
        )
        via_segments = engine.run(
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            plan=seg_plan,
        )
        assert ylt_digest(native.ylt) == ylt_digest(via_segments.ylt)


class TestDeterminism:
    def test_identical_inputs_identical_fingerprint(
        self, small_workload, caps
    ):
        planner = Planner()
        args = (small_workload.yet, small_workload.portfolio, caps)
        a = planner.plan_missing(*args, MemoryStore(), segment_trials=200)
        b = planner.plan_missing(*args, MemoryStore(), segment_trials=200)
        assert a.fingerprint() == b.fingerprint()
        assert a.keys() == b.keys()

    def test_fingerprint_is_computed_once(
        self, small_workload, caps, monkeypatch
    ):
        import repro.store.keys as keys_mod

        delta = Planner().plan_missing(
            small_workload.yet, small_workload.portfolio, caps,
            MemoryStore(), segment_trials=200,
        )
        first = delta.fingerprint()
        monkeypatch.setattr(keys_mod, "fingerprint_digest", None)
        assert delta.fingerprint() == first
        assert delta.summary()["fingerprint"] == first

    def test_store_state_is_part_of_the_fingerprint(
        self, small_workload, caps
    ):
        planner = Planner()
        store = MemoryStore()
        cold = planner.plan_missing(
            small_workload.yet, small_workload.portfolio, caps, store,
            segment_trials=200,
        )
        store_segments(small_workload, cold, store, cold.segments[:1])
        warm = planner.plan_missing(
            small_workload.yet, small_workload.portfolio, caps, store,
            segment_trials=200,
        )
        assert warm.keys() == cold.keys()  # same decomposition
        assert warm.fingerprint() != cold.fingerprint()  # different verdicts

    def test_coverage_validated_and_disjoint(self, small_workload, caps):
        planner = Planner()
        store = MemoryStore()
        cold = planner.plan_missing(
            small_workload.yet, small_workload.portfolio, caps, store,
            segment_trials=150,
        )
        store_segments(small_workload, cold, store, cold.segments[:2])
        delta = planner.plan_missing(
            small_workload.yet, small_workload.portfolio, caps, store,
            segment_trials=150,
        )
        delta.validate_coverage()
        stored_keys = {r.key for r in delta.stored}
        missing_keys = {r.key for r in delta.missing}
        assert stored_keys == {r.key for r in cold.segments[:2]}
        assert not (stored_keys & missing_keys)
        # stored + missing partition the full plan
        assert delta.n_stored + delta.n_missing == delta.n_segments
        missing_plan = delta.missing_plan()
        assert [t.task_id for t in missing_plan.tasks] == [
            r.task.task_id for r in delta.missing
        ]
        assert missing_plan.meta["delta_of"] == delta.plan.fingerprint()

    def test_mismatched_records_rejected(self, small_workload, caps):
        planner = Planner()
        a = planner.plan_missing(
            small_workload.yet, small_workload.portfolio, caps,
            MemoryStore(), segment_trials=150,
        )
        b = planner.plan_missing(
            small_workload.yet, small_workload.portfolio, caps,
            MemoryStore(), segment_trials=300,
        )
        with pytest.raises(ValueError):
            DeltaPlan(plan=a.plan, segments=b.segments).validate_coverage()


class TestPerturbationLocality:
    def test_extended_yet_preserves_prefix_keys(self, small_workload, caps):
        planner = Planner()
        base = planner.plan_missing(
            small_workload.yet, small_workload.portfolio, caps, None,
            segment_trials=150,
        )
        tail = small_workload.yet.slice_trials(300, 600)
        extended_yet = YearEventTable.concatenate(
            [small_workload.yet, tail]
        )
        extended = planner.plan_missing(
            extended_yet, small_workload.portfolio, caps, None,
            segment_trials=150,
        )
        # the original's four whole segments all keep their keys
        assert set(base.keys()) <= set(extended.keys())

    def test_identical_trial_blocks_share_keys(self, small_workload, caps):
        """Primary segment keys are position-free: a repeated block of
        trials is recognised as the same work wherever it lands."""
        doubled = YearEventTable.concatenate(
            [small_workload.yet, small_workload.yet]
        )
        delta = Planner().plan_missing(
            doubled, small_workload.portfolio, caps, None,
            segment_trials=600,
        )
        keys = delta.keys()
        assert len(keys) == 2
        assert keys[0] == keys[1]

    def test_secondary_keys_are_position_bound(self, small_workload):
        """Ragged secondary draws are keyed by global occurrence index,
        so the same trial block at a different position is *different*
        work — the key must say so."""
        caps = EngineCapabilities(
            engine="test", dtype="<f8", secondary=True
        )
        doubled = YearEventTable.concatenate(
            [small_workload.yet, small_workload.yet]
        )
        delta = Planner().plan_missing(
            doubled,
            small_workload.portfolio,
            caps,
            None,
            secondary=SecondaryUncertainty(4.0, 4.0),
            secondary_seed=7,
            segment_trials=600,
        )
        keys = delta.keys()
        assert len(keys) == 2
        assert keys[0] != keys[1]

    def test_changed_terms_change_only_that_layers_keys(
        self, multilayer_workload, caps
    ):
        planner = Planner()
        book = multilayer_workload.portfolio
        base = planner.plan_missing(
            multilayer_workload.yet, book, caps, None, segment_trials=200
        )
        changed = Portfolio(elts=dict(book.elts))
        target = book.layers[1].layer_id
        for layer in book.layers:
            terms = layer.terms
            if layer.layer_id == target:
                terms = type(terms)(
                    occ_retention=terms.occ_retention + 1.0,
                    occ_limit=terms.occ_limit,
                    agg_retention=terms.agg_retention,
                    agg_limit=terms.agg_limit,
                )
            changed.add_layer(
                Layer(
                    layer_id=layer.layer_id,
                    elt_ids=layer.elt_ids,
                    terms=terms,
                )
            )
        perturbed = planner.plan_missing(
            multilayer_workload.yet, changed, caps, None,
            segment_trials=200,
        )
        for old, new in zip(base.segments, perturbed.segments):
            if old.task.layer_id == target:
                assert old.key != new.key
            else:
                assert old.key == new.key

    def test_dtype_separates_keys(self, small_workload):
        variants = [
            EngineCapabilities(engine="t", dtype="<f8"),
            EngineCapabilities(engine="t", dtype="<f4"),
        ]
        keysets = []
        for caps in variants:
            delta = Planner().plan_missing(
                small_workload.yet, small_workload.portfolio, caps, None,
                segment_trials=300,
            )
            keysets.append(set(delta.keys()))
        assert not (keysets[0] & keysets[1])


class TestStoredSegmentsAreTheAnswer:
    def test_stored_bytes_equal_monolithic_slice(self, small_workload, caps):
        """What plan_missing marks as stored is byte-for-byte the slice
        a monolithic run writes for that range — the property that lets
        the assembler mix stored and fresh segments freely."""
        planner = Planner()
        store = MemoryStore()
        delta = planner.plan_missing(
            small_workload.yet, small_workload.portfolio, caps, store,
            segment_trials=220,
        )
        store_segments(small_workload, delta, store, delta.segments)
        mono = create_engine("sequential").run(
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
        )
        for record in delta.segments:
            entry = store.get(record.key)
            expected = mono.ylt.layer_losses(record.task.layer_id)[
                record.task.trial_start : record.task.trial_stop
            ]
            assert np.array_equal(entry.arrays["losses"], expected)


class TestSegmentKeysFastPath:
    """``plan_missing`` derives keys in one pass (``segment_keys``); they
    must be byte-identical to the reference :func:`segment_key`."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_trials=st.integers(1, 600),
        secondary=st.booleans(),
        stride=st.one_of(st.none(), st.integers(1, 700)),
        n_slots=st.integers(1, 5),
        batch_trials=st.one_of(st.none(), st.integers(1, 300)),
        seed=st.integers(0, 2**31 - 1),
        dtype=st.sampled_from(["<f8", "<f4"]),
    )
    def test_keys_equal_segment_key(
        self,
        multilayer_workload,
        n_trials,
        secondary,
        stride,
        n_slots,
        batch_trials,
        seed,
        dtype,
    ):
        yet = multilayer_workload.yet.slice_trials(0, n_trials)
        book = multilayer_workload.portfolio
        caps = EngineCapabilities(
            engine="test",
            n_slots=n_slots,
            batch_trials=batch_trials,
            dtype=dtype,
        )
        shared = dict(
            secondary=SecondaryUncertainty(4.0, 4.0) if secondary else None,
            secondary_seed=seed,
        )
        delta = Planner().plan_missing(
            yet, book, caps, None, segment_trials=stride, **shared
        )
        for record in delta.segments:
            task = record.task
            assert record.key == segment_key(
                yet,
                book,
                task.layer_id,
                task.trial_start,
                task.trial_stop,
                task.occ_start,
                dtype=dtype,
                **shared,
            )

    @pytest.mark.parametrize("retention, other", [(1, 1.0), (0.0, -0.0)])
    def test_remembered_layer_parts_tell_equal_values_apart(
        self, small_workload, retention, other
    ):
        """Terms that compare equal but serialise differently (``1`` and
        ``1.0``, ``0.0`` and ``-0.0``) key differently, each exactly as
        :func:`segment_key` does, in either order and on a repeat, and
        terms replaced on the same layer object re-key it."""
        from repro.data.layer import LayerTerms
        from repro.store.keys import segment_keys

        yet = small_workload.yet
        (original,) = small_workload.portfolio.layers
        layer = Layer(original.layer_id, original.elt_ids)
        book = Portfolio(elts=dict(small_workload.portfolio.elts), layers=[layer])
        delta = Planner().plan_missing(
            yet, book, EngineCapabilities(engine="test"), None, segment_trials=200
        )
        tasks = [record.task for record in delta.segments]
        seen = []
        for value in (retention, other, retention):
            layer.terms = LayerTerms(occ_retention=value)
            keys = segment_keys(yet, book, tasks, "<f8")
            assert keys == [
                segment_key(
                    yet,
                    book,
                    task.layer_id,
                    task.trial_start,
                    task.trial_stop,
                    task.occ_start,
                    dtype="<f8",
                )
                for task in tasks
            ]
            seen.append(keys)
        assert seen[0] != seen[1] and seen[0] == seen[2]
