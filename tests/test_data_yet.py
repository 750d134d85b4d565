"""Tests for repro.data.yet (Year Event Table)."""

import dataclasses

import numpy as np
import pytest

import repro.data.yet as yet_module

from repro.data.yet import (
    EVENT_ID_DTYPE,
    OFFSET_DTYPE,
    TIMESTAMP_DTYPE,
    YearEventTable,
)


def make_yet(trials):
    return YearEventTable.from_trials(trials)


def csr_arrays():
    return (
        np.array([4, 5, 6, 7], dtype=EVENT_ID_DTYPE),
        np.array([0.1, 0.2, 0.3, 0.4], dtype=TIMESTAMP_DTYPE),
        np.array([0, 1, 3, 4], dtype=OFFSET_DTYPE),
    )


class TestImmutability:
    def test_table_arrays_and_fields_are_read_only(self):
        yet = YearEventTable(*csr_arrays())
        with pytest.raises(ValueError):
            yet.event_ids[0] = 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            yet.event_ids = np.zeros(4, dtype=EVENT_ID_DTYPE)

    def test_editing_a_writeable_source_leaves_table_and_fingerprint(self):
        ids, times, offsets = csr_arrays()
        yet = YearEventTable(ids, times, offsets)
        before = yet.slice_fingerprint(0, 3)
        ids[1] = 99  # the caller keeps writing its own array
        assert not np.shares_memory(yet.event_ids, ids)
        assert list(yet.event_ids) == [4, 5, 6, 7]
        assert yet.slice_fingerprint(0, 3) == before
        edited = YearEventTable(ids, times, offsets)
        assert edited.slice_fingerprint(0, 3) != before

    def test_read_only_view_of_writeable_memory_is_copied(self):
        ids, times, offsets = csr_arrays()
        view = ids[:]
        view.flags.writeable = False
        yet = YearEventTable(view, times, offsets)
        assert not np.shares_memory(yet.event_ids, ids)

    def test_adopt_seals_fresh_arrays_without_copying(self):
        ids, times, offsets = csr_arrays()
        yet = YearEventTable.adopt(ids, times, offsets)
        assert np.shares_memory(yet.event_ids, ids)
        with pytest.raises(ValueError):
            ids[0] = 1  # the adopted source can no longer change

    def test_library_tables_share_their_parent_memory_only_read_only(self):
        yet = make_yet([[(1, 0.1)], [(2, 0.2), (3, 0.3)], []])
        for table in (yet, yet.slice_trials(0, 2),
                      YearEventTable.concatenate([yet, yet])):
            assert not yet_module._writeable_through(table.event_ids)

    def test_pickled_copy_is_sealed_and_hashes_anew(self):
        import pickle

        yet = YearEventTable(*csr_arrays())
        fingerprint = yet.slice_fingerprint(0, 3)
        copy = pickle.loads(pickle.dumps(yet))
        assert copy._fingerprints == {}
        with pytest.raises(ValueError):
            copy.event_ids[0] = 9
        assert copy.slice_fingerprint(0, 3) == fingerprint

    def test_slice_fingerprint_is_computed_once(self, monkeypatch):
        yet = make_yet([[(1, 0.1)], [(2, 0.2), (3, 0.3)], [(4, 0.4)]])
        calls = []
        real = yet_module.zlib.crc32
        monkeypatch.setattr(
            yet_module.zlib, "crc32", lambda b: calls.append(1) or real(b)
        )
        first = yet.slice_fingerprint(1, 3)
        assert len(calls) == 2  # ids and offsets
        assert yet.slice_fingerprint(1, 3) is first
        assert len(calls) == 2
        # position-free: the same trials elsewhere fingerprint the same
        moved = YearEventTable.concatenate([yet.slice_trials(1, 3), yet])
        assert moved.slice_fingerprint(0, 2) == first


class TestConstruction:
    def test_from_trials_sorts_by_timestamp(self):
        yet = make_yet([[(5, 0.9), (3, 0.1), (7, 0.5)]])
        ids, times = yet.trial(0)
        assert list(ids) == [3, 7, 5]
        assert list(times) == pytest.approx([0.1, 0.5, 0.9], abs=1e-6)

    def test_ragged_trials_supported(self):
        yet = make_yet([[(1, 0.1)], [(2, 0.2), (3, 0.3)], []])
        assert yet.n_trials == 3
        assert list(yet.events_per_trial) == [1, 2, 0]

    def test_dtype_enforcement(self):
        with pytest.raises(TypeError):
            YearEventTable(
                event_ids=np.array([1], dtype=np.int64),  # wrong dtype
                timestamps=np.array([0.1], dtype=TIMESTAMP_DTYPE),
                offsets=np.array([0, 1], dtype=OFFSET_DTYPE),
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            YearEventTable(
                event_ids=np.array([1, 2], dtype=EVENT_ID_DTYPE),
                timestamps=np.array([0.1], dtype=TIMESTAMP_DTYPE),
                offsets=np.array([0, 2], dtype=OFFSET_DTYPE),
            )

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            YearEventTable(
                event_ids=np.array([1], dtype=EVENT_ID_DTYPE),
                timestamps=np.array([0.1], dtype=TIMESTAMP_DTYPE),
                offsets=np.array([1, 1], dtype=OFFSET_DTYPE),  # not 0-based
            )

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(ValueError):
            YearEventTable(
                event_ids=np.array([1, 2], dtype=EVENT_ID_DTYPE),
                timestamps=np.array([0.1, 0.2], dtype=TIMESTAMP_DTYPE),
                offsets=np.array([0, 2, 1, 2], dtype=OFFSET_DTYPE),
            )


class TestAccess:
    def test_trial_views(self):
        yet = make_yet([[(1, 0.1), (2, 0.2)], [(3, 0.3)]])
        ids0, _ = yet.trial(0)
        ids1, _ = yet.trial(1)
        assert list(ids0) == [1, 2]
        assert list(ids1) == [3]

    def test_trial_out_of_range(self):
        yet = make_yet([[(1, 0.1)]])
        with pytest.raises(IndexError):
            yet.trial(1)

    def test_iter_trials(self):
        yet = make_yet([[(1, 0.1)], [(2, 0.2)]])
        collected = [list(ids) for ids, _ in yet.iter_trials()]
        assert collected == [[1], [2]]

    def test_counts(self):
        yet = make_yet([[(1, 0.1), (2, 0.2)], [(3, 0.3)]])
        assert yet.n_trials == 2
        assert yet.n_occurrences == 3
        assert yet.max_events_per_trial == 2

    def test_nbytes_positive(self):
        yet = make_yet([[(1, 0.1)]])
        assert yet.nbytes > 0


class TestSliceTrials:
    def test_slice_preserves_content(self):
        yet = make_yet([[(1, 0.1)], [(2, 0.2), (3, 0.3)], [(4, 0.4)]])
        sub = yet.slice_trials(1, 3)
        assert sub.n_trials == 2
        assert list(sub.trial(0)[0]) == [2, 3]
        assert list(sub.trial(1)[0]) == [4]

    def test_slice_offsets_rebased(self):
        yet = make_yet([[(1, 0.1)], [(2, 0.2)]])
        sub = yet.slice_trials(1, 2)
        assert sub.offsets[0] == 0

    def test_full_slice_roundtrip(self):
        yet = make_yet([[(1, 0.1)], [(2, 0.2)]])
        sub = yet.slice_trials(0, 2)
        assert np.array_equal(sub.event_ids, yet.event_ids)

    def test_invalid_slice(self):
        yet = make_yet([[(1, 0.1)]])
        with pytest.raises(IndexError):
            yet.slice_trials(0, 2)
        with pytest.raises(IndexError):
            yet.slice_trials(-1, 1)


class TestDense:
    def test_from_dense_roundtrip(self):
        yet = make_yet([[(1, 0.1), (2, 0.5)], [(3, 0.3)]])
        # Null ids (0) pad the shorter trial and are dropped.
        rebuilt = YearEventTable.from_dense(
            np.array([[1, 2], [3, 0]], dtype=np.int32)
        )
        assert rebuilt.n_trials == yet.n_trials
        assert np.array_equal(rebuilt.event_ids, yet.event_ids)
        assert np.array_equal(rebuilt.offsets, yet.offsets)

    def test_from_dense_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            YearEventTable.from_dense(np.zeros(3, dtype=np.int32))

    def test_from_dense_with_timestamps_shape_check(self):
        matrix = np.array([[1, 2]], dtype=np.int32)
        with pytest.raises(ValueError):
            YearEventTable.from_dense(matrix, timestamps=np.zeros((2, 2)))


class TestValidation:
    def test_sorted_timestamps_detected(self, tiny_workload):
        assert tiny_workload.yet.validate_sorted_timestamps()

    def test_unsorted_timestamps_detected(self):
        yet = YearEventTable(
            event_ids=np.array([1, 2], dtype=EVENT_ID_DTYPE),
            timestamps=np.array([0.9, 0.1], dtype=TIMESTAMP_DTYPE),
            offsets=np.array([0, 2], dtype=OFFSET_DTYPE),
        )
        assert not yet.validate_sorted_timestamps()

    def test_boundary_decrease_is_allowed(self):
        # Timestamps may reset between trials.
        yet = YearEventTable(
            event_ids=np.array([1, 2], dtype=EVENT_ID_DTYPE),
            timestamps=np.array([0.9, 0.1], dtype=TIMESTAMP_DTYPE),
            offsets=np.array([0, 1, 2], dtype=OFFSET_DTYPE),
        )
        assert yet.validate_sorted_timestamps()
