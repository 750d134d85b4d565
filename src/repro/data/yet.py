"""Year Event Table (YET): the pre-simulated trial database.

A YET row (a *trial*) is one possible realisation of a contractual year:
an ordered sequence of catastrophe event occurrences
``(event_id, timestamp)`` sorted by ascending timestamp.  The paper's
experiments use 1,000,000 trials of 1,000 events each; real catalogues
produce 800–1500 events per trial, so the storage must handle ragged rows.

Storage layout
--------------
Trials are stored in CSR-like ragged form: one flat ``event_ids`` array,
one flat ``timestamps`` array, and an ``offsets`` array with
``offsets[i]:offsets[i+1]`` delimiting trial ``i``.  This is the layout
streamed to the (simulated) GPU and consumed directly by the kernel and
by every other numeric path: nothing pads trials to a rectangle.
:meth:`YearEventTable.from_dense` still accepts a null-id-padded
rectangular id matrix as input (padding ids are dropped).

A table is immutable: it holds read-only arrays that nothing else can
write (a writeable source is copied; :meth:`YearEventTable.adopt` takes
over freshly built arrays without a copy), so it hashes each trial
range once.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.data.catalog import NULL_EVENT_ID
from repro.utils.validation import check_dtype

EVENT_ID_DTYPE = np.int32
TIMESTAMP_DTYPE = np.float32
OFFSET_DTYPE = np.int64


def _writeable_through(array: np.ndarray) -> bool:
    """Can anything write ``array``'s memory: it or an array it views?"""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return True
        array = array.base
    return False


@dataclass(frozen=True)
class YearEventTable:
    """Ragged table of pre-simulated trials.

    Attributes
    ----------
    event_ids:
        1-D ``int32`` array of all event occurrences, trial-major.
    timestamps:
        1-D ``float32`` array, same length, occurrence time within the year
        in ``[0, 1)``; non-decreasing within each trial.
    offsets:
        1-D ``int64`` array of length ``n_trials + 1``; trial ``i`` occupies
        ``event_ids[offsets[i]:offsets[i+1]]``.
    """

    event_ids: np.ndarray
    timestamps: np.ndarray
    offsets: np.ndarray
    _fingerprints: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("event_ids", "timestamps", "offsets"):
            array = np.ascontiguousarray(getattr(self, name))
            if _writeable_through(array):
                array = array.copy()  # the source may still change
            view = array.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        check_dtype("event_ids", self.event_ids, EVENT_ID_DTYPE)
        check_dtype("timestamps", self.timestamps, TIMESTAMP_DTYPE)
        check_dtype("offsets", self.offsets, OFFSET_DTYPE)
        if self.event_ids.ndim != 1 or self.timestamps.ndim != 1:
            raise ValueError("event_ids and timestamps must be 1-D")
        if self.event_ids.shape != self.timestamps.shape:
            raise ValueError(
                f"event_ids and timestamps length mismatch: "
                f"{self.event_ids.shape} vs {self.timestamps.shape}"
            )
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise ValueError("offsets must be 1-D with at least one entry")
        if self.offsets[0] != 0 or self.offsets[-1] != self.event_ids.size:
            raise ValueError(
                "offsets must start at 0 and end at the total event count"
            )
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def adopt(
        cls,
        event_ids: np.ndarray,
        timestamps: np.ndarray,
        offsets: np.ndarray,
    ) -> "YearEventTable":
        """Build a table that takes over freshly made arrays, uncopied.

        The arrays are marked read-only in place, so the caller must
        hold no other writeable view of them.  The library's own
        constructors (generator, slicing, concatenation, scenario
        compilation, loading) build through here.
        """
        for array in (event_ids, timestamps, offsets):
            array.flags.writeable = False
        return cls(event_ids, timestamps, offsets)

    @classmethod
    def from_trials(
        cls, trials: Sequence[Sequence[Tuple[int, float]]]
    ) -> "YearEventTable":
        """Build from a list of trials of ``(event_id, timestamp)`` pairs.

        Intended for tests and small examples; pairs are sorted by
        timestamp per trial, matching the paper's definition of a trial.
        """
        ids: List[int] = []
        times: List[float] = []
        offsets: List[int] = [0]
        for trial in trials:
            ordered = sorted(trial, key=lambda pair: pair[1])
            for event_id, timestamp in ordered:
                ids.append(event_id)
                times.append(timestamp)
            offsets.append(len(ids))
        return cls.adopt(
            event_ids=np.asarray(ids, dtype=EVENT_ID_DTYPE),
            timestamps=np.asarray(times, dtype=TIMESTAMP_DTYPE),
            offsets=np.asarray(offsets, dtype=OFFSET_DTYPE),
        )

    @classmethod
    def from_dense(
        cls, event_matrix: np.ndarray, timestamps: np.ndarray | None = None
    ) -> "YearEventTable":
        """Build from a rectangular ``(n_trials, n_events)`` id matrix.

        Null-id entries (0) are treated as padding and dropped.  If
        ``timestamps`` is omitted, events are assigned evenly spaced times.
        """
        matrix = np.asarray(event_matrix, dtype=EVENT_ID_DTYPE)
        if matrix.ndim != 2:
            raise ValueError(f"event_matrix must be 2-D, got shape {matrix.shape}")
        n_trials, width = matrix.shape
        if timestamps is None:
            base = ((np.arange(width, dtype=np.float64) + 0.5) / max(width, 1))
            times = np.broadcast_to(base, matrix.shape)
        else:
            times = np.asarray(timestamps, dtype=np.float64)
            if times.shape != matrix.shape:
                raise ValueError("timestamps shape must match event_matrix")
        keep = matrix != NULL_EVENT_ID
        counts = keep.sum(axis=1)
        offsets = np.zeros(n_trials + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        return cls.adopt(
            event_ids=matrix[keep].astype(EVENT_ID_DTYPE),
            timestamps=times[keep].astype(TIMESTAMP_DTYPE),
            offsets=offsets,
        )

    # ------------------------------------------------------------------
    # Shape & access
    # ------------------------------------------------------------------
    @property
    def n_trials(self) -> int:
        return self.offsets.size - 1

    @property
    def n_occurrences(self) -> int:
        """Total event occurrences across all trials."""
        return int(self.event_ids.size)

    @property
    def max_events_per_trial(self) -> int:
        if self.n_trials == 0:
            return 0
        return int(np.diff(self.offsets).max())

    @property
    def events_per_trial(self) -> np.ndarray:
        """1-D ``int64`` array of per-trial occurrence counts."""
        return np.diff(self.offsets)

    def trial(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(event_ids, timestamps)`` views for trial ``i``."""
        if not 0 <= i < self.n_trials:
            raise IndexError(f"trial {i} out of range 0..{self.n_trials - 1}")
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return self.event_ids[lo:hi], self.timestamps[lo:hi]

    def iter_trials(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Iterate over ``(event_ids, timestamps)`` per trial."""
        for i in range(self.n_trials):
            yield self.trial(i)

    def slice_trials(self, start: int, stop: int) -> "YearEventTable":
        """Return a new YET containing trials ``start:stop``.

        This is the decomposition primitive of the multi-GPU engine: the
        trial space is split into contiguous blocks, one per device.
        """
        if not 0 <= start <= stop <= self.n_trials:
            raise IndexError(
                f"invalid trial slice [{start}, {stop}) of {self.n_trials}"
            )
        lo, hi = int(self.offsets[start]), int(self.offsets[stop])
        return YearEventTable.adopt(
            event_ids=self.event_ids[lo:hi].copy(),
            timestamps=self.timestamps[lo:hi].copy(),
            offsets=(self.offsets[start : stop + 1] - lo).astype(OFFSET_DTYPE),
        )

    @property
    def mean_events_per_trial(self) -> float:
        """Average occurrences per trial (the batch autotuner's input)."""
        if self.n_trials == 0:
            return 0.0
        return self.n_occurrences / self.n_trials

    def csr_block(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy CSR view of trials ``[start, stop)``.

        Returns ``(event_ids, offsets)`` where ``event_ids`` is a *view*
        into the flat id array (no copy, unlike :meth:`slice_trials`) and
        ``offsets`` is rebased to start at 0.  This is the unit the fused
        ragged kernel (:mod:`repro.core.kernels`) consumes: the whole
        point of the ragged path is that the trial block is never padded
        to a dense matrix, so handing out views keeps the event-fetch
        step allocation-free.
        """
        if not 0 <= start <= stop <= self.n_trials:
            raise IndexError(
                f"invalid trial slice [{start}, {stop}) of {self.n_trials}"
            )
        lo = int(self.offsets[start])
        return (
            self.event_ids[lo : int(self.offsets[stop])],
            self.offsets[start : stop + 1] - lo,
        )

    def __reduce__(self):
        # unpickled arrays are fresh and writeable: seal them again, and
        # let the copy hash its trial ranges anew
        return (
            YearEventTable.adopt,
            (self.event_ids, self.timestamps, self.offsets),
        )

    def slice_fingerprint(self, start: int, stop: int) -> tuple:
        """Content fingerprint of trials ``[start, stop)``.

        ``(n_trials, n_occurrences, crc32(event_ids), crc32(offsets))``
        of the slice, offsets rebased to it: position-free, so an
        extended table's old trial ranges keep their segment keys (see
        :func:`repro.store.keys.segment_key`).  Computed once per range.
        """
        fingerprint = self._fingerprints.get((start, stop))
        if fingerprint is None:
            ids, offsets = self.csr_block(start, stop)
            fingerprint = self._fingerprints[(start, stop)] = (
                int(stop - start),
                int(ids.size),
                zlib.crc32(ids),
                zlib.crc32(offsets),
            )
        return fingerprint

    @staticmethod
    def concatenate(parts: Sequence["YearEventTable"]) -> "YearEventTable":
        """Stack trial databases end to end (trial order preserved).

        The growing-YET workflow: an extended table's first trials are
        byte-identical to the original's, so content-addressed segment
        keys over the old ranges are preserved and a store-aware delta
        plan re-computes only the appended tail.
        """
        if not parts:
            raise ValueError("cannot concatenate zero YET parts")
        offsets = [parts[0].offsets]
        base = int(parts[0].offsets[-1])
        for part in parts[1:]:
            offsets.append(part.offsets[1:] + base)
            base += int(part.offsets[-1])
        return YearEventTable.adopt(
            event_ids=np.concatenate([p.event_ids for p in parts]),
            timestamps=np.concatenate([p.timestamps for p in parts]),
            offsets=np.concatenate(offsets).astype(OFFSET_DTYPE),
        )

    def validate_sorted_timestamps(self) -> bool:
        """Check timestamps are non-decreasing within every trial."""
        if self.n_occurrences < 2:
            return True
        diffs = np.diff(self.timestamps.astype(np.float64))
        # Boundaries between trials may legitimately decrease.
        boundary = np.zeros(self.n_occurrences - 1, dtype=bool)
        inner_offsets = self.offsets[1:-1]
        boundary[inner_offsets - 1] = True
        return bool(np.all(diffs[~boundary] >= 0))

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the table arrays in bytes."""
        return int(
            self.event_ids.nbytes + self.timestamps.nbytes + self.offsets.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"YearEventTable(n_trials={self.n_trials}, "
            f"n_occurrences={self.n_occurrences}, "
            f"max_events_per_trial={self.max_events_per_trial})"
        )
