"""Segment-level result assembly: stored pieces → one exact YLT.

The assembler is the read side of a fleet sweep: given a sweep's
segment records (from a manifest or a
:class:`~repro.plan.delta.DeltaPlan`), it pulls each segment's stored
per-trial losses and writes them into the output rows at the segment's
global trial range — the same slot-assignment rule every executor uses,
so the assembled :class:`~repro.data.ylt.YearLossTable` is bit-for-bit
identical to a monolithic run (segments store the exact ``float64``
bytes a monolithic executor would have written; assembly is pure
placement, no arithmetic).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.data.ylt import YearLossTable
from repro.plan.delta import DeltaPlan
from repro.store.base import BATCH_KEYS, ResultStore, StoreEntry
from repro.store.verify import fetch_verified, verify_entry
from repro.utils.retry import STORE_FETCH_POLICY, RetryPolicy


class FleetAssemblyError(RuntimeError):
    """A sweep cannot be assembled (segments missing or inconsistent)."""


#: the assembler's segment view: (key, layer_id, trial_start, trial_stop)
SegmentSpec = Tuple[str, int, int, int]


def _segment_specs(source) -> List[SegmentSpec]:
    """Normalise a DeltaPlan / manifest / iterable into segment specs."""
    if isinstance(source, DeltaPlan):
        return [
            (r.key, r.task.layer_id, r.task.trial_start, r.task.trial_stop)
            for r in source.segments
        ]
    if isinstance(source, Mapping):  # a sweep manifest
        return [
            (
                str(seg["key"]),
                int(seg["layer_id"]),
                int(seg["trial_start"]),
                int(seg["trial_stop"]),
            )
            for seg in source["segments"]
        ]
    return [
        (str(key), int(layer_id), int(start), int(stop))
        for key, layer_id, start, stop in source
    ]


def _tiled_rows(
    spans: List[Tuple[int, int, int]], n_trials: int, what: str
) -> Dict[int, np.ndarray]:
    """An empty output row per layer, once the ``(layer_id, start,
    stop)`` spans (sorted by layer, then start) are checked to tile
    every layer's ``[0, n_trials)`` exactly once; a gap, overlap or
    short layer raises :class:`FleetAssemblyError` naming it."""
    covered: Dict[int, int] = {}
    for layer_id, start, stop in spans:
        if start != covered.get(layer_id, 0) or stop > n_trials:
            raise FleetAssemblyError(
                f"layer {layer_id}: {what} coverage breaks at trial "
                f"{covered.get(layer_id, 0)} (next {what} spans "
                f"[{start}, {stop}) of {n_trials})"
            )
        covered[layer_id] = stop
    for layer_id, stop in covered.items():
        if stop != n_trials:
            raise FleetAssemblyError(
                f"layer {layer_id} covered only [0, {stop}) of "
                f"[0, {n_trials})"
            )
    return {
        layer_id: np.empty(n_trials, dtype=np.float64) for layer_id in covered
    }


class ResultAssembler:
    """Merge stored per-segment losses into the final YLT.

    Segments are read a chunk at a time with ``get_many``, and every
    entry is checked with :func:`~repro.store.verify.verify_entry`.
    Anything short of a verified entry is fetched again by
    :func:`~repro.store.verify.fetch_verified`: transient read errors
    and transient corruption are retried under ``retry_policy``, and a
    durably damaged entry is deleted from the store and reported as
    *missing* — so the caller's normal recovery path (requeue the
    missing segments, recompute, gather again) also heals corruption.
    """

    def __init__(
        self,
        store: ResultStore,
        retry_policy: RetryPolicy = STORE_FETCH_POLICY,
    ) -> None:
        self.store = store
        self.retry_policy = retry_policy

    # ------------------------------------------------------------------
    def missing_keys(self, source) -> List[str]:
        """Segment keys the store cannot currently serve."""
        keys = [key for key, *_ in _segment_specs(source)]
        found = self.store.contains_many(keys)
        return [key for key, hit in zip(keys, found) if not hit]

    def _fetch(self, keys: List[str]) -> Iterator[Optional[StoreEntry]]:
        """Verified entries for ``keys`` in order (``None`` = missing).

        Reads :data:`~repro.store.base.BATCH_KEYS` keys per
        ``get_many`` — one round trip per chunk on a remote store.  An
        entry that is missing or fails
        :func:`~repro.store.verify.verify_entry`, or whose chunk read
        raised, is fetched again by
        :func:`~repro.store.verify.fetch_verified`, which keeps the
        per-key retry, delete and ``note_corrupt`` behaviour.
        """
        for start in range(0, len(keys), BATCH_KEYS):
            chunk = keys[start : start + BATCH_KEYS]
            try:
                entries = self.store.get_many(chunk)
            except OSError:
                entries = [None] * len(chunk)
            for key, entry in zip(chunk, entries):
                if entry is None or not verify_entry(entry):
                    entry = fetch_verified(
                        self.store, key, policy=self.retry_policy
                    )
                yield entry

    def assemble(
        self,
        source: "DeltaPlan | Mapping[str, Any] | Iterable[SegmentSpec]",
        n_trials: int | None = None,
    ) -> YearLossTable:
        """Build the YLT from stored segments.

        ``source`` is a :class:`~repro.plan.delta.DeltaPlan`, a sweep
        manifest dict, or an iterable of ``(key, layer_id, trial_start,
        trial_stop)`` tuples.  Every layer's segments must tile
        ``[0, n_trials)`` exactly once (``n_trials`` is inferred from
        the source when omitted) and every key must be retrievable —
        anything else raises :class:`FleetAssemblyError` naming the
        problem, because a partially assembled YLT is a wrong answer,
        not a degraded one.
        """
        specs = _segment_specs(source)
        if not specs:
            raise FleetAssemblyError("no segments to assemble")
        if n_trials is None:
            if isinstance(source, DeltaPlan):
                n_trials = source.plan.n_trials
            elif isinstance(source, Mapping):
                n_trials = int(source["n_trials"])
            else:
                n_trials = max(stop for _, _, _, stop in specs)

        specs.sort(key=lambda s: (s[1], s[2]))
        per_layer = _tiled_rows(
            [spec[1:] for spec in specs], n_trials, "segment"
        )
        missing: List[str] = []
        fetched = self._fetch([key for key, *_ in specs])
        for (key, layer_id, start, stop), entry in zip(specs, fetched):
            if entry is None:
                missing.append(key)
                continue
            losses = entry.arrays["losses"]
            if losses.shape != (stop - start,):
                raise FleetAssemblyError(
                    f"segment {key[:16]}… of layer {layer_id} holds "
                    f"{losses.shape} losses for trials [{start}, {stop})"
                )
            per_layer[layer_id][start:stop] = losses
        if missing:
            raise FleetAssemblyError(
                f"{len(missing)} segment(s) not in store "
                f"(first: {missing[0]}) — run workers (or requeue) before "
                "gathering"
            )
        return YearLossTable.from_dict(per_layer)

    def assemble_partials(
        self, manifest: Mapping[str, Any], n_trials: int | None = None
    ) -> YearLossTable:
        """Build the YLT from a sweep's partial-YLT entries.

        The partition/shuffle read path: fetch the ``P`` partition
        entries named by ``manifest["partitions"]`` (instead of the
        ``S`` member segments), unpack each partial's blocks and place
        them by global trial index — ``P`` entries, read in
        ``⌈P/BATCH_KEYS⌉`` ``get_many`` calls, for the whole sweep.
        Coverage and placement rules are identical to :meth:`assemble`,
        and since partials concatenate the exact segment bytes, so is
        the assembled YLT.

        Raises :class:`FleetAssemblyError` when the manifest has no
        partitions or any partial is missing/damaged — callers fall
        back to per-segment assembly (which can heal by recompute).
        """
        from repro.fleet.partition import partial_blocks  # deferred

        partitions = manifest.get("partitions")
        if not partitions:
            raise FleetAssemblyError(
                "manifest has no partitions — submitted without "
                "partition/shuffle mode"
            )
        if n_trials is None:
            n_trials = int(manifest["n_trials"])

        blocks: List[Tuple[int, int, int, np.ndarray]] = []
        missing: List[str] = []
        keys = [str(partition["key"]) for partition in partitions]
        for key, entry in zip(keys, self._fetch(keys)):
            if entry is None:
                missing.append(key)
                continue
            try:
                blocks.extend(partial_blocks(entry))
            except ValueError as exc:
                raise FleetAssemblyError(
                    f"partial {key[:16]}… is internally inconsistent: {exc}"
                ) from exc
        if missing:
            raise FleetAssemblyError(
                f"{len(missing)} partial(s) not in store "
                f"(first: {missing[0]}) — run reduce workers before "
                "gathering"
            )

        blocks.sort(key=lambda b: (b[0], b[1]))
        per_layer = _tiled_rows([b[:3] for b in blocks], n_trials, "partial")
        for layer_id, start, stop, losses in blocks:
            per_layer[layer_id][start:stop] = losses
        return YearLossTable.from_dict(per_layer)
