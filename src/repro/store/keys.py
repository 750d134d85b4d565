"""Content-addressed keys: canonical fingerprints of analysis inputs.

The store's correctness rests on one property: *two keys are equal iff
the stored bytes are interchangeable*.  This module derives keys by
canonically serialising every input that can change a result and
hashing with SHA-256:

* :func:`fingerprint_digest` — deterministic digest of nested Python
  values (ints, floats by bit pattern, strings, tuples, dicts, ...),
  stable across processes and sessions (unlike ``hash()``, which is
  randomised per interpreter);
* :func:`analysis_key` — the whole-analysis key combining the YET and
  per-layer ELT-set content fingerprints of :mod:`repro.plan.cache`,
  the working dtype and the secondary-uncertainty stream identity.  It
  names a *result*, not a schedule: every decomposition of the same
  inputs yields the same YLT bytes, so the plan is not part of it;
* :func:`ylt_digest` — digest of a YLT's exact bytes, used by the
  golden-YLT regression net and the replay benchmark's bit-for-bit
  assertions.

Invalidation is by construction: change any input and the key changes,
so the old entry is simply never looked up again.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from typing import Any, Dict

import numpy as np

from repro.core.kernels import KERNEL_RAGGED, LOOKUP_DIRECT
from repro.data.layer import Layer, Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.plan.cache import elt_set_fingerprint, yet_fingerprint

#: bump when key composition changes (old entries become unreachable,
#: which is the only invalidation this design ever needs).
KEY_SCHEMA = "repro-analysis-v2"

#: schema of per-segment keys (the fleet's unit of stored work).
SEGMENT_SCHEMA = "repro-segment-v1"

#: schema of per-scenario campaign result keys (whole-scenario replay).
SCENARIO_SCHEMA = "repro-scenario-v1"


def canonical_bytes(value: Any) -> bytes:
    """Deterministic, type-tagged serialisation of nested plain values.

    Tags keep distinct types distinct (``1``, ``1.0``, ``"1"`` and
    ``True`` all serialise differently); floats use their IEEE-754 bit
    pattern, so keys distinguish values that ``==`` would conflate
    (``0.0`` vs ``-0.0``) and never depend on repr formatting.
    """
    out = bytearray()
    _serialise(value, out)
    return bytes(out)


def _serialise(value: Any, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, (int, np.integer)):
        payload = str(int(value)).encode("ascii")
        out += b"I" + struct.pack("<I", len(payload)) + payload
    elif isinstance(value, (float, np.floating)):
        out += b"D" + struct.pack("<d", float(value))
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        out += b"S" + struct.pack("<I", len(payload)) + payload
    elif isinstance(value, bytes):
        out += b"B" + struct.pack("<I", len(value)) + value
    elif isinstance(value, (tuple, list)):
        out += b"L" + struct.pack("<I", len(value))
        for item in value:
            _serialise(item, out)
    elif isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        out += b"M" + struct.pack("<I", len(items))
        for key, item in items:
            _serialise(key, out)
            _serialise(item, out)
    else:
        raise TypeError(
            f"cannot canonically serialise {type(value).__name__}: {value!r}"
        )


def fingerprint_digest(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical serialisation of ``parts``."""
    return hashlib.sha256(canonical_bytes(tuple(parts))).hexdigest()


def secondary_fingerprint(secondary, secondary_seed: int) -> tuple | None:
    """Identity of the secondary-uncertainty stream (or ``None``).

    Keyed by the Beta shape parameters and the *resolved* base seed —
    exactly what the counter-based multiplier streams derive from.
    """
    if secondary is None:
        return None
    return (float(secondary.alpha), float(secondary.beta), int(secondary_seed))


def portfolio_fingerprint(portfolio: Portfolio) -> tuple:
    """Content fingerprint of a portfolio: per-layer terms + ELT sets.

    Layer order matters (it fixes YLT row order); within a layer the
    ELT declaration order matters (it fixes the accumulation order of
    the combined loss vector) — both are preserved, not sorted.
    """
    return tuple(
        (
            int(layer.layer_id),
            layer.terms.as_tuple(),
            elt_set_fingerprint(portfolio.elts_of(layer)),
        )
        for layer in portfolio.layers
    )


def analysis_key(
    yet: YearEventTable,
    portfolio: Portfolio,
    dtype: str,
    secondary=None,
    secondary_seed: int = 0,
) -> str:
    """The whole-analysis store key of one result.

    Covers exactly what can change the YLT's bytes: YET content,
    per-layer terms and ELT contents, working precision and the
    secondary stream.  The plan is deliberately absent: the kernel keys
    every draw by global occurrence index and sums each trial in one
    order, so any split of the trials across cores or devices yields
    the same bytes.  So is the engine *name*: engines with identical
    numeric configuration produce bit-identical YLTs and share replays.
    """
    return fingerprint_digest(
        KEY_SCHEMA,
        yet_fingerprint(yet),
        portfolio_fingerprint(portfolio),
        str(np.dtype(dtype).str),
        secondary_fingerprint(secondary, secondary_seed),
    )


def layer_fingerprint(portfolio: Portfolio, layer: Layer) -> tuple:
    """Content fingerprint of one layer: id, terms, and ELT contents."""
    return (
        int(layer.layer_id),
        layer.terms.as_tuple(),
        elt_set_fingerprint(portfolio.elts_of(layer)),
    )


#: canonical bytes of recently keyed layer fingerprints, keyed by the
#: fingerprint's pickle, which (unlike ``==``) tells ``1`` from ``1.0``
#: and ``0.0`` from ``-0.0`` exactly as :func:`canonical_bytes` does
_LAYER_PARTS: Dict[bytes, bytes] = {}
_LAYER_PARTS_MAX = 256


def _layer_part(portfolio: Portfolio, layer: Layer) -> bytes:
    """``canonical_bytes(layer_fingerprint(portfolio, layer))``.

    The fingerprint itself is recomputed on every call (ELTs are not
    frozen, so a layer's content may change under the same object);
    only its serialisation, the costly part, is remembered.
    """
    fingerprint = layer_fingerprint(portfolio, layer)
    memo = pickle.dumps(fingerprint, protocol=pickle.HIGHEST_PROTOCOL)
    part = _LAYER_PARTS.get(memo)
    if part is None:
        part = canonical_bytes(fingerprint)
        if len(_LAYER_PARTS) >= _LAYER_PARTS_MAX:
            _LAYER_PARTS.clear()
        _LAYER_PARTS[memo] = part
    return part


def segment_key(
    yet: YearEventTable,
    portfolio: Portfolio,
    layer_id: int,
    trial_start: int,
    trial_stop: int,
    occ_start: int,
    dtype: str,
    secondary=None,
    secondary_seed: int = 0,
) -> str:
    """The store key of one segment: a (layer, trial-range) of work.

    This is the fleet's unit of memoisation — one
    :class:`~repro.plan.plan.PlanTask` worth of per-trial year losses.
    The key covers the trial slice's *content* (not its position), the
    layer's full numeric identity, and the working precision;
    deterministic configurations therefore share
    segments across sweeps, across portfolio perturbations that leave a
    layer untouched, and across YET extensions that leave a trial range
    untouched.

    Stochastic state re-introduces position exactly where the kernel
    consumes it: secondary draws are keyed by *global occurrence index*
    (``occ_start`` joins the key).  Primary segments carry no position,
    so a repeated block of trials is recognised as the same work
    wherever it lands.  The kernel and layer-table names are constant
    components, so keys match stores written when a second kernel, or
    other layer tables, existed.

    This is the reference composition; :func:`segment_keys` derives a
    whole plan's keys byte-identically in one pass.
    """
    return fingerprint_digest(
        SEGMENT_SCHEMA,
        KERNEL_RAGGED,
        yet.slice_fingerprint(trial_start, trial_stop),
        layer_fingerprint(portfolio, portfolio.layer(layer_id)),
        str(np.dtype(dtype).str),
        LOOKUP_DIRECT,
        _segment_stream(secondary, secondary_seed, occ_start),
    )


def _segment_stream(
    secondary, secondary_seed: int, occ_start: int
) -> tuple | None:
    """The stochastic-stream component of a segment key (``None`` for
    primary segments)."""
    if secondary is None:
        return None
    stream_fp = secondary_fingerprint(secondary, secondary_seed)
    return (KERNEL_RAGGED, stream_fp, int(occ_start))


def segment_keys(
    yet: YearEventTable,
    portfolio: Portfolio,
    tasks,
    dtype: str,
    secondary=None,
    secondary_seed: int = 0,
) -> list:
    """:func:`segment_key` of every task (each a
    :class:`~repro.plan.plan.PlanTask`), in order, in one pass.

    Byte-identical to calling :func:`segment_key` per task, but each
    invariant part of the key tuple (schema, kernel name, dtype, table) is
    serialised once, each layer fingerprint once (and remembered across
    calls, :func:`_layer_part`), and each trial
    range's slice fingerprint once for all layers; the parts are then
    spliced into the encoding :func:`canonical_bytes` gives the whole
    7-tuple.  A sweep's plan derives hundreds of keys from a handful of
    distinct parts, and re-serialising the ~120-value layer fingerprint
    per segment dominated delta planning.
    """
    head = (
        b"L"
        + struct.pack("<I", 7)
        + canonical_bytes(SEGMENT_SCHEMA)
        + canonical_bytes(KERNEL_RAGGED)
    )
    tail = canonical_bytes(str(np.dtype(dtype).str)) + canonical_bytes(
        LOOKUP_DIRECT
    )
    layer_parts: dict = {}
    slice_parts: dict = {}
    keys = []
    for task in tasks:
        layer_part = layer_parts.get(task.layer_id)
        if layer_part is None:
            layer_part = layer_parts[task.layer_id] = _layer_part(
                portfolio, portfolio.layer(task.layer_id)
            )
        span = (task.trial_start, task.trial_stop)
        slice_part = slice_parts.get(span)
        if slice_part is None:
            slice_part = slice_parts[span] = canonical_bytes(
                yet.slice_fingerprint(*span)
            )
        stream = _segment_stream(secondary, secondary_seed, task.occ_start)
        payload = b"".join(
            (head, slice_part, layer_part, tail, canonical_bytes(stream))
        )
        keys.append(hashlib.sha256(payload).hexdigest())
    return keys


def scenario_result_key(
    campaign_fingerprint: str, scenario_fingerprint: str
) -> str:
    """The store key of one scenario's final campaign YLT.

    A level above segment keys: the campaign fingerprint pins the
    baseline inputs + numeric configuration + staging policy, the
    scenario fingerprint pins the perturbation spec + seed.  Re-running
    a campaign replays unchanged scenarios whole — zero plans, zero
    segment probes — while any edit to either side changes the key and
    falls through to the delta-planned sweep.
    """
    return fingerprint_digest(
        SCENARIO_SCHEMA, str(campaign_fingerprint), str(scenario_fingerprint)
    )


def ylt_digest(ylt: YearLossTable) -> str:
    """SHA-256 of a YLT's exact contents (layer ids + loss bytes)."""
    digest = hashlib.sha256()
    digest.update(canonical_bytes(tuple(ylt.layer_ids)))
    digest.update(np.ascontiguousarray(ylt.losses).tobytes())
    return digest.hexdigest()
