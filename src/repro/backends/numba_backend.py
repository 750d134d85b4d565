"""Numba backend: the fused ragged hot loop as one ``@njit`` pass.

The numpy oracle's stacked-direct path runs several vectorised stages
per occurrence chunk — row gather, column adds, then (per batch) the
occurrence clamp — each a separate trip through the interpreter with
its own scratch traffic.  This backend collapses them into **one**
``@njit(parallel=True)`` pass over the occurrences: per occurrence it
reads the layer table's net row (``table[eid, :]``, each ELT's terms
already folded in), adds it across ELTs and clamps the sum by the
occurrence terms.  No gathered block is ever materialised.  The
per-trial segment sums and the aggregate clamp then run through the
oracle's own :func:`~repro.core.kernels.segment_sums` and
:func:`~repro.core.terms.apply_aggregate_terms_cumulative`.

Bit-for-bit parity with the oracle is a design goal, not an accident:

* the combined per-occurrence loss accumulates across ELT columns
  *sequentially in the working dtype*, the order of the oracle's column
  adds;
* occurrence retention/limit are pre-cast to the working dtype (what
  NEP-50 weak-scalar promotion does inside the numpy ufunc calls);
* the segment sums are numpy's ``reduceat`` itself, whose float64
  accumulation is pairwise, not sequential, for segments of nine or more
  occurrences.

Parallelism is over independent output slots only, so results are
deterministic for any thread count.  The parity suite still pins the
backend to a tiny tolerance (see :meth:`NumbaBackend.tolerance`) as
policy, and the test suite, which runs without Numba, checks the kernel
bodies as plain Python against the oracle bit for bit.

The module imports cleanly without Numba installed; compilation is
deferred to first dispatch and any failure (missing package, LLVM
mismatch, unsupported signature) is reported once via
:mod:`warnings` and turns every subsequent call into a decline — the
caller's numpy fallback keeps results correct.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from repro.backends.base import KernelBackend


def _build_kernels(njit=None, prange=None):
    """Build and return the kernel pair (raises if Numba is unusable).

    ``njit`` and ``prange`` default to Numba's; passing an identity
    decorator factory and ``range`` runs the same kernel bodies as plain
    Python, which is how the tests check their logic without Numba.
    """
    if njit is None or prange is None:
        from numba import njit, prange  # deferred: optional dependency

    @njit(parallel=True, fastmath=False, cache=False)
    def fused_layer(ids, table, occ_ret, occ_lim, use_occ_lim, zero, out):
        n_elts = table.shape[1]
        for k in prange(ids.shape[0]):
            eid = ids[k]
            comb = zero
            for e in range(n_elts):
                comb = comb + table[eid, e]
            comb = comb - occ_ret
            if comb < zero:
                comb = zero
            if use_occ_lim and comb > occ_lim:
                comb = occ_lim
            out[k] = comb
        return out

    @njit(parallel=True, fastmath=False, cache=False)
    def fill_combined(ids, table, zero, out):
        n_elts = table.shape[1]
        for k in prange(ids.shape[0]):
            eid = ids[k]
            comb = zero
            for e in range(n_elts):
                comb = comb + table[eid, e]
            out[k] = comb
        return out

    return fused_layer, fill_combined


class NumbaBackend(KernelBackend):
    """JIT-compiled fused kernel over the stacked-direct ragged path."""

    name = "numba"
    compiled = True
    priority = 10

    def __init__(self) -> None:
        self._kernels = None
        self._broken: str | None = None

    # ------------------------------------------------------------------
    @classmethod
    def available(cls) -> bool:
        try:
            import numba  # noqa: F401  (availability probe only)
        except Exception:
            return False
        return True

    @classmethod
    def unavailable_reason(cls) -> str | None:
        try:
            import numba  # noqa: F401
        except Exception as exc:
            return f"numba import failed: {exc!r} (pip install 'repro[compiled]')"
        return None

    def tolerance(self, dtype: np.dtype | type):
        # Designed bit-exact (see module docstring); the pinned policy
        # tolerance leaves last-ulp slack per working precision.
        if np.dtype(dtype) == np.float32:
            return (1e-6, 0.0)
        return (1e-12, 0.0)

    # ------------------------------------------------------------------
    def _compiled(self):
        """The kernel pair, compiling on first use; None once broken."""
        if self._broken is not None:
            return None
        if self._kernels is None:
            try:
                self._kernels = _build_kernels()
            except Exception as exc:  # pragma: no cover - env specific
                self._broken = repr(exc)
                warnings.warn(
                    "numba kernel backend failed to compile and is "
                    f"disabled for this process ({self._broken}); "
                    "falling back to the numpy oracle",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return None
        return self._kernels

    def layer_losses(self, event_ids, offsets, stacked, layer_terms):
        kernels = self._compiled()
        if kernels is None:
            return None
        fused_layer, _ = kernels
        work = stacked.dtype
        # Occurrence terms round in the working dtype (the oracle's
        # ufunc calls cast these weak scalars the same way).
        use_occ_lim = math.isfinite(layer_terms.occ_limit)
        combined = np.empty(event_ids.shape[0], dtype=work)
        try:
            fused_layer(
                np.ascontiguousarray(event_ids),
                stacked.raw_table(),
                work.type(layer_terms.occ_retention),
                work.type(layer_terms.occ_limit if use_occ_lim else 0.0),
                use_occ_lim,
                work.type(0.0),
                combined,
            )
        except Exception as exc:  # pragma: no cover - env specific
            self._broken = repr(exc)
            warnings.warn(
                "numba fused kernel raised and is disabled for this "
                f"process ({self._broken}); falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        # Deferred: repro.core.kernels imports the backend registry.
        from repro.core.kernels import segment_sums
        from repro.core.terms import apply_aggregate_terms_cumulative

        totals = segment_sums(combined, offsets)
        return apply_aggregate_terms_cumulative(totals, layer_terms, out=totals)

    def fill_combined(self, event_ids, stacked, out):
        kernels = self._compiled()
        if kernels is None:
            return False
        _, fill = kernels
        try:
            fill(
                np.ascontiguousarray(event_ids),
                stacked.raw_table(),
                stacked.dtype.type(0.0),
                out,
            )
        except Exception as exc:  # pragma: no cover - env specific
            self._broken = repr(exc)
            warnings.warn(
                "numba fill-combined kernel raised and is disabled for "
                f"this process ({self._broken}); falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        return True
