"""Optional CuPy backend: the fused ragged pass on a real GPU.

Where :mod:`repro.gpusim` *models* the paper's Tesla M2090s, this
backend runs the stacked-direct hot loop on actual CUDA hardware when
``cupy`` is importable — the same dispatch contract as the Numba
backend, so it is selected with ``backend="cupy"`` /
``REPRO_KERNEL_BACKEND=cupy`` and declines (→ numpy oracle) everywhere
it cannot help.

Numerics: device reductions do not replicate numpy's sequential
accumulation order, so unlike the Numba backend this one does *not*
target bit-for-bit equality; its :meth:`tolerance` is correspondingly
looser.  The implementation mirrors the oracle's operation order
(net row gather → column adds in ELT order → occurrence clamp → float64
segment sums → aggregate clamp) with segment sums via the
cumsum-at-offsets identity (CuPy has no ``add.reduceat``).

Per-call host↔device transfers make this profitable only for large
blocks; it exists primarily as the registry's proof that a third,
non-CPU backend slots in behind the plan layer unchanged, per the
GPU-vs-Phi multi-backend comparison frame in PAPERS.md.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from repro.backends.base import KernelBackend


class CupyBackend(KernelBackend):
    """CUDA execution of the stacked-direct fused pass via CuPy."""

    name = "cupy"
    compiled = True
    # Below numba: per-call H2D/D2H transfers lose on the CPU-sized
    # blocks the executor dispatches, so ``auto`` must not pick this
    # over the JIT CPU kernel; it is an explicit opt-in.
    priority = 5

    def __init__(self) -> None:
        self._table_cache: dict[int, object] = {}
        self._broken: str | None = None

    @classmethod
    def available(cls) -> bool:
        try:
            import cupy

            return cupy.cuda.runtime.getDeviceCount() > 0
        except Exception:
            return False

    @classmethod
    def unavailable_reason(cls) -> str | None:
        try:
            import cupy
        except Exception as exc:
            return f"cupy import failed: {exc!r}"
        try:
            if cupy.cuda.runtime.getDeviceCount() < 1:
                return "cupy importable but no CUDA device present"
        except Exception as exc:  # pragma: no cover - driver specific
            return f"CUDA runtime unavailable: {exc!r}"
        return None

    def tolerance(self, dtype: np.dtype | type):
        if np.dtype(dtype) == np.float32:
            return (1e-4, 0.0)
        return (1e-9, 0.0)

    # ------------------------------------------------------------------
    def _device_table(self, cp, stacked):
        """The net layer table uploaded once per (process, table) pair."""
        key = id(stacked)
        table = self._table_cache.get(key)
        if table is None:
            table = cp.asarray(stacked.raw_table())
            self._table_cache[key] = table
        return table

    def _combined(self, cp, event_ids, stacked):
        table = self._device_table(cp, stacked)
        rows = cp.take(table, cp.asarray(event_ids), axis=0)
        # Columns added in ELT order, the oracle's order.
        combined = rows[:, 0].copy()
        for col in range(1, rows.shape[1]):
            combined += rows[:, col]
        return combined

    def layer_losses(self, event_ids, offsets, stacked, layer_terms):
        if self._broken is not None:
            return None
        try:
            import cupy as cp

            combined = self._combined(cp, event_ids, stacked)
            combined -= stacked.dtype.type(layer_terms.occ_retention)
            cp.maximum(combined, 0.0, out=combined)
            if math.isfinite(layer_terms.occ_limit):
                cp.minimum(
                    combined,
                    stacked.dtype.type(layer_terms.occ_limit),
                    out=combined,
                )
            # Segment sums via the cumsum identity: sum of values in
            # [start, stop) = csum[stop] - csum[start] with csum[0] = 0.
            csum = cp.zeros(combined.size + 1, dtype=cp.float64)
            cp.cumsum(combined, dtype=cp.float64, out=csum[1:])
            offs = cp.asarray(offsets)
            totals = csum[offs[1:]] - csum[offs[:-1]]
            totals -= float(layer_terms.agg_retention)
            cp.maximum(totals, 0.0, out=totals)
            if math.isfinite(layer_terms.agg_limit):
                cp.minimum(totals, float(layer_terms.agg_limit), out=totals)
            return cp.asnumpy(totals)
        except Exception as exc:  # pragma: no cover - needs CUDA
            self._broken = repr(exc)
            warnings.warn(
                "cupy backend raised and is disabled for this process "
                f"({self._broken}); falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def fill_combined(self, event_ids, stacked, out):
        if self._broken is not None:
            return False
        try:
            import cupy as cp

            out[:] = cp.asnumpy(self._combined(cp, event_ids, stacked))
            return True
        except Exception as exc:  # pragma: no cover - needs CUDA
            self._broken = repr(exc)
            warnings.warn(
                "cupy backend raised and is disabled for this process "
                f"({self._broken}); falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
