"""The kernel-backend contract and the permanent numpy oracle.

A *kernel backend* is one implementation of the fused ragged hot loop of
:mod:`repro.core.kernels` — net row gather + ELT combine + occurrence
clamp + segment reduction + aggregate clamp — selected
through the registry in :mod:`repro.backends` and dispatched by the plan
executor, so every engine (and the quote service, and every fleet
worker) gains a compiled kernel with zero engine-code changes.

The contract is deliberately *optional* at every point: a backend
implements the cases it can accelerate and returns ``None``/``False``
for everything else, and the dispatch sites in ``core/kernels.py`` fall
back to the vectorised numpy path — which is therefore both the
permanent correctness oracle and the universal fallback.  Concretely,
compiled backends only ever see the stacked-direct, non-secondary path
(one event-major ``(catalog + 1, n_elts)`` net table, CSR ids/offsets);
non-direct lookup kinds and the counter-based secondary streams always
run the oracle, so "fallback" is not an error state but the normal route
for everything outside the hot loop.

Numerics policy
---------------
The numpy path is pinned bit-for-bit by the golden-YLT net.  Compiled
backends replicate its exact operation order — sequential accumulation
of the net row across ELTs in the working dtype (the table already holds
each ELT's terms applied in that dtype), the occurrence clamp in the
working dtype, float64 segment accumulation, float64 aggregate clamp —
so they *target* bit-for-bit equality; :meth:`KernelBackend.tolerance`
declares the pinned tolerance parity tests hold each backend to
(``(0, 0)`` for the oracle itself).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.layer import LayerTerms
    from repro.lookup.combined import StackedDirectTable


class KernelBackend:
    """One implementation of the fused ragged kernel's hot loop.

    Subclass and register with :func:`repro.backends.register_backend`
    to add a backend.  Implement :meth:`layer_losses` (the full fused
    pass, steps 1–4 of Algorithm 1) and — optionally —
    :meth:`fill_combined` (the layer-term-independent prefix, steps 1–2,
    which the quote service caches per ELT set).  Both may decline any
    call by returning ``None``/``False``; the caller then runs the
    numpy oracle path, so a partial backend is always correct.
    """

    #: registry name (the value of ``backend=`` / ``REPRO_KERNEL_BACKEND``)
    name: str = "abstract"
    #: True for backends that JIT/AOT-compile their kernels — the
    #: ``auto`` selector prefers compiled backends when available.
    compiled: bool = False
    #: selection priority under ``auto`` (higher wins among available).
    priority: int = 0

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current process."""
        return True

    @classmethod
    def unavailable_reason(cls) -> str | None:
        """Human-readable reason :meth:`available` is False (or None)."""
        return None

    def tolerance(self, dtype: np.dtype | type) -> Tuple[float, float]:
        """Pinned ``(rtol, atol)`` vs the numpy oracle for ``dtype``.

        Parity tests hold the backend to these; the oracle declares
        ``(0.0, 0.0)`` (bit-for-bit).
        """
        return (0.0, 0.0)

    # ------------------------------------------------------------------
    # The two dispatchable operations
    # ------------------------------------------------------------------
    def layer_losses(
        self,
        event_ids: np.ndarray,
        offsets: np.ndarray,
        stacked: "StackedDirectTable",
        layer_terms: "LayerTerms",
    ) -> np.ndarray | None:
        """Steps 1–4 fused over one CSR trial block (or ``None``).

        Must produce the per-trial year losses as a ``(n_trials,)``
        float64 vector matching the numpy oracle within
        :meth:`tolerance`.  Returning ``None`` declines the call and
        the caller falls back to the oracle path.
        """
        return None

    def fill_combined(
        self,
        event_ids: np.ndarray,
        stacked: "StackedDirectTable",
        out: np.ndarray,
    ) -> bool:
        """Steps 1–2 only: combined per-occurrence losses into ``out``.

        ``out`` is a 1-D slice in the working dtype (= the stacked
        table's dtype).  Return ``True`` when filled, ``False`` to
        decline (caller falls back).
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyBackend(KernelBackend):
    """The oracle: the vectorised numpy path of :mod:`repro.core.kernels`.

    Its :meth:`layer_losses`/:meth:`fill_combined` decline every call on
    purpose — the dispatch sites' fallback *is* the numpy implementation
    (one copy of the oracle code, in ``core/kernels.py``, not two).
    Selecting ``backend="numpy"`` therefore means "run exactly the
    golden-pinned path", which is also what every other backend falls
    back to for the cases it does not implement.
    """

    name = "numpy"
    compiled = False
    priority = 0

    @classmethod
    def available(cls) -> bool:
        return True
