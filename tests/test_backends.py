"""Kernel-backend registry: resolution, dispatch, fallback, parity.

The backend contract (`repro/backends`) is pinned from both sides:

* **Resolution** — precedence (instance > explicit name >
  ``REPRO_KERNEL_BACKEND`` > numpy), ``auto`` selection, loud-but-safe
  fallback for unavailable/misspelled backends.
* **Dispatch** — compiled backends are consulted only on the
  stacked-direct, non-secondary path with a matching working dtype
  (the float32 contract); everything else runs the numpy oracle.
* **Parity** — a registered numpy-implemented double
  (:class:`TracingBackend`) proves the dispatch seam is bit-transparent
  across engines, the quote service and mixed-backend fleets, without
  needing numba installed.  When numba *is* installed (the
  ``compiled-bench`` CI job), :class:`TestNumbaParity` holds the real
  compiled kernel to its pinned tolerances.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest

import repro.backends as backends_mod
from repro.backends import (
    KERNEL_BACKEND_ENV,
    CupyBackend,
    KernelBackend,
    NumbaBackend,
    NumpyBackend,
    active_backend_name,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.core.analysis import AggregateRiskAnalysis
from repro.core.kernels import (
    build_layer_tables,
    combined_occurrence_losses,
    layer_trial_batch_ragged,
)
from repro.core.secondary import SecondaryUncertainty
from repro.data.layer import LayerTerms
from repro.engines.registry import create_engine
from repro.fleet import (
    JobQueue,
    context_for_engine,
    gather_sweep,
    run_workers,
    submit_sweep,
)
from repro.pricing import QuoteService
from repro.store import MemoryStore, ylt_digest

SECONDARY_SEED = 20130812


class TracingBackend(KernelBackend):
    """A 'compiled' double implemented *with* the oracle.

    It accepts every dispatchable call (counting them) and computes the
    answer by recursing into the kernel entry points with
    ``backend="numpy"`` — so results must be bit-identical to the
    oracle, and the call counters expose exactly which routes dispatch.
    """

    name = "tracing"
    compiled = True
    priority = 99

    layer_calls = 0
    fill_calls = 0

    @classmethod
    def reset(cls) -> None:
        cls.layer_calls = 0
        cls.fill_calls = 0

    def layer_losses(self, event_ids, offsets, stacked, layer_terms):
        type(self).layer_calls += 1
        return layer_trial_batch_ragged(
            event_ids,
            offsets,
            None,
            layer_terms,
            stacked=stacked,
            dtype=stacked.dtype,
            backend="numpy",
        )

    def fill_combined(self, event_ids, stacked, out):
        type(self).fill_calls += 1
        combined_occurrence_losses(
            event_ids,
            None,
            stacked=stacked,
            dtype=out.dtype,
            out=out,
            backend="numpy",
        )
        return True


@pytest.fixture(autouse=True)
def clean_backend_env(monkeypatch):
    """No ambient env selection may leak into (or out of) these tests."""
    monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)


@pytest.fixture()
def tracing_backend():
    register_backend(TracingBackend, replace=True)
    TracingBackend.reset()
    yield get_backend("tracing")
    unregister_backend("tracing")


@pytest.fixture()
def fresh_announcements():
    """Reset the warn-once memory so fallback warnings are observable."""
    backends_mod._ANNOUNCED.clear()
    yield
    backends_mod._ANNOUNCED.clear()


def analysis_for(workload, **opts):
    return AggregateRiskAnalysis(
        workload.portfolio, workload.catalog.n_events, **opts
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert {"numpy", "numba", "cupy"} <= set(backend_names())

    def test_numpy_always_available_and_default(self):
        assert "numpy" in available_backends()
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("numpy") is get_backend("numpy")

    def test_instances_memoised(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_get_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("no-such-backend")

    def test_duplicate_name_raises_unless_replace(self, tracing_backend):
        class Clash(KernelBackend):
            name = "tracing"

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Clash)
        register_backend(Clash, replace=True)
        assert isinstance(get_backend("tracing"), Clash)
        register_backend(TracingBackend, replace=True)

    def test_unregister_unknown_is_noop(self):
        unregister_backend("no-such-backend")

    def test_available_sorted_best_first(self, tracing_backend):
        names = available_backends()
        assert names[0] == "tracing"  # priority 99 beats everything
        assert names[-1] == "numpy"  # priority 0 sorts last


# ----------------------------------------------------------------------
# Resolution precedence and fallback
# ----------------------------------------------------------------------
class TestResolution:
    def test_instance_passes_through(self):
        inst = NumpyBackend()
        assert resolve_backend(inst) is inst

    def test_explicit_name(self, tracing_backend):
        assert resolve_backend("tracing") is tracing_backend

    def test_env_var_selects(self, monkeypatch, tracing_backend):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "tracing")
        assert resolve_backend(None).name == "tracing"
        assert active_backend_name() == "tracing"

    def test_explicit_beats_env(self, monkeypatch, tracing_backend):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "tracing")
        assert resolve_backend("numpy").name == "numpy"

    def test_auto_picks_best_available(self, tracing_backend):
        assert resolve_backend("auto").name == "tracing"

    def test_auto_matches_available_ranking(self):
        # Environment-agnostic: with numba installed auto is "numba",
        # without it "numpy" — either way it is the ranking's head.
        assert resolve_backend("auto").name == available_backends()[0]

    def test_unknown_explicit_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("no-such-backend")

    def test_unknown_env_name_warns_and_falls_back(
        self, monkeypatch, fresh_announcements
    ):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "no-such-backend")
        with pytest.warns(RuntimeWarning, match="unknown kernel backend"):
            assert resolve_backend(None).name == "numpy"

    def test_unavailable_backend_warns_once_and_falls_back(
        self, monkeypatch, fresh_announcements
    ):
        # Break the import probe regardless of whether numba is
        # installed: None in sys.modules makes `import numba` raise.
        monkeypatch.setitem(sys.modules, "numba", None)
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            assert resolve_backend("numba").name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert resolve_backend("numba").name == "numpy"

    def test_unavailable_reason_mentions_install_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numba", None)
        assert not NumbaBackend.available()
        assert "repro[compiled]" in NumbaBackend.unavailable_reason()

    def test_cupy_unavailable_here_is_honest(self):
        if CupyBackend.available():
            pytest.skip("cupy installed: nothing to assert about absence")
        assert CupyBackend.unavailable_reason() is not None


# ----------------------------------------------------------------------
# Dispatch seam: which routes consult the backend
# ----------------------------------------------------------------------
class TestDispatchRouting:
    def test_direct_primary_dispatches(self, tiny_workload, tracing_backend):
        ara = analysis_for(tiny_workload, backend="tracing")
        ara.run(tiny_workload.yet, engine="sequential")
        assert TracingBackend.layer_calls > 0

    @pytest.mark.parametrize("lookup_kind", ["sorted", "hash"])
    def test_non_direct_lookups_run_oracle(
        self, tiny_workload, tracing_backend, lookup_kind
    ):
        ara = analysis_for(
            tiny_workload, lookup_kind=lookup_kind, backend="tracing"
        )
        ara.run(tiny_workload.yet, engine="sequential")
        assert TracingBackend.layer_calls == 0
        assert TracingBackend.fill_calls == 0

    def test_secondary_runs_oracle(self, tiny_workload, tracing_backend):
        ara = analysis_for(
            tiny_workload,
            secondary=SecondaryUncertainty(4.0, 4.0),
            secondary_seed=SECONDARY_SEED,
            backend="tracing",
        )
        ara.run(tiny_workload.yet, engine="sequential")
        assert TracingBackend.layer_calls == 0
        assert TracingBackend.fill_calls == 0

    def test_dtype_mismatch_falls_back(self, tiny_workload, tracing_backend):
        """float32 table + float64 working dtype must not dispatch (a
        backend would otherwise silently promote the float32 contract)."""
        layer = tiny_workload.portfolio.layers[0]
        elts = tiny_workload.portfolio.elts_of(layer)
        _, stacked32, _ = build_layer_tables(
            elts,
            tiny_workload.catalog.n_events,
            "direct",
            np.float32,
        )
        yet = tiny_workload.yet
        year = layer_trial_batch_ragged(
            yet.event_ids,
            yet.offsets,
            None,
            layer.terms,
            stacked=stacked32,
            dtype=np.float64,
            backend=tracing_backend,
        )
        assert TracingBackend.layer_calls == 0
        assert year.dtype == np.float64

    def test_matching_float32_dispatches(self, tiny_workload, tracing_backend):
        layer = tiny_workload.portfolio.layers[0]
        elts = tiny_workload.portfolio.elts_of(layer)
        _, stacked32, _ = build_layer_tables(
            elts,
            tiny_workload.catalog.n_events,
            "direct",
            np.float32,
        )
        yet = tiny_workload.yet
        via_backend = layer_trial_batch_ragged(
            yet.event_ids,
            yet.offsets,
            None,
            layer.terms,
            stacked=stacked32,
            dtype=np.float32,
            backend=tracing_backend,
        )
        assert TracingBackend.layer_calls == 1
        oracle = layer_trial_batch_ragged(
            yet.event_ids,
            yet.offsets,
            None,
            layer.terms,
            stacked=stacked32,
            dtype=np.float32,
            backend="numpy",
        )
        np.testing.assert_array_equal(via_backend, oracle)

    def test_fill_combined_preserves_dtype(
        self, tiny_workload, tracing_backend
    ):
        """SAT-2: the working dtype survives dispatch on both routes."""
        layer = tiny_workload.portfolio.layers[0]
        elts = tiny_workload.portfolio.elts_of(layer)
        yet = tiny_workload.yet
        for dtype in (np.float32, np.float64):
            _, stacked, _ = build_layer_tables(
                elts, tiny_workload.catalog.n_events, "direct", dtype
            )
            TracingBackend.reset()
            out = combined_occurrence_losses(
                yet.event_ids, None, stacked=stacked, dtype=dtype,
                backend=tracing_backend,
            )
            assert out.dtype == np.dtype(dtype)
            assert TracingBackend.fill_calls == 1
            oracle = combined_occurrence_losses(
                yet.event_ids, None, stacked=stacked, dtype=dtype,
                backend="numpy",
            )
            assert oracle.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(out, oracle)


# ----------------------------------------------------------------------
# Parity matrix: digest equality through the full engine stack
# ----------------------------------------------------------------------
class TestParityMatrix:
    MATRIX = [
        (backend, lookup_kind, secondary)
        for backend in ("tracing", "numpy")
        for lookup_kind in ("direct", "sorted")
        for secondary in (False, True)
    ]

    @pytest.mark.parametrize(
        "backend,lookup_kind,secondary",
        MATRIX,
        ids=[f"{b}|{k}|{'sec' if s else 'pri'}" for b, k, s in MATRIX],
    )
    def test_backend_invariant_digests(
        self, tiny_workload, tracing_backend, backend, lookup_kind, secondary
    ):
        """YLT digests are invariant to the backend on every route —
        dispatched or oracle-fallback alike."""
        kwargs = dict(
            lookup_kind=lookup_kind,
            secondary=SecondaryUncertainty(4.0, 4.0) if secondary else None,
            secondary_seed=SECONDARY_SEED if secondary else None,
        )
        result = analysis_for(tiny_workload, backend=backend, **kwargs).run(
            tiny_workload.yet, engine="sequential"
        )
        baseline = analysis_for(tiny_workload, **kwargs).run(
            tiny_workload.yet, engine="sequential"
        )
        assert ylt_digest(result.ylt) == ylt_digest(baseline.ylt)

    @pytest.mark.parametrize(
        "engine,opts",
        [
            ("sequential", {}),
            ("multicore", {"n_cores": 4}),
            ("gpu", {}),
            ("gpu-optimized", {}),
            ("multi-gpu", {"n_devices": 4}),
        ],
    )
    def test_all_engines_dispatch_and_match(
        self, tiny_workload, tracing_backend, engine, opts
    ):
        """Every engine reaches the backend through its own plumbing
        (plan executor or simulated-GPU kernels) and stays bit-exact."""
        TracingBackend.reset()
        traced = analysis_for(tiny_workload, backend="tracing").run(
            tiny_workload.yet, engine=engine, **opts
        )
        assert TracingBackend.layer_calls > 0
        plain = analysis_for(tiny_workload).run(
            tiny_workload.yet, engine=engine, **opts
        )
        assert ylt_digest(traced.ylt) == ylt_digest(plain.ylt)
        assert traced.meta["backend"] == "tracing"
        assert plain.meta["backend"] == "numpy"


# ----------------------------------------------------------------------
# Provenance surfaces
# ----------------------------------------------------------------------
class TestProvenance:
    def test_run_meta_default_backend(self, tiny_workload):
        res = analysis_for(tiny_workload).run(
            tiny_workload.yet, engine="sequential"
        )
        assert res.meta["backend"] == "numpy"

    def test_reference_engine_is_always_numpy(self, tiny_workload):
        res = create_engine("reference").run(
            tiny_workload.yet,
            tiny_workload.portfolio,
            tiny_workload.catalog.n_events,
        )
        assert res.meta["backend"] == "numpy"

    def test_unavailable_backend_meta_reports_fallback(self, tiny_workload):
        """meta records the *active* backend, not the requested one."""
        if NumbaBackend.available():
            pytest.skip("numba installed: no fallback to observe")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = analysis_for(tiny_workload, backend="numba").run(
                tiny_workload.yet, engine="sequential"
            )
        assert res.meta["backend"] == "numpy"

    def test_backend_not_in_capabilities_or_fingerprints(self, tiny_workload):
        """Backend identity must stay out of plan fingerprints and
        capability tuples — store keys may never depend on it."""
        traced = create_engine("sequential", backend="tracing")
        plain = create_engine("sequential")
        assert traced.capabilities() == plain.capabilities()
        plan_a = traced.plan_for(tiny_workload.yet, tiny_workload.portfolio)
        plan_b = plain.plan_for(tiny_workload.yet, tiny_workload.portfolio)
        assert plan_a.fingerprint() == plan_b.fingerprint()


# ----------------------------------------------------------------------
# Quote service
# ----------------------------------------------------------------------
class TestQuoteServiceBackend:
    def test_backend_name_and_quote_equality(
        self, tiny_workload, tracing_backend
    ):
        yet = tiny_workload.yet
        elts = list(tiny_workload.portfolio.elts.values())
        catalog = tiny_workload.catalog.n_events
        terms = LayerTerms(occ_retention=100.0, occ_limit=5_000.0)
        elt_ids = tuple(e.elt_id for e in elts[:3])
        with QuoteService(yet, elts, catalog, max_workers=2) as svc:
            assert svc.backend_name() == "numpy"
            base = svc.candidate_losses(elt_ids, terms)
        TracingBackend.reset()
        with QuoteService(
            yet, elts, catalog, max_workers=2, backend="tracing"
        ) as svc:
            assert svc.backend_name() == "tracing"
            traced = svc.candidate_losses(elt_ids, terms)
        assert TracingBackend.fill_calls > 0
        np.testing.assert_array_equal(traced, base)


# ----------------------------------------------------------------------
# Fleet: per-worker backends, mixed fleets, stats provenance
# ----------------------------------------------------------------------
class TestFleetBackends:
    def _sweep(self, workload, queue, store, engine_obj, **kw):
        return submit_sweep(
            queue,
            store,
            workload.yet,
            workload.portfolio,
            workload.catalog.n_events,
            engine_obj,
            **kw,
        )

    def test_mixed_fleet_digest_identical(
        self, small_workload, tmp_path, tracing_backend
    ):
        """SAT-6: a deliberately mixed numpy/tracing fleet assembles the
        same bytes as a monolithic run — backends are not content."""
        queue = JobQueue(tmp_path / "q")
        store = MemoryStore(max_entries=None)
        engine_obj = create_engine("sequential")
        ticket = self._sweep(
            small_workload, queue, store, engine_obj, segment_trials=150
        )
        ctx = context_for_engine(
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine_obj,
        )
        stats = run_workers(
            queue,
            store,
            {ticket.sweep_id: ctx},
            n_workers=2,
            sweep_id=ticket.sweep_id,
            backend=["numpy", "tracing"],
        )
        assert sorted(s.backend for s in stats) == ["numpy", "tracing"]
        ylt = gather_sweep(queue, store, ticket.sweep_id)
        mono = AggregateRiskAnalysis(
            small_workload.portfolio, small_workload.catalog.n_events
        ).run(small_workload.yet, engine="sequential")
        assert ylt_digest(ylt) == ylt_digest(mono.ylt)

    def test_backend_list_length_mismatch_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = MemoryStore(max_entries=None)
        with pytest.raises(ValueError, match="backend list"):
            run_workers(queue, store, n_workers=3, backend=["numpy"])

    def test_worker_stats_record_backend(
        self, small_workload, tmp_path, tracing_backend
    ):
        queue = JobQueue(tmp_path / "q")
        store = MemoryStore(max_entries=None)
        engine_obj = create_engine("sequential")
        ticket = self._sweep(
            small_workload, queue, store, engine_obj, segment_trials=300
        )
        ctx = context_for_engine(
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine_obj,
        )
        stats = run_workers(
            queue,
            store,
            {ticket.sweep_id: ctx},
            n_workers=1,
            sweep_id=ticket.sweep_id,
            backend="tracing",
        )
        assert stats[0].backend == "tracing"
        assert stats[0].as_dict()["backend"] == "tracing"
        # Segment provenance: every stored entry names the backend that
        # computed it (never part of the key — only of the meta).
        for record in ticket.delta.missing:
            entry = store.get(record.key)
            assert entry.meta["backend"] == "tracing"

    def test_run_fleet_threads_backend(self, small_workload, tracing_backend):
        TracingBackend.reset()
        ara = AggregateRiskAnalysis(
            small_workload.portfolio,
            small_workload.catalog.n_events,
            backend="tracing",
        )
        fleet = ara.run_fleet(
            small_workload.yet,
            n_workers=2,
            store=MemoryStore(max_entries=None),
        )
        assert TracingBackend.layer_calls > 0
        mono = AggregateRiskAnalysis(
            small_workload.portfolio, small_workload.catalog.n_events
        ).run(small_workload.yet, engine="sequential")
        assert ylt_digest(fleet.ylt) == ylt_digest(mono.ylt)


# ----------------------------------------------------------------------
# Real numba parity (runs only where numba is installed — compiled CI)
# ----------------------------------------------------------------------
needs_numba = pytest.mark.skipif(
    not NumbaBackend.available(),
    reason="numba not installed (tier-1 is numpy-only; see compiled-bench)",
)


@needs_numba
class TestNumbaParity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_layer_losses_within_pinned_tolerance(self, small_workload, dtype):
        layer = small_workload.portfolio.layers[0]
        elts = small_workload.portfolio.elts_of(layer)
        _, stacked, _ = build_layer_tables(
            elts, small_workload.catalog.n_events, "direct", dtype
        )
        yet = small_workload.yet
        backend = get_backend("numba")
        year = backend.layer_losses(
            yet.event_ids, yet.offsets, stacked, layer.terms
        )
        assert year is not None
        oracle = layer_trial_batch_ragged(
            yet.event_ids,
            yet.offsets,
            None,
            layer.terms,
            stacked=stacked,
            dtype=dtype,
            backend="numpy",
        )
        rtol, atol = backend.tolerance(dtype)
        np.testing.assert_allclose(year, oracle, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fill_combined_within_pinned_tolerance(
        self, small_workload, dtype
    ):
        layer = small_workload.portfolio.layers[0]
        elts = small_workload.portfolio.elts_of(layer)
        _, stacked, _ = build_layer_tables(
            elts, small_workload.catalog.n_events, "direct", dtype
        )
        yet = small_workload.yet
        backend = get_backend("numba")
        out = np.empty(yet.event_ids.size, dtype=dtype)
        assert backend.fill_combined(yet.event_ids, stacked, out)
        oracle = combined_occurrence_losses(
            yet.event_ids, None, stacked=stacked, dtype=dtype, backend="numpy"
        )
        rtol, atol = backend.tolerance(dtype)
        np.testing.assert_allclose(out, oracle, rtol=rtol, atol=atol)

    def test_engine_run_digest_matches_oracle(self, tiny_workload):
        compiled = analysis_for(tiny_workload, backend="numba").run(
            tiny_workload.yet, engine="sequential"
        )
        oracle = analysis_for(tiny_workload).run(
            tiny_workload.yet, engine="sequential"
        )
        assert compiled.meta["backend"] == "numba"
        rtol, atol = get_backend("numba").tolerance(np.float64)
        np.testing.assert_allclose(
            compiled.ylt.losses, oracle.ylt.losses, rtol=rtol, atol=atol
        )


# ----------------------------------------------------------------------
# The numba kernel bodies as plain Python (runs everywhere)
# ----------------------------------------------------------------------
class TestNumbaKernelBodies:
    """The numba backend's kernels, built with an identity decorator and
    ``range`` for ``prange``, against the numpy oracle bit for bit.
    Without numba installed this is the only check of the kernel logic;
    it does not check that numba compiles it."""

    @staticmethod
    def uncompiled_backend():
        from repro.backends.numba_backend import _build_kernels

        backend = NumbaBackend()
        backend._kernels = _build_kernels(
            njit=lambda **_options: (lambda fn: fn), prange=range
        )
        return backend

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_layer_losses_bit_equal(self, tiny_workload, dtype):
        layer = tiny_workload.portfolio.layers[0]
        elts = tiny_workload.portfolio.elts_of(layer)
        _, stacked, _ = build_layer_tables(
            elts, tiny_workload.catalog.n_events, "direct", dtype
        )
        yet = tiny_workload.yet
        year = self.uncompiled_backend().layer_losses(
            yet.event_ids, yet.offsets, stacked, layer.terms
        )
        oracle = layer_trial_batch_ragged(
            yet.event_ids, yet.offsets, None, layer.terms,
            stacked=stacked, dtype=dtype, backend="numpy",
        )
        assert year.dtype == np.float64
        assert year.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fill_combined_bit_equal(self, tiny_workload, dtype):
        layer = tiny_workload.portfolio.layers[0]
        elts = tiny_workload.portfolio.elts_of(layer)
        _, stacked, _ = build_layer_tables(
            elts, tiny_workload.catalog.n_events, "direct", dtype
        )
        ids = tiny_workload.yet.event_ids
        out = np.empty(ids.size, dtype=dtype)
        assert self.uncompiled_backend().fill_combined(ids, stacked, out)
        oracle = combined_occurrence_losses(
            ids, None, stacked=stacked, dtype=dtype, backend="numpy"
        )
        assert out.tobytes() == oracle.tobytes()
