"""Fleet sweeps end to end: bitwise assembly, delta reuse, crash recovery.

The headline contract — codified by :class:`TestBitwiseMatrix` — is
that a fleet-assembled YLT is byte-identical to a monolithic
``Engine.run`` of the same numeric configuration, for every
engine x secondary combination.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.analysis import AggregateRiskAnalysis
from repro.core.secondary import SecondaryUncertainty
from repro.data.yet import YearEventTable
from repro.engines.registry import create_engine
from repro.fleet import (
    FleetAssemblyError,
    FleetWorker,
    JobQueue,
    ResultAssembler,
    context_for_engine,
    gather_sweep,
    modeled_makespan,
    run_workers,
    submit_sweep,
)
from repro.store import MemoryStore, SharedFileStore, ylt_digest
from tests.storefiles import replace_bytes

SECONDARY_SEED = 20130812

#: engines with machine-dependent default decompositions are pinned,
#: exactly as in the golden-YLT net.
ENGINE_OPTIONS = {
    "sequential": {},
    "multicore": {"n_cores": 4},
    "gpu": {},
    "gpu-optimized": {},
    "multi-gpu": {"n_devices": 4},
}

CONFIGS = [
    (engine, secondary)
    for engine in ENGINE_OPTIONS
    for secondary in (False, True)
]


def analysis_for(workload, secondary: bool):
    return AggregateRiskAnalysis(
        workload.portfolio,
        workload.catalog.n_events,
        secondary=SecondaryUncertainty(4.0, 4.0) if secondary else None,
        secondary_seed=SECONDARY_SEED if secondary else None,
    )


class TestBitwiseMatrix:
    @pytest.mark.parametrize(
        "engine,secondary",
        CONFIGS,
        # "ragged" keeps the ids the matrix had when it also ran a
        # padded kernel.
        ids=[f"{e}|ragged|{'sec' if s else 'pri'}" for e, s in CONFIGS],
    )
    def test_fleet_assembly_matches_monolithic_run(
        self, small_workload, engine, secondary
    ):
        ara = analysis_for(small_workload, secondary)
        opts = ENGINE_OPTIONS[engine]
        fleet = ara.run_fleet(
            small_workload.yet,
            engine=engine,
            n_workers=2,
            store=MemoryStore(max_entries=None),
            **opts,
        )
        mono = ara.run(small_workload.yet, engine=engine, **opts)
        assert ylt_digest(fleet.ylt) == ylt_digest(mono.ylt)

    def test_fixed_stride_segments_also_assemble_exactly(
        self, small_workload
    ):
        """The delta-stable segmentation produces the same bytes as the
        engine-native plan (the kernel is decomposition-invariant)."""
        ara = analysis_for(small_workload, True)
        mono = ara.run(small_workload.yet, engine="sequential")
        fleet = ara.run_fleet(
            small_workload.yet,
            engine="sequential",
            n_workers=2,
            store=MemoryStore(max_entries=None),
            segment_trials=97,  # deliberately ragged-edge stride
        )
        assert ylt_digest(fleet.ylt) == ylt_digest(mono.ylt)
        assert fleet.meta["fleet"]["n_segments"] == -(-600 // 97)


class TestDeltaReuse:
    def test_resweep_executes_nothing(self, small_workload):
        ara = analysis_for(small_workload, False)
        store = MemoryStore(max_entries=None)
        first = ara.run_fleet(
            small_workload.yet, n_workers=2, store=store, segment_trials=150
        )
        again = ara.run_fleet(
            small_workload.yet, n_workers=2, store=store, segment_trials=150
        )
        assert first.meta["fleet"]["jobs_submitted"] == 4
        assert again.meta["fleet"]["jobs_submitted"] == 0
        assert again.meta["fleet"]["segments_reused"] == 4
        assert ylt_digest(again.ylt) == ylt_digest(first.ylt)

    def test_extended_yet_recomputes_only_the_tail(self, small_workload):
        """The growing-trial-database scenario: append 25% more trials
        and only the new segments are jobs."""
        ara = analysis_for(small_workload, False)
        store = MemoryStore(max_entries=None)
        ara.run_fleet(
            small_workload.yet, n_workers=1, store=store, segment_trials=150
        )
        from repro.data.generator import generate_workload
        from repro.data.presets import BENCH_SMALL

        extra = generate_workload(
            BENCH_SMALL.with_(
                name="small-tail",
                n_trials=150,
                events_per_trial=25,
                catalog_size=5_000,
                losses_per_elt=400,
                elts_per_layer=5,
                seed=987,
            )
        ).yet
        extended = YearEventTable.concatenate([small_workload.yet, extra])
        result = ara.run_fleet(
            extended, n_workers=1, store=store, segment_trials=150
        )
        fleet = result.meta["fleet"]
        assert fleet["n_segments"] == 5
        assert fleet["segments_reused"] == 4
        assert fleet["jobs_submitted"] == 1
        # and the assembled YLT equals a monolithic run on the extension
        mono = ara.run(extended, engine="sequential")
        assert ylt_digest(result.ylt) == ylt_digest(mono.ylt)

    def test_changed_layer_recomputes_only_that_layer(
        self, multilayer_workload
    ):
        from repro.data.layer import Layer, Portfolio

        ara = AggregateRiskAnalysis(
            multilayer_workload.portfolio,
            multilayer_workload.catalog.n_events,
        )
        store = MemoryStore(max_entries=None)
        ara.run_fleet(
            multilayer_workload.yet,
            n_workers=1,
            store=store,
            segment_trials=200,
        )
        # re-term one layer of the book
        book = multilayer_workload.portfolio
        changed = Portfolio(elts=dict(book.elts))
        for layer in book.layers:
            terms = layer.terms
            if layer.layer_id == book.layers[0].layer_id:
                terms = type(terms)(
                    occ_retention=terms.occ_retention * 2.0,
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
        ara2 = AggregateRiskAnalysis(
            changed, multilayer_workload.catalog.n_events
        )
        result = ara2.run_fleet(
            multilayer_workload.yet,
            n_workers=1,
            store=store,
            segment_trials=200,
        )
        fleet = result.meta["fleet"]
        n_per_layer = -(-600 // 200)
        assert fleet["n_segments"] == 3 * n_per_layer
        assert fleet["jobs_submitted"] == n_per_layer  # one layer only
        mono = ara2.run(multilayer_workload.yet, engine="sequential")
        assert ylt_digest(result.ylt) == ylt_digest(mono.ylt)


class TestCrashRecovery:
    def test_crashed_worker_jobs_requeued_and_computed_once(
        self, small_workload, tmp_path
    ):
        """A claimed-then-abandoned job is requeued after its lease and
        the sweep still completes with each segment stored exactly once
        fleet-wide (store puts == missing segments)."""
        queue = JobQueue(tmp_path / "q", lease_seconds=0.1)
        store = SharedFileStore(tmp_path / "cache")
        engine_obj = create_engine("sequential")
        ticket = submit_sweep(
            queue,
            store,
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine_obj,
            segment_trials=100,
        )
        dead = queue.claim("dead-worker", sweep_id=ticket.sweep_id)
        assert dead is not None
        time.sleep(0.15)
        ctx = context_for_engine(
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine_obj,
        )
        run_workers(
            queue,
            store,
            {ticket.sweep_id: ctx},
            n_workers=2,
            sweep_id=ticket.sweep_id,
        )
        assert queue.counts(ticket.sweep_id)["done"] == ticket.delta.n_missing
        assert store.puts == ticket.delta.n_missing
        ylt = gather_sweep(queue, store, ticket.sweep_id)
        mono = analysis_for(small_workload, False).run(
            small_workload.yet, engine="sequential"
        )
        assert ylt_digest(ylt) == ylt_digest(mono.ylt)

    def test_segment_lost_between_planning_and_gather_is_recomputed(
        self, small_workload, tmp_path
    ):
        """A stored segment that turns out corrupt at gather (or was
        GC-collected mid-sweep) self-heals: run_fleet replans against
        the store's current state and recomputes exactly the hole."""
        store = SharedFileStore(tmp_path / "cache")
        ara = analysis_for(small_workload, False)
        first = ara.run_fleet(
            small_workload.yet, n_workers=1, store=store, segment_trials=150
        )
        # corrupt one stored segment: contains() (a stat) still says
        # yes, but reading it fails CRC and self-heals to a miss
        engine_obj = create_engine("sequential")
        delta = engine_obj.plan_missing(
            small_workload.yet,
            small_workload.portfolio,
            None,
            segment_trials=150,
        )
        victim = delta.segments[1].key
        replace_bytes(store.entry_path(victim), b"garbage")
        result = ara.run_fleet(
            small_workload.yet, n_workers=1, store=store, segment_trials=150
        )
        assert result.meta["fleet"]["gather_retries"] == 1
        assert ylt_digest(result.ylt) == ylt_digest(first.ylt)
        assert store.contains(victim)  # recomputed and re-stored
        assert store.stats()["corrupt_misses"] == 1

    def test_racing_workers_store_each_segment_once(
        self, small_workload, tmp_path
    ):
        store = SharedFileStore(tmp_path / "cache")
        ara = analysis_for(small_workload, False)
        result = ara.run_fleet(
            small_workload.yet, n_workers=4, store=store, segment_trials=60
        )
        fleet = result.meta["fleet"]
        assert store.puts == fleet["jobs_submitted"]
        total_computed = sum(w["computed"] for w in fleet["workers"])
        assert total_computed == fleet["jobs_submitted"]


class TestAssembler:
    def test_missing_segment_raises_with_key(self, small_workload):
        engine_obj = create_engine("sequential")
        store = MemoryStore()
        delta = engine_obj.plan_missing(
            small_workload.yet,
            small_workload.portfolio,
            store,
            segment_trials=200,
        )
        assembler = ResultAssembler(store)
        assert set(assembler.missing_keys(delta)) == set(delta.keys())
        with pytest.raises(FleetAssemblyError, match="not in store"):
            assembler.assemble(delta)

    def test_gap_in_coverage_raises(self, small_workload):
        store = MemoryStore()
        with pytest.raises(FleetAssemblyError, match="coverage breaks"):
            ResultAssembler(store).assemble(
                [("k1", 0, 0, 100), ("k2", 0, 150, 300)], n_trials=300
            )

    def test_short_final_layer_coverage_raises(self, small_workload):
        from repro.store import StoreEntry

        store = MemoryStore()
        store.put(
            "k1", StoreEntry(arrays={"losses": np.zeros(100)})
        )
        with pytest.raises(FleetAssemblyError, match="covered only"):
            ResultAssembler(store).assemble(
                [("k1", 0, 0, 100)], n_trials=300
            )


class TestFailurePaths:
    def test_run_fleet_without_store_raises(self, small_workload):
        ara = analysis_for(small_workload, False)
        with pytest.raises(ValueError, match="needs a ResultStore"):
            ara.run_fleet(small_workload.yet)

    def test_poison_job_surfaces_as_error(self, small_workload, tmp_path):
        """A job whose compute always fails exhausts max_attempts, lands
        in failed/, and run_workers refuses to pretend the sweep is
        assemblable."""
        queue = JobQueue(tmp_path / "q", max_attempts=2)
        store = MemoryStore()
        engine_obj = create_engine("sequential")
        ticket = submit_sweep(
            queue,
            store,
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine_obj,
            segment_trials=300,
        )
        # poison the context: a catalog too small for the event ids
        bad_ctx = context_for_engine(
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            engine_obj,
        )
        bad_ctx.catalog_size = 1
        with pytest.raises(FleetAssemblyError, match="exhausted"):
            run_workers(
                queue,
                store,
                {ticket.sweep_id: bad_ctx},
                n_workers=1,
                sweep_id=ticket.sweep_id,
            )
        assert queue.counts(ticket.sweep_id)["failed"] > 0


class TestModeledMakespan:
    def test_single_worker_is_the_sum(self):
        assert modeled_makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_perfectly_divisible_work_scales_linearly(self):
        assert modeled_makespan([1.0] * 8, 4) == pytest.approx(2.0)

    def test_bounded_below_by_longest_job(self):
        assert modeled_makespan([5.0, 0.1, 0.1], 8) == pytest.approx(5.0)

    def test_empty_jobs_zero(self):
        assert modeled_makespan([], 3) == 0.0


class TestManifestKernelCheck:
    """A manifest's ``config.kernel`` must be absent or ``"ragged"``:
    any other value names a kernel this code does not have, and is
    rejected before a single input is built."""

    @pytest.fixture()
    def manifest(self, tmp_path, small_workload):
        from tests.conftest import SMALL_SPEC

        queue = JobQueue(tmp_path / "q")
        ticket = submit_sweep(
            queue,
            MemoryStore(),
            small_workload.yet,
            small_workload.portfolio,
            small_workload.catalog.n_events,
            create_engine("sequential"),
            segment_trials=200,
            workload_spec=SMALL_SPEC,
        )
        return queue, ticket.sweep_id, ticket.manifest

    def test_missing_or_ragged_kernel_loads(self, manifest, small_workload):
        from repro.fleet.context import context_from_manifest

        _, _, manifest = manifest
        assert manifest["config"]["kernel"] == "ragged"
        ctx = context_from_manifest(manifest)
        assert ctx.yet.n_trials == small_workload.yet.n_trials
        legacy = dict(manifest, config=dict(manifest["config"]))
        del legacy["config"]["kernel"]
        assert context_from_manifest(legacy).yet.n_trials == ctx.yet.n_trials

    @pytest.mark.parametrize("kernel", ["bogus", "dense"])
    def test_other_kernels_rejected_before_compute(
        self, manifest, monkeypatch, kernel
    ):
        import repro.data.generator as generator
        from repro.fleet.context import context_from_manifest

        queue, sweep_id, manifest = manifest
        manifest = dict(manifest, config=dict(manifest["config"]))
        manifest["config"]["kernel"] = kernel
        queue.save_sweep(sweep_id, manifest)

        def no_inputs(*args, **kwargs):
            raise AssertionError("inputs built for a rejected manifest")

        monkeypatch.setattr(generator, "generate_workload", no_inputs)
        with pytest.raises(ValueError, match=sweep_id):
            context_from_manifest(manifest)
        store = MemoryStore()
        with pytest.raises(ValueError, match=kernel):
            FleetWorker(queue, store)._context(sweep_id)
        assert len(store) == 0

    def test_direct_or_missing_lookup_kind_loads(self, manifest, small_workload):
        from repro.fleet.context import context_from_manifest

        _, _, manifest = manifest
        assert manifest["config"]["lookup_kind"] == "direct"
        ctx = context_from_manifest(manifest)
        assert ctx.yet.n_trials == small_workload.yet.n_trials
        legacy = dict(manifest, config=dict(manifest["config"]))
        del legacy["config"]["lookup_kind"]
        assert context_from_manifest(legacy).yet.n_trials == ctx.yet.n_trials

    def test_other_lookup_kinds_rejected_before_compute(
        self, manifest, monkeypatch
    ):
        import repro.data.generator as generator
        from repro.fleet.context import context_from_manifest

        queue, sweep_id, manifest = manifest
        manifest = dict(manifest, config=dict(manifest["config"]))
        manifest["config"]["lookup_kind"] = "sorted"
        queue.save_sweep(sweep_id, manifest)

        def no_inputs(*args, **kwargs):
            raise AssertionError("inputs built for a rejected manifest")

        monkeypatch.setattr(generator, "generate_workload", no_inputs)
        with pytest.raises(ValueError, match=sweep_id):
            context_from_manifest(manifest)
        store = MemoryStore()
        with pytest.raises(ValueError, match="sorted"):
            FleetWorker(queue, store)._context(sweep_id)
        assert len(store) == 0
