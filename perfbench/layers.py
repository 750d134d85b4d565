"""Where each layer is wrapped, and the per-layer table built from spans.

Layer names follow the ``src/repro`` modules.  Every wrapper sits at the
name its caller looks up at call time: the kernel as ``plan.execute``
imported it, ``tail_value_at_risk`` as ``pricing.pricer`` imported it,
store methods on the classes that define them.  The scenario layer is
not measured.

Every workload reports every per-layer metric; a layer the workload does
not exercise reads 0 (``net.rpcs`` is 0 on the local replay path, which
is the prediction for the bypass).  Time metrics ending in ``_s`` are
wall-clock self time (children excluded, shared evenly between worker
threads running at once) summed over the traced rounds, except
``engine.run_s`` and ``fleet.compute_s``, which include their children.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from spans import Span, Tracer, attribute_wall_time

#: per-layer metric names and units, in report order
PER_LAYER: List[Tuple[str, str]] = [
    ("data.generate_s", "s"),
    ("lookup.build_s", "s"),
    ("lookup.builds", "count"),
    ("kernel.calls", "count"),
    ("kernel.self_s", "s"),
    ("kernel.occurrences", "count"),
    ("kernel.lookups", "count"),
    ("kernel.bytes_computed", "B"),
    ("kernel.gbps", "GB/s"),
    ("kernel.roofline_frac", "ratio"),
    ("kernel.finish_s", "s"),
    ("engine.run_s", "s"),
    ("engine.overhead_s", "s"),
    ("plan.plan_s", "s"),
    ("plan.plan_missing_s", "s"),
    ("plan.segments_probed", "count"),
    ("plan.cache_hits", "count"),
    ("plan.cache_misses", "count"),
    ("store.get_calls", "count"),
    ("store.put_calls", "count"),
    ("store.contains_calls", "count"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.contains_s", "s"),
    ("store.bytes_read", "B"),
    ("store.bytes_written", "B"),
    ("store.hit_ratio", "ratio"),
    ("fleet.submit_s", "s"),
    ("fleet.jobs", "count"),
    ("fleet.claim_calls", "count"),
    ("fleet.empty_claims", "count"),
    ("fleet.claim_s", "s"),
    ("fleet.complete_s", "s"),
    ("fleet.idle_s", "s"),
    ("fleet.compute_s", "s"),
    ("fleet.assemble_s", "s"),
    ("fleet.overhead_s", "s"),
    ("net.rpcs", "count"),
    ("net.rpc_s", "s"),
    ("net.rpcs_per_segment", "ratio"),
    ("net.retries", "count"),
    ("net.reconnects", "count"),
    ("pricing.quotes", "count"),
    ("pricing.quote_s", "s"),
    ("pricing.base_s", "s"),
    ("metrics.tvar_s", "s"),
    ("serve.admitted", "count"),
    ("serve.shed", "count"),
    ("serve.coalesced", "count"),
    ("serve.queue_wait_s", "s"),
    ("serve.p90_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.late_p99_ms", "ms"),
    ("host.copy_gbps", "GB/s"),
    ("host.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_pct", "%"),
]

#: the most the per-layer self times may miss the traced wall time by
RECONCILE_PCT = 5.0

#: the benchmark's own spans whose time is known not to be the program's:
#: the event loop waiting for the next due request (``workload_quote``)
BENCH_KNOWN = ("bench.idle",)

#: benchmark operations whose wall time is a fleet sweep
FLEET_OPS = ("sweep_cold", "sweep_delta")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _kernel_batch(span: Span, args, kwargs, result) -> None:
    ids, offsets, lookups = args[0], args[1], args[2]
    stacked = kwargs.get("stacked")
    n_elts = stacked.n_elts if stacked is not None else len(lookups)
    itemsize = stacked.dtype.itemsize if stacked is not None else 8
    n_occ = int(ids.size)
    n_trials = int(offsets.size) - 1
    span.attrs.update(
        occurrences=n_occ,
        lookups=n_occ * n_elts,
        # computed, not measured: ids read, one table word gathered per
        # (occurrence, ELT), offsets read, one float64 per trial written
        bytes=n_occ * (ids.itemsize + n_elts * itemsize)
        + offsets.size * offsets.itemsize
        + n_trials * 8,
    )


def _store_get(span: Span, args, kwargs, entry) -> None:
    span.attrs["found"] = entry is not None
    span.attrs["bytes"] = entry.nbytes if entry is not None else 0


def _store_put(span: Span, args, kwargs, result) -> None:
    entry = args[2] if len(args) > 2 else kwargs["entry"]
    span.attrs["bytes"] = entry.nbytes


def install(tracer: Tracer) -> None:
    import repro.core.analysis as analysis
    import repro.data.generator as generator
    import repro.engines.base as engines_base
    import repro.fleet.jobs as fleet_jobs
    import repro.fleet.sweep as fleet_sweep
    import repro.fleet.worker as fleet_worker
    import repro.lookup.factory as lookup_factory
    import repro.net.client as net_client
    import repro.plan.cache as plan_cache
    import repro.plan.execute as plan_execute
    import repro.plan.planner as planner
    import repro.plan.scheduler as scheduler
    import repro.pricing.pricer as pricer
    import repro.pricing.realtime as realtime
    import repro.serve.service as serve_service
    import repro.store.base as store_base
    import repro.store.filestore as filestore

    def put(owner, attr, name, layer, **kw):
        tracer.install(owner, attr, lambda fn: tracer.wrap(fn, name, layer, **kw))

    put(generator, "generate_workload", "data.generate", "data")
    put(generator, "generate_yet", "data.generate", "data")
    put(lookup_factory, "build_stacked_table", "lookup.build", "lookup")
    put(lookup_factory, "build_layer_lookups", "lookup.build", "lookup")
    put(
        plan_execute,
        "layer_trial_batch_ragged",
        "kernel.batch",
        "kernel",
        on_exit=_kernel_batch,
    )
    put(realtime, "combined_occurrence_losses", "kernel.combine", "kernel")
    put(realtime, "finish_layer_losses", "kernel.finish", "kernel")
    # the program's entry points, so no program time between the
    # benchmark's call and the first inner wrapper goes unattributed
    put(analysis.AggregateRiskAnalysis, "run", "analysis.run", "analysis")
    put(analysis.AggregateRiskAnalysis, "run_fleet", "fleet.sweep", "fleet")
    put(engines_base.Engine, "run", "engine.run", "engines")
    put(planner.Planner, "plan", "plan.plan", "plan")
    put(
        planner.Planner,
        "plan_missing",
        "plan.plan_missing",
        "plan",
        on_exit=lambda span, a, k, delta: span.attrs.update(
            segments=delta.n_segments
        ),
    )
    put(plan_cache.PlanResultCache, "get_or_compute", "plan.cache", "plan.cache")
    put(store_base.ResultStore, "get", "store.get", "store", on_exit=_store_get)
    put(store_base.ResultStore, "put", "store.put", "store", on_exit=_store_put)
    for cls in (
        store_base.ResultStore,
        filestore.FileStore,
        filestore.TieredStore,
        net_client.RemoteStore,
    ):
        put(cls, "contains", "store.contains", "store")
    put(
        fleet_sweep,
        "submit_sweep",
        "fleet.submit",
        "fleet",
        on_exit=lambda span, a, k, ticket: span.attrs.update(
            jobs=ticket.submitted
        ),
    )
    put(fleet_sweep, "run_workers", "fleet.drain", "fleet")
    put(fleet_sweep, "gather_sweep", "fleet.assemble", "fleet")
    put(
        fleet_jobs.JobQueue,
        "claim",
        "fleet.claim",
        "fleet",
        on_exit=lambda span, a, k, job: span.attrs.update(empty=job is None),
    )
    put(fleet_jobs.JobQueue, "complete", "fleet.complete", "fleet")
    put(fleet_worker, "execute_segment_cpu", "fleet.compute", "fleet")
    put(net_client.WireTransport, "request", "net.rpc", "net")
    put(
        realtime.QuoteService,
        "_quote_one",
        "pricing.quote",
        "pricing",
        trace_key=lambda a, k: a[1].terms.as_tuple(),
    )
    put(realtime.QuoteService, "_compute_base", "pricing.base", "pricing")
    put(pricer, "tail_value_at_risk", "metrics.tvar", "metrics")
    put(
        serve_service.QuoteFrontEnd,
        "quote_request",
        "serve.quote",
        "serve",
        trace_key=lambda a, k: a[1].terms.as_tuple(),
    )

    # Scheduler slots run on pool threads that inherit no span context:
    # give each one an ``engines`` span whose parent is the caller's
    # span, so kernel time on those threads stays inside the engine run.
    def traced_run_threaded(run_threaded):
        def run_slots(jobs, max_workers=None):
            caller = tracer.current

            def slot(job):
                def run():
                    with tracer.span("engine.slot", "engines", parent=caller):
                        return job()

                return run

            return run_threaded([slot(job) for job in jobs], max_workers=max_workers)

        return run_slots

    tracer.install(scheduler, "run_threaded", traced_run_threaded)


# ----------------------------------------------------------------------
# The per-layer table
# ----------------------------------------------------------------------
def per_layer_metrics(bench, host: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values of one traced run (see the module docstring)."""
    tracer = bench.tracer
    spans = tracer.spans
    charged = attribute_wall_time(spans, tracer.main_thread)

    # the root operation of every span: "setup" or a timed operation kind
    root: List[int] = []
    for span in spans:
        root.append(span.index if span.parent is None else root[span.parent])

    # set-up metrics are per set-up: the repeated part counts once on
    # average, the one-time part (warm-up, server start) counts whole
    roots = [s for s in spans if s.parent is None]
    n_setups = max(1, sum(1 for s in roots if s.name == "setup"))
    setup_weight = {"setup": 1.0 / n_setups, "setup_once": 1.0}

    def weight(span: Span) -> float:
        return setup_weight.get(spans[root[span.index]].name, 0.0)

    timed = [s for s in spans if weight(s) == 0.0]
    setup = [s for s in spans if weight(s) > 0.0]

    def self_s(group, name) -> float:
        return sum(charged.get(s.index, 0.0) for s in group if s.name == name)

    def setup_s(name) -> float:
        return sum(
            charged.get(s.index, 0.0) * weight(s) for s in setup if s.name == name
        )

    def named(group, name, outer_only=False):
        return [s for s in group if s.name == name and (s.outer or not outer_only)]

    def attr_sum(group, name, key) -> float:
        return float(sum(s.attrs.get(key, 0) for s in named(group, name)))

    out: Dict[str, float] = {}
    out["data.generate_s"] = setup_s("data.generate")
    out["lookup.build_s"] = setup_s("lookup.build")
    out["lookup.builds"] = sum(weight(s) for s in named(setup, "lookup.build", True))

    kernel_s = self_s(timed, "kernel.batch")
    kernel_bytes = attr_sum(timed, "kernel.batch", "bytes")
    gbps = kernel_bytes / kernel_s / 1e9 if kernel_s > 0 else 0.0
    out["kernel.calls"] = float(len(named(timed, "kernel.batch")))
    out["kernel.self_s"] = kernel_s
    out["kernel.occurrences"] = attr_sum(timed, "kernel.batch", "occurrences")
    out["kernel.lookups"] = attr_sum(timed, "kernel.batch", "lookups")
    out["kernel.bytes_computed"] = kernel_bytes
    out["kernel.gbps"] = gbps
    # against the bandwidth of one thread per CPU: a one-thread kernel
    # can reach only part of it
    out["kernel.roofline_frac"] = gbps / host["copy_gbps"]
    out["kernel.finish_s"] = self_s(timed, "kernel.finish")

    # kernel self time inside engine runs (through engine.slot parents)
    def under(span: Span, name: str) -> bool:
        node = span
        while node.parent is not None:
            node = spans[node.parent]
            if node.name == name:
                return True
        return False

    engine_runs = named(timed, "engine.run", True)
    out["engine.run_s"] = sum(s.seconds for s in engine_runs)
    out["engine.overhead_s"] = out["engine.run_s"] - sum(
        charged.get(s.index, 0.0)
        for s in named(timed, "kernel.batch")
        if under(s, "engine.run")
    )
    out["plan.plan_s"] = self_s(timed, "plan.plan")
    out["plan.plan_missing_s"] = self_s(timed, "plan.plan_missing")
    out["plan.segments_probed"] = attr_sum(timed, "plan.plan_missing", "segments")
    out["plan.cache_hits"] = bench.counters["plan.cache_hits"]
    out["plan.cache_misses"] = bench.counters["plan.cache_misses"]

    gets = named(timed, "store.get", True)
    for op in ("get", "put", "contains"):
        out[f"store.{op}_calls"] = float(len(named(timed, f"store.{op}", True)))
        out[f"store.{op}_s"] = self_s(timed, f"store.{op}")
    out["store.bytes_read"] = float(sum(s.attrs.get("bytes", 0) for s in gets))
    out["store.bytes_written"] = float(
        sum(s.attrs.get("bytes", 0) for s in named(timed, "store.put", True))
    )
    out["store.hit_ratio"] = (
        sum(1 for s in gets if s.attrs.get("found")) / len(gets) if gets else 0.0
    )

    claims = named(timed, "fleet.claim")
    compute_s = sum(s.seconds for s in named(timed, "fleet.compute"))
    fleet_wall = sum(
        s.seconds for s in timed if s.parent is None and s.name in FLEET_OPS
    )
    out["fleet.submit_s"] = self_s(timed, "fleet.submit")
    out["fleet.jobs"] = attr_sum(timed, "fleet.submit", "jobs")
    out["fleet.claim_calls"] = float(len(claims))
    out["fleet.empty_claims"] = float(sum(1 for s in claims if s.attrs.get("empty")))
    out["fleet.claim_s"] = self_s(timed, "fleet.claim")
    out["fleet.complete_s"] = self_s(timed, "fleet.complete")
    out["fleet.idle_s"] = self_s(timed, "fleet.drain")
    out["fleet.compute_s"] = compute_s
    out["fleet.assemble_s"] = self_s(timed, "fleet.assemble")
    out["fleet.overhead_s"] = fleet_wall - compute_s if fleet_wall else 0.0

    rpcs = named(timed, "net.rpc")
    segments = bench.counters["net.segments"]
    out["net.rpcs"] = float(len(rpcs))
    out["net.rpc_s"] = self_s(timed, "net.rpc")
    out["net.rpcs_per_segment"] = len(rpcs) / segments if segments else 0.0
    out["net.retries"] = bench.counters["net.retries"]
    out["net.reconnects"] = bench.counters["net.reconnects"]

    out["pricing.quotes"] = float(len(named(timed, "pricing.quote", True)))
    out["pricing.quote_s"] = self_s(timed, "pricing.quote")
    out["pricing.base_s"] = setup_s("pricing.base")
    out["metrics.tvar_s"] = self_s(timed, "metrics.tvar")

    # queue wait: admission at the front door -> pickup by a pool thread
    admitted_at: Dict[str, float] = {}
    for span in named(timed, "serve.quote"):
        admitted_at.setdefault(span.trace, span.start)
    waits: Dict[str, float] = {}
    for span in named(timed, "pricing.quote", True):
        if span.trace in admitted_at:
            waits[span.trace] = span.start - admitted_at[span.trace]
    out["serve.admitted"] = bench.counters["serve.admitted"]
    out["serve.shed"] = bench.counters["serve.shed"]
    out["serve.coalesced"] = bench.counters["serve.coalesced"]
    out["serve.queue_wait_s"] = sum(waits.values())
    out["serve.p90_ms"] = bench.info.get("traced_p90_ms", 0.0)
    out["serve.p99_ms"] = bench.info.get("traced_p99_ms", 0.0)
    out["serve.late_p99_ms"] = bench.info.get("traced_late_p99_ms", 0.0)

    out["host.copy_gbps"] = host["copy_gbps"]
    out["host.steal_pct"] = bench.info.get("steal_pct") or 0.0

    # The program layers plus the benchmark's known waits must account for
    # the traced rounds' wall time.  What is left is the operation spans'
    # own time, where no wrapper covered the program, and the rounds' time
    # between operations.
    program = sum(charged.get(s.index, 0.0) for s in timed if s.layer != "bench")
    known = sum(charged.get(s.index, 0.0) for s in timed if s.name in BENCH_KNOWN)
    wall = sum(bench.round_walls[True])
    out["trace.overhead_pct"] = bench.info["tracing_overhead_pct"]
    out["trace.reconcile_pct"] = 100.0 * abs(wall - program - known) / wall
    bench.check(
        out["trace.reconcile_pct"] <= RECONCILE_PCT,
        f"per-layer self times miss the traced wall time by "
        f"{out['trace.reconcile_pct']:.1f}%",
    )
    bench.info["per_layer_self_s"] = layer_self_times(timed, charged)
    return out


def layer_self_times(group: List[Span], charged: Dict[int, float]) -> Dict[str, float]:
    """Self seconds per layer.  The benchmark's own time is split into its
    known waits (:data:`BENCH_KNOWN`, by name) and ``unattributed``: the
    operation spans' own time, which no layer wrapper covered."""
    totals: Dict[str, float] = defaultdict(float)
    for span in group:
        if span.layer != "bench":
            key = span.layer
        elif span.name in BENCH_KNOWN:
            key = span.name
        else:
            key = "unattributed"
        totals[key] += charged.get(span.index, 0.0)
    return dict(sorted(totals.items()))
