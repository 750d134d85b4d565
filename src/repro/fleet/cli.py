"""``repro-fleet`` command line: distributed sweeps from a shell.

A sweep's coordination state is two directories — a queue dir and a
store cache dir — so a "cluster" is any set of processes (or machines)
that can see both.  Typical session::

    repro-fleet submit --queue /tmp/q --store /tmp/c --n-trials 20000
    repro-fleet worker --queue /tmp/q --store /tmp/c &   # repeat per core
    repro-fleet status --queue /tmp/q
    repro-fleet gather --queue /tmp/q --store /tmp/c --sweep <id> --out ylt.npz

Workers regenerate the sweep's seeded workload from the manifest, so
the only shared state is the filesystem; inputs (and therefore every
content-addressed segment key) are byte-identical across the fleet.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import List

from repro.data.presets import (
    BENCH_DEFAULT,
    BENCH_LARGE,
    BENCH_SMALL,
    WorkloadSpec,
)

_SCALES = {
    "small": BENCH_SMALL,
    "default": BENCH_DEFAULT,
    "large": BENCH_LARGE,
}

#: spec fields adjustable from the command line.
_SPEC_OVERRIDES = (
    "n_trials",
    "events_per_trial",
    "catalog_size",
    "elts_per_layer",
    "losses_per_elt",
    "n_layers",
    "seed",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Distributed aggregate-risk-analysis sweeps over a "
        "shared job queue and result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, store: bool = True):
        p.add_argument(
            "--queue",
            required=True,
            help="queue directory, or tcp://host:port of a repro-kv-server",
        )
        if store:
            p.add_argument(
                "--store",
                default=None,
                help="store cache dir or tcp://host:port (default: "
                "$REPRO_STORE_URL, then $REPRO_CACHE_DIR)",
            )

    submit = sub.add_parser("submit", help="delta-plan and enqueue a sweep")
    add_common(submit)
    submit.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="small",
        help="base workload spec (default: small)",
    )
    for field in _SPEC_OVERRIDES:
        submit.add_argument(
            f"--{field.replace('_', '-')}", type=int, default=None
        )
    submit.add_argument("--engine", default="sequential")
    submit.add_argument(
        "--segment-trials",
        type=int,
        default=None,
        help="fixed segment stride (default: the engine's native plan)",
    )
    submit.add_argument(
        "--secondary",
        default=None,
        metavar="ALPHA,BETA",
        help="enable secondary uncertainty with Beta(alpha, beta)",
    )
    submit.add_argument("--secondary-seed", type=int, default=20130812)
    submit.add_argument(
        "--partitions",
        type=int,
        default=None,
        metavar="N",
        help="partition/shuffle mode: enqueue N reduce jobs (workers "
        "fold their segments into partial YLTs; gather merges N "
        "partials instead of every segment)",
    )

    worker = sub.add_parser("worker", help="claim and execute jobs")
    add_common(worker)
    worker.add_argument("--worker-id", default=None)
    worker.add_argument("--max-jobs", type=int, default=None)
    worker.add_argument(
        "--lease-seconds",
        type=float,
        default=60.0,
        help="heartbeat patience before peers may requeue this worker's jobs",
    )
    worker.add_argument(
        "--no-drain",
        action="store_true",
        help="exit at the first empty claim instead of waiting for "
        "claimed jobs to resolve",
    )

    status = sub.add_parser(
        "status", help="per-sweep job counts (and store health)"
    )
    add_common(status)
    status.add_argument("--sweep", default=None)
    status.add_argument(
        "--failed",
        action="store_true",
        help="also print each failed job's failure provenance "
        "(per-attempt worker, error and exception chain)",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="emit the queue/store/worker stats as machine-readable "
        "JSON (failed-job provenance always included)",
    )

    gather = sub.add_parser("gather", help="assemble a sweep's YLT")
    add_common(gather)
    gather.add_argument("--sweep", required=True)
    gather.add_argument(
        "--out", default=None, help="write the YLT to this .npz path"
    )
    gather.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        help="wait up to this many seconds for open jobs to drain first",
    )
    return parser


def _store_for(args):
    # Directory path or tcp:// URL (multi-machine fleets); None falls
    # back to $REPRO_STORE_URL, then the default shared cache dir.
    from repro.net.url import store_from_url

    return store_from_url(args.store)


def _queue_for(args, **kwargs):
    from repro.net.url import queue_from_url

    return queue_from_url(args.queue, **kwargs)


def _cmd_submit(args) -> int:
    from repro.engines.registry import create_engine
    from repro.fleet.sweep import submit_sweep

    spec: WorkloadSpec = _SCALES[args.scale]
    changes = {
        field: getattr(args, field)
        for field in _SPEC_OVERRIDES
        if getattr(args, field) is not None
    }
    if changes:
        spec = spec.with_(name=f"{spec.name}-custom", **changes)

    from repro.data.generator import generate_workload

    workload = generate_workload(spec)
    secondary = None
    if args.secondary:
        from repro.core.secondary import SecondaryUncertainty

        alpha, beta = (float(v) for v in args.secondary.split(","))
        secondary = SecondaryUncertainty(alpha, beta)
    engine_obj = create_engine(
        args.engine,
        secondary=secondary,
        secondary_seed=args.secondary_seed if secondary is not None else None,
    )
    ticket = submit_sweep(
        _queue_for(args),
        _store_for(args),
        workload.yet,
        workload.portfolio,
        workload.catalog.n_events,
        engine_obj,
        segment_trials=args.segment_trials,
        workload_spec=spec,
        n_partitions=args.partitions,
    )
    print(f"sweep:     {ticket.sweep_id}")
    print(f"engine:    {args.engine}")
    print(f"workload:  {dataclasses.asdict(spec)}")
    print(f"segments:  {ticket.delta.n_segments}")
    print(f"enqueued:  {ticket.submitted}")
    print(f"reused:    {ticket.reused} already in store")
    return 0


def _cmd_worker(args) -> int:
    from repro.fleet.worker import FleetWorker

    queue = _queue_for(args, lease_seconds=args.lease_seconds)
    worker = FleetWorker(queue, _store_for(args), worker_id=args.worker_id)
    stats = worker.run(max_jobs=args.max_jobs, drain=not args.no_drain)
    print(
        f"{stats.worker_id}: claimed={stats.claimed} "
        f"computed={stats.computed} reused={stats.reused} "
        f"failed={stats.failed} compute_seconds={stats.compute_seconds:.3f}"
    )
    return 1 if stats.failed else 0


def _failed_jobs(queue, sweep_id) -> List[dict]:
    """Failure provenance of a sweep's exhausted jobs, JSON-able."""
    return [
        {
            "job_id": job.job_id,
            "kind": job.kind,
            "attempts": job.attempts,
            "error": job.error,
            "history": list(job.history),
        }
        for job in queue.jobs("failed", sweep_id)
    ]


def _cmd_status(args) -> int:
    import json

    queue = _queue_for(args)
    sweep_ids = [args.sweep] if args.sweep else queue.sweep_ids()
    health = None
    if getattr(args, "store", None):
        # Fold the store's degradation picture — breaker states,
        # corruption/retry counters, hedged-read wins — into the same
        # screen as the job counts (one place to look during an outage).
        from repro.store.health import format_health, store_health

        store = _store_for(args)
        health = store_health(store)
        if health["entries"] is None:
            # Op counters are process-local (all zero in a fresh CLI);
            # a one-off directory walk gives the on-disk truth.
            try:
                health["entries"] = len(store)
            except TypeError:
                pass
        if not args.json:
            for line in format_health(health):
                print(line)
    if args.json:
        sweeps = []
        for sweep_id in sweep_ids:
            manifest = queue.load_sweep(sweep_id) or {}
            sweeps.append(
                {
                    "sweep_id": sweep_id,
                    "counts": queue.counts(sweep_id),
                    "reused": sum(
                        1
                        for seg in manifest.get("segments", ())
                        if seg.get("stored")
                    ),
                    "engine": manifest.get("engine"),
                    "n_trials": manifest.get("n_trials"),
                    "failed_jobs": _failed_jobs(queue, sweep_id),
                }
            )
        print(json.dumps({"store": health, "sweeps": sweeps}, indent=2))
        return 0
    if not sweep_ids:
        print("no sweeps")
        return 0
    for sweep_id in sweep_ids:
        counts = queue.counts(sweep_id)
        manifest = queue.load_sweep(sweep_id) or {}
        reused = sum(
            1 for seg in manifest.get("segments", ()) if seg.get("stored")
        )
        line = (
            f"{sweep_id}: pending={counts['pending']} "
            f"claimed={counts['claimed']} done={counts['done']} "
            f"failed={counts['failed']} reused={reused} "
            f"engine={manifest.get('engine', '?')}"
        )
        print(line)
        if args.failed:
            for job in queue.jobs("failed", sweep_id):
                print(f"  failed {job.job_id} ({job.kind}, "
                      f"{job.attempts} attempt(s)):")
                for record in job.history:
                    print(
                        f"    attempt {record.get('attempt', '?')} "
                        f"on {record.get('worker') or '?'}: "
                        f"{record.get('error', '?')}"
                    )
                    for link in record.get("chain", ()):
                        print(f"      caused by: {link}")
    return 0


def _cmd_gather(args) -> int:
    from repro.fleet.sweep import gather_sweep, wait_for_drain
    from repro.store.keys import ylt_digest

    queue = _queue_for(args)
    if args.timeout > 0 and not wait_for_drain(
        queue, args.sweep, timeout=args.timeout
    ):
        print(
            f"timed out: {queue.active_count(args.sweep)} job(s) still open",
            file=sys.stderr,
        )
        return 1
    started = time.perf_counter()
    ylt = gather_sweep(queue, _store_for(args), args.sweep)
    seconds = time.perf_counter() - started
    print(f"assembled {ylt.n_layers} layer(s) x {ylt.n_trials} trials "
          f"in {seconds:.3f}s")
    print(f"ylt digest: {ylt_digest(ylt)}")
    for layer_id in ylt.layer_ids:
        print(f"layer {layer_id}: expected loss {ylt.expected_loss(layer_id):,.2f}")
    if args.out:
        from repro.io.binary import save_ylt

        save_ylt(ylt, args.out)
        print(f"wrote {args.out}")
    return 0


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return {
        "submit": _cmd_submit,
        "worker": _cmd_worker,
        "status": _cmd_status,
        "gather": _cmd_gather,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
