"""Fleet sweep example: N worker processes, one store, one exact YLT.

Demonstrates the distributed execution tier end to end:

1. submit a sweep — the analysis is delta-planned against the shared
   result store and its missing segments become jobs on a durable queue;
2. launch worker *subprocesses* (``python -m repro.fleet.cli worker``)
   that regenerate the seeded workload from the sweep manifest, claim
   jobs, and store each segment under its content-addressed key;
3. assemble the per-segment results into a Year Loss Table and verify
   it is bit-for-bit identical to a monolithic single-process run;
4. re-submit the same sweep: every segment is already stored, so the
   fleet has nothing to do and gathering is pure replay.

Run:  PYTHONPATH=src python examples/fleet_sweep.py
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.analysis import AggregateRiskAnalysis
from repro.data.generator import generate_workload
from repro.data.presets import BENCH_SMALL
from repro.engines.registry import create_engine
from repro.fleet import JobQueue, gather_sweep, submit_sweep
from repro.store import SharedFileStore
from repro.store.keys import ylt_digest

N_WORKERS = 3

SPEC = BENCH_SMALL.with_(
    name="fleet-example",
    n_trials=6_000,
    events_per_trial=60,
    elts_per_layer=6,
    n_layers=2,
    shared_elt_pool=True,
)


def launch_worker(queue_dir: Path, cache_dir: Path, index: int):
    """One fleet worker as a separate OS process."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.fleet.cli",
            "worker",
            "--queue",
            str(queue_dir),
            "--store",
            str(cache_dir),
            "--worker-id",
            f"example-worker-{index}",
        ],
        env=env,
    )


def main() -> int:
    workload = generate_workload(SPEC)
    with tempfile.TemporaryDirectory(prefix="fleet-example-") as root:
        queue_dir, cache_dir = Path(root) / "queue", Path(root) / "cache"
        queue = JobQueue(queue_dir)
        store = SharedFileStore(cache_dir)

        # 1. Submit: delta-plan against the (empty) store, enqueue jobs.
        # The workload spec rides in the manifest so worker processes
        # can regenerate byte-identical inputs.
        ticket = submit_sweep(
            queue,
            store,
            workload.yet,
            workload.portfolio,
            workload.catalog.n_events,
            create_engine("sequential"),
            segment_trials=1_000,
            workload_spec=SPEC,
            n_workers=N_WORKERS,
        )
        print(
            f"submitted {ticket.sweep_id}: {ticket.submitted} segment(s) "
            f"in {ticket.runs} job(s), {ticket.reused} already stored"
        )

        # 2. A fleet of independent worker processes drains the queue.
        started = time.perf_counter()
        workers = [
            launch_worker(queue_dir, cache_dir, i) for i in range(N_WORKERS)
        ]
        for worker in workers:
            worker.wait()
        print(
            f"{N_WORKERS} worker processes drained the queue in "
            f"{time.perf_counter() - started:.2f}s: {queue.counts()}"
        )

        # 3. Assemble — and check against a monolithic in-process run.
        ylt = gather_sweep(queue, store, ticket.sweep_id)
        ara = AggregateRiskAnalysis(
            workload.portfolio, workload.catalog.n_events
        )
        mono = ara.run(workload.yet, engine="sequential")
        assert ylt_digest(ylt) == ylt_digest(mono.ylt), "fleet != monolithic"
        print(f"assembled YLT digest {ylt_digest(ylt)[:16]}… matches the "
              "monolithic run bit-for-bit")
        for layer_id in ylt.layer_ids:
            print(
                f"  layer {layer_id}: expected annual loss "
                f"{ylt.expected_loss(layer_id):,.0f}"
            )

        # 4. Re-submit: the store already has every segment.
        again = submit_sweep(
            queue,
            store,
            workload.yet,
            workload.portfolio,
            workload.catalog.n_events,
            create_engine("sequential"),
            segment_trials=1_000,
            workload_spec=SPEC,
        )
        print(
            f"re-submitted: {again.submitted} segment(s) enqueued, "
            f"{again.reused}/{again.delta.n_segments} segments reused — "
            "a repeated sweep is pure replay"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
