"""``sweep`` and ``replay``: fleet sweeps and warm replays, local and remote.

Both run ``fleet_bench_spec()`` (two layers over a shared ELT pool) cut
into 250-trial segments: 128 segments.

``sweep`` (:func:`run_sweep`): each round runs a cold ``run_fleet``
(fresh queue directory and ``SharedFileStore``, one in-process worker),
the primary operation, then a delta re-sweep into the same store after a
10% YET extension (14 new jobs of 142), the secondary one.  Fleet
coordination, store writes, delta planning and the kernel do the work.

``replay`` (:func:`run_replay`): warm replays (submit finds every
segment stored, gather re-reads them) of one stored sweep, from the
local store directory (primary) and from the same directory served by a
``repro-kv-server`` subprocess over ``tcp://`` (secondary).  Each timed
operation is :data:`REPLAYS` replays back to back; the metrics are
milliseconds per replay.  Fleet submit and gather, store reads and the
wire do the work; the kernel does none.  The local replay is the bypass
of the wire: the prediction for a change to the ``net`` layer is no
change there.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time

from harness import build_tables

SEGMENT_TRIALS = 250
DELTA_FRACTION = 0.1
#: warm replays timed back to back as one operation, local and remote
#: each: one local replay takes about 0.1 s, too short to time steadily
REPLAYS = 4
SERVER_START_SECONDS = 60.0

clock = time.perf_counter


class KvServer:
    """A ``repro-kv-server`` subprocess on an OS-chosen loopback port."""

    def __init__(self, root, store_dir, queue_dir, log_path) -> None:
        self.log_path = log_path
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.net.cli",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    "0",
                    "--store-dir",
                    str(store_dir),
                    "--queue-dir",
                    str(queue_dir),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=root,
                env=env,
            )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = clock() + SERVER_START_SECONDS
        while clock() < deadline:
            text = self.log_path.read_text()
            found = re.search(r"listening on [\d.]+:(\d+)", text)
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro-kv-server exited early:\n{text}")
            time.sleep(0.02)
        raise RuntimeError("repro-kv-server did not start listening")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _fleet(bench, extend: bool):
    """Set-up shared by both workloads: the generated workload (and with
    ``extend`` the YET grown by :data:`DELTA_FRACTION`) and a ``sweep``
    function running one fleet sweep into a directory."""
    import repro
    import repro.data.generator as generator
    from repro.bench.experiments import fleet_bench_spec
    from repro.data.yet import YearEventTable
    from repro.store import SharedFileStore

    spec = fleet_bench_spec().with_(name="perfbench-sweep", seed=bench.seed)

    def prepare():
        workload = generator.generate_workload(spec)
        build_tables(workload)
        if not extend:
            return workload, None
        tail = generator.generate_yet(
            workload.catalog,
            n_trials=int(spec.n_trials * DELTA_FRACTION),
            events_per_trial=spec.events_per_trial,
            seed=bench.seed + 1,
        )
        return workload, YearEventTable.concatenate([workload.yet, tail])

    workload, extended = bench.setup(prepare)
    ara = repro.AggregateRiskAnalysis(workload.portfolio, workload.catalog.n_events)

    def sweep(target_yet, directory):
        return ara.run_fleet(
            target_yet,
            engine="sequential",
            n_workers=1,
            store=SharedFileStore(directory / "store"),
            queue_dir=directory / "queue",
            segment_trials=SEGMENT_TRIALS,
        )

    return workload, extended, ara, sweep


def run_sweep(bench) -> None:
    from repro.store import ylt_digest

    workload, extended, ara, sweep = _fleet(bench, extend=True)
    yet = workload.yet
    with bench.once():
        expected = ylt_digest(ara.run(yet, engine="sequential").ylt)
        expected_ext = ylt_digest(ara.run(extended, engine="sequential").ylt)
        # warm-up: both phases once, untimed
        warm = sweep(yet, bench.tmp / "warm")
        sweep(extended, bench.tmp / "warm")
        shutil.rmtree(bench.tmp / "warm")
    n_segments = warm.meta["fleet"]["n_segments"]

    for index in bench.rounds():
        directory = bench.tmp / f"round-{index}"
        directory.mkdir()  # fresh, on the same filesystem, before timing
        bench.attempted += 2
        with bench.op("sweep_cold"):
            cold = sweep(yet, directory)
        with bench.op("sweep_delta"):
            delta = sweep(extended, directory)
        with bench.untimed():
            bench.check(
                ylt_digest(cold.ylt) == expected,
                "cold sweep digest differs from Engine.run",
            )
            bench.check(
                cold.meta["fleet"]["jobs_submitted"] == n_segments,
                "cold sweep did not compute every segment",
            )
            bench.check(
                ylt_digest(delta.ylt) == expected_ext,
                "delta re-sweep digest differs from Engine.run on the extended YET",
            )
            bench.check(
                delta.meta["fleet"]["segments_reused"] == n_segments,
                "delta re-sweep recomputed stored segments",
            )
            shutil.rmtree(directory)

    bench.metric("primary_ms", 1e3 * bench.median("sweep_cold"), "ms")
    bench.metric("secondary_ms", 1e3 * bench.median("sweep_delta"), "ms")
    if bench.trace:
        bench.info["tracing_overhead_pct"] = bench.tracing_overhead_pct(
            ("sweep_cold", "sweep_delta")
        )


def run_replay(bench) -> None:
    import repro.fleet.sweep as fleet_sweep
    from repro.engines.registry import create_engine
    from repro.fleet.jobs import JobQueue
    from repro.net.client import RemoteStore, WireTransport
    from repro.net.queue import RemoteJobQueue
    from repro.store import SharedFileStore, ylt_digest

    workload, _, ara, sweep = _fleet(bench, extend=False)
    yet, portfolio = workload.yet, workload.portfolio
    engine_obj = create_engine("sequential")
    served = bench.tmp / "served"
    local_queue = JobQueue(served / "queue")
    local_store = SharedFileStore(served / "store")
    server = None
    transport = None

    def replay(queue, store):
        ticket = fleet_sweep.submit_sweep(
            queue,
            store,
            yet,
            portfolio,
            workload.catalog.n_events,
            engine_obj,
            segment_trials=SEGMENT_TRIALS,
        )
        return ticket, fleet_sweep.gather_sweep(queue, store, ticket.sweep_id)

    try:
        with bench.once():
            expected = ylt_digest(ara.run(yet, engine="sequential").ylt)
            server = KvServer(
                bench.root,
                served / "store",
                served / "queue",
                bench.tmp / "kv-server.log",
            )
            transport = WireTransport("127.0.0.1", server.port, pool_size=1)
            remote_store = RemoteStore(transport=transport)
            remote_queue = RemoteJobQueue(transport=transport)
            remote_store.server_stats()  # the server has answered a request
            stored = sweep(yet, served)
            bench.check(
                ylt_digest(stored.ylt) == expected,
                "stored sweep digest differs from Engine.run",
            )
            n_segments = stored.meta["fleet"]["n_segments"]
            # warm-up: both replays once, untimed
            replay(local_queue, local_store)
            replay(remote_queue, remote_store)

        def wire_counters():
            return {
                "net.retries": remote_store.rpc_retries + remote_queue.rpc_retries,
                "net.reconnects": transport.reconnects,
            }

        kinds = (
            ("replay_local", local_queue, local_store),
            ("replay_remote", remote_queue, remote_store),
        )
        for _ in bench.rounds():
            before = wire_counters()
            bench.attempted += 2 * REPLAYS
            replays = {}
            for kind, queue, store in kinds:
                with bench.op(kind):
                    replays[kind] = [replay(queue, store) for _ in range(REPLAYS)]
            with bench.untimed():
                for kind, results in replays.items():
                    for ticket, ylt in results:
                        bench.check(ylt_digest(ylt) == expected, f"{kind} digest differs")
                        bench.check(ticket.submitted == 0, f"{kind} submitted jobs")
                bench.count("net.segments", REPLAYS * n_segments)
                after = wire_counters()
                for name, value in after.items():
                    bench.count(name, value - before[name])
    finally:
        if transport is not None:
            transport.close()
        if server is not None:
            server.stop()

    bench.metric("primary_ms", 1e3 * bench.median("replay_local") / REPLAYS, "ms")
    bench.metric("secondary_ms", 1e3 * bench.median("replay_remote") / REPLAYS, "ms")
    if bench.trace:
        bench.info["tracing_overhead_pct"] = bench.tracing_overhead_pct(
            ("replay_local", "replay_remote")
        )
