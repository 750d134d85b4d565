"""End-to-end benchmark of the aggregate-risk-analysis stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``batch`` (the paper-shaped analysis),
``quote`` (open- and closed-loop quoting through the serving front-end),
``sweep`` (cold fleet sweeps and delta re-sweeps) and ``replay`` (warm
replays of a stored sweep, local and over the wire).  Every workload
times a primary and a secondary operation.  ``--trace 0`` prints the
end-to-end metrics (:data:`END_TO_END`); ``--trace 1`` prints the
per-layer table.  Human-readable lines come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any output failed
its correctness check, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("batch", "quote", "sweep", "replay")
#: what every workload reports: set-up seconds, peak memory and the
#: median time of its primary and secondary operation
END_TO_END = ("setup_s", "peak_rss_mb", "primary_ms", "secondary_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import repro  # noqa: F401  (import time is part of setup_s)

    import_seconds = time.perf_counter() - started
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    import harness
    import hostinfo
    import layers
    import workload_batch
    import workload_quote
    import workload_sweep

    run_workload = {
        "batch": workload_batch.run,
        "quote": workload_quote.run,
        "sweep": workload_sweep.run_sweep,
        "replay": workload_sweep.run_replay,
    }[args.workload]
    bench = harness.Bench(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    fingerprint = hostinfo.fingerprint()
    try:
        host = None
        if bench.trace:
            host = hostinfo.copy_bandwidth(fingerprint["llc_bytes"])
        run_workload(bench)
        bench.metric("setup_s", bench.setup_seconds(import_seconds), "s")
        bench.metric("peak_rss_mb", hostinfo.peak_rss_mb(), "MiB")
        assert sorted(bench.metrics) == sorted(END_TO_END), bench.metrics
        per_layer = layers.per_layer_metrics(bench, host) if bench.trace else None
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "host": fingerprint,
            "steal_pct": bench.info.get("steal_pct"),
            "metrics": {name: value for name, (value, _) in bench.metrics.items()},
            "wall_clock_medians": bench.raw_medians(),
            "setup_wall_s": bench.info["setup_wall_s"],
            "copy_probe": host,
            "ops": bench.op_log,
        }
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (out_dir / f"run-{stem}.json").write_text(json.dumps(record))
        if bench.trace:
            bench.tracer.dump(
                out_dir / f"trace-{stem}.jsonl",
                {"workload": args.workload, "seed": args.seed, "host": fingerprint},
            )
    finally:
        bench.close()

    print(f"host: {json.dumps(fingerprint, sort_keys=True)}")
    print(f"steal_pct: {bench.info.get('steal_pct')}")
    for name, (value, unit) in bench.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for name in ("open_p90_ms", "closed_qps"):
        if name in bench.info:
            print(f"{name}: {bench.info[name]:.6g}")
    for kind, value in bench.raw_medians().items():
        print(f"wall-clock median {kind}: {value:.6g} s (n={len(bench.raw[kind])})")
    print(f"wall-clock setup: {bench.info['setup_wall_s']:.6g} s")
    print(f"speed probe median: {statistics.median(bench.probes) * 1e3:.4g} ms")
    if bench.trace:
        print(
            f"copy probe: {host['probe_bytes'] / 2**20:.0f} MiB array on "
            f"{host['threads']:.0f} threads, LLC {host['llc_bytes'] / 2**20:.0f} MiB"
        )
        for name, seconds in bench.info["per_layer_self_s"].items():
            print(f"self time {name}: {seconds:.4f} s")
        metrics = {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit in layers.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in bench.metrics.items()
        }
    for error in bench.info.get("errors", [])[:5]:
        print(f"failed request: {error}")
    for what in bench.mismatches:
        print(f"MISMATCH: {what}")
    print(f"attempted: {bench.attempted} failed: {bench.failed}")
    correct = not bench.mismatches
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
