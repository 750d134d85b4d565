"""``repro-scenario`` command line: what-if campaigns from a shell.

Typical session::

    repro-scenario demo > stress.json          # starter scenario set
    repro-scenario show --set stress.json      # fingerprints + shapes
    repro-scenario plan --set stress.json --store /tmp/c
    repro-scenario run  --set stress.json --store /tmp/c --out results.json

``plan`` is the dry run: it compiles every scenario and delta-plans it
against the store, printing how many segments a run would reuse versus
compute — the what-if of the what-ifs.  ``run`` executes the campaign
(in-process workers by default; ``--workers 0`` submits for external
``repro-fleet worker`` processes attached to the same queue, which both
accept ``tcp://`` URLs for multi-machine fleets).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from repro.data.presets import (
    BENCH_DEFAULT,
    BENCH_SMALL,
    SCENARIO_SMALL,
    WorkloadSpec,
)

_SCALES = {
    "scenario": SCENARIO_SMALL,
    "small": BENCH_SMALL,
    "default": BENCH_DEFAULT,
}


def demo_set():
    """A starter scenario set exercising every transform family."""
    from repro.scenario.spec import (
        FrequencyOverlay,
        RateAdjustment,
        Scenario,
        ScenarioSet,
        SeverityOverlay,
        TailSeek,
        TrialWindow,
    )

    return ScenarioSet(
        name="demo-stress",
        scenarios=(
            Scenario.baseline(),
            Scenario(
                name="recent-window",
                transforms=(TrialWindow(start=0, stop=1000),),
                description="historical replay: first half of the trial set",
            ),
            Scenario(
                name="hurricane-surge",
                transforms=(
                    FrequencyOverlay(
                        families=("NA-hurricane",),
                        factor=1.5,
                        trial_start=0,
                        trial_stop=200,
                    ),
                ),
                seed=7,
                description="crisis overlay: +50% hurricane frequency in "
                "a 10% trial window",
            ),
            Scenario(
                name="warm-climate",
                transforms=(
                    RateAdjustment(
                        rates=(("NA-*", 1.2), ("EU-windstorm", 1.1)),
                    ),
                ),
                seed=11,
                description="climate-conditioned rates across all trials",
            ),
            Scenario(
                name="severity-shock",
                transforms=(SeverityOverlay(families=("JP-*",), factor=1.25),),
                description="25% severity loading on Japanese perils",
            ),
            Scenario(
                name="adversarial-tail",
                transforms=(TailSeek(fraction=0.25),),
                description="keep the proxy-worst quarter of trials",
            ),
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenario",
        description="Declarative what-if campaigns: compile scenario sets "
        "and sweep them through the delta-planned fleet stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_set(p):
        p.add_argument(
            "--set",
            dest="set_file",
            default=None,
            help="scenario-set JSON file (default: the built-in demo set)",
        )

    def add_workload(p):
        p.add_argument(
            "--scale",
            choices=sorted(_SCALES),
            default="scenario",
            help="baseline workload preset (default: scenario)",
        )
        p.add_argument("--n-trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument(
            "--segment-trials",
            type=int,
            default=100,
            help="segment stride — the delta-reuse quantum (default: 100)",
        )
        p.add_argument("--engine", default="sequential")

    demo = sub.add_parser(
        "demo", help="print a starter scenario-set JSON document"
    )
    demo.add_argument("--out", default=None, help="write to this path")

    show = sub.add_parser(
        "show", help="list a set's scenarios, fingerprints and shapes"
    )
    add_set(show)
    add_workload(show)

    plan = sub.add_parser(
        "plan",
        help="dry run: delta-plan each scenario against the store "
        "(reuse vs compute, nothing executed)",
    )
    add_set(plan)
    add_workload(plan)
    plan.add_argument(
        "--store",
        default=None,
        help="store cache dir or tcp://host:port (default: "
        "$REPRO_STORE_URL, then $REPRO_CACHE_DIR)",
    )

    run = sub.add_parser("run", help="execute a campaign")
    add_set(run)
    add_workload(run)
    run.add_argument(
        "--store",
        default=None,
        help="store cache dir or tcp://host:port (default: "
        "$REPRO_STORE_URL, then $REPRO_CACHE_DIR)",
    )
    run.add_argument(
        "--queue",
        default=None,
        help="queue dir or tcp://host:port (default: a private temp queue)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=2,
        help="in-process worker threads (0 = external repro-fleet workers "
        "drain the queue)",
    )
    run.add_argument(
        "--early-stop",
        action="store_true",
        help="staged trials with PML/TVaR early stopping",
    )
    run.add_argument(
        "--rel-tol",
        type=float,
        default=0.05,
        help="early-stop stability tolerance per stage (default: 0.05)",
    )
    run.add_argument(
        "--return-period",
        type=float,
        default=100.0,
        help="watched PML return period in years (default: 100)",
    )
    run.add_argument(
        "--out", default=None, help="write campaign rows to this JSON path"
    )
    return parser


def _load_set(args):
    from repro.scenario.spec import scenario_set_from_json

    if args.set_file is None:
        return demo_set()
    with open(args.set_file, "r", encoding="utf-8") as handle:
        return scenario_set_from_json(handle.read())


def _spec_for(args) -> WorkloadSpec:
    spec = _SCALES[args.scale]
    changes = {}
    if args.n_trials is not None:
        changes["n_trials"] = args.n_trials
    if args.seed is not None:
        changes["seed"] = args.seed
    if changes:
        spec = spec.with_(name=f"{spec.name}-custom", **changes)
    return spec


def _cmd_demo(args) -> int:
    from repro.scenario.spec import scenario_set_to_json

    text = scenario_set_to_json(demo_set())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_show(args) -> int:
    from repro.data.generator import generate_workload
    from repro.scenario.compiler import compile_scenario

    scenario_set = _load_set(args)
    workload = generate_workload(_spec_for(args))
    print(f"set {scenario_set.name!r} "
          f"({len(scenario_set)} scenarios, "
          f"fingerprint {scenario_set.fingerprint()[:16]})")
    print(f"baseline: {workload.yet.n_trials} trials x "
          f"{workload.yet.n_occurrences} occurrences, "
          f"families {[p.name for p in workload.catalog.perils]}")
    for scenario in scenario_set:
        compiled = compile_scenario(scenario, workload)
        kinds = ",".join(t.kind for t in scenario.transforms) or "baseline"
        print(
            f"  {scenario.name}: [{kinds}] seed={scenario.seed} "
            f"fingerprint={compiled.fingerprint[:16]} -> "
            f"{compiled.n_trials} trials, "
            f"{compiled.yet.n_occurrences} occurrences, "
            f"perturbed<={compiled.perturbed_fraction:.0%}"
        )
    return 0


def _cmd_plan(args) -> int:
    from repro.data.generator import generate_workload
    from repro.engines.registry import create_engine
    from repro.net.url import store_from_url
    from repro.scenario.compiler import compile_scenario

    scenario_set = _load_set(args)
    workload = generate_workload(_spec_for(args))
    store = store_from_url(args.store)
    engine = create_engine(args.engine)
    for scenario in scenario_set:
        compiled = compile_scenario(scenario, workload)
        delta = engine.plan_missing(
            compiled.yet,
            compiled.portfolio,
            store,
            segment_trials=args.segment_trials,
        )
        total = len(delta.segments)
        print(
            f"  {scenario.name}: {total} segments, "
            f"{delta.n_stored} reused from store, "
            f"{total - delta.n_stored} to compute"
        )
    return 0


def _cmd_run(args) -> int:
    from repro.data.generator import generate_workload
    from repro.net.url import queue_from_url, store_from_url
    from repro.scenario.adaptive import EarlyStopPolicy
    from repro.scenario.campaign import ScenarioCampaign

    scenario_set = _load_set(args)
    spec = _spec_for(args)
    workload = generate_workload(spec)
    policy = None
    if args.early_stop:
        policy = EarlyStopPolicy(
            return_period_years=args.return_period, rel_tol=args.rel_tol
        )
    campaign = ScenarioCampaign(
        workload,
        store_from_url(args.store),
        queue=None if args.queue is None else queue_from_url(args.queue),
        engine=args.engine,
        segment_trials=args.segment_trials,
        policy=policy,
        n_workers=args.workers,
        workload_spec=spec,
    )

    def progress(outcome):
        flags = []
        if outcome.replayed:
            flags.append("replayed")
        if outcome.early_stopped:
            flags.append(f"early-stopped@{outcome.trials_used}")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        print(
            f"  {outcome.name}: pml={outcome.metrics.get('pml', 0):,.0f} "
            f"tvar={outcome.metrics.get('tvar', 0):,.0f} "
            f"computed={outcome.n_computed}/{outcome.n_segments} "
            f"({outcome.wall_seconds:.2f}s){suffix}"
        )

    result = campaign.run(scenario_set, progress=progress)
    summary = result.summary()
    print(
        f"campaign {summary['campaign_fingerprint'][:16]}: "
        f"{summary['n_scenarios']} scenarios, "
        f"{summary['n_replayed']} replayed, "
        f"{summary['n_early_stopped']} early-stopped, "
        f"{summary['segments_computed']} segments computed / "
        f"{summary['segments_reused']} reused, "
        f"{summary['wall_seconds']:.2f}s"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"summary": summary, "scenarios": result.rows()},
                handle,
                indent=2,
            )
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return {
        "demo": _cmd_demo,
        "show": _cmd_show,
        "plan": _cmd_plan,
        "run": _cmd_run,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
