"""Tests for the benchmark harness: runner, report, experiments, CLI."""

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.report import format_report, format_table
from repro.bench.runner import (
    ExperimentReport,
    clear_workload_cache,
    get_workload,
    measure_engine,
)
from repro.data.presets import BENCH_SMALL

# Minimal spec so measured experiments run in well under a second each.
TINY = BENCH_SMALL.with_(
    name="bench-tests",
    n_trials=200,
    events_per_trial=10,
    catalog_size=2_000,
    losses_per_elt=100,
    elts_per_layer=3,
)


class TestRunner:
    def test_workload_cached(self):
        a = get_workload(TINY)
        b = get_workload(TINY)
        assert a is b
        clear_workload_cache()
        c = get_workload(TINY)
        assert c is not a

    def test_measure_engine_runs(self):
        result = measure_engine(TINY, "sequential")
        assert result.engine == "sequential"
        assert result.ylt.n_trials == TINY.n_trials

    def test_measure_engine_repeats_keep_fastest(self):
        result = measure_engine(TINY, "sequential", repeats=2)
        assert result.wall_seconds > 0

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            measure_engine(TINY, "sequential", repeats=0)


class TestReportFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": None}]
        text = format_table(rows)
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert set(lines[1]) == {"-"}  # separator row
        assert "22" in lines[3]  # second data row
        assert "-" in lines[3]  # None rendered as '-'

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_markdown_mode(self):
        rows = [{"x": 1.5}]
        text = format_table(rows, markdown=True)
        assert text.startswith("|")

    def test_format_report_includes_notes(self):
        report = ExperimentReport("X-1", "demo")
        report.add(value=1)
        report.note("a shape note")
        text = format_report(report)
        assert "X-1" in text
        assert "a shape note" in text

    def test_report_column_access(self):
        report = ExperimentReport("X-1", "demo")
        report.add(a=1, b=2)
        report.add(a=3)
        assert report.column("a") == [1, 3]
        assert report.column("b") == [2, None]


class TestExperiments:
    """Each experiment must run end-to-end and produce sane shapes."""

    def test_registry_matches_design_doc(self):
        assert set(ALL_EXPERIMENTS) == {
            "SEQ-SCALE", "FIG-1a", "FIG-1b", "FIG-2", "FIG-3", "FIG-4",
            "FIG-5", "FIG-6", "DS-TABLE", "OPT-ABLATE", "PLAN-ABLATE",
            "REPLAY-ABLATE",
            "FLEET-ABLATE", "CHAOS-ABLATE", "SERVE-ABLATE", "NET-ABLATE",
            "SCENARIO-ABLATE", "EXT-SECONDARY",
        }

    @pytest.mark.parametrize("exp_id", sorted(ALL_EXPERIMENTS))
    def test_runs_model_only(self, exp_id):
        report = ALL_EXPERIMENTS[exp_id](measured_spec=TINY, measure=False)
        assert report.exp_id == exp_id
        # EXT-SECONDARY and the plan/replay/fleet ablations are
        # measurement-only; everything else has model rows.
        if exp_id not in (
            "EXT-SECONDARY",
            "PLAN-ABLATE",
            "REPLAY-ABLATE",
            "FLEET-ABLATE",
            "CHAOS-ABLATE",
            "SERVE-ABLATE",
            "NET-ABLATE",
            "SCENARIO-ABLATE",
        ):
            assert report.rows

    def test_fig5_measured_has_all_implementations(self):
        report = ALL_EXPERIMENTS["FIG-5"](measured_spec=TINY, measure=True)
        assert len(report.rows) == 5
        assert report.column("paper_seconds")[0] == 337.47

    def test_fig2_block_sweep_shape(self):
        report = ALL_EXPERIMENTS["FIG-2"](measured_spec=TINY, measure=False)
        times = dict(
            zip(
                report.column("threads_per_block"),
                report.column("model_paper_seconds"),
            )
        )
        assert times[128] > times[256]

    def test_fig4_marks_infeasible(self):
        report = ALL_EXPERIMENTS["FIG-4"](measured_spec=TINY, measure=False)
        feasible = dict(
            zip(report.column("threads_per_block"), report.column("feasible"))
        )
        assert feasible[32] is True
        assert feasible[96] is False

    def test_fig3_efficiency_high(self):
        report = ALL_EXPERIMENTS["FIG-3"](measured_spec=TINY, measure=False)
        for eff in report.column("model_efficiency"):
            assert eff > 0.9

    def test_ds_table_runs_measured(self):
        report = ALL_EXPERIMENTS["DS-TABLE"](
            measured_spec=TINY, measure=True, n_queries=5_000
        )
        kinds = report.column("kind")
        assert kinds == ["direct", "sorted", "hash", "cuckoo", "compressed"]
        ns = report.column("measured_ns_per_lookup")
        assert all(v > 0 for v in ns)

    def test_opt_ablation_monotone_improvement_from_none(self):
        report = ALL_EXPERIMENTS["OPT-ABLATE"](
            measured_spec=TINY, measure=False
        )
        times = report.column("model_paper_seconds")
        assert times[0] == max(times)  # "none" slowest
        assert times[-1] == min(times)  # all four fastest

    def test_ext_secondary_measured(self):
        report = ALL_EXPERIMENTS["EXT-SECONDARY"](
            measured_spec=TINY, measure=True
        )
        assert [r["uncertainty"] for r in report.rows] == [
            "none", "beta(4,4)", "beta(2,2)",
        ]
        stds = report.column("std_year_loss")
        assert stds[1] > 0


class TestCli:
    def test_list(self, capsys):
        from repro.bench.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "FIG-5" in out

    def test_unknown_experiment(self, capsys):
        from repro.bench.cli import main

        assert main(["NOPE"]) == 2

    def test_model_only_run(self, capsys):
        from repro.bench.cli import main

        assert main(["FIG-2", "--model-only"]) == 0
        out = capsys.readouterr().out
        assert "threads_per_block" in out
