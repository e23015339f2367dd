"""Campaign analysis: shard merging, datasets, diagnostics, figures.

The headline property (ISSUE 8's acceptance criterion): a campaign run
as N shards and merged must produce a ``summary.json`` byte-identical
to the same campaign run unsharded — including when a shard is
SIGKILLed mid-journal-write and resumed.  The journal-driven figure
bridges must likewise reproduce the in-memory ``FigureResult`` path's
numbers exactly (same per-run metrics, same seed order, same
:func:`~repro.metrics.stats.summarize` call).
"""

import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from repro.experiments.campaign import (
    AnalysisError,
    CampaignAggregator,
    JOURNAL_NAME,
    JournalRecordError,
    ReportError,
    SUMMARY_NAME,
    encode_record,
    figure_from_dataset,
    group_diagnostics,
    load_dataset,
    merge_journals,
    parse_campaign,
    read_journal,
    run_campaign,
    seeds_for_relative_ci,
)
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.figures import FigureResult, generate_figures
from repro.experiments.report import render_table
from repro.experiments.settings import EvalSettings
from repro.__main__ import main

SPEC_TEXT = "scenario=circle:2; protocol=802.11|correct; pm=0; seeds=1-2; seconds=0.03"


@pytest.fixture(scope="module")
def executor():
    with ExperimentExecutor(on_failure="flag", workers=2) as ex:
        yield ex


@pytest.fixture(scope="module")
def reference(tmp_path_factory, executor):
    """The unsharded run every merge must reproduce byte-for-byte."""
    out = tmp_path_factory.mktemp("reference") / "full.out"
    spec = parse_campaign(SPEC_TEXT)
    report = run_campaign(spec, out, executor=executor)
    assert report.exit_code == 0
    return {
        "out": out,
        "summary": (out / SUMMARY_NAME).read_bytes(),
        "journal_runs": [
            line for line in
            (out / JOURNAL_NAME).read_text().splitlines()
            if '"kind":"run"' in line
        ],
    }


def run_shards(base, n_shards, executor):
    spec = parse_campaign(SPEC_TEXT)
    dirs = []
    for i in range(n_shards):
        d = pathlib.Path(base) / f"s{i}.out"
        run_campaign(spec, d, shard=(i, n_shards), executor=executor)
        dirs.append(d)
    return dirs


def drop_tail_record(journal_path, torn=False):
    """Simulate a mid-write SIGKILL: lose the last settled record."""
    path = pathlib.Path(journal_path)
    lines = path.read_bytes().splitlines(keepends=True)
    run_lines = [ln for ln in lines if b'"kind":"run"' in ln]
    if not run_lines:
        return False
    lines.remove(run_lines[-1])
    data = b"".join(lines)
    if torn:
        data += b'1a2b3c4d {"kind":"run", "torn'  # cut mid-payload
    path.write_bytes(data)
    return True


class TestMergeByteIdentity:
    @given(
        n_shards=st.integers(min_value=1, max_value=3),
        kill=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 2), st.booleans()),
        ),
    )
    @hyp_settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_sharded_merge_matches_unsharded(
        self, reference, executor, n_shards, kill
    ):
        with tempfile.TemporaryDirectory() as base:
            dirs = run_shards(base, n_shards, executor)
            if kill is not None:
                victim, torn = kill
                victim_dir = dirs[victim % n_shards]
                if drop_tail_record(victim_dir / JOURNAL_NAME, torn=torn):
                    # resume re-settles exactly the lost cell
                    run_campaign(
                        parse_campaign(SPEC_TEXT), victim_dir,
                        resume=True,
                        shard=(victim % n_shards, n_shards),
                        executor=executor,
                    )
            merged = pathlib.Path(base) / "merged.out"
            result = merge_journals(dirs, merged)
            assert result.complete
            assert not result.skipped
            assert (merged / SUMMARY_NAME).read_bytes() == \
                reference["summary"]

    def test_merged_run_records_identical_to_unsharded(
        self, reference, executor
    ):
        with tempfile.TemporaryDirectory() as base:
            dirs = run_shards(base, 2, executor)
            merged = pathlib.Path(base) / "merged.out"
            merge_journals(dirs, merged)
            merged_runs = [
                line for line in
                (merged / JOURNAL_NAME).read_text().splitlines()
                if '"kind":"run"' in line
            ]
            assert merged_runs == reference["journal_runs"]

    def test_incomplete_merge_is_resumable(self, reference, executor):
        with tempfile.TemporaryDirectory() as base:
            spec = parse_campaign(SPEC_TEXT)
            only = pathlib.Path(base) / "s0.out"
            run_campaign(spec, only, shard=(0, 2), executor=executor)
            merged = pathlib.Path(base) / "merged.out"
            result = merge_journals([only], merged)
            assert not result.complete
            assert result.missing
            # the merged directory is a valid campaign dir: resuming it
            # unsharded runs exactly the missing cells
            report = run_campaign(
                spec, merged, resume=True, executor=executor
            )
            assert report.executed == len(result.missing)
            assert (merged / SUMMARY_NAME).read_bytes() == \
                reference["summary"]


class TestMergeRobustness:
    def test_bad_record_skipped_and_counted(self, reference, executor):
        with tempfile.TemporaryDirectory() as base:
            dirs = run_shards(base, 2, executor)
            # checksum-valid record with no 'group': an incompatible
            # schema, not corruption — merge must skip, not crash
            bad = {"kind":"run", "fp": "feedbead" * 8, "cell": "x",
                   "seed": 1, "status": "ok", "metrics": {}}
            with open(dirs[0] / JOURNAL_NAME, "a") as fh:
                fh.write(encode_record(bad) + "\n")
            merged = pathlib.Path(base) / "merged.out"
            result = merge_journals(dirs, merged)
            assert len(result.skipped) == 1
            skip = result.skipped[0]
            assert "group" in skip.reason
            assert skip.offset == len(read_journal(
                dirs[0] / JOURNAL_NAME).records)
            assert result.complete
            assert (merged / SUMMARY_NAME).read_bytes() == \
                reference["summary"]

    def test_unknown_fingerprint_skipped(self, reference, executor):
        with tempfile.TemporaryDirectory() as base:
            dirs = run_shards(base, 1, executor)
            alien = {"kind":"run", "fp": "ab" * 32, "cell": "x",
                     "group": "g", "seed": 1, "status": "ok",
                     "metrics": {}}
            with open(dirs[0] / JOURNAL_NAME, "a") as fh:
                fh.write(encode_record(alien) + "\n")
            result = merge_journals(
                dirs, pathlib.Path(base) / "merged.out"
            )
            assert len(result.skipped) == 1
            assert "not in this campaign's grid" in result.skipped[0].reason

    def test_duplicate_records_dropped(self, reference, executor):
        with tempfile.TemporaryDirectory() as base:
            dirs = run_shards(base, 2, executor)
            journal = dirs[1] / JOURNAL_NAME
            run_line = next(
                line for line in journal.read_text().splitlines()
                if '"kind":"run"' in line
            )
            with open(journal, "a") as fh:
                fh.write(run_line + "\n")
            merged = pathlib.Path(base) / "merged.out"
            result = merge_journals(dirs, merged)
            assert result.duplicate_records == 1
            assert (merged / SUMMARY_NAME).read_bytes() == \
                reference["summary"]

    def test_mismatched_specs_rejected(self, executor):
        with tempfile.TemporaryDirectory() as base:
            spec_a = parse_campaign(SPEC_TEXT)
            spec_b = parse_campaign(
                "scenario=circle:3; pm=0; seeds=1; seconds=0.03"
            )
            dir_a = pathlib.Path(base) / "a.out"
            dir_b = pathlib.Path(base) / "b.out"
            run_campaign(spec_a, dir_a, executor=executor)
            run_campaign(spec_b, dir_b, executor=executor)
            with pytest.raises(AnalysisError, match="different campaigns"):
                merge_journals(
                    [dir_a, dir_b], pathlib.Path(base) / "m.out"
                )

    def test_refuses_existing_output_without_force(
        self, reference, executor
    ):
        with tempfile.TemporaryDirectory() as base:
            dirs = run_shards(base, 1, executor)
            merged = pathlib.Path(base) / "merged.out"
            merge_journals(dirs, merged)
            with pytest.raises(AnalysisError, match="force"):
                merge_journals(dirs, merged)
            result = merge_journals(dirs, merged, force=True)
            assert result.complete

    def test_missing_journal_rejected(self):
        with pytest.raises(AnalysisError, match="no journal"):
            merge_journals(["/nonexistent/place"], "/tmp/never.out")

    def test_empty_sources_rejected(self):
        with pytest.raises(AnalysisError, match="nothing to merge"):
            merge_journals([], "/tmp/never.out")


class TestAggregatorValidation:
    def ok_record(self, **overrides):
        record = {"kind":"run", "fp": "aa" * 32, "cell": "c",
                  "group": "g", "seed": 1, "status": "ok",
                  "metrics": {}}
        record.update(overrides)
        return {k: v for k, v in record.items() if v is not None}

    def test_missing_group_names_offset(self):
        agg = CampaignAggregator()
        with pytest.raises(JournalRecordError, match="at record 7"):
            agg.add(self.ok_record(group=None), offset=7)

    def test_missing_status_names_offset(self):
        agg = CampaignAggregator()
        with pytest.raises(JournalRecordError, match=r"no 'status'"):
            agg.add(self.ok_record(status=None), offset=3)

    def test_error_names_cell_and_schema(self):
        agg = CampaignAggregator()
        with pytest.raises(JournalRecordError, match="incompatible schema"):
            agg.add(self.ok_record(group=None), offset=1)

    def test_valid_record_still_aggregates(self):
        agg = CampaignAggregator()
        agg.add(self.ok_record(), offset=1)
        assert agg.ok == 1


class TestDataset:
    def test_typed_axis_columns(self, reference):
        ds = load_dataset(reference["out"])
        assert len(ds) == 4
        assert not ds.missing and not ds.skipped
        assert ds.column("kind") == ["circle"] * 4
        assert ds.column("nodes") == [2] * 4
        # expansion order: protocol-major, seed-minor
        assert ds.column("protocol") == \
            ["802.11", "802.11", "correct", "correct"]
        assert ds.column("seed") == [1, 2, 1, 2]
        assert ds.column("pm") == [0.0] * 4
        assert all(s == "ok" for s in ds.column("status"))
        assert all(v > 0 for v in ds.column("avg_throughput_bps"))
        assert len(ds.groups()) == 2

    def test_rows_round_trip(self, reference):
        ds = load_dataset(reference["out"])
        rows = list(ds.rows())
        assert len(rows) == len(ds)
        assert rows[0]["cell"] == ds.column("cell")[0]

    def test_unknown_column_rejected(self, reference):
        ds = load_dataset(reference["out"])
        with pytest.raises(KeyError):
            ds.column("no_such_column")

    def test_shard_dataset_reports_missing(self, reference, executor):
        with tempfile.TemporaryDirectory() as base:
            dirs = run_shards(base, 2, executor)
            ds = load_dataset(dirs[0])
            assert len(ds) == 2
            assert len(ds.missing) == 2


class TestCsvExport:
    def test_export_matches_dataset(self, reference, tmp_path):
        import csv

        from repro.experiments.campaign import export_csv

        ds = load_dataset(reference["out"])
        path = tmp_path / "cells.csv"
        assert export_csv(ds, path) == len(ds)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(ds.columns)  # header in dataset order
        assert len(rows) == len(ds) + 1
        # Typed axes survive as their str() forms, row-aligned.
        by_name = dict(zip(rows[0], zip(*rows[1:])))
        assert list(by_name["protocol"]) == \
            ["802.11", "802.11", "correct", "correct"]
        assert list(by_name["seed"]) == ["1", "2", "1", "2"]
        # Ok rows have empty error fields (None -> "").
        assert set(by_name["error"]) == {""}
        assert all(float(v) > 0 for v in by_name["avg_throughput_bps"])

    def test_cli_flag_writes_csv(self, reference, tmp_path, capsys):
        path = tmp_path / "sub" / "cells.csv"  # parent dir is created
        code = main([
            "campaign", "report", "--dir", str(reference["out"]),
            "--csv", str(path), "--no-diagnostics",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert path.is_file()
        assert f"wrote 4 row(s)" in captured.err

    def test_none_metrics_become_empty_fields(self, tmp_path):
        import csv

        from repro.experiments.campaign import export_csv
        from repro.experiments.campaign.analysis import CampaignDataset

        ds = CampaignDataset(
            spec=None, spec_text="", source=tmp_path / "j",
            columns={
                "cell": [0, 1],
                "status": ["ok", "failed"],
                "avg_throughput_bps": [123.5, None],
                "error": [None, "worker died"],
            },
        )
        path = tmp_path / "cells.csv"
        export_csv(ds, path)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1] == ["0", "ok", "123.5", ""]
        assert rows[2] == ["1", "failed", "", "worker died"]


class TestDiagnostics:
    def test_group_diagnostics_values(self, reference):
        ds = load_dataset(reference["out"])
        diag = group_diagnostics(ds, metrics=["avg_throughput_bps"])
        assert len(diag) == 2
        for per_metric in diag.values():
            stats = per_metric["avg_throughput_bps"]
            assert stats["n"] == 2
            assert stats["min"] <= stats["mean"] <= stats["max"]
            assert stats["var"] == pytest.approx(stats["std"] ** 2)
            if stats["std"] > 0:
                # n=2 CI uses t(1)=12.706, not z=1.96
                assert stats["ci95"] == pytest.approx(
                    12.7062 * stats["std"] / (2 ** 0.5), rel=1e-4
                )

    def test_unknown_metric_rejected(self, reference):
        ds = load_dataset(reference["out"])
        with pytest.raises(AnalysisError, match="unknown metric"):
            group_diagnostics(ds, metrics=["nope"])

    def test_seeds_needed_estimator(self):
        assert seeds_for_relative_ci(0.0, 10.0, 0.05) == 2
        assert seeds_for_relative_ci(1.0, 0.0, 0.05) is None
        assert seeds_for_relative_ci(1.0, 10.0, 0.0) is None
        # tighter targets need more seeds
        loose = seeds_for_relative_ci(1.0, 10.0, 0.10)
        tight = seeds_for_relative_ci(1.0, 10.0, 0.01)
        assert 2 <= loose < tight
        # the returned n actually meets the target...
        from repro.metrics.stats import t_critical

        n = seeds_for_relative_ci(1.0, 10.0, 0.05)
        assert t_critical(n - 1) / (n ** 0.5) <= 0.5
        # ...and n-1 does not
        assert t_critical(n - 2) / ((n - 1) ** 0.5) > 0.5

    def test_huge_spread_uses_closed_form(self):
        n = seeds_for_relative_ci(1000.0, 1.0, 0.05)
        assert n > 1000


#: In-memory settings whose figure grids match the campaigns below.
BRIDGE_SETTINGS = EvalSettings(
    duration_us=50_000, seeds=(1, 2), pm_values=(0.0, 60.0),
    network_sizes=(2, 3), random_topologies=2, random_nodes=10,
    random_misbehaving=2,
)
_SIZES = (
    "scenario=circle:2|circle:3|circle:2+interferers|circle:3+interferers; "
    "protocol=802.11|correct; pm=0; seeds=1-2; seconds=0.05"
)
BRIDGE_SPECS = {
    "fig4": "scenario=circle:8|circle:8+interferers; pm=0|60; seeds=1-2; "
            "seconds=0.05",
    "fig5": "scenario=circle:8; protocol=802.11|correct; pm=0|60; "
            "seeds=1-2; seconds=0.05",
    "fig6": _SIZES,
    "fig7": _SIZES,
    "fig9a": "scenario=random:10/2; pm=0|60; seeds=1000-1001; seconds=0.05",
    "detectors": "scenario=circle:8; pm=0|60; "
                 "detector=window|cusum|estimator; seeds=1-2; seconds=0.05",
}


class TestFigureBridges:
    """A figure built from a campaign journal equals the in-memory one.

    Both go through the same builder, so these tests pin the journal
    round trip: the record the orchestrator writes, read back by
    ``load_dataset``, must tabulate to the rows an in-memory sweep
    builds from its results, for every campaign-grid figure.
    """

    @pytest.fixture(scope="class")
    def bridge(self, tmp_path_factory, executor):
        datasets = {}

        def build(figure_id):
            text = BRIDGE_SPECS[figure_id]
            if text not in datasets:
                out = tmp_path_factory.mktemp("bridge") / "campaign.out"
                report = run_campaign(
                    parse_campaign(text), out, executor=executor
                )
                assert report.exit_code == 0
                datasets[text] = load_dataset(out)
            journal = figure_from_dataset(datasets[text], figure_id)
            memory = generate_figures(
                [figure_id], BRIDGE_SETTINGS, executor=executor
            )[figure_id]
            return journal, memory

        return build

    @staticmethod
    def assert_same(journal, memory, series=None):
        assert list(journal.series.items()) == list(
            (series if series is not None else memory.series).items()
        )
        assert journal.errors == memory.errors
        assert journal.failed_points == memory.failed_points
        assert (journal.title, journal.x_label, journal.y_label) == \
            (memory.title, memory.x_label, memory.y_label)
        assert journal.meta.pop("source") == "campaign"
        journal.meta.pop("ttd", None)
        assert journal.meta == memory.meta

    def test_fig4_bit_identical_to_in_memory(self, bridge):
        self.assert_same(*bridge("fig4"))

    def test_fig5_bit_identical_to_in_memory(self, bridge):
        self.assert_same(*bridge("fig5"))

    def test_fig6_bit_identical_to_in_memory(self, bridge):
        self.assert_same(*bridge("fig6"))

    def test_fig7_bit_identical_to_in_memory(self, bridge):
        self.assert_same(*bridge("fig7"))

    def test_fig9a_bit_identical_to_in_memory(self, bridge):
        # Includes PM 0, where random:N/M must place the same network
        # (cheaters designated, but honest) as at PM 60.
        journal, memory = bridge("fig9a")
        assert 0.0 in dict(journal.series["misdiagnosis"])
        self.assert_same(journal, memory)

    def test_detectors_operating_point_bit_identical_to_in_memory(
        self, bridge
    ):
        journal, memory = bridge("detectors")
        operating = {
            name: points for name, points in memory.series.items()
            if "TTD" not in name
        }
        assert len(operating) == 6 and len(memory.series) > 6
        self.assert_same(journal, memory, series=operating)

    def test_unsatisfiable_figure_raises(self, reference):
        ds = load_dataset(reference["out"])
        with pytest.raises(ReportError, match="fig4"):
            figure_from_dataset(ds, "fig4")  # needs circle:8

    def test_unknown_figure_raises(self, reference):
        ds = load_dataset(reference["out"])
        with pytest.raises(ReportError, match="fig8"):
            figure_from_dataset(ds, "fig8")


class TestCli:
    def test_merge_and_report(self, reference, executor, tmp_path, capsys):
        dirs = run_shards(tmp_path, 2, executor)
        merged = tmp_path / "merged.out"
        code = main([
            "campaign", "merge", str(dirs[0]), str(dirs[1]),
            "--out", str(merged), "--quiet",
        ])
        assert code == 0
        assert (merged / SUMMARY_NAME).read_bytes() == \
            reference["summary"]
        out = capsys.readouterr().out
        assert "complete" in out

        save = tmp_path / "report.out"
        code = main([
            "campaign", "report", "--dir", str(merged), "fig6",
            "--save", str(save),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "cross-seed diagnostics" in out
        assert (save / "fig6.json").is_file()
        assert (save / "diagnostics.txt").is_file()

    def test_report_defaults_skip_unsatisfiable(
        self, reference, capsys
    ):
        code = main([
            "campaign", "report", "--dir", str(reference["out"]),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "fig6" in captured.out
        assert "skipping fig4" in captured.err

    def test_report_explicit_unsatisfiable_errors(
        self, reference, capsys
    ):
        code = main([
            "campaign", "report", "--dir", str(reference["out"]), "fig4",
        ])
        assert code == 2

    def test_merge_error_exit_code(self, tmp_path, capsys):
        code = main([
            "campaign", "merge", str(tmp_path / "absent"),
            "--out", str(tmp_path / "m.out"),
        ])
        assert code == 2


class TestRenderTableLegend:
    def test_partial_failure_series_named_in_legend(self):
        # Would fail before the fix: a series whose only marks carry an
        # x value (the "*" cells) was missing from the degraded-series
        # legend, which listed only None-marked (fully failed) series.
        fig = FigureResult(
            figure_id="t", title="t", x_label="x", y_label="y"
        )
        fig.add_point("partial", 1.0, 5.0)
        fig.add_point("partial", 2.0, 6.0)
        fig.mark_failed("partial", 2.0)
        fig.add_point("clean", 1.0, 7.0)
        table = render_table(fig)
        assert "degraded series: partial" in table
        assert "clean" not in table.split("degraded series:")[1]

    def test_none_marked_series_still_listed(self):
        fig = FigureResult(
            figure_id="t", title="t", x_label="x", y_label="y"
        )
        fig.mark_failed("gone", None)
        fig.add_point("ok", 1.0, 2.0)
        assert "degraded series: gone" in render_table(fig)
