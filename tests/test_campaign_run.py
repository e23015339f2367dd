"""Library-level campaign orchestration: fresh runs, exactly-once
resume, torn-tail recovery, and worker-crash chaos (PR 2's ``os._exit``
policies riding inside a journaled campaign).

Crash policies here must carry a *stable* ``__repr__``: campaign cells
are keyed by ``config_fingerprint``, and a default object repr (with
its ``0x...`` address) is rightly rejected as unjournalable.  They must
also override a sender node (ids >= 1) — node 0 is the receiver.
"""

import json
import os
import pathlib

import pytest

from repro.core.sender_policy import ConformingPolicy
from repro.experiments.campaign import (
    CampaignCell,
    CampaignError,
    EXIT_FAILED_CELLS,
    EXIT_OK,
    JOURNAL_NAME,
    SUMMARY_NAME,
    decode_record,
    encode_record,
    parse_campaign,
    read_journal,
    run_campaign,
    run_cells,
)
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.scenarios import ScenarioConfig
from repro.net.topology import circle_topology

QUICK = "scenario=circle:3; pm=0|60; seeds=1-2; seconds=0.05"


class AddressReprPolicy(ConformingPolicy):
    """Deliberately unfingerprintable (repr carries the object address)."""

    def __repr__(self):
        return object.__repr__(self)


class CampaignCrashPolicy(ConformingPolicy):
    """Kills its worker process every time node 1 counts down."""

    def __repr__(self):
        return "CampaignCrashPolicy()"

    def effective_countdown(self, nominal_slots):
        os._exit(17)


class CampaignTransientCrashPolicy(ConformingPolicy):
    """Crashes the worker once (while the marker is absent), then runs."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __repr__(self):
        return f"CampaignTransientCrashPolicy({self.marker!r})"

    def effective_countdown(self, nominal_slots):
        if not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(17)
        return nominal_slots


def policy_cell(key, policy, seed=1):
    config = ScenarioConfig(
        topology=circle_topology(3), duration_us=100_000, seed=seed,
        policy_overrides={1: policy},
    )
    return CampaignCell(key=key, group="chaos", seed=seed, config=config)


def journal_runs(out_dir):
    records = read_journal(pathlib.Path(out_dir) / JOURNAL_NAME).records
    return [r for r in records if r["kind"] == "run"]


class TestFreshRun:
    def test_quick_campaign_settles_every_cell(self, tmp_path):
        report = run_campaign(parse_campaign(QUICK), tmp_path / "c")
        assert report.exit_code == EXIT_OK
        assert (report.cells, report.ok) == (4, 4)
        assert report.failed == report.quarantined == 0
        assert report.resumed == 0 and report.executed == 4
        runs = journal_runs(tmp_path / "c")
        assert len(runs) == 4
        assert len({r["fp"] for r in runs}) == 4
        summary = json.loads(report.summary_path.read_text())
        assert summary["complete"] is True
        assert summary["ok"] == 4
        groups = summary["groups"]
        assert len(groups) == 2  # pm=0 and pm=60
        for group in groups.values():
            assert group["metrics"]["avg_throughput_bps"]["n"] == 2

    def test_existing_journal_requires_resume(self, tmp_path):
        spec = parse_campaign(QUICK)
        run_campaign(spec, tmp_path / "c")
        with pytest.raises(CampaignError, match="resume"):
            run_campaign(spec, tmp_path / "c")

    def test_bad_chunk_size(self, tmp_path):
        with pytest.raises(CampaignError, match="chunk size"):
            run_campaign(parse_campaign(QUICK), tmp_path / "c",
                         chunk_size=0)

    def test_executor_must_flag_failures(self, tmp_path):
        ex = ExperimentExecutor(workers=1, on_failure="raise")
        try:
            with pytest.raises(CampaignError, match="flag"):
                run_campaign(parse_campaign(QUICK), tmp_path / "c",
                             executor=ex)
        finally:
            ex.close()

    def test_unfingerprintable_cell_rejected(self, tmp_path):
        cell = policy_cell("chaos/seed=1", AddressReprPolicy())
        with pytest.raises(CampaignError, match="not journalable"):
            run_cells([cell], "spec", tmp_path / "c")

    def test_duplicate_cells_deduplicated(self, tmp_path):
        cell = policy_cell("chaos/seed=1", ConformingPolicy())
        report = run_cells([cell, cell], "spec", tmp_path / "c",
                           workers=1)
        assert report.cells == 1 and report.ok == 1
        summary = json.loads(report.summary_path.read_text())
        assert summary["duplicate_cells"] == 1
        assert len(journal_runs(tmp_path / "c")) == 1


class TestResume:
    def reference(self, tmp_path):
        spec = parse_campaign(QUICK)
        ref_dir = tmp_path / "ref"
        run_campaign(spec, ref_dir, chunk_size=1)
        return spec, ref_dir, (ref_dir / SUMMARY_NAME).read_bytes()

    def test_resume_of_complete_campaign_is_noop(self, tmp_path):
        spec, ref_dir, ref_summary = self.reference(tmp_path)
        report = run_campaign(spec, ref_dir, resume=True, workers=1)
        assert report.exit_code == EXIT_OK
        assert report.resumed == 4 and report.executed == 0
        assert (ref_dir / SUMMARY_NAME).read_bytes() == ref_summary
        assert len(journal_runs(ref_dir)) == 4  # no duplicates appended

    def test_resume_after_kill_is_bit_identical(self, tmp_path):
        spec, ref_dir, ref_summary = self.reference(tmp_path)
        ref_journal = (ref_dir / JOURNAL_NAME).read_bytes()
        # Simulate a SIGKILL after the second run record: keep the
        # header + 2 records, drop the rest.
        lines = ref_journal.splitlines(keepends=True)
        cut_dir = tmp_path / "cut"
        cut_dir.mkdir()
        (cut_dir / JOURNAL_NAME).write_bytes(b"".join(lines[:3]))
        report = run_campaign(spec, cut_dir, resume=True, chunk_size=1)
        assert report.exit_code == EXIT_OK
        assert report.resumed == 2 and report.executed == 2
        assert (cut_dir / SUMMARY_NAME).read_bytes() == ref_summary
        assert (cut_dir / JOURNAL_NAME).read_bytes() == ref_journal
        fps = [r["fp"] for r in journal_runs(cut_dir)]
        assert len(fps) == len(set(fps)) == 4

    def test_resume_with_torn_tail_is_bit_identical(self, tmp_path):
        spec, ref_dir, ref_summary = self.reference(tmp_path)
        ref_journal = (ref_dir / JOURNAL_NAME).read_bytes()
        lines = ref_journal.splitlines(keepends=True)
        torn_dir = tmp_path / "torn"
        torn_dir.mkdir()
        # header + 1 good record + half of the next record, no newline
        (torn_dir / JOURNAL_NAME).write_bytes(
            b"".join(lines[:2]) + lines[2][:25]
        )
        report = run_campaign(spec, torn_dir, resume=True, chunk_size=1)
        assert report.truncated_tail
        assert report.resumed == 1 and report.executed == 3
        assert report.exit_code == EXIT_OK
        assert (torn_dir / SUMMARY_NAME).read_bytes() == ref_summary
        assert (torn_dir / JOURNAL_NAME).read_bytes() == ref_journal

    def test_resume_reruns_cells_whose_record_is_not_in_the_grid(
        self, tmp_path
    ):
        # A record written before a change that moved its cell's config
        # (so its fingerprint) settles nothing: the cell runs again and
        # the summary counts only the grid's records.
        spec, ref_dir, ref_summary = self.reference(tmp_path)
        lines = (ref_dir / JOURNAL_NAME).read_bytes().splitlines()
        stale = decode_record(lines[2].decode())
        stale["fp"] = "0" * 64
        old_dir = tmp_path / "old"
        old_dir.mkdir()
        (old_dir / JOURNAL_NAME).write_bytes(b"\n".join(
            lines[:2] + [encode_record(stale).encode()] + lines[3:]
        ) + b"\n")
        report = run_campaign(spec, old_dir, resume=True, workers=1)
        assert report.exit_code == EXIT_OK
        assert report.resumed == 3 and report.executed == 1
        assert (report.cells, report.settled) == (4, 4)
        assert (old_dir / SUMMARY_NAME).read_bytes() == ref_summary
        assert [r["fp"] for r in journal_runs(old_dir)].count("0" * 64) == 1

    def test_resume_refuses_foreign_spec(self, tmp_path):
        spec, ref_dir, _ = self.reference(tmp_path)
        other = parse_campaign("scenario=circle:3; pm=30; seconds=0.05")
        with pytest.raises(CampaignError, match="different campaign"):
            run_campaign(other, ref_dir, resume=True, workers=1)

    def test_resume_refuses_foreign_shard(self, tmp_path):
        spec, ref_dir, _ = self.reference(tmp_path)
        with pytest.raises(CampaignError, match="shard"):
            run_campaign(spec, ref_dir, resume=True, shard=(0, 2),
                         workers=1)


class TestWorkerCrashChaos:
    def test_permanent_crasher_quarantined_not_fatal(self, tmp_path):
        cells = [
            policy_cell("chaos/ok-1", ConformingPolicy(), seed=1),
            policy_cell("chaos/crash", CampaignCrashPolicy(), seed=2),
            policy_cell("chaos/ok-2", ConformingPolicy(), seed=3),
        ]
        ex = ExperimentExecutor(workers=2, on_failure="flag")
        try:
            report = run_cells(cells, "chaos-spec", tmp_path / "c",
                               executor=ex)
        finally:
            ex.close()
        assert report.exit_code == EXIT_FAILED_CELLS
        assert report.ok == 2 and report.quarantined == 1
        assert report.failed == 0
        by_seed = {r["seed"]: r for r in journal_runs(tmp_path / "c")}
        assert by_seed[2]["status"] == "quarantined"
        assert "worker crashed" in by_seed[2]["error"]
        assert by_seed[1]["status"] == by_seed[3]["status"] == "ok"
        summary = json.loads(report.summary_path.read_text())
        assert summary["quarantined"] == 1 and summary["complete"]

    def test_transient_crasher_recovers_to_ok(self, tmp_path):
        policy = CampaignTransientCrashPolicy(tmp_path / "crashed-once")
        cells = [policy_cell("chaos/transient", policy, seed=2)]
        # workers >= 2 forces the pool path; a single-worker executor
        # runs inline and the crash would take pytest with it
        ex = ExperimentExecutor(workers=2, on_failure="flag")
        try:
            report = run_cells(cells, "chaos-spec", tmp_path / "c",
                               executor=ex)
            assert ex.pool_respawns >= 1
        finally:
            ex.close()
        assert report.exit_code == EXIT_OK
        assert report.ok == 1
        (record,) = journal_runs(tmp_path / "c")
        assert record["status"] == "ok"
        assert record["metrics"]["events_processed"] > 0
