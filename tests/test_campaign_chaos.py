"""End-to-end chaos: SIGKILL and SIGTERM the campaign *orchestrator*
(`python -m repro campaign`) mid-run, resume with ``--resume``, and
assert the acceptance criterion — aggregates bit-identical to an
uninterrupted reference run, zero duplicated journal records.

The spec is sized (60 one-second cells, ``--chunk 1``) so the
orchestrator journals dozens of records over several wall seconds,
leaving a wide window to kill it between appends.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.campaign import (
    EXIT_INTERRUPTED,
    JOURNAL_NAME,
    SUMMARY_NAME,
    read_journal,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
SPEC = "scenario=circle:3; pm=0|60; seeds=1-30; seconds=1.0"
CELLS = 60
DEADLINE_S = 180.0


def campaign_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    # keep runs pure: no cross-run cache
    env.pop("REPRO_CACHE", None)
    return env


def launch(out_dir, *extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", SPEC,
         "--dir", str(out_dir), "--workers", "1", "--chunk", "1",
         "--quiet", *extra],
        cwd=REPO, env=campaign_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def journal_lines(out_dir):
    """Complete (newline-terminated) journal lines; 1st is the header."""
    path = pathlib.Path(out_dir) / JOURNAL_NAME
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def wait_for_records(proc, out_dir, n):
    """Poll until the journal holds >= n settled run records."""
    deadline = time.monotonic() + DEADLINE_S
    while time.monotonic() < deadline:
        if journal_lines(out_dir) >= n + 1:  # + header
            return
        if proc.poll() is not None:
            pytest.fail(
                f"campaign exited (rc={proc.returncode}) before "
                f"{n} records were journaled — spec too quick to chaos"
            )
        time.sleep(0.01)
    pytest.fail(f"no {n} journal records within {DEADLINE_S}s")


def finish(proc):
    out, err = proc.communicate(timeout=DEADLINE_S)
    return proc.returncode, out.decode(), err.decode()


def assert_settled_exactly_once(out_dir):
    result = read_journal(pathlib.Path(out_dir) / JOURNAL_NAME)
    assert not result.truncated  # resume repaired any torn tail
    runs = [r for r in result.records if r["kind"] == "run"]
    fps = [r["fp"] for r in runs]
    assert len(fps) == len(set(fps)) == CELLS
    return runs


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted campaign: the bit-identity baseline."""
    out_dir = tmp_path_factory.mktemp("chaos") / "ref"
    rc, out, err = finish(launch(out_dir))
    assert rc == 0, f"reference campaign failed:\n{out}\n{err}"
    assert_settled_exactly_once(out_dir)
    return {
        "summary": (out_dir / SUMMARY_NAME).read_bytes(),
        "journal": (out_dir / JOURNAL_NAME).read_bytes(),
    }


class TestOrchestratorSigkill:
    def test_sigkill_then_resume_is_bit_identical(self, tmp_path,
                                                  reference):
        out_dir = tmp_path / "killed"
        proc = launch(out_dir)
        wait_for_records(proc, out_dir, 3)
        proc.kill()  # SIGKILL: no drain, no flush, no atexit
        proc.wait(timeout=DEADLINE_S)
        settled_at_kill = journal_lines(out_dir) - 1
        assert settled_at_kill < CELLS, "campaign finished before kill"

        rc, out, err = finish(launch(out_dir, "--resume", str(out_dir)))
        assert rc == 0, f"resume failed:\n{out}\n{err}"
        assert f"{settled_at_kill} resumed" in out or "resumed" in out

        assert_settled_exactly_once(out_dir)
        assert (out_dir / SUMMARY_NAME).read_bytes() == \
            reference["summary"]
        assert (out_dir / JOURNAL_NAME).read_bytes() == \
            reference["journal"]

    def test_double_sigkill_then_resume(self, tmp_path, reference):
        # Kill, resume, kill the resume, resume again: settlement must
        # stay exactly-once across any number of crash/resume cycles.
        out_dir = tmp_path / "killed-twice"
        proc = launch(out_dir)
        wait_for_records(proc, out_dir, 2)
        proc.kill()
        proc.wait(timeout=DEADLINE_S)

        proc = launch(out_dir, "--resume", str(out_dir))
        wait_for_records(proc, out_dir, journal_lines(out_dir) + 2)
        proc.kill()
        proc.wait(timeout=DEADLINE_S)
        assert journal_lines(out_dir) - 1 < CELLS, \
            "campaign finished before second kill"

        rc, out, err = finish(launch(out_dir, "--resume", str(out_dir)))
        assert rc == 0, f"second resume failed:\n{out}\n{err}"
        assert_settled_exactly_once(out_dir)
        assert (out_dir / SUMMARY_NAME).read_bytes() == \
            reference["summary"]
        assert (out_dir / JOURNAL_NAME).read_bytes() == \
            reference["journal"]


class TestOrchestratorSigterm:
    def test_sigterm_drains_and_resumes_identically(self, tmp_path,
                                                    reference):
        out_dir = tmp_path / "terminated"
        proc = launch(out_dir)
        wait_for_records(proc, out_dir, 2)
        proc.send_signal(signal.SIGTERM)
        rc, out, err = finish(proc)
        assert rc == EXIT_INTERRUPTED, \
            f"wanted drain exit {EXIT_INTERRUPTED}, got {rc}:\n{out}\n{err}"
        assert "interrupted (resumable)" in out

        # graceful drain flushed cleanly: journal replays with no torn
        # tail, and the summary on disk matches the drained records
        result = read_journal(out_dir / JOURNAL_NAME)
        assert not result.truncated
        drained = len([r for r in result.records if r["kind"] == "run"])
        assert 0 < drained < CELLS
        summary = json.loads((out_dir / SUMMARY_NAME).read_text())
        assert summary["settled"] == drained
        assert summary["complete"] is False

        rc, out, err = finish(launch(out_dir, "--resume", str(out_dir)))
        assert rc == 0, f"resume after drain failed:\n{out}\n{err}"
        assert_settled_exactly_once(out_dir)
        assert (out_dir / SUMMARY_NAME).read_bytes() == \
            reference["summary"]
        assert (out_dir / JOURNAL_NAME).read_bytes() == \
            reference["journal"]
