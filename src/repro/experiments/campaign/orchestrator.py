"""Crash-safe campaign execution: chunked runs, journal, resume.

The orchestrator turns a :class:`~repro.experiments.campaign.spec.CampaignSpec`
into settled journal records.  Its durability contract:

* **Nothing is held only in memory.**  Every settled run (completed,
  failed or quarantined) is appended to the journal — checksummed,
  flushed per record, fsync'd per chunk — before the orchestrator
  considers it done; aggregates stream into ``summary.json`` after
  every chunk.  A SIGKILL at any instant therefore loses at most the
  in-flight chunk's unwritten records, which the resume path simply
  re-runs.
* **Exactly-once settlement.**  Runs are keyed by the executor's
  ``config_fingerprint``.  On ``--resume`` the journal is replayed,
  already-settled fingerprints are skipped *before* the executor (and
  therefore before the ``RunCache``) ever sees them, and a fingerprint
  is journaled at most once — interrupted-then-resumed campaigns
  append no duplicate records.  A replayed record whose fingerprint
  is not in the grid settles nothing; its cell runs again.
* **Bit-identical aggregates.**  Cells execute, journal and aggregate
  in one deterministic total order (spec expansion order, filtered by
  settledness).  A truncated journal is always an order-preserving
  prefix of that order, so replay + continuation feeds the streaming
  aggregator the exact float sequence an uninterrupted campaign feeds
  it; ``summary.json`` comes out byte-identical (the chaos tests
  assert this, SIGKILLing both workers and the orchestrator itself).
* **Graceful drain.**  SIGINT/SIGTERM finish the in-flight chunk,
  flush the journal and summary, and exit with
  :data:`EXIT_INTERRUPTED`; a second signal aborts immediately.

Exit codes: 0 — every cell settled ok; 3 — campaign complete but some
cells failed/quarantined; 4 — interrupted and resumable.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, TextIO, Tuple

from repro.experiments.cache import (
    UncacheableConfigError,
    code_version,
    config_fingerprint,
)
from repro.experiments.campaign.journal import (
    JOURNAL_SCHEMA,
    CampaignAggregator,
    JournalWriter,
    METRIC_FIELDS,
    read_journal,
    repair_journal,
)
from repro.experiments.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    expand_cells,
    format_campaign,
    shard_cells,
)
from repro.experiments.executor import ExperimentExecutor, FailedRun
from repro.experiments.scenarios import RunResult

#: Campaign exit statuses (distinct from the figure CLI's 0/2/3).
EXIT_OK = 0
EXIT_FAILED_CELLS = 3
EXIT_INTERRUPTED = 4

#: Default cells per executor batch: large enough to feed a pool,
#: small enough that a drain or kill wastes little work.
DEFAULT_CHUNK_SIZE = 32

JOURNAL_NAME = "journal.jsonl"
SUMMARY_NAME = "summary.json"


class CampaignError(RuntimeError):
    """A campaign could not start or resume."""


@dataclass
class CampaignReport:
    """What one orchestrator invocation did (not persisted)."""

    exit_code: int
    cells: int
    settled: int
    ok: int
    failed: int
    quarantined: int
    resumed: int          # cells skipped because the journal had them
    executed: int         # simulations actually run this invocation
    interrupted: bool
    truncated_tail: bool  # journal had a torn record from a prior kill
    out_dir: pathlib.Path

    @property
    def summary_path(self) -> pathlib.Path:
        return self.out_dir / SUMMARY_NAME

    @property
    def journal_path(self) -> pathlib.Path:
        return self.out_dir / JOURNAL_NAME


class _SignalDrain:
    """SIGINT/SIGTERM -> drain flag; a second signal aborts hard.

    Installing handlers only works in the main thread; elsewhere (test
    harnesses driving the orchestrator from a worker thread) the drain
    silently degrades to "no signal handling", which is correct — the
    main thread owns the process's signal disposition.
    """

    def __init__(self, stream: Optional[TextIO]):
        self.stop = False
        self._stream = stream
        self._previous: Dict[int, object] = {}

    def _handle(self, signum, frame) -> None:
        if self.stop:
            raise KeyboardInterrupt
        self.stop = True
        if self._stream is not None:
            name = signal.Signals(signum).name
            print(
                f"[campaign] {name}: draining in-flight work, flushing "
                "journal (repeat to abort immediately)",
                file=self._stream,
            )

    def __enter__(self) -> "_SignalDrain":
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # not the main thread
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)


def _fingerprint_cells(
    cells: Sequence[CampaignCell],
) -> Tuple[List[Tuple[str, CampaignCell]], int]:
    """(fingerprint, cell) pairs, first occurrence per fingerprint.

    Raises :class:`CampaignError` for configs without a stable
    fingerprint — the journal cannot key such runs, so they cannot be
    part of a crash-safe campaign.
    """
    seen: Dict[str, str] = {}
    ordered: List[Tuple[str, CampaignCell]] = []
    duplicates = 0
    for cell in cells:
        try:
            fingerprint = config_fingerprint(cell.config)
        except UncacheableConfigError as exc:
            raise CampaignError(
                f"cell {cell.key} is not journalable: {exc}"
            ) from None
        if fingerprint in seen:
            duplicates += 1
            continue
        seen[fingerprint] = cell.key
        ordered.append((fingerprint, cell))
    return ordered, duplicates


def _run_record(fingerprint: str, cell: CampaignCell, outcome) -> dict:
    if isinstance(outcome, RunResult):
        return {
            "kind": "run",
            "fp": fingerprint,
            "cell": cell.key,
            "group": cell.group,
            "seed": cell.seed,
            "status": "ok",
            "metrics": {
                name: getattr(outcome, name) for name in METRIC_FIELDS
            },
        }
    assert isinstance(outcome, FailedRun)
    crashy = (
        "worker crashed" in outcome.error
        or "respawn budget" in outcome.error
    )
    return {
        "kind": "run",
        "fp": fingerprint,
        "cell": cell.key,
        "group": cell.group,
        "seed": cell.seed,
        "status": "quarantined" if crashy else "failed",
        "error": outcome.error,
        "attempts": outcome.attempts,
    }


def write_summary(
    path: pathlib.Path,
    spec_text: str,
    shard: Tuple[int, int],
    total_cells: int,
    duplicates: int,
    aggregator: CampaignAggregator,
) -> None:
    """Atomically replace ``summary.json`` with the current aggregates.

    Deliberately contains no timestamps, wall times or hostnames: the
    summary is a pure function of the settled record sequence, which
    is what makes the interrupted-vs-uninterrupted bit-identity
    checkable (and checked) byte for byte.  The merge path
    (:func:`repro.experiments.campaign.analysis.merge_journals`) writes
    its summary through this same function, which is what makes a
    merged N-shard campaign's summary byte-identical to an unsharded
    run's.
    """
    summary = {
        "schema": 1,
        "spec": spec_text,
        "shard": f"{shard[0]}/{shard[1]}",
        "cells": total_cells,
        "duplicate_cells": duplicates,
        "settled": aggregator.settled,
        "complete": aggregator.settled == total_cells,
        "ok": aggregator.ok,
        "failed": aggregator.failed,
        "quarantined": aggregator.quarantined,
        "groups": aggregator.groups(),
    }
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)


def _replay_journal(
    journal_path: pathlib.Path,
    spec_text: str,
    shard: Tuple[int, int],
    grid: Set[str],
    aggregator: CampaignAggregator,
    progress: Optional[TextIO],
) -> Tuple[Dict[str, dict], bool, bool]:
    """Load settled records; returns (settled-by-fp, has_header, truncated).

    A record whose fingerprint is not in ``grid`` — written before a
    change that moved its cell's config — settles nothing: it stays in
    the journal but not in the aggregates, and its cell runs again.
    """
    settled: Dict[str, dict] = {}
    stale = 0
    has_header = False
    result = read_journal(journal_path)
    if result.truncated and progress is not None:
        print(
            f"[campaign] journal has a torn tail record "
            f"({result.dropped_tail!r}); dropping it — that cell will "
            "re-run",
            file=progress,
        )
    # A torn tail (or a record missing only its newline) must be cut
    # away before this process appends, or the new record would fuse
    # onto the torn bytes and corrupt the journal for good.
    repair_journal(journal_path, result)
    for position, record in enumerate(result.records, start=1):
        kind = record.get("kind")
        if kind == "campaign":
            if record.get("spec") != spec_text:
                raise CampaignError(
                    "journal belongs to a different campaign:\n"
                    f"  journal spec: {record.get('spec')}\n"
                    f"  given spec:   {spec_text}"
                )
            recorded_shard = record.get("shard")
            if recorded_shard != f"{shard[0]}/{shard[1]}":
                raise CampaignError(
                    f"journal was written for shard {recorded_shard}, "
                    f"not {shard[0]}/{shard[1]}"
                )
            if (record.get("code_version") != code_version()
                    and progress is not None):
                print(
                    "[campaign] warning: code version changed since this "
                    "journal was started; resumed cells may mix simulator "
                    "versions",
                    file=progress,
                )
            has_header = True
            continue
        if kind != "run":
            continue
        fingerprint = record.get("fp")
        if fingerprint not in grid:
            stale += 1
            continue
        if fingerprint in settled:
            # Should be impossible (settlement is checked before every
            # append); tolerate a hand-edited journal by keeping the
            # first record, like the aggregator saw it first.
            continue
        settled[fingerprint] = record
        aggregator.add(record, offset=position)
    if stale and progress is not None:
        print(
            f"[campaign] ignoring {stale} journal record(s) whose "
            "fingerprint is not a cell of this grid; those cells re-run",
            file=progress,
        )
    return settled, has_header, result.truncated


def run_cells(
    cells: Sequence[CampaignCell],
    spec_text: str,
    out_dir: os.PathLike | str,
    *,
    resume: bool = False,
    shard: Tuple[int, int] = (0, 1),
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
    progress: Optional[TextIO] = None,
) -> CampaignReport:
    """Run (or resume) an explicit cell list; the engine under
    :func:`run_campaign`.

    ``spec_text`` labels the campaign in the journal header; resume
    refuses a journal whose label differs.  ``executor`` must use
    ``on_failure="flag"`` so failed cells settle as journal records
    instead of aborting the campaign; omitted, one is created (and
    closed) internally with ``workers`` processes.
    """
    if chunk_size < 1:
        raise CampaignError(f"chunk size must be >= 1, got {chunk_size}")
    if executor is not None and executor.on_failure != "flag":
        raise CampaignError(
            'campaign executors need on_failure="flag" (failed cells '
            "must settle as journal records, not exceptions)"
        )
    out_path = pathlib.Path(out_dir)
    journal_path = out_path / JOURNAL_NAME
    if journal_path.exists() and not resume:
        raise CampaignError(
            f"{journal_path} already exists; pass resume=True "
            "(--resume) to continue it or choose a fresh directory"
        )

    fingerprinted, duplicates = _fingerprint_cells(cells)
    total_cells = len(fingerprinted)
    aggregator = CampaignAggregator()
    settled: Dict[str, dict] = {}
    has_header = False
    truncated = False
    if resume and journal_path.exists():
        settled, has_header, truncated = _replay_journal(
            journal_path, spec_text, shard, {fp for fp, _ in fingerprinted},
            aggregator, progress,
        )
    resumed = sum(1 for fp, _ in fingerprinted if fp in settled)

    out_path.mkdir(parents=True, exist_ok=True)
    own_executor = executor is None
    if own_executor:
        executor = ExperimentExecutor(workers=workers, on_failure="flag")
    executed_before = executor.runs_executed
    interrupted = False
    try:
        with JournalWriter(journal_path) as writer, \
                _SignalDrain(progress) as drain:
            if not has_header:
                writer.append({
                    "kind": "campaign",
                    "schema": JOURNAL_SCHEMA,
                    "spec": spec_text,
                    "shard": f"{shard[0]}/{shard[1]}",
                    "cells": total_cells,
                    "code_version": code_version(),
                })
            pending = [
                (fp, cell) for fp, cell in fingerprinted
                if fp not in settled
            ]
            for start in range(0, len(pending), chunk_size):
                if drain.stop:
                    interrupted = True
                    break
                chunk = pending[start:start + chunk_size]
                outcomes = executor.run([cell.config for _, cell in chunk])
                for (fingerprint, cell), outcome in zip(chunk, outcomes):
                    record = _run_record(fingerprint, cell, outcome)
                    writer.append(record, sync=False)
                    settled[fingerprint] = record
                    aggregator.add(record)
                writer.sync()  # one fsync per chunk, not per run
                write_summary(
                    out_path / SUMMARY_NAME, spec_text, shard,
                    total_cells, duplicates, aggregator,
                )
                if progress is not None:
                    print(
                        f"[campaign] {aggregator.settled}/{total_cells} "
                        f"settled (ok={aggregator.ok} "
                        f"failed={aggregator.failed} "
                        f"quarantined={aggregator.quarantined})",
                        file=progress,
                    )
            else:
                interrupted = drain.stop and aggregator.settled < total_cells
        write_summary(
            out_path / SUMMARY_NAME, spec_text, shard,
            total_cells, duplicates, aggregator,
        )
    finally:
        if own_executor:
            executor.close()

    if interrupted:
        exit_code = EXIT_INTERRUPTED
    elif aggregator.failed or aggregator.quarantined:
        exit_code = EXIT_FAILED_CELLS
    else:
        exit_code = EXIT_OK
    return CampaignReport(
        exit_code=exit_code,
        cells=total_cells,
        settled=aggregator.settled,
        ok=aggregator.ok,
        failed=aggregator.failed,
        quarantined=aggregator.quarantined,
        resumed=resumed,
        executed=executor.runs_executed - executed_before,
        interrupted=interrupted,
        truncated_tail=truncated,
        out_dir=out_path,
    )


def run_campaign(
    spec: CampaignSpec,
    out_dir: os.PathLike | str,
    *,
    resume: bool = False,
    shard: Tuple[int, int] = (0, 1),
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
    progress: Optional[TextIO] = None,
) -> CampaignReport:
    """Expand ``spec``, take this invocation's shard, and settle it.

    See the module docstring for the durability contract and exit
    codes; :func:`run_cells` for parameter semantics.
    """
    cells = shard_cells(expand_cells(spec), *shard)
    return run_cells(
        cells, format_campaign(spec), out_dir,
        resume=resume, shard=shard, chunk_size=chunk_size,
        workers=workers, executor=executor, progress=progress,
    )


__all__ = [
    "CampaignError",
    "CampaignReport",
    "DEFAULT_CHUNK_SIZE",
    "EXIT_FAILED_CELLS",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "JOURNAL_NAME",
    "SUMMARY_NAME",
    "run_campaign",
    "run_cells",
    "write_summary",
]
