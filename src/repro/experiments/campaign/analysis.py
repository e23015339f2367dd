"""Campaign analysis: merge shard journals, datasets, figure builders.

This is the analysis half of the campaign subsystem (the orchestrator
is the execution half).  Everything here is read-only with respect to
shard journals — a merge never mutates its inputs.

* :func:`merge_journals` combines many shard journals of one campaign
  into a single merged directory: the shards' settled ``run`` records,
  re-ordered into the spec's global expansion order and deduplicated
  by config fingerprint, with per-shard provenance in the merged
  journal header.  Because the merged journal replays records in the
  exact total order an unsharded campaign would have settled them, and
  the summary is written by the orchestrator's own
  :func:`~repro.experiments.campaign.orchestrator.write_summary`, a
  complete N-shard merge produces a ``summary.json`` byte-identical to
  the unsharded run's (property-tested, including under mid-shard
  SIGKILL + resume).  An *incomplete* merge is still a valid campaign
  directory: ``python -m repro campaign SPEC --resume <merged>`` runs
  the missing cells.
* :func:`load_dataset` turns a campaign journal (shard or merged) into
  a :class:`CampaignDataset` — a plain dict-of-columns table keyed by
  the grammar's typed axes (scenario/protocol/pm/detector/faults/seed)
  plus one column per journal metric.  No pandas, no numpy required
  (:meth:`CampaignDataset.to_numpy` converts a column when numpy is
  importable).
* :func:`figure_from_dataset` + :data:`JOURNAL_FIGURES` are the one
  builder of each seed-averaged figure (fig4, fig5, fig6, fig7, fig9a
  and the detectors' operating points), producing
  :class:`~repro.experiments.figures.FigureResult` objects.  A
  campaign's journal feeds them through :func:`load_dataset`; an
  in-memory sweep (``python -m repro figures``) runs the same grid as
  a journal-less campaign — :func:`figure_spec` builds its
  :class:`CampaignSpec` from the ``EvalSettings`` and
  :func:`dataset_from_runs` tabulates its outcomes with the same row
  code — so the two agree value for value.
* :func:`group_diagnostics` computes cross-seed dispersion per group —
  Student-t CI, variance, min/max, coefficient of variation, and the
  estimated number of seeds needed to pin the 95% CI inside a target
  relative half-width.

Malformed run records (checksum-valid but missing ``group``/``status``
— e.g. a journal written by an older schema) are counted and reported
as skips, never silently dropped and never fatal to a merge.
"""

from __future__ import annotations

import math
import os
import pathlib
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType
from typing import (
    Dict, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple,
)

from repro.experiments.campaign.journal import (
    JOURNAL_SCHEMA,
    CampaignAggregator,
    JournalCorruptError,
    JournalRecordError,
    JournalWriter,
    METRIC_FIELDS,
    read_journal,
)
from repro.experiments.campaign.orchestrator import (
    JOURNAL_NAME,
    SUMMARY_NAME,
    _fingerprint_cells,
    _run_record,
    write_summary,
)
from repro.experiments.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    CampaignSpecError,
    ScenarioAxis,
    expand_cells,
    format_campaign,
    parse_campaign,
)
from repro.experiments.cache import code_version
from repro.experiments.figures import (
    PROTOCOL_LABELS,
    MISBEHAVING_NODE,
    FigureResult,
)
from repro.experiments.scenarios import PROTOCOL_80211, PROTOCOL_CORRECT
from repro.experiments.settings import EvalSettings
from repro.metrics.stats import Z95, summarize, t_critical


class AnalysisError(RuntimeError):
    """A merge or dataset load could not proceed."""


class ReportError(AnalysisError):
    """A journal-driven figure's grid requirements are not met."""


@dataclass(frozen=True)
class SkippedRecord:
    """One journal record the analysis layer had to ignore."""

    source: str   # journal path the record came from
    offset: int   # 1-based record position within that journal
    reason: str


@dataclass(frozen=True)
class ShardInfo:
    """Provenance of one merged shard journal."""

    path: str
    shard: str        # the "I/N" assignment its header recorded
    records: int      # settled run records it contributed (post-dedup)
    truncated: bool   # had a torn tail record (dropped, not an error)


@dataclass
class MergeResult:
    """What :func:`merge_journals` produced."""

    out_dir: pathlib.Path
    spec_text: str
    shards: List[ShardInfo]
    cells: int                 # unique cells in the full campaign grid
    duplicate_cells: int       # grid points sharing a fingerprint
    settled: int
    ok: int
    failed: int
    quarantined: int
    duplicate_records: int     # same fingerprint settled by >1 record
    skipped: List[SkippedRecord]
    missing: List[str]         # cell keys with no settled record
    complete: bool

    @property
    def journal_path(self) -> pathlib.Path:
        return self.out_dir / JOURNAL_NAME

    @property
    def summary_path(self) -> pathlib.Path:
        return self.out_dir / SUMMARY_NAME


def _journal_path(source: os.PathLike | str) -> pathlib.Path:
    path = pathlib.Path(source)
    if path.is_dir():
        path = path / JOURNAL_NAME
    if not path.is_file():
        raise AnalysisError(f"no journal at {path}")
    return path


def _read_shard(path: pathlib.Path):
    """(header, records, truncated) of one shard journal."""
    try:
        result = read_journal(path)
    except JournalCorruptError as exc:
        raise AnalysisError(f"cannot merge {path}: {exc}") from None
    if not result.records:
        raise AnalysisError(f"{path} is empty (no campaign header)")
    header = result.records[0]
    if header.get("kind") != "campaign" or not isinstance(
        header.get("spec"), str
    ):
        raise AnalysisError(
            f"{path} does not start with a campaign header record"
        )
    return header, result.records, result.truncated


#: Campaign grids whose expansion and fingerprints a process keeps (LRU,
#: by spec text): merging shard journals and loading the merged one
#: read the same grid, and a long-lived process reports one campaign
#: many times.
GRID_INDEX_SIZE = 4


@lru_cache(maxsize=GRID_INDEX_SIZE)
def _grid_index(
    spec_text: str,
) -> Tuple[CampaignSpec, Tuple[Tuple[str, CampaignCell], ...], int,
           Mapping[str, int]]:
    """Re-expand the campaign grid: (spec, ordered (fp, cell), dups, fp->pos).

    Computed once per spec text while it stays in the table; callers
    share the result, so it is read-only.  The kept cells carry no
    config (``config`` is ``None``): merging and tabulating read only a
    cell's identity and grid coordinates, and the configs would be
    most of the table's memory.
    """
    try:
        spec = parse_campaign(spec_text)
    except CampaignSpecError as exc:
        raise AnalysisError(
            f"journal header spec does not parse ({exc}); only campaigns "
            "written through the spec grammar can be merged/analysed"
        ) from None
    ordered, duplicates = _fingerprint_cells(expand_cells(spec))
    order = {fp: position for position, (fp, _) in enumerate(ordered)}
    return (
        spec,
        tuple((fp, replace(cell, config=None)) for fp, cell in ordered),
        duplicates,
        MappingProxyType(order),
    )


def merge_journals(
    sources: Sequence[os.PathLike | str],
    out_dir: os.PathLike | str,
    *,
    force: bool = False,
    progress: Optional[TextIO] = None,
) -> MergeResult:
    """Merge shard journals into one campaign directory.

    ``sources`` are shard directories (or journal files) of the *same*
    campaign spec; shards may be incomplete, overlapping, or produced
    by different ``--shard I/N`` partitions.  The merged directory gets
    a ``journal.jsonl`` whose records sit in the spec's global
    expansion order (header records the per-shard provenance) and a
    ``summary.json`` written by the orchestrator's summary writer —
    byte-identical to an unsharded run's when the merge is complete.

    Skippable problems — run records missing required fields, unknown
    fingerprints, fingerprints already settled by an earlier shard —
    are counted and reported in the result, not fatal.  Unreadable
    journals, missing headers and mismatched specs raise
    :class:`AnalysisError`.
    """
    if not sources:
        raise AnalysisError("nothing to merge: no shard journals given")
    shard_paths = [_journal_path(source) for source in sources]
    loaded = [_read_shard(path) for path in shard_paths]

    spec_text = loaded[0][0]["spec"]
    for path, (header, _, _) in zip(shard_paths, loaded):
        if header["spec"] != spec_text:
            raise AnalysisError(
                "shard journals belong to different campaigns:\n"
                f"  {shard_paths[0]}: {spec_text}\n"
                f"  {path}: {header['spec']}"
            )
    _, ordered, duplicate_cells, order = _grid_index(spec_text)

    probe = CampaignAggregator()  # validates records; counters unused
    settled: Dict[str, Tuple[int, dict]] = {}
    shards: List[ShardInfo] = []
    skipped: List[SkippedRecord] = []
    duplicate_records = 0
    for path, (header, records, truncated) in zip(shard_paths, loaded):
        contributed = 0
        for offset, record in enumerate(records, start=1):
            if record.get("kind") != "run":
                continue
            try:
                probe.add(record, offset=offset)
            except JournalRecordError as exc:
                skipped.append(SkippedRecord(str(path), offset, str(exc)))
                continue
            fingerprint = record.get("fp")
            if not isinstance(fingerprint, str):
                skipped.append(SkippedRecord(
                    str(path), offset, "run record has no 'fp' fingerprint"
                ))
                continue
            if fingerprint not in order:
                skipped.append(SkippedRecord(
                    str(path), offset,
                    f"fingerprint {fingerprint[:12]}... is not in this "
                    "campaign's grid",
                ))
                continue
            if fingerprint in settled:
                duplicate_records += 1
                continue
            settled[fingerprint] = (order[fingerprint], record)
            contributed += 1
        shards.append(ShardInfo(
            path=str(path), shard=str(header.get("shard", "?")),
            records=contributed, truncated=truncated,
        ))
        if truncated and progress is not None:
            print(f"[merge] {path} had a torn tail record (dropped)",
                  file=progress)

    out_path = pathlib.Path(out_dir)
    journal_path = out_path / JOURNAL_NAME
    if journal_path.exists():
        if not force:
            raise AnalysisError(
                f"{journal_path} already exists; pass force=True (--force) "
                "to overwrite it"
            )
        journal_path.unlink()
        summary_path = out_path / SUMMARY_NAME
        if summary_path.exists():
            summary_path.unlink()

    merged = sorted(settled.values(), key=lambda pair: pair[0])
    aggregator = CampaignAggregator()
    out_path.mkdir(parents=True, exist_ok=True)
    with JournalWriter(journal_path) as writer:
        writer.append({
            "kind": "campaign",
            "schema": JOURNAL_SCHEMA,
            "spec": spec_text,
            "shard": "0/1",
            "cells": len(ordered),
            "code_version": code_version(),
            "merged_from": [
                {"journal": info.path, "shard": info.shard,
                 "records": info.records}
                for info in shards
            ],
        })
        for position, (_, record) in enumerate(merged, start=2):
            writer.append(record, sync=False)
            aggregator.add(record, offset=position)
        writer.sync()
    write_summary(
        out_path / SUMMARY_NAME, spec_text, (0, 1),
        len(ordered), duplicate_cells, aggregator,
    )

    missing = [cell.key for fp, cell in ordered if fp not in settled]
    if progress is not None:
        for skip in skipped:
            print(f"[merge] skipped {skip.source}:{skip.offset}: "
                  f"{skip.reason}", file=progress)
    return MergeResult(
        out_dir=out_path,
        spec_text=spec_text,
        shards=shards,
        cells=len(ordered),
        duplicate_cells=duplicate_cells,
        settled=aggregator.settled,
        ok=aggregator.ok,
        failed=aggregator.failed,
        quarantined=aggregator.quarantined,
        duplicate_records=duplicate_records,
        skipped=skipped,
        missing=missing,
        complete=not missing,
    )


# ----------------------------------------------------------------------
# Journal -> dataset
# ----------------------------------------------------------------------
#: Axis/identity columns of a dataset, in column order (one further
#: column per entry of ``METRIC_FIELDS``, plus ``error``).
AXIS_COLUMNS = (
    "cell", "group", "fp", "scenario", "kind", "nodes", "interferers",
    "protocol", "pm", "detector", "faults", "seed", "status",
)


@dataclass
class CampaignDataset:
    """A campaign journal as a plain dict-of-columns table.

    One row per settled cell, in the order its cells were given (so a
    group's rows are its seeds, in the spec's seed order — the order
    the figure builders feed :func:`~repro.metrics.stats.summarize`).
    Columns: :data:`AXIS_COLUMNS` plus one column per journal metric
    (``None`` on failed/quarantined rows) and ``error`` (``None`` on ok
    rows).  ``source`` is the journal the rows were loaded from, or
    ``None`` for a journal-less campaign (:func:`dataset_from_runs`).
    """

    spec: CampaignSpec
    spec_text: str
    source: Optional[pathlib.Path]
    columns: Dict[str, List] = field(default_factory=dict)
    skipped: List[SkippedRecord] = field(default_factory=list)
    duplicate_records: int = 0
    missing: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.columns.get("cell", ()))

    def column(self, name: str) -> List:
        if name not in self.columns:
            raise KeyError(
                f"no column {name!r}; have {sorted(self.columns)}"
            )
        return self.columns[name]

    def rows(self) -> Iterator[Dict[str, object]]:
        """Iterate rows as dicts (column name -> value)."""
        names = list(self.columns)
        for i in range(len(self)):
            yield {name: self.columns[name][i] for name in names}

    def groups(self) -> List[str]:
        """Distinct group keys, in first-appearance (expansion) order."""
        seen: List[str] = []
        for group in self.columns.get("group", ()):
            if group not in seen:
                seen.append(group)
        return seen

    def to_numpy(self, name: str):
        """One column as a numpy array (requires numpy at call time)."""
        import numpy

        return numpy.asarray(self.column(name))


def load_dataset(source: os.PathLike | str) -> CampaignDataset:
    """Load a campaign directory (or journal file) as a dataset.

    Works on a merged directory, an unsharded campaign, or a single
    shard (the dataset then covers that shard's grid slice and lists
    the other cells as ``missing``).  Records that fail validation are
    collected in ``skipped``; duplicate fingerprints keep their first
    record, like resume replay does.
    """
    path = _journal_path(source)
    header, records, _ = _read_shard(path)
    spec, ordered, _, order = _grid_index(header["spec"])

    probe = CampaignAggregator()
    settled: Dict[str, dict] = {}
    skipped: List[SkippedRecord] = []
    duplicate_records = 0
    for offset, record in enumerate(records, start=1):
        if record.get("kind") != "run":
            continue
        try:
            probe.add(record, offset=offset)
        except JournalRecordError as exc:
            skipped.append(SkippedRecord(str(path), offset, str(exc)))
            continue
        fingerprint = record.get("fp")
        if not isinstance(fingerprint, str) or fingerprint not in order:
            skipped.append(SkippedRecord(
                str(path), offset,
                "run record's fingerprint is not in this campaign's grid",
            ))
            continue
        if fingerprint in settled:
            duplicate_records += 1
            continue
        settled[fingerprint] = record
    return _tabulate(
        spec, header["spec"], path, ordered, settled,
        skipped=skipped, duplicate_records=duplicate_records,
    )


def dataset_from_runs(
    spec: CampaignSpec,
    cells: Sequence[CampaignCell],
    outcomes: Sequence[object],
) -> CampaignDataset:
    """The dataset of a journal-less campaign: cells run in memory.

    Each (cell, outcome) pair becomes the record the orchestrator would
    journal for it — a :class:`~repro.experiments.executor.FailedRun`
    becomes a failed (or quarantined) record — and the records are
    tabulated by the same code as :func:`load_dataset`'s, so a figure
    built from a run in memory equals one built from its journal.
    """
    ordered, _ = _fingerprint_cells(cells)
    outcome_of = {id(cell): outcome for cell, outcome in zip(cells, outcomes)}
    settled = {
        fingerprint: _run_record(fingerprint, cell, outcome_of[id(cell)])
        for fingerprint, cell in ordered
    }
    return _tabulate(spec, format_campaign(spec), None, ordered, settled)


def _tabulate(
    spec: CampaignSpec,
    spec_text: str,
    source: Optional[pathlib.Path],
    ordered: Sequence[Tuple[str, CampaignCell]],
    settled: Dict[str, dict],
    skipped: Sequence[SkippedRecord] = (),
    duplicate_records: int = 0,
) -> CampaignDataset:
    """One dataset row per cell of ``ordered`` that has a settled record."""
    columns: Dict[str, List] = {name: [] for name in AXIS_COLUMNS}
    for name in METRIC_FIELDS:
        columns[name] = []
    columns["error"] = []
    missing: List[str] = []
    for fingerprint, cell in ordered:
        record = settled.get(fingerprint)
        if record is None:
            missing.append(cell.key)
            continue
        axis = cell.axis
        columns["cell"].append(cell.key)
        columns["group"].append(cell.group)
        columns["fp"].append(fingerprint)
        columns["scenario"].append(axis.label() if axis else "?")
        columns["kind"].append(axis.kind if axis else "?")
        columns["nodes"].append(axis.nodes if axis else 0)
        columns["interferers"].append(bool(axis.interferers) if axis else False)
        columns["protocol"].append(cell.protocol)
        columns["pm"].append(cell.pm)
        columns["detector"].append(cell.detector)
        columns["faults"].append(cell.fault_spec)
        columns["seed"].append(cell.seed)
        columns["status"].append(record["status"])
        metrics = record.get("metrics", {})
        for name in METRIC_FIELDS:
            value = metrics.get(name)
            columns[name].append(
                float(value) if record["status"] == "ok" and value is not None
                else None
            )
        columns["error"].append(record.get("error"))
    return CampaignDataset(
        spec=spec,
        spec_text=spec_text,
        source=source,
        columns=columns,
        skipped=list(skipped),
        duplicate_records=duplicate_records,
        missing=missing,
    )


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------
def export_csv(dataset: CampaignDataset, path: os.PathLike | str) -> int:
    """Write a dataset as CSV: one row per settled cell.

    Columns are the dataset's columns in dataset order (the typed grid
    axes of :data:`AXIS_COLUMNS`, then one column per journal metric,
    then ``error``).  ``None`` — a failed cell's metrics, an ok cell's
    error — is written as an empty field, the conventional CSV null
    that pandas/R read back as NaN/NA.  Returns the row count.
    """
    import csv

    path = pathlib.Path(path)
    names = list(dataset.columns)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in dataset.rows():
            writer.writerow(
                "" if row[name] is None else row[name] for name in names
            )
    return len(dataset)


# ----------------------------------------------------------------------
# Cross-seed diagnostics
# ----------------------------------------------------------------------
def seeds_for_relative_ci(
    std: float, mean: float, target_rel: float
) -> Optional[int]:
    """Smallest n with a 95% Student-t half-width <= ``target_rel * |mean|``.

    Treats the sample std as the population estimate (the usual
    sample-size back-of-envelope).  Returns ``None`` when the target is
    unreachable (zero mean with nonzero spread, or a non-positive
    target); 2 when the sample shows no spread at all.
    """
    if target_rel <= 0:
        return None
    if std == 0:
        return 2
    if mean == 0:
        return None
    half_width = target_rel * abs(mean)
    for n in range(2, 1001):
        if t_critical(n - 1) * std / math.sqrt(n) <= half_width:
            return n
    # Beyond the loop t ~ z; solve n >= (z*s/h)^2 in closed form.
    return max(1001, math.ceil((Z95 * std / half_width) ** 2))


def group_diagnostics(
    dataset: CampaignDataset,
    metrics: Optional[Sequence[str]] = None,
    target_rel: float = 0.05,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Per-group, per-metric cross-seed dispersion diagnostics.

    For every group (in expansion order) and metric with at least one
    ok sample: ``n``, ``mean``, ``std``, ``var``, ``min``, ``max``,
    ``ci95`` (Student-t half-width), ``rel_ci95`` (as a fraction of
    ``|mean|``; None for a zero mean), ``cv`` (coefficient of
    variation; None for a zero mean) and ``seeds_needed`` — the
    estimated seed count that would bring the 95% CI inside
    ``target_rel * |mean|``.
    """
    wanted = tuple(metrics) if metrics is not None else METRIC_FIELDS
    unknown = [name for name in wanted if name not in METRIC_FIELDS]
    if unknown:
        raise AnalysisError(
            f"unknown metric(s) {', '.join(unknown)}; "
            f"known: {', '.join(METRIC_FIELDS)}"
        )
    samples: Dict[str, Dict[str, List[float]]] = {}
    for row in dataset.rows():
        per_group = samples.setdefault(str(row["group"]), {})
        if row["status"] != "ok":
            continue
        for name in wanted:
            value = row[name]
            if value is not None:
                per_group.setdefault(name, []).append(float(value))
    out: Dict[str, Dict[str, Dict[str, object]]] = {}
    for group, per_metric in samples.items():
        out[group] = {}
        for name in wanted:
            values = per_metric.get(name)
            if not values:
                continue
            stats = summarize(values)
            nonzero = stats.mean != 0
            out[group][name] = {
                "n": stats.n,
                "mean": stats.mean,
                "std": stats.std,
                "var": stats.std ** 2,
                "min": min(values),
                "max": max(values),
                "ci95": stats.ci95,
                "rel_ci95": (
                    stats.ci95 / abs(stats.mean) if nonzero else None
                ),
                "cv": stats.std / abs(stats.mean) if nonzero else None,
                "seeds_needed": seeds_for_relative_ci(
                    stats.std, stats.mean, target_rel
                ),
            }
    return out


def render_diagnostics(
    diagnostics: Dict[str, Dict[str, Dict[str, object]]],
    target_rel: float = 0.05,
) -> str:
    """Fixed-width table of :func:`group_diagnostics` output."""
    target_pct = f"{target_rel * 100:g}%"
    header = ["group", "metric", "n", "mean", "ci95", "+/-%", "cv",
              "min", "max", f"seeds->{target_pct}"]
    rows: List[List[str]] = []
    for group, per_metric in diagnostics.items():
        for name, stats in per_metric.items():
            rel = stats["rel_ci95"]
            cv = stats["cv"]
            needed = stats["seeds_needed"]
            rows.append([
                group, name, str(stats["n"]),
                f"{stats['mean']:.4g}", f"{stats['ci95']:.3g}",
                f"{rel * 100:.1f}" if rel is not None else "-",
                f"{cv:.3f}" if cv is not None else "-",
                f"{stats['min']:.4g}", f"{stats['max']:.4g}",
                str(needed) if needed is not None else "-",
            ])
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines = [
        "== cross-seed diagnostics (95% Student-t) ==",
        " | ".join(h.ljust(w) for h, w in zip(header, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(
            c.ljust(w) if i < 2 else c.rjust(w)
            for i, (c, w) in enumerate(zip(row, widths))
        ))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure builders
# ----------------------------------------------------------------------
def _dataset_meta(dataset: CampaignDataset) -> Dict[str, object]:
    meta: Dict[str, object] = {"source": "campaign"} if dataset.source else {}
    meta["duration_s"] = dataset.spec.duration_us / 1_000_000
    meta["seeds"] = len(dataset.spec.seeds)
    return meta


def _select(dataset: CampaignDataset, **conditions) -> List[Dict[str, object]]:
    """Rows matching every (column == value) condition, in table order."""
    return [
        row for row in dataset.rows()
        if all(row[key] == value for key, value in conditions.items())
    ]


def _require(rows: Sequence[dict], figure_id: str, needs: str) -> None:
    if not rows:
        raise ReportError(
            f"dataset has no rows for {figure_id}: needs {needs}"
        )


def _xs(rows: Sequence[dict], key: str) -> List[float]:
    return sorted({row[key] for row in rows})


def _group_rows(
    rows: Sequence[dict], **conditions
) -> List[Dict[str, object]]:
    return [
        row for row in rows
        if all(row[key] == value for key, value in conditions.items())
    ]


def _column(rows: Sequence[dict], metric: str) -> List[Optional[float]]:
    """One metric over a group's rows (``None`` on failed rows)."""
    return [row[metric] for row in rows]


def _fig4_from_dataset(dataset: CampaignDataset) -> FigureResult:
    fig = FigureResult(
        figure_id="fig4",
        title="Diagnosis accuracy for varying magnitude of misbehavior",
        x_label="Percentage of Misbehavior (PM)",
        y_label="percentage of packets",
        meta=_dataset_meta(dataset),
    )
    rows = _select(
        dataset, kind="circle", nodes=8, protocol=PROTOCOL_CORRECT,
        detector=None, faults=None,
    )
    _require(rows, "fig4", "circle:8 cells under the correct protocol "
                           "(detector '-', faults '-')")
    for scenario, interferers in (("ZERO-FLOW", False), ("TWO-FLOW", True)):
        variant = _group_rows(rows, interferers=interferers)
        for pm in _xs(variant, "pm"):
            cell = _group_rows(variant, pm=pm)
            fig.add_stat_point(f"{scenario} correct diagnosis", pm,
                               _column(cell, "correct_diagnosis_percent"))
            fig.add_stat_point(f"{scenario} misdiagnosis", pm,
                               _column(cell, "misdiagnosis_percent"))
    return fig


def _fig5_from_dataset(dataset: CampaignDataset) -> FigureResult:
    fig = FigureResult(
        figure_id="fig5",
        title="Throughput comparison between IEEE 802.11 and proposed scheme",
        x_label="Percentage of Misbehavior (PM)",
        y_label="throughput (Kbps)",
        meta=_dataset_meta(dataset),
    )
    rows = _select(
        dataset, kind="circle", nodes=8, interferers=False,
        detector=None, faults=None,
    )
    _require(rows, "fig5", "ZERO-FLOW circle:8 cells (detector '-', "
                           "faults '-') for 802.11 and/or correct")
    for protocol, label in PROTOCOL_LABELS:
        variant = _group_rows(rows, protocol=protocol)
        for pm in _xs(variant, "pm"):
            cell = _group_rows(variant, pm=pm)
            fig.add_stat_point(f"{label} - MSB", pm,
                               _column(cell, "msb_throughput_bps"), scale=1e-3)
            fig.add_stat_point(f"{label} - AVG", pm,
                               _column(cell, "avg_throughput_bps"), scale=1e-3)
    return fig


def _size_sweep_figure(
    dataset: CampaignDataset, fig: FigureResult, metric: str, scale: float
) -> FigureResult:
    rows = _select(dataset, kind="circle", pm=0.0, detector=None, faults=None)
    _require(rows, fig.figure_id,
             "pm=0 circle cells (detector '-', faults '-') across sizes")
    for scenario, interferers in (("ZERO-FLOW", False), ("TWO-FLOW", True)):
        for protocol, label in PROTOCOL_LABELS:
            variant = _group_rows(
                rows, interferers=interferers, protocol=protocol
            )
            for n in _xs(variant, "nodes"):
                cell = _group_rows(variant, nodes=n)
                fig.add_stat_point(f"{scenario} {label}", n,
                                   _column(cell, metric), scale=scale)
    return fig


def _fig6_from_dataset(dataset: CampaignDataset) -> FigureResult:
    fig = FigureResult(
        figure_id="fig6",
        title="Throughput comparison without misbehavior for varying network sizes",
        x_label="number of senders",
        y_label="average throughput (Kbps)",
        meta=_dataset_meta(dataset),
    )
    return _size_sweep_figure(dataset, fig, "avg_throughput_bps", 1e-3)


def _fig7_from_dataset(dataset: CampaignDataset) -> FigureResult:
    fig = FigureResult(
        figure_id="fig7",
        title="Comparison of fairness index between IEEE 802.11 and proposed scheme",
        x_label="number of senders",
        y_label="fairness index",
        meta=_dataset_meta(dataset),
    )
    return _size_sweep_figure(dataset, fig, "fairness_index", 1.0)


def _fig9a_from_dataset(dataset: CampaignDataset) -> FigureResult:
    fig = FigureResult(
        figure_id="fig9a",
        title="Diagnosis accuracy, random topology (40 nodes, 1500m x 700m)",
        x_label="Percentage of Misbehavior (PM)",
        y_label="percentage of packets",
        meta=_dataset_meta(dataset),
    )
    rows = _select(
        dataset, kind="random", protocol=PROTOCOL_CORRECT,
        detector=None, faults=None,
    )
    _require(rows, "fig9a", "random:N/M cells under the correct protocol "
                            "(seeds play the paper's placements role)")
    for pm in _xs(rows, "pm"):
        cell = _group_rows(rows, pm=pm)
        fig.add_stat_point("correct diagnosis", pm,
                           _column(cell, "correct_diagnosis_percent"))
        fig.add_stat_point("misdiagnosis", pm,
                           _column(cell, "misdiagnosis_percent"))
    return fig


def _detectors_from_dataset(dataset: CampaignDataset) -> FigureResult:
    fig = FigureResult(
        figure_id="detectors",
        title="Detector comparison: operating point and detection latency",
        x_label="Percentage of Misbehavior (PM)",
        y_label="percentage of judged packets / detection latency",
        meta=_dataset_meta(dataset),
    )
    rows = _select(
        dataset, kind="circle", nodes=8, interferers=False,
        protocol=PROTOCOL_CORRECT, faults=None,
    )
    _require(rows, "detectors", "ZERO-FLOW circle:8 cells under the "
                                "correct protocol with a detector axis")
    # Journals carry the operating-point metrics only; time-to-detection
    # is a per-cheater latency the journal schema does not record (an
    # in-memory sweep adds its TTD series from the runs themselves).
    if dataset.source:
        fig.meta["ttd"] = "not recorded in campaign journals"
    fig.meta["detectors"] = [
        spec if spec is not None else "window"
        for spec in dataset.spec.detectors
    ]
    for spec in dataset.spec.detectors:
        label = spec if spec is not None else "window"
        variant = _group_rows(rows, detector=spec)
        for pm in _xs(variant, "pm"):
            cell = _group_rows(variant, pm=pm)
            fig.add_stat_point(f"{label} - detection %", pm,
                               _column(cell, "detection_rate_percent"))
            fig.add_stat_point(f"{label} - false alarm %", pm,
                               _column(cell, "false_alarm_percent"))
    return fig


#: The builders of the seed-averaged figures: the only reducers of
#: these ids, whether the dataset was loaded from a journal or came
#: from an in-memory sweep (:func:`figure_spec` +
#: :func:`dataset_from_runs`).  fig8 (a time series), fig9b, intro,
#: delay and faults need per-run state the journal does not carry, so
#: they stay in-memory planners in :mod:`repro.experiments.figures`.
JOURNAL_FIGURES = {
    "fig4": _fig4_from_dataset,
    "fig5": _fig5_from_dataset,
    "fig6": _fig6_from_dataset,
    "fig7": _fig7_from_dataset,
    "fig9a": _fig9a_from_dataset,
    "detectors": _detectors_from_dataset,
}


def figure_spec(figure_id: str, settings: EvalSettings) -> CampaignSpec:
    """The campaign grid an in-memory sweep of ``figure_id`` runs.

    Built from ``settings`` alone: the circle figures sweep the
    settings' PM values (or network sizes, at PM 0) over its seeds with
    sender :data:`~repro.experiments.figures.MISBEHAVING_NODE` as the
    cheater; fig9a's seeds are its ``random_topologies`` placements,
    1000, 1001, ...  The ``detectors`` grid keeps each settings token
    as it is (``window``, not ``-``), so configs and their fingerprints
    stay those of the settings' detector specs.
    """
    circle8 = ScenarioAxis("circle", 8)
    both = (PROTOCOL_80211, PROTOCOL_CORRECT)
    grid = CampaignSpec(
        scenarios=(circle8,), pm_values=tuple(settings.pm_values),
        cheater=MISBEHAVING_NODE, seeds=tuple(settings.seeds),
        duration_us=settings.duration_us,
    )
    if figure_id == "fig4":
        two_flow = ScenarioAxis("circle", 8, interferers=True)
        return replace(grid, scenarios=(circle8, two_flow))
    if figure_id == "fig5":
        return replace(grid, protocols=both)
    if figure_id in ("fig6", "fig7"):
        return replace(grid, protocols=both, pm_values=(0.0,), scenarios=tuple(
            ScenarioAxis("circle", n, interferers)
            for interferers in (False, True)
            for n in settings.network_sizes
        ))
    if figure_id == "fig9a":
        return replace(
            grid,
            scenarios=(ScenarioAxis(
                "random", settings.random_nodes,
                misbehaving=settings.random_misbehaving,
            ),),
            seeds=tuple(range(1000, 1000 + settings.random_topologies)),
        )
    if figure_id == "detectors":
        return replace(grid, detectors=tuple(settings.detectors))
    raise ReportError(f"{figure_id!r} is not a campaign-grid figure")


def figure_from_dataset(
    dataset: CampaignDataset, figure_id: str
) -> FigureResult:
    """Build one registered figure from a campaign dataset.

    Raises :class:`ReportError` for ids without a journal-driven
    builder or datasets whose grid cannot satisfy the figure.
    """
    if figure_id not in JOURNAL_FIGURES:
        raise ReportError(
            f"no journal-driven builder for {figure_id!r}; "
            f"available: {', '.join(sorted(JOURNAL_FIGURES))}"
        )
    return JOURNAL_FIGURES[figure_id](dataset)


__all__ = [
    "AXIS_COLUMNS",
    "AnalysisError",
    "CampaignDataset",
    "JOURNAL_FIGURES",
    "MergeResult",
    "ReportError",
    "ShardInfo",
    "SkippedRecord",
    "dataset_from_runs",
    "export_csv",
    "figure_from_dataset",
    "figure_spec",
    "group_diagnostics",
    "load_dataset",
    "merge_journals",
    "render_diagnostics",
    "seeds_for_relative_ci",
]
