"""Journal overhead of the crash-safe campaign layer.

The campaign journal buys durability with one fsync per settled run.
This module measures what that costs against the same sweep collected
purely in memory (``ExperimentExecutor.run`` alone, no journal, no
summary rewrites).

Gates:

* **Always**: the journaled campaign's per-run metrics are bit-
  identical to the in-memory sweep's — durability must not perturb
  results.
* **Under ``REPRO_BENCH_GATE``** (CI): journal overhead <= 5% of the
  in-memory wall time at this scale.  Developer machines skip the
  timing gate (fsync cost is wildly filesystem-dependent) but still
  check identity.
"""

import hashlib
import json
import os
import time

from repro.experiments.campaign import (
    CampaignAggregator,
    JournalWriter,
    expand_cells,
    parse_campaign,
    read_journal,
    run_campaign,
)
from repro.experiments.campaign.journal import METRIC_FIELDS
from repro.experiments.executor import ExperimentExecutor

#: Tolerated journal overhead vs the in-memory sweep (CI gate).
OVERHEAD_TOLERANCE = 0.05


def _workload():
    """(scale name, spec) for the overhead measurement.

    Runs must be long enough that per-run fsync cost amortizes the way
    it does in real campaigns (sub-millisecond fsync vs tens of
    milliseconds of simulation); sub-10ms runs would measure the
    filesystem, not the campaign layer.
    """
    if os.environ.get("REPRO_QUICK"):
        return "quick", ("scenario=circle:3; pm=0|60; seeds=1-6; "
                         "seconds=2.0")
    return "bench", ("scenario=circle:3; pm=0|30|60; seeds=1-10; "
                     "seconds=5.0")


def _metric_signature(metric_rows):
    """Digest of every run's metrics, in deterministic cell order."""
    return hashlib.sha256(
        json.dumps(metric_rows, sort_keys=True).encode()
    ).hexdigest()[:16]


def _time_campaign_machinery(out_dir, cells, metric_rows):
    """Wall time of everything the campaign adds to the raw sweep.

    Replays the orchestrator's exact extra work for this cell list —
    fingerprinting, the journal header, one append per settled run
    with the per-chunk fsync pattern, streaming aggregation, and the
    per-chunk atomic summary rewrite — against real record payloads.
    """
    from repro.experiments.campaign.orchestrator import (
        DEFAULT_CHUNK_SIZE,
        _fingerprint_cells,
        write_summary,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summary.json"
    start = time.perf_counter()
    fingerprinted, duplicates = _fingerprint_cells(cells)
    aggregator = CampaignAggregator()
    with JournalWriter(out_dir / "journal.jsonl") as writer:
        writer.append({"kind": "campaign", "spec": "bench", "cells":
                       len(fingerprinted)})
        pending = list(zip(fingerprinted, metric_rows))
        for chunk_start in range(0, len(pending), DEFAULT_CHUNK_SIZE):
            chunk = pending[chunk_start:chunk_start + DEFAULT_CHUNK_SIZE]
            for (fingerprint, cell), metrics in chunk:
                record = {
                    "kind": "run", "fp": fingerprint, "cell": cell.key,
                    "group": cell.group, "seed": cell.seed,
                    "status": "ok", "metrics": metrics,
                }
                writer.append(record, sync=False)
                aggregator.add(record)
            writer.sync()
            write_summary(summary_path, "bench", (0, 1),
                          len(fingerprinted), duplicates, aggregator)
    write_summary(summary_path, "bench", (0, 1), len(fingerprinted),
                  duplicates, aggregator)
    return time.perf_counter() - start


def test_journal_overhead(tmp_path, monkeypatch):
    # The run cache would let the second sweep replay the first one's
    # results and fake a near-zero wall time; measure uncached.
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    scale, spec_text = _workload()
    spec = parse_campaign(spec_text)
    cells = expand_cells(spec)
    configs = [cell.config for cell in cells]
    # Scheduler/allocator noise on a shared box easily exceeds the
    # few-percent effect under measurement; interleave the paths and
    # take each one's best of REPEATS.
    repeats = 2 if scale == "bench" else 3

    ex = ExperimentExecutor(workers=1, on_failure="flag")
    try:
        ex.run(configs[:2])  # warm allocator and code paths
    finally:
        ex.close()

    journal_wall = memory_wall = float("inf")
    journaled_metrics = memory_metrics = None
    for repeat in range(repeats):
        # Default chunk size: both paths then run one executor batch,
        # so the delta is journal + summary + fingerprint cost, not
        # the executor's fixed per-batch cost.
        start = time.perf_counter()
        report = run_campaign(spec, tmp_path / f"campaign-{repeat}",
                              workers=1)
        journal_wall = min(journal_wall, time.perf_counter() - start)
        assert report.exit_code == 0 and report.ok == len(cells)
        records = [r for r in read_journal(report.journal_path).records
                   if r["kind"] == "run"]
        journaled_metrics = [r["metrics"] for r in records]

        ex = ExperimentExecutor(workers=1, on_failure="flag")
        try:
            start = time.perf_counter()
            outcomes = ex.run(configs)
            memory_wall = min(memory_wall, time.perf_counter() - start)
        finally:
            ex.close()
        memory_metrics = [
            {name: getattr(outcome, name) for name in METRIC_FIELDS}
            for outcome in outcomes
        ]

    # Durability must not perturb results: same cells, same metrics,
    # same order — checked on every run, gated or not.
    assert _metric_signature(journaled_metrics) \
        == _metric_signature(memory_metrics), (
        "journaled campaign metrics diverge from the in-memory sweep"
    )

    # The paired-sweep delta is reported, not gated: on a shared box,
    # scheduler noise across two ~1 s sweeps easily exceeds the
    # few-percent effect.  The *gate* times the durability machinery
    # directly — the exact extra work the
    # campaign does on top of the executor sweep (fingerprinting,
    # journal appends + per-chunk fsync, aggregation, atomic summary
    # rewrites) — which is deterministic enough to bound.
    # Freshly expanded cells: ``ex.run(configs)`` above memoised the
    # fingerprints of ``cells``' configs, and the machinery must time
    # one real fingerprint pass, as a campaign does.
    machinery_wall = _time_campaign_machinery(
        tmp_path / "machinery", expand_cells(spec), journaled_metrics
    )
    overhead = machinery_wall / memory_wall
    print(f"\n[{scale}] {len(cells)} runs: journal {journal_wall:.3f}s, "
          f"memory {memory_wall:.3f}s, machinery {machinery_wall:.4f}s "
          f"(overhead {overhead:.2%}, paired "
          f"{journal_wall / memory_wall - 1.0:+.2%})")

    if os.environ.get("REPRO_BENCH_GATE"):
        assert overhead <= OVERHEAD_TOLERANCE, (
            f"journal overhead {overhead:.1%} exceeds the "
            f"{OVERHEAD_TOLERANCE:.0%} bound "
            f"({machinery_wall:.4f}s of durability machinery vs "
            f"{memory_wall:.3f}s of in-memory sweep)"
        )


def test_streaming_aggregation_cost_is_negligible(tmp_path):
    """Aggregator update cost per record (pure CPU, no I/O)."""
    agg = CampaignAggregator()
    record = {
        "kind": "run", "fp": "fp", "cell": "c", "group": "g",
        "seed": 1, "status": "ok",
        "metrics": {name: 1.0 for name in METRIC_FIELDS},
    }
    n = 20_000
    start = time.perf_counter()
    for i in range(n):
        agg.add({**record, "fp": f"fp{i}", "group": f"g{i % 8}"})
    per_record_us = (time.perf_counter() - start) / n * 1e6
    assert agg.ok == n
    # A simulation run takes >= milliseconds; aggregation must stay
    # orders of magnitude below that.
    assert per_record_us < 500.0
