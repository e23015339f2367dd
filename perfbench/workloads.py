"""The benchmark's four workloads.

Each workload is driven in passes by ``run.py``: :meth:`Workload.setup`
builds the program objects one pass needs (executor, pool, service,
spool, watcher), :meth:`Workload.work` is the timed unit, and
:meth:`Workload.finish` tears down and checks the pass's outputs,
raising :class:`CheckFailed` on any mismatch.  :meth:`Workload.prepare`
builds the generated inputs and the reference results once per run; it
is the benchmark's own cost and is never timed.

Why each workload exists, and what it stresses, is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments import (
    EvalSettings,
    ExperimentExecutor,
    FailedRun,
    RunResult,
    ScenarioConfig,
    campaign,
    figures,
)
from repro.experiments.campaign import JOURNAL_NAME, METRIC_FIELDS
from repro.net.topology import circle_topology
from repro.service.codec import encode_record, sender_of_line
from repro.service.ingest import DetectionService
from repro.service.loadgen import BenchConfig, generate_stream
from repro.service.spool import FlagSpool, read_spool_events, spool_path
from repro.service.store import worker_of
from repro.service.workers import IngestWorkerPool

from tracing import CALLS_ATTR, merge_calls

# -- sim-grid: the fig6/fig7 grid ------------------------------------------
SIM_FIGURES = ("fig6", "fig7")
SIM_SIZES = (1, 4, 16, 64)
SIM_SEEDS = 2
SIM_DURATION_US = 100_000

# -- campaign-shards -------------------------------------------------------
CAMPAIGN_SPEC = (
    "scenario=circle:8; protocol=correct; pm=0|20|40|60|80; "
    "detector=-|cusum|estimator; seeds={first}-{last}; seconds=0.02"
)
CAMPAIGN_SEEDS = 20
CAMPAIGN_SHARDS = 2
CAMPAIGN_WORKERS = 2

# -- service-w1 / service-w2: the acceptance geometry ----------------------
SERVICE_SENDERS = 100_000
SERVICE_OBSERVATIONS = 250_000
SERVICE_CHEATER_FRACTION = 0.02
SERVICE_PM = 0.6
SERVICE_DETECTOR = "window"
SERVICE_SHARDS = 8
SERVICE_ENTRIES = 10_000
#: Worker processes of service-w2: the core count of the host the
#: benchmark was defined on, fixed so the workload does not change with
#: the host (each record carries the cores it actually had).
SERVICE_POOL_WORKERS = 2
#: Long-poll timeout of the watcher; bounds how long stopping it takes.
WATCH_TIMEOUT_S = 0.2
#: How long a pass waits for the watcher to receive every expected flag.
FLAG_DRAIN_TIMEOUT_S = 30.0


class CheckFailed(AssertionError):
    """A pass produced output that differs from what it must be."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class PassOutcome:
    """What one pass did, beyond its wall and CPU time."""

    #: Units of work done (simulator events, or wire lines folded in).
    units: int
    attempted: int
    failed: int
    #: Flag lags in ms, one per flag (service workloads).
    lags_ms: List[float] = field(default_factory=list)
    #: Counts the per-layer table reports that are not call counts.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Digest of the pass's outputs; equal on every pass of a run.
    signature: Optional[str] = None
    #: Traced aggregates shipped back by pool workers (campaign only).
    child_calls: Dict[str, List[float]] = field(default_factory=dict)


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()[:16]


def _capture_outcomes(executor: ExperimentExecutor) -> list:
    """Record every outcome the executor hands back (figures and the
    orchestrator keep only what they reduce)."""
    outcomes: list = []
    run = executor.run

    def capturing(configs):
        results = run(configs)
        outcomes.extend(results)
        return results

    executor.run = capturing
    return outcomes


def _unique(outcomes: list) -> list:
    """In-batch duplicates come back as the same object; keep one."""
    seen = set()
    out = []
    for outcome in outcomes:
        if id(outcome) not in seen:
            seen.add(id(outcome))
            out.append(outcome)
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self) -> Dict[str, object]:
        """The stated input sizes, for the run record."""
        return {}

    def prepare(self) -> None:
        """Build inputs and references (untimed, once per run)."""

    def setup(self, pass_dir: pathlib.Path) -> None:
        raise NotImplementedError

    def work(self) -> None:
        raise NotImplementedError

    def finish(self) -> PassOutcome:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever :meth:`setup` started (idempotent)."""


# ----------------------------------------------------------------------
# sim-grid
# ----------------------------------------------------------------------
class SimGrid(Workload):
    name = "sim-grid"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.settings = EvalSettings(
            duration_us=SIM_DURATION_US,
            seeds=tuple(range(seed, seed + SIM_SEEDS)),
            network_sizes=SIM_SIZES,
        )
        self.executor: Optional[ExperimentExecutor] = None

    def inputs(self):
        return {
            "figures": list(SIM_FIGURES),
            "grid": "{ZERO,TWO-FLOW} x {802.11,CORRECT} x sizes x seeds",
            "sizes": list(SIM_SIZES),
            "seeds": list(self.settings.seeds),
            "sim_seconds_per_run": SIM_DURATION_US / 1e6,
            "executor": "inline, 1 worker, cache off",
        }

    def setup(self, pass_dir):
        self.executor = ExperimentExecutor(workers=1, cache=None)
        self.outcomes = _capture_outcomes(self.executor)

    def work(self):
        self.figures = figures.generate_figures(
            list(SIM_FIGURES), self.settings, executor=self.executor
        )

    def finish(self):
        executor = self.executor
        self.close()
        runs = _unique(self.outcomes)
        ok = [r for r in runs if isinstance(r, RunResult)]
        failed = [r for r in runs if isinstance(r, FailedRun)]
        check(not failed, f"{len(failed)} grid run(s) failed: "
                          f"{failed[0].error if failed else ''}")
        expected = 2 * 2 * len(SIM_SIZES) * SIM_SEEDS
        check(len(ok) == expected,
              f"grid executed {len(ok)} runs, expected {expected}")
        for fid in SIM_FIGURES:
            fig = self.figures[fid]
            check(len(fig.series) == 4 and all(
                len(points) == len(SIM_SIZES) for points in fig.series.values()
            ), f"{fid} is missing series or points")
        events = sum(r.events_processed for r in ok)
        return PassOutcome(
            units=events,
            attempted=len(runs),
            failed=len(failed),
            counters={
                "sim.engine.events": events,
                "experiments.executor.runs": executor.runs_executed,
                "experiments.executor.retries": executor.runs_retried,
            },
            signature=digest([
                (r.events_processed, round(r.avg_throughput_bps, 6),
                 round(r.fairness_index, 9)) for r in ok
            ]),
        )

    def close(self):
        if self.executor is not None:
            self.executor.close()
            self.executor = None


# ----------------------------------------------------------------------
# campaign-shards
# ----------------------------------------------------------------------
class CampaignShards(Workload):
    name = "campaign-shards"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec_text = CAMPAIGN_SPEC.format(
            first=seed, last=seed + CAMPAIGN_SEEDS - 1
        )
        self.executor: Optional[ExperimentExecutor] = None

    def prepare(self):
        self.spec = campaign.parse_campaign(self.spec_text)
        self.cells = len(campaign.expand_cells(self.spec))

    def inputs(self):
        return {
            "spec": self.spec_text,
            "cells": self.cells,
            "shards": CAMPAIGN_SHARDS,
            "pool_workers": CAMPAIGN_WORKERS,
        }

    def setup(self, pass_dir):
        self.pass_dir = pass_dir
        self.executor = ExperimentExecutor(
            workers=CAMPAIGN_WORKERS, on_failure="flag", cache=None
        )
        # The pool forks lazily on first submission; one tiny run makes
        # the workers exist before the timed work starts.
        warm = ScenarioConfig(topology=circle_topology(1), duration_us=1_000)
        check(isinstance(self.executor.run([warm])[0], RunResult),
              "pool warm-up run failed")
        self.runs_before = self.executor.runs_executed
        self.outcomes = _capture_outcomes(self.executor)

    def work(self):
        shard_dirs = [self.pass_dir / f"shard{i}" for i in range(CAMPAIGN_SHARDS)]
        self.reports = [
            campaign.run_campaign(
                self.spec, shard_dir, shard=(i, CAMPAIGN_SHARDS),
                executor=self.executor,
            )
            for i, shard_dir in enumerate(shard_dirs)
        ]
        merged = self.pass_dir / "merged"
        self.merge = campaign.merge_journals(shard_dirs, merged)
        self.dataset = campaign.load_dataset(merged)
        self.figure = campaign.figure_from_dataset(self.dataset, "detectors")
        self.diagnostics = campaign.group_diagnostics(self.dataset)

    def finish(self):
        executor = self.executor
        self.close()
        for report in self.reports:
            check(report.exit_code == 0 and report.ok == report.cells,
                  f"shard settled {report.ok}/{report.cells} cells ok "
                  f"(failed={report.failed}, quarantined={report.quarantined})")
        merge, dataset = self.merge, self.dataset
        check(merge.complete and merge.ok == merge.cells == self.cells,
              f"merge settled {merge.ok}/{merge.cells} of {self.cells} cells")
        check(not merge.skipped and merge.duplicate_records == 0,
              f"merge skipped {len(merge.skipped)} and duplicated "
              f"{merge.duplicate_records} records")
        check(not dataset.skipped and not dataset.missing
              and len(dataset) == self.cells,
              f"dataset has {len(dataset)} rows, {len(dataset.skipped)} "
              f"skipped, {len(dataset.missing)} missing")
        check(self.figure.series and len(self.diagnostics) == len(dataset.groups()),
              "detectors figure or group diagnostics came back empty")
        results = [r for r in _unique(self.outcomes) if isinstance(r, RunResult)]
        child_calls: Dict[str, List[float]] = {}
        for result in results:
            merge_calls(child_calls, getattr(result, CALLS_ATTR, {}))
        columns = dataset.columns
        events = int(sum(columns["events_processed"]))
        journal_bytes = sum(
            (path / JOURNAL_NAME).stat().st_size
            for path in [self.pass_dir / "merged"] + [
                self.pass_dir / f"shard{i}" for i in range(CAMPAIGN_SHARDS)
            ]
        )
        return PassOutcome(
            units=events,
            attempted=merge.cells,
            failed=merge.failed + merge.quarantined,
            counters={
                "sim.engine.events": events,
                "experiments.executor.runs":
                    executor.runs_executed - self.runs_before,
                "experiments.executor.retries": executor.runs_retried,
                "campaign.journal.bytes": journal_bytes,
                "campaign.analysis.skipped_records":
                    len(merge.skipped) + len(dataset.skipped),
            },
            signature=digest([
                [columns["cell"][i], columns["status"][i]]
                + [columns[name][i] for name in METRIC_FIELDS]
                for i in range(len(dataset))
            ]),
            child_calls=child_calls,
        )

    def close(self):
        if self.executor is not None:
            self.executor.close()
            self.executor = None


# ----------------------------------------------------------------------
# service-w1 / service-w2
# ----------------------------------------------------------------------
class _Watcher:
    """The benchmark's single ``api_watch`` consumer (one thread)."""

    def __init__(self, service):
        self.service = service
        #: ``(sender, n) -> receive time`` of the sender's n-th flag (a
        #: sender evicted and readmitted can flag again in a new tenure).
        self.received: Dict[Tuple[str, int], float] = {}
        self._flags_of: Dict[str, int] = {}
        self.wakeups = 0
        self.error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._arrived = threading.Condition()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-watcher", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        cursor = None
        clock = time.perf_counter
        try:
            while not self._stop.is_set():
                payload = self.service.api_watch(cursor, timeout=WATCH_TIMEOUT_S)
                now = clock()
                events = payload["events"]
                if events:
                    self.wakeups += 1
                    with self._arrived:
                        for event in events:
                            sender = event["sender"]
                            n = self._flags_of.get(sender, 0)
                            self._flags_of[sender] = n + 1
                            self.received[(sender, n)] = now
                        self._arrived.notify_all()
                cursor = str(payload["next"])
        except Exception as exc:  # reported by the pass check
            self.error = exc
            with self._arrived:
                self._arrived.notify_all()

    def wait_for(self, flags: frozenset, timeout: float) -> None:
        with self._arrived:
            self._arrived.wait_for(
                lambda: self.error is not None
                or self.received.keys() >= flags,
                timeout,
            )

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(WATCH_TIMEOUT_S * 10 + 5.0)
        check(not self._thread.is_alive(), "watcher thread did not stop")
        check(self.error is None, f"watcher failed: {self.error!r}")


class _Service(Workload):
    #: Ingest worker processes; 1 is the in-process service.
    workers = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = BenchConfig(
            senders=SERVICE_SENDERS,
            observations=SERVICE_OBSERVATIONS,
            cheater_fraction=SERVICE_CHEATER_FRACTION,
            pm=SERVICE_PM,
            detector=SERVICE_DETECTOR,
            shards=SERVICE_SHARDS,
            max_entries=SERVICE_ENTRIES,
            seed=seed,
            workers=self.workers,
        )
        #: Per-worker per-shard budget: the aggregate LRU budget is the
        #: single-process one whatever the worker count.
        self.entries = max(1, SERVICE_ENTRIES // self.workers)
        self.service = None
        self.watcher: Optional[_Watcher] = None

    def inputs(self):
        return {
            "lines": SERVICE_OBSERVATIONS,
            "distinct_senders": SERVICE_SENDERS,
            "lru_budget": f"{self.workers} worker(s) x {SERVICE_SHARDS} "
                          f"shards x {self.entries} entries",
            "cheaters": f"{SERVICE_CHEATER_FRACTION:.0%} at PM={SERVICE_PM * 100:g}",
            "detector": SERVICE_DETECTOR,
            "loop": "closed; 1 feeder thread + 1 api_watch thread",
        }

    def prepare(self):
        stream, self.cheaters = generate_stream(self.config)
        self.lines = [encode_record(sender, obs) for sender, obs in stream]
        distinct = len({sender for sender, _ in stream})
        del stream
        check(distinct >= SERVICE_SENDERS
              and distinct > SERVICE_SHARDS * SERVICE_ENTRIES,
              f"only {distinct} distinct senders; the stream must exceed "
              f"the LRU budget")
        triggers = self._reference_triggers()
        #: Expected flags in trigger order, as ``(sender, n)``.
        self.flags: List[Tuple[str, int]] = []
        flags_of: Dict[str, int] = {}
        for _, sender in triggers:
            n = flags_of.get(sender, 0)
            flags_of[sender] = n + 1
            self.flags.append((sender, n))
        self.reference = frozenset(self.flags)
        check(self.flags and flags_of.keys() <= self.cheaters,
              "reference replay flagged no sender, or an honest one")
        # Feed segments: the lines before each flag-triggering line, then
        # the triggering line (its flag's clock starts when it is fed).
        self.segments: List[Tuple[list, str]] = []
        start = 0
        for index, _ in triggers:
            self.segments.append((self.lines[start:index], self.lines[index]))
            start = index + 1
        self.tail = self.lines[start:]

    def _reference_triggers(self) -> List[Tuple[int, str]]:
        """Untimed replay through plain in-process services, one per
        worker slot with the pool's geometry; returns ``(line index,
        sender)`` of every line that raised a first flag."""
        services = [
            DetectionService(detector=SERVICE_DETECTOR, shards=SERVICE_SHARDS,
                             max_entries=self.entries)
            for _ in range(self.workers)
        ]
        triggers = []
        for index, line in enumerate(self.lines):
            sender = sender_of_line(line)
            service = services[worker_of(sender, self.workers)]
            before = len(service.verdicts)
            service.ingest_line(line)
            if len(service.verdicts) != before:
                triggers.append((index, sender))
        return triggers

    def setup(self, pass_dir):
        self.pass_dir = pass_dir
        self.service = self._open_service(pass_dir)
        self.watcher = _Watcher(self.service)

    def work(self):
        ingest = self.service.ingest_line
        clock = time.perf_counter
        sent = self.sent = []
        for before, line in self.segments:
            for other in before:
                ingest(other)
            sent.append(clock())
            ingest(line)
        for other in self.tail:
            ingest(other)
        self._drain()

    def finish(self):
        self.watcher.wait_for(self.reference, FLAG_DRAIN_TIMEOUT_S)
        self.watcher.stop()
        received = self.watcher.received
        wakeups = self.watcher.wakeups
        stats = self.service.api_stats()
        self.close()
        served = frozenset(received)
        honest = {sender for sender, _ in served} - self.cheaters
        check(not honest, f"{len(honest)} honest sender(s) flagged")
        check(served == self.reference,
              f"served {len(served)} flags, reference {len(self.reference)}; "
              f"{len(self.reference - served)} missing, "
              f"{len(served - self.reference)} unexpected")
        folded = stats["observations"]
        check(folded == len(self.lines) and stats["decode_errors"] == 0,
              f"folded {folded} of {len(self.lines)} lines "
              f"({stats['decode_errors']} rejected)")
        spooled = [
            event.sender for index in range(self.workers)
            for event in read_spool_events(
                spool_path(self.pass_dir, index, self.workers)
            )
        ]
        check(sorted(spooled) == sorted(sender for sender, _ in served),
              f"{len(spooled)} spool records for {len(served)} flags")
        store = stats["store"]
        admitted = store["entries"] + store["evictions"]
        counters = {
            "service.store.evictions": store["evictions"],
            "service.store.resident_ratio":
                (folded - admitted) / folded,
            "service.verdicts.watch_wakeups": wakeups,
            "service.spool.records": len(spooled),
        }
        counters.update(self._pool_counters(stats))
        return PassOutcome(
            units=folded,
            lags_ms=[(received[flag] - sent) * 1e3
                     for flag, sent in zip(self.flags, self.sent)],
            attempted=len(self.lines),
            failed=len(self.lines) - folded,
            counters=counters,
            signature=digest(sorted(served)),
        )

    def close(self):
        if self.watcher is not None:
            watcher, self.watcher = self.watcher, None
            watcher.stop()
        if self.service is not None:
            service, self.service = self.service, None
            service.close()

    # Geometry-specific parts ------------------------------------------
    def _open_service(self, pass_dir):
        raise NotImplementedError

    def _drain(self) -> None:
        """Return once every line fed is folded in."""

    def _pool_counters(self, stats) -> Dict[str, float]:
        return {}


class ServiceW1(_Service):
    name = "service-w1"
    workers = 1

    def _open_service(self, pass_dir):
        spool = FlagSpool(spool_path(pass_dir, 0, 1), detector=SERVICE_DETECTOR)
        return DetectionService(
            detector=SERVICE_DETECTOR, shards=SERVICE_SHARDS,
            max_entries=self.entries, spool=spool,
        )


class ServiceW2(_Service):
    name = "service-w2"
    workers = SERVICE_POOL_WORKERS

    def _open_service(self, pass_dir):
        return IngestWorkerPool(
            workers=self.workers, detector=SERVICE_DETECTOR,
            shards=SERVICE_SHARDS, max_entries=self.entries,
            spool_dir=str(pass_dir),
        )

    def _drain(self):
        self.service.barrier()

    def _pool_counters(self, stats):
        per_worker = [w["observations"] for w in stats["per_worker"]]
        return {
            "service.workers.misroutes": stats["misroutes"],
            "service.workers.skew":
                max(per_worker) / (sum(per_worker) / len(per_worker)),
        }


WORKLOADS = {
    cls.name: cls for cls in (SimGrid, CampaignShards, ServiceW1, ServiceW2)
}
