"""Span tracer for the benchmark's traced run (``--trace 1``).

The tracer wraps public functions of each layer from *outside* the
program: it replaces class attributes and module globals with timing
wrappers, so the program itself carries no instrumentation.  It must be
installed before the scenarios and services of a pass are built —
objects bind their callbacks (timers, listener partitions) when they
are constructed or first used.

Every wrapped call updates a per-label aggregate ``[calls, total_s,
self_s]`` (self time is the span minus the part its wrapped children
cover) and, up to :data:`SPAN_CAP`, appends a span ``(id, label,
start, end, parent_id, run_id)`` kept in memory and written out when
the run ends.  Labels are ``"<layer>:<function>"``; the layer prefix is
what the per-layer table sums over.

Forked children (the campaign executor's pool workers, the ingest
workers) inherit the wrappers.  They keep aggregates but no spans; a
pool worker attaches its per-run aggregate to the ``RunResult`` it
returns (see :func:`_ship_worker_calls`), so the parent can fold the
simulator layers of campaign cells into its own table.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from typing import Callable, Dict, List

#: Spans kept in memory per process; calls beyond it still count in the
#: aggregates (a sim-grid pass makes millions of wrapped calls).
SPAN_CAP = 100_000

#: Attribute a traced pool worker sets on each ``RunResult`` it returns.
CALLS_ATTR = "perfbench_calls"


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self.span_cap = SPAN_CAP
        self.spans_dropped = 0
        self.run_id = 0
        self.pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.span_cap = 0
        self.spans = []
        self._local.stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, label: str) -> Callable:
        stat = self.calls.setdefault(label, [0, 0.0, 0.0])
        clock = time.perf_counter
        ids = self._ids
        stack_of = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent_id = parent[1]
                else:
                    parent_id = -1
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append(
                        (frame[1], label, start, end, parent_id, tracer.run_id)
                    )
                elif tracer.span_cap:
                    tracer.spans_dropped += 1

        return traced

    def count_none(self, fn: Callable, label: str) -> Callable:
        """Count calls, and under ``<label>#none`` the calls returning
        ``None``, without timing (for hot scanners whose cost belongs to
        their caller)."""
        stat = self.calls.setdefault(label, [0, 0.0, 0.0])
        nones = self.calls.setdefault(f"{label}#none", [0, 0.0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            stat[0] += 1
            if result is None:
                nones[0] += 1
            return result

        return counted

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the aggregates in place (wrappers hold the lists)."""
        for stat in self.calls.values():
            stat[0] = 0
            stat[1] = 0.0
            stat[2] = 0.0

    def snapshot(self) -> Dict[str, List[float]]:
        return {label: list(stat) for label, stat in self.calls.items()
                if stat[0]}


def merge_calls(into: Dict[str, List[float]],
                other: Dict[str, List[float]]) -> None:
    for label, stat in other.items():
        acc = into.setdefault(label, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += stat[i]


class _Namespace:
    """Stands in for a module inside another module's globals: every
    attribute is the real module's except the overridden ones."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _wrap_attr(tracer: Tracer, owner, name: str, label: str) -> None:
    setattr(owner, name, tracer.wrap(vars(owner)[name], label))


def _wrap_public(tracer: Tracer, cls, layer: str) -> None:
    for name, value in list(vars(cls).items()):
        if callable(value) and not name.startswith("_"):
            _wrap_attr(tracer, cls, name, f"{layer}:{cls.__name__}.{name}")


def _ship_worker_calls(tracer: Tracer) -> None:
    """Wrap the executor's per-run task so that, inside a forked pool
    worker, each ``RunResult`` carries the worker's traced aggregate
    for that run back to the parent.

    The replacement keeps the original's module and qualified name, so
    the pool pickles it by reference and the forked worker resolves it
    to this same wrapper.
    """
    from repro.experiments import executor as executor_module

    original = executor_module._timed_run

    @functools.wraps(original)
    def _timed_run(config):
        if os.getpid() == tracer.pid:
            return original(config)
        tracer.reset()
        result, wall = original(config)
        setattr(result, CALLS_ATTR, tracer.snapshot())
        return result, wall

    executor_module._timed_run = _timed_run


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (see the module docstring)."""
    from repro.core.diagnosis import DiagnosisWindow
    from repro.core.monitor import SenderMonitor
    from repro.detect.base import DetectorBase
    from repro.detect.window import WindowDetector
    from repro.experiments import campaign, executor, figures, scenarios
    from repro.experiments.campaign import analysis, journal, orchestrator
    from repro.mac import dcf
    from repro.mac.backoff_timer import BackoffTimer
    from repro.metrics.collector import MetricsCollector
    from repro.phy import sensing
    from repro.phy.medium import Medium
    from repro.service import ingest, spool, workers
    from repro.service.store import ShardedDetectorStore
    from repro.service.verdicts import VerdictLog
    from repro.sim.engine import Simulator

    wrap = functools.partial(_wrap_attr, tracer)
    wrap(Simulator, "run", "sim.engine:Simulator.run")
    for name in ("start_transmission", "_finish_transmission"):
        wrap(Medium, name, f"phy.medium:Medium.{name}")
    _wrap_public(tracer, sensing.IdleSlotCounter, "phy.sensing")
    for name in ("on_channel_busy", "on_channel_idle", "on_marginal_change",
                 "on_frame", "on_frame_corrupted"):
        wrap(dcf.DcfMac, name, f"mac.dcf:DcfMac.{name}")
    # Public API plus the timer's own event callbacks and the freeze the
    # fused busy edge calls directly.
    for name in ("start", "cancel", "set_blocked", "marginal_changed",
                 "_ifs_elapsed", "_sampled_decrement", "_clean_complete",
                 "_freeze"):
        wrap(BackoffTimer, name, f"mac.backoff_timer:BackoffTimer.{name}")
    # Patched where the name is looked up, not in repro.sim.rng.
    for module in (sensing, dcf):
        wrap(module, "binomial", f"sim.rng:binomial@{module.__name__}")
    for name in ("on_rts", "on_response_sent"):
        wrap(SenderMonitor, name, f"core.monitor:SenderMonitor.{name}")
    wrap(DiagnosisWindow, "update", "core.diagnosis:DiagnosisWindow.update")
    wrap(WindowDetector, "observe", "detect:WindowDetector.observe")
    wrap(DetectorBase, "observe", "detect:DetectorBase.observe")
    _wrap_public(tracer, MetricsCollector, "metrics.collector")
    wrap(scenarios, "build_scenario", "experiments.scenarios:build_scenario")
    wrap(executor.ExperimentExecutor, "run",
         "experiments.executor:ExperimentExecutor.run")
    executor.cf = _Namespace(executor.cf, wait=tracer.wrap(
        executor.cf.wait, "experiments.executor:wait"))
    wrap(figures, "generate_figures", "experiments.figures:generate_figures")

    for name in ("append", "sync"):
        wrap(journal.JournalWriter, name, f"campaign.journal:JournalWriter.{name}")
    journal.os = _Namespace(os, fsync=tracer.wrap(os.fsync, "campaign.journal:fsync"))
    wrap(campaign, "run_campaign", "campaign.orchestrator:run_campaign")
    for module in (orchestrator, analysis):
        wrap(module, "write_summary",
             f"campaign.orchestrator:write_summary@{module.__name__}")
    for name in ("merge_journals", "load_dataset", "figure_from_dataset",
                 "group_diagnostics"):
        wrap(campaign, name, f"campaign.analysis:{name}")

    for module in (ingest, workers):
        wrap(module, "decode_record",
             f"service.codec:decode_record@{module.__name__}")
    workers.sender_of_line = tracer.count_none(
        workers.sender_of_line, "service.codec:sender_of_line")
    wrap(ShardedDetectorStore, "observe", "service.store:ShardedDetectorStore.observe")
    wrap(VerdictLog, "publish", "service.verdicts:VerdictLog.publish")
    wrap(spool.FlagSpool, "append", "service.spool:FlagSpool.append")
    spool.os = _Namespace(os, fsync=tracer.wrap(os.fsync, "service.spool:fsync"))
    for name in ("ingest_line", "barrier", "api_verdicts"):
        wrap(workers.IngestWorkerPool, name,
             f"service.workers:IngestWorkerPool.{name}")

    _ship_worker_calls(tracer)
