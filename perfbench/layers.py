"""Per-layer metrics of the traced run, computed from the tracer's
per-label aggregates (``"<layer>:<function>" -> [calls, total_s,
self_s]``, per pass) and each workload's own counters.

Names ending in ``self_s`` are self time (the span minus its wrapped
children); other ``_s`` names are inclusive time of the named calls.
Every metric is reported on every workload: a layer a workload does not
use reads 0 there, which is the prediction for it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

Calls = Dict[str, List[float]]
Counters = Dict[str, float]

#: Label of the root span the runner puts around each pass's work.
ROOT = "perfbench:work"


def calls(agg: Calls, prefix: str) -> float:
    return sum(stat[0] for label, stat in agg.items()
               if label.startswith(prefix) and not label.endswith("#none"))


def total(agg: Calls, prefix: str) -> float:
    return sum(stat[1] for label, stat in agg.items() if label.startswith(prefix))


def self_time(agg: Calls, prefix: str) -> float:
    return sum(stat[2] for label, stat in agg.items() if label.startswith(prefix))


def _counter(name: str) -> Callable[[Calls, Counters], float]:
    return lambda agg, counters: counters.get(name, 0)


def _calls(prefix: str):
    return lambda agg, counters: calls(agg, prefix)


def _total(prefix: str):
    return lambda agg, counters: total(agg, prefix)


def _self(prefix: str):
    return lambda agg, counters: self_time(agg, prefix)


def _assemble(agg: Calls, counters: Counters) -> float:
    """``generate_figures`` minus the executor runs it makes (the only
    executor runs of a workload that calls it)."""
    figures = total(agg, "experiments.figures:")
    if not figures:
        return 0.0
    return figures - total(agg, "experiments.executor:ExperimentExecutor.run")


#: (name, unit, better, value(per-pass aggregates, per-pass counters)).
PER_LAYER: List[Tuple[str, str, str, Callable[[Calls, Counters], float]]] = [
    ("sim.engine.events", "count", "lower", _counter("sim.engine.events")),
    ("sim.engine.self_s", "s", "lower", _self("sim.engine:")),
    ("phy.medium.transmissions", "count", "lower",
     _calls("phy.medium:Medium.start_transmission")),
    ("phy.medium.self_s", "s", "lower", _self("phy.medium:")),
    ("phy.sensing.calls", "count", "lower", _calls("phy.sensing:")),
    ("phy.sensing.self_s", "s", "lower", _self("phy.sensing:")),
    ("mac.dcf.edges", "count", "lower", _calls("mac.dcf:")),
    ("mac.dcf.self_s", "s", "lower", _self("mac.dcf:")),
    ("mac.backoff_timer.calls", "count", "lower", _calls("mac.backoff_timer:")),
    ("mac.backoff_timer.self_s", "s", "lower", _self("mac.backoff_timer:")),
    ("sim.rng.binomial_calls", "count", "lower", _calls("sim.rng:")),
    ("sim.rng.binomial_s", "s", "lower", _total("sim.rng:")),
    ("core.monitor.calls", "count", "lower", _calls("core.monitor:")),
    ("core.monitor.self_s", "s", "lower", _self("core.monitor:")),
    ("core.diagnosis.updates", "count", "lower", _calls("core.diagnosis:")),
    ("detect.observe_calls", "count", "lower", _calls("detect:")),
    ("detect.observe_s", "s", "lower", _total("detect:")),
    ("metrics.collector.calls", "count", "lower", _calls("metrics.collector:")),
    ("metrics.collector.self_s", "s", "lower", _self("metrics.collector:")),
    ("experiments.scenarios.builds", "count", "lower",
     _calls("experiments.scenarios:")),
    ("experiments.scenarios.build_s", "s", "lower",
     _total("experiments.scenarios:")),
    ("experiments.executor.self_s", "s", "lower",
     _self("experiments.executor:ExperimentExecutor.run")),
    ("experiments.executor.wait_s", "s", "lower",
     _total("experiments.executor:wait")),
    ("experiments.executor.runs", "count", "lower",
     _counter("experiments.executor.runs")),
    ("experiments.executor.retries", "count", "lower",
     _counter("experiments.executor.retries")),
    ("experiments.figures.assemble_s", "s", "lower", _assemble),
    ("campaign.journal.appends", "count", "lower",
     _calls("campaign.journal:JournalWriter.append")),
    ("campaign.journal.append_s", "s", "lower",
     _self("campaign.journal:JournalWriter.append")),
    ("campaign.journal.sync_s", "s", "lower", _total("campaign.journal:fsync")),
    ("campaign.journal.bytes", "bytes", "lower",
     _counter("campaign.journal.bytes")),
    ("campaign.orchestrator.self_s", "s", "lower",
     _self("campaign.orchestrator:run_campaign")),
    ("campaign.orchestrator.summary_writes", "count", "lower",
     _calls("campaign.orchestrator:write_summary")),
    ("campaign.orchestrator.summary_s", "s", "lower",
     _total("campaign.orchestrator:write_summary")),
    ("campaign.analysis.merge_s", "s", "lower",
     _total("campaign.analysis:merge_journals")),
    ("campaign.analysis.load_dataset_s", "s", "lower",
     _total("campaign.analysis:load_dataset")),
    ("campaign.analysis.figure_s", "s", "lower",
     _total("campaign.analysis:figure_from_dataset")),
    ("campaign.analysis.diagnostics_s", "s", "lower",
     _total("campaign.analysis:group_diagnostics")),
    ("campaign.analysis.skipped_records", "count", "lower",
     _counter("campaign.analysis.skipped_records")),
    ("service.codec.decode_calls", "count", "lower",
     _calls("service.codec:decode_record")),
    ("service.codec.decode_s", "s", "lower",
     _total("service.codec:decode_record")),
    ("service.codec.scan_fallbacks", "count", "lower",
     lambda agg, counters: agg.get("service.codec:sender_of_line#none", [0])[0]),
    ("service.store.observe_s", "s", "lower", _self("service.store:")),
    ("service.store.evictions", "count", "lower",
     _counter("service.store.evictions")),
    ("service.store.resident_ratio", "ratio", "higher",
     _counter("service.store.resident_ratio")),
    ("service.verdicts.publishes", "count", "lower", _calls("service.verdicts:")),
    ("service.verdicts.publish_s", "s", "lower", _total("service.verdicts:")),
    ("service.verdicts.watch_wakeups", "count", "lower",
     _counter("service.verdicts.watch_wakeups")),
    ("service.spool.appends", "count", "lower",
     _calls("service.spool:FlagSpool.append")),
    ("service.spool.append_s", "s", "lower",
     _self("service.spool:FlagSpool.append")),
    ("service.spool.sync_s", "s", "lower", _total("service.spool:fsync")),
    ("service.spool.records", "count", "lower",
     _counter("service.spool.records")),
    ("service.workers.route_s", "s", "lower",
     _self("service.workers:IngestWorkerPool.ingest_line")),
    ("service.workers.barrier_wait_s", "s", "lower",
     _total("service.workers:IngestWorkerPool.barrier")),
    ("service.workers.query_calls", "count", "lower",
     _calls("service.workers:IngestWorkerPool.api_verdicts")),
    ("service.workers.query_s", "s", "lower",
     _total("service.workers:IngestWorkerPool.api_verdicts")),
    ("service.workers.misroutes", "count", "lower",
     _counter("service.workers.misroutes")),
    ("service.workers.skew", "ratio", "lower", _counter("service.workers.skew")),
]

#: Tracing meta-metrics the runner adds (name, unit, better).
TRACE_META = [
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

#: Layers (label prefixes) that must record calls on each workload; a
#: zero there means a wrapper was bypassed (e.g. by a fused fast path).
BUSY = {
    "sim-grid": (
        "sim.engine:", "phy.medium:", "phy.sensing:", "mac.dcf:",
        "mac.backoff_timer:", "sim.rng:", "core.monitor:", "core.diagnosis:",
        "detect:", "metrics.collector:", "experiments.scenarios:",
        "experiments.executor:", "experiments.figures:",
    ),
    "campaign-shards": (
        "sim.engine:", "phy.medium:", "mac.dcf:", "mac.backoff_timer:",
        "core.monitor:", "core.diagnosis:", "detect:",
        "experiments.executor:ExperimentExecutor.run",
        "experiments.executor:wait", "campaign.journal:",
        "campaign.orchestrator:", "campaign.analysis:",
    ),
    "service-w1": (
        "service.codec:decode_record", "service.store:", "detect:",
        "service.verdicts:", "service.spool:",
    ),
    "service-w2": (
        "service.codec:sender_of_line", "service.workers:",
    ),
}


def per_layer(agg: Calls, counters: Counters) -> Dict[str, float]:
    return {name: float(value(agg, counters))
            for name, _, _, value in PER_LAYER}


def layer_table(agg: Calls) -> List[Tuple[str, float, float, float]]:
    """``(layer, calls, total_s, self_s)`` rows, busiest first."""
    rows: Dict[str, List[float]] = {}
    for label, stat in agg.items():
        if label.endswith("#none"):
            continue
        row = rows.setdefault(label.split(":", 1)[0], [0, 0.0, 0.0])
        for i in range(3):
            row[i] += stat[i]
    return sorted(((layer, *row) for layer, row in rows.items()),
                  key=lambda r: -r[3])


def idle_busy_layers(workload: str, agg: Calls) -> List[str]:
    return [prefix for prefix in BUSY.get(workload, ()) if calls(agg, prefix) == 0]
