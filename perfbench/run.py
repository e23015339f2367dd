"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 25 --trace 0

Run from a full checkout (the program is imported from ``src/``).  The
workload repeats in passes until ``--seconds`` is used up; every
end-to-end metric is the median over the run's passes.

* ``--trace 0`` prints the end-to-end metrics (see ``BENCHMARK.json``).
* ``--trace 1`` first times untraced passes, then installs the span
  tracer (``tracing.py``) and prints the per-layer metrics
  (``layers.py``) averaged per traced pass, plus the tracing overhead.

Every pass's outputs are checked (``workloads.py``); any mismatch makes
the run print ``"correct": false`` and exit 1.  A human-readable table
goes to stdout, the full record (same schema for both modes) to
``.perfbench_out/``, and the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import layers
import tracing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: Every run makes at least this many passes (a median needs several).
MIN_PASSES = 2
#: Fresh-interpreter set-up probes per run (``setup_s`` is their median).
SETUP_PROBES = 3
#: Share of ``--seconds`` a traced run spends on its untraced passes.
UNTRACED_SHARE = 1 / 3

#: Expected output signature per (workload, seed); see README.md.
PINS_PATH = HERE / "pins.json"

#: End-to-end metrics: (name, unit).  Names mirror BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
]

#: What ``work_per_s`` is on each workload.
WORK_NAMES = {
    "sim-grid": "events_per_s",
    "campaign-shards": "events_per_s",
    "service-w1": "obs_per_s",
    "service-w2": "obs_per_s",
}


def nearest_rank(sorted_values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a sorted sample."""
    return sorted_values[max(math.ceil(q * len(sorted_values)), 1) - 1]


def supported_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 0


def summary(values):
    """Median, quartiles and range of one metric over a run's passes."""
    ordered = sorted(values)
    quartiles = (statistics.quantiles(ordered, n=4) if len(ordered) > 1
                 else [ordered[0]] * 3)
    return {"median": statistics.median(ordered), "q1": quartiles[0],
            "q3": quartiles[2], "min": ordered[0], "max": ordered[-1],
            "n": len(ordered)}


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child's (KiB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_record(args) -> dict:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "seed": args.seed,
    }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class Pass:
    __slots__ = ("wall_s", "cpu_s", "outcome", "calls")

    def __init__(self, wall_s, cpu_s, outcome, calls):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.outcome = outcome
        self.calls = calls


def run_pass(workload, index: int, tracer) -> Pass:
    pass_dir = workload.workdir / f"pass{index}"
    pass_dir.mkdir(parents=True)
    try:
        workload.setup(pass_dir)
        work = workload.work
        if tracer is not None:
            tracer.reset()
            tracer.run_id = index
            work = tracer.wrap(work, "perfbench:work")
        children0 = children_cpu_s()
        cpu0 = time.process_time()
        start = time.perf_counter()
        work()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        calls = tracer.snapshot() if tracer is not None else None
        outcome = workload.finish()
        # Children are reaped by finish(), so their whole lifetime's CPU
        # (pool workers, ingest workers) lands in this difference.
        cpu += children_cpu_s() - children0
        if calls is not None:
            tracing.merge_calls(calls, outcome.child_calls)
        return Pass(wall, cpu, outcome, calls)
    finally:
        workload.close()
        shutil.rmtree(pass_dir, ignore_errors=True)


def run_passes(workload, seconds: float, first_index: int, tracer=None,
               min_passes: int = MIN_PASSES):
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(workload, first_index + len(passes), tracer))
        now = time.perf_counter()
        if (len(passes) >= min_passes
                and now - start + (now - pass_start) > seconds):
            return passes


def setup_probes(name: str, scratch: pathlib.Path) -> list:
    values = []
    for index in range(SETUP_PROBES):
        probe_dir = scratch / f"probe{index}"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), name, str(probe_dir)],
                capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return values


# ----------------------------------------------------------------------
# Checks across passes
# ----------------------------------------------------------------------
def check_signatures(name: str, seed: int, passes) -> list:
    signatures = {p.outcome.signature for p in passes}
    problems = []
    if len(signatures) != 1:
        problems.append(f"outputs differ between passes: {sorted(signatures)}")
    pinned = json.loads(PINS_PATH.read_text()).get(name, {}).get(str(seed))
    if pinned is not None and pinned not in signatures:
        problems.append(f"signature {sorted(signatures)} != pinned {pinned} "
                        f"for seed {seed}")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(passes, setup_values, peak_mb: float) -> dict:
    per_pass = {
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "work_per_s": [p.outcome.units / p.wall_s for p in passes],
        "setup_s": setup_values,
        "peak_rss_mb": [peak_mb],
    }
    return {name: dict(summary(per_pass[name]), unit=unit)
            for name, unit in END_TO_END}


def flag_lag(passes) -> dict:
    """Flag-lag percentiles over every pass's flags (service only).

    Reported, not gated: on service-w1 the watcher either catches the
    GIL while the feeder is in the spool's write (well under 1 ms) or
    waits for the interpreter's 5 ms switch interval, and the share of
    each mode moves with host load from run to run.
    """
    lags = sorted(lag for p in passes for lag in p.outcome.lags_ms)
    if not lags:
        return {}
    top = supported_percentile(len(lags))
    return {
        "flag_lag_p50_ms": nearest_rank(lags, 0.5),
        "flag_lag_p90_ms": nearest_rank(lags, 0.9),
        f"flag_lag_p{top}_ms": nearest_rank(lags, top / 100),
        "flags": len(lags),
    }


def per_layer_metrics(untraced, traced, spans_kept: int):
    """Per-layer metrics averaged per traced pass, plus the overhead."""
    count = len(traced)
    mean_calls = {}
    counters = {}
    for p in traced:
        for label, stat in p.calls.items():
            acc = mean_calls.setdefault(label, [0.0, 0.0, 0.0])
            for i in range(3):
                acc[i] += stat[i] / count
        for key, value in p.outcome.counters.items():
            counters[key] = counters.get(key, 0.0) + value / count
    values = layers.per_layer(mean_calls, counters)
    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead": traced_wall / untraced_wall,
        "trace.unattributed_s": mean_calls.get(layers.ROOT, [0, 0.0, 0.0])[2],
        "trace.spans": float(spans_kept),
    })
    units = {n: u for n, u, _, _ in layers.PER_LAYER}
    units.update({n: u for n, u, _ in layers.TRACE_META})
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}, mean_calls


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_end_to_end(name, metrics, lag, passes, attempted, failed) -> None:
    print(f"workload {name}: {len(passes)} passes "
          f"(end-to-end metrics are medians over passes)")
    for metric, unit in END_TO_END:
        m = metrics[metric]
        note = ""
        if metric == "work_per_s":
            note = f"= {WORK_NAMES[name]}"
        elif metric == "setup_s":
            note = f"median of {SETUP_PROBES} fresh-interpreter probes"
        print(f"  {metric:<15} {m['median']:>14.6g} {unit:<4} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}] {note}")
    frac = failed / attempted if attempted else 0.0
    print(f"  {'failed_frac':<15} {frac:>14.6g} ratio ({failed}/{attempted})")
    for metric, value in lag.items():
        if metric != "flags":
            print(f"  {metric:<15} {value:>14.6g} ms   (n={lag['flags']} "
                  f"flags pooled over passes; not gated)")


def print_layers(metrics, mean_calls, untraced, traced) -> None:
    print(f"per-layer metrics, mean per traced pass "
          f"({len(traced)} traced, {len(untraced)} untraced passes)")
    print(f"  {'layer':<24} {'calls':>12} {'total_s':>10} {'self_s':>10}")
    for layer, n, total_s, self_s in layers.layer_table(mean_calls):
        print(f"  {layer:<24} {n:>12.0f} {total_s:>10.4f} {self_s:>10.4f}")
    accounted = sum(stat[2] for stat in mean_calls.values())
    wall = mean_calls.get(layers.ROOT, [0, 0.0, 0.0])[1]
    print(f"  sum of self times {accounted:.4f} s; traced work span "
          f"{wall:.4f} s (includes pool-worker time on campaign-shards; "
          f"the watcher thread on service-*)")
    for metric, m in metrics.items():
        print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")


def write_spans(path: pathlib.Path, tracer) -> None:
    with path.open("w") as out:
        for span_id, label, start, end, parent, run_id in tracer.spans:
            out.write(json.dumps({"id": span_id, "name": label, "start": start,
                                  "end": end, "parent": parent,
                                  "run": run_id}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    # The workloads define their own configuration; no REPRO_* knob from
    # the caller's environment may change it (children inherit this).
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = WORK_DIR / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    record = {
        "schema": 1, "workload": args.workload, "trace": args.trace,
        "run_seconds": args.seconds, "host": host_record(args),
    }
    problems = []
    passes = []
    metrics = {}
    try:
        try:
            workload.prepare()
            record["inputs"] = workload.inputs()
            if args.trace:
                untraced = run_passes(workload, args.seconds * UNTRACED_SHARE,
                                      0, min_passes=1)
                tracer = tracing.Tracer()
                tracing.install(tracer)
                traced = run_passes(
                    workload, args.seconds * (1 - UNTRACED_SHARE),
                    len(untraced), tracer=tracer, min_passes=1,
                )
                passes = untraced + traced
            else:
                passes = run_passes(workload, args.seconds, 0)
        except workloads.CheckFailed as exc:
            problems.append(str(exc))
        if passes:
            problems += check_signatures(args.workload, args.seed, passes)
        if passes and args.trace:
            metrics, mean_calls = per_layer_metrics(untraced, traced,
                                                    len(tracer.spans))
            idle = layers.idle_busy_layers(args.workload, mean_calls)
            if idle:
                problems.append(f"busy layer(s) recorded no calls: {idle}")
            spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
            write_spans(spans_path, tracer)
            record.update(layers=layers.layer_table(mean_calls),
                          spans_file=spans_path.name,
                          spans_dropped=tracer.spans_dropped)
            print_layers(metrics, mean_calls, untraced, traced)
        elif passes:
            # Sampled before the set-up probes, whose processes are not
            # the workload's.
            peak_mb = peak_rss_mb()
            metrics = end_to_end(passes, setup_probes(args.workload, scratch),
                                 peak_mb)
            record["flag_lag"] = flag_lag(passes)
            record["passes"] = [
                {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "units": p.outcome.units,
                 "lag_samples": len(p.outcome.lags_ms)} for p in passes
            ]
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    if passes and not args.trace:
        print_end_to_end(args.workload, metrics, record["flag_lag"], passes,
                         attempted, failed)
    record.update(attempted=attempted, failed=failed, metrics=metrics,
                  signature=passes[0].outcome.signature if passes else None)
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    record["problems"] = problems
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": m["median"] if "median" in m else m["value"],
                   "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
